(* Figure 12, lower half: the LFS small-file and large-file benchmarks
   on HiStar and the comparison kernels, over identical simulated
   disks. Counts are scaled down from the paper's 10,000 files /
   100 MB; every reported figure is also extrapolated back to the
   paper's size so shapes can be compared directly. *)

open Harness
module Unixsim = Histar_baseline.Unixsim

type sizes = { files : int; large_mb : int; rand_writes : int }

let full = { files = 800; large_mb = 24; rand_writes = 400 }
let quick = { files = 200; large_mb = 8; rand_writes = 100 }
let paper_files = 10_000
let paper_large_mb = 100
let paper_rand_writes = 12_800

let scale paper n v = v *. (float_of_int paper /. float_of_int n)

type small_results = {
  create_async : float;
  create_sync : float;
  create_group : float;
  read_cached : float;
  read_uncached : float option;
  unlink_async : float;
  unlink_sync : float;
  unlink_group : float option;
}

(* ---------- HiStar ----------

   One machine per phase-variant so WAL/state does not leak between
   measurements; creates run the runner's workload. *)

let histar_create ~mode ~files = s_of_ns (Runner.lfs_create ~mode ~files).ns

let histar_read ~cached ~files =
  let m = mk_machine () in
  boot m (fun fs _proc ->
      ignore (Fs.mkdir fs "/lfs");
      let oids = ref [] in
      for i = 0 to files - 1 do
        let p = Runner.lfs_path i in
        Fs.write_file fs p Runner.lfs_content;
        match Fs.lookup fs p with
        | Some n -> oids := n.Fs.oid :: !oids
        | None -> ()
      done;
      if cached then
        let (), ns =
          timed m.clock (fun () ->
              for i = 0 to files - 1 do
                ignore (Fs.read_file fs (Runner.lfs_path i))
              done)
        in
        s_of_ns ns
      else begin
        (* uncached: force everything to disk, drop the store's cache,
           then read each object image back from its home location (the
           kernel's in-memory copy plays the role of the page cache, so
           we measure the store's disk path directly) *)
        Sys.sync_all ();
        Store.drop_clean_cache m.store;
        let (), ns =
          timed m.clock (fun () ->
              List.iter
                (fun oid -> ignore (Store.get m.store ~oid))
                (List.rev !oids))
        in
        s_of_ns ns
      end)

let histar_unlink ~mode ~files =
  let m = mk_machine () in
  boot m (fun fs _proc ->
      ignore (Fs.mkdir fs "/lfs");
      for i = 0 to files - 1 do
        Fs.write_file fs (Runner.lfs_path i) Runner.lfs_content
      done;
      Sys.sync_all ();
      let (), ns =
        timed m.clock (fun () ->
            for i = 0 to files - 1 do
              Fs.unlink fs (Runner.lfs_path i);
              match mode with
              | `Async -> ()
              | `Sync ->
                  (* §7.1: directory fsync checkpoints the whole system *)
                  Fs.fsync_dir fs "/lfs"
              | `Group -> ()
            done;
            match mode with
            | `Group -> Sys.sync_all ()
            | `Async | `Sync -> ())
      in
      s_of_ns ns)

let histar_small ~files =
  {
    create_async = histar_create ~mode:`Async ~files;
    create_sync = histar_create ~mode:`Sync ~files;
    create_group = histar_create ~mode:`Group ~files;
    read_cached = histar_read ~cached:true ~files;
    read_uncached = Some (histar_read ~cached:false ~files);
    unlink_async = histar_unlink ~mode:`Async ~files;
    unlink_sync = histar_unlink ~mode:`Sync ~files;
    unlink_group = Some (histar_unlink ~mode:`Group ~files);
  }

(* ---------- baselines ---------- *)

let baseline_small flavor ~files =
  let fresh () =
    let clock = Clock.create () in
    let disk = Disk.create ~clock () in
    (clock, Unixsim.create flavor ~disk ~clock ())
  in
  let create ~sync =
    let clock, u = fresh () in
    let (), ns =
      timed clock (fun () ->
          for i = 0 to files - 1 do
            let p = Runner.lfs_path i in
            Unixsim.creat u ~uid:1 ~mode:0o644 p;
            Unixsim.write u ~uid:1 p Runner.lfs_content;
            if sync then Unixsim.fsync u p
          done)
    in
    s_of_ns ns
  in
  let read ~cached =
    let clock, u = fresh () in
    for i = 0 to files - 1 do
      let p = Runner.lfs_path i in
      Unixsim.creat u ~uid:1 ~mode:0o644 p;
      Unixsim.write u ~uid:1 p Runner.lfs_content
    done;
    Unixsim.sync_all u;
    if not cached then Unixsim.drop_caches u;
    let (), ns =
      timed clock (fun () ->
          for i = 0 to files - 1 do
            ignore (Unixsim.read u ~uid:1 (Runner.lfs_path i))
          done)
    in
    s_of_ns ns
  in
  let unlink ~sync =
    let clock, u = fresh () in
    for i = 0 to files - 1 do
      let p = Runner.lfs_path i in
      Unixsim.creat u ~uid:1 ~mode:0o644 p;
      Unixsim.write u ~uid:1 p Runner.lfs_content
    done;
    Unixsim.sync_all u;
    let (), ns =
      timed clock (fun () ->
          for i = 0 to files - 1 do
            Unixsim.unlink u ~uid:1 (Runner.lfs_path i);
            if sync then Unixsim.fsync_dir u "/lfs"
          done)
    in
    s_of_ns ns
  in
  let on_disk = flavor = Unixsim.Linux in
  {
    create_async = create ~sync:false;
    create_sync = (if on_disk then create ~sync:true else nan);
    create_group = nan;
    read_cached = read ~cached:true;
    read_uncached = (if on_disk then Some (read ~cached:false) else None);
    unlink_async = unlink ~sync:false;
    unlink_sync = (if on_disk then unlink ~sync:true else nan);
    unlink_group = None;
  }

(* ---------- large file ---------- *)

(* The runner's prefill and random-write phases, then an uncached
   sequential read through the store. *)
let histar_large ~large_mb ~rand_writes =
  let m = mk_machine () in
  boot m (fun fs proc ->
      let seq = Runner.large_file_prefill m fs proc ~mb:large_mb in
      Sys.sync_all ();
      let rand =
        Runner.large_file_writes m fs proc ~mb:large_mb ~writes:rand_writes
      in
      Sys.sync_all ();
      Store.drop_clean_cache m.store;
      let oid =
        match Fs.lookup fs "/big/file" with
        | Some n -> n.Fs.oid
        | None -> failwith "lost the big file"
      in
      let (), read_ns =
        timed m.clock (fun () -> ignore (Store.get m.store ~oid))
      in
      (s_of_ns seq.ns, s_of_ns rand.ns, s_of_ns read_ns))

let baseline_large flavor ~large_mb ~rand_writes =
  let clock = Clock.create () in
  let disk = Disk.create ~clock () in
  let u = Unixsim.create flavor ~disk ~clock () in
  let bytes = large_mb * 1024 * 1024 in
  Unixsim.creat u ~uid:1 ~mode:0o644 "/big";
  let (), seq_ns =
    timed clock (fun () ->
        (* data accumulates in cache; fsync writes it out once *)
        Unixsim.write u ~uid:1 "/big" (String.make bytes 'L');
        Unixsim.fsync u "/big")
  in
  let (), rand_ns =
    timed clock (fun () ->
        for _ = 1 to rand_writes do
          Unixsim.sync_write_pages u "/big" ~pages:2
        done)
  in
  Unixsim.drop_caches u;
  let (), read_ns =
    timed clock (fun () -> ignore (Unixsim.read u ~uid:1 "/big"))
  in
  (s_of_ns seq_ns, s_of_ns rand_ns, s_of_ns read_ns)

(* ---------- printing ---------- *)

let run { files; large_mb; rand_writes } =
  let p_small name get hi li bi ~paper_note =
    let cell r =
      match get r with
      | None -> na
      | Some v when Float.is_nan v -> na
      | Some v -> Printf.sprintf "%.2f s" (scale paper_files files v)
    in
    row4 name (cell hi) (cell li) (cell bi);
    paper paper_note
  in
  header
    (Printf.sprintf
       "Figure 12 (lower): LFS small-file benchmark (%d files, scaled to %d)"
       files paper_files);
  let hi = histar_small ~files in
  let li = baseline_small Unixsim.Linux ~files in
  let bi = baseline_small Unixsim.Openbsd ~files in
  row4 "Phase (times scaled to 10k files)" "HiStar" "Linux" "OpenBSD";
  p_small "create, async" (fun r -> Some r.create_async) hi li bi
    ~paper_note:"0.31 s / 0.316 s / 0.22 s";
  p_small "create, per-file sync" (fun r -> Some r.create_sync) hi li bi
    ~paper_note:"459 s / 558 s / —";
  p_small "create, group sync" (fun r -> Some r.create_group) hi li bi
    ~paper_note:"2.57 s / — / —";
  p_small "read, cached" (fun r -> Some r.read_cached) hi li bi
    ~paper_note:"0.16 s / 0.068 s / 0.14 s";
  p_small "read, uncached (no prefetch)" (fun r -> r.read_uncached) hi li bi
    ~paper_note:"86.4 s / 86.6 s / — (no-lookahead row)";
  p_small "unlink, async" (fun r -> Some r.unlink_async) hi li bi
    ~paper_note:"0.090 s / 0.244 s / 0.068 s";
  p_small "unlink, per-file sync" (fun r -> Some r.unlink_sync) hi li bi
    ~paper_note:"456 s / 173 s / —";
  p_small "unlink, group sync" (fun r -> r.unlink_group) hi li bi
    ~paper_note:"0.38 s / — / —";
  header
    (Printf.sprintf
       "Figure 12 (lower): LFS large-file benchmark (%d MB, scaled to 100 MB)"
       large_mb);
  let h_seq, h_rand, h_read = histar_large ~large_mb ~rand_writes in
  let l_seq, l_rand, l_read =
    baseline_large Unixsim.Linux ~large_mb ~rand_writes
  in
  let scale_large = scale paper_large_mb large_mb in
  let scale_rand = scale paper_rand_writes rand_writes in
  row4 "Phase" "HiStar" "Linux" "OpenBSD";
  row4 "sequential write + fsync"
    (fmt_time_s (scale_large h_seq))
    (fmt_time_s (scale_large l_seq))
    na;
  paper "2.14 s / 3.88 s / —";
  row4
    (Printf.sprintf "sync random writes (scaled to %d)" paper_rand_writes)
    (fmt_time_s (scale_rand h_rand))
    (fmt_time_s (scale_rand l_rand))
    na;
  paper "93.0 s / 89.7 s / —";
  row4 "uncached sequential read"
    (fmt_time_s (scale_large h_read))
    (fmt_time_s (scale_large l_read))
    na;
  paper "1.96 s / 1.80 s / —"
