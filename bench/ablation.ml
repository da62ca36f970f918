(* Ablations of the design choices the paper calls out:

   1. §7.1 credits HiStar's acceptable fsync performance to queuing
      synchronous updates in the write-ahead log and applying them in
      batches ("about once every 1,000 synchronous operations"). We
      sweep the apply threshold: at 1 every fsync degenerates into a
      whole-system checkpoint; at the paper's 1,000 the log absorbs
      nearly everything.

   2. §4 says the kernel "caches the result of comparisons between
      immutable labels". We count the decisions an fs churn workload
      serves from the cache ([label.elided]) and computes
      ([label.cache_misses]).

   3. The disk write barrier is what makes per-file sync expensive; we
      sweep its cost (half-rotation at 7,200/15,000 RPM and an
      NVMe-like near-zero) to show the sync/async gap is a rotational
      artifact, not a HiStar artifact. *)

open Harness
module Metrics = Histar_metrics.Metrics

let files = 300

let per_file_sync_time ~apply_threshold ~params =
  let clock = Clock.create () in
  let disk = Disk.create ?params ~clock () in
  let store = Store.format ~disk ~wal_sectors:262_144 ~apply_threshold () in
  let kernel = Kernel.create ~clock ~store ~syscall_cost_ns:120 () in
  let m = { kernel; clock; disk; store } in
  boot m (fun fs _proc ->
      ignore (Fs.mkdir fs "/lfs");
      let (), ns =
        timed m.clock (fun () ->
            for i = 0 to files - 1 do
              let p = Printf.sprintf "/lfs/f%04d" i in
              Fs.write_file fs p (String.make 1024 'd');
              Fs.fsync fs p
            done)
      in
      s_of_ns ns)

let run () =
  header "Ablation 1: write-ahead-log apply threshold (§7.1 batching)";
  Printf.printf "%-44s %14s\n"
    (Printf.sprintf "per-file sync of %d files, threshold =" files)
    "simulated time";
  List.iter
    (fun threshold ->
      let s = per_file_sync_time ~apply_threshold:threshold ~params:None in
      Printf.printf "%-44d %12.2f s\n" threshold s)
    [ 1; 10; 100; 1000 ];
  print_endline
    "(threshold 1 = checkpoint per fsync; 1000 = the paper's setting)";
  header "Ablation 2: label-comparison cache (§4 'caches the result')";
  (let counts () =
     (Metrics.counter_value "label.elided",
      Metrics.counter_value "label.cache_misses")
   in
   let hits, misses =
     Metrics.with_enabled true (fun () ->
         let h0, m0 = counts () in
         let clock = Clock.create () in
         let disk = Disk.create ~clock () in
         let store = Store.format ~disk ~wal_sectors:65_536 () in
         let kernel = Kernel.create ~clock ~store ~syscall_cost_ns:120 () in
         let m = { kernel; clock; disk; store } in
         boot m (fun fs _proc ->
             ignore (Fs.mkdir fs "/churn");
             for i = 0 to 199 do
               let p = Printf.sprintf "/churn/f%d" (i mod 20) in
               Fs.write_file fs p "x";
               ignore (Fs.read_file fs p)
             done);
         let h1, m1 = counts () in
         (h1 - h0, m1 - m0))
   in
   Printf.printf "fs churn workload: %d hits, %d misses (%.1f%% hit rate)\n"
     hits misses
     (100.0 *. float_of_int hits /. float_of_int (max 1 (hits + misses))));
  header "Ablation 3: barrier cost (the sync gap is rotational)";
  let sweep name rotation_us =
    let params =
      Some { Disk.default_params with Disk.rotation_us }
    in
    let s = per_file_sync_time ~apply_threshold:1000 ~params in
    Printf.printf "%-44s %12.2f s\n" name s
  in
  sweep "7,200 RPM (the paper's drive)" 8_333.0;
  sweep "15,000 RPM" 4_000.0;
  sweep "NVMe-like (no rotation)" 10.0
