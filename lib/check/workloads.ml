module Rng = Histar_util.Rng
module Sim_clock = Histar_util.Sim_clock
module Disk = Histar_disk.Disk
module Wal = Histar_wal.Wal
module Store = Histar_store.Store
module Kernel = Histar_core.Kernel
module Sys = Histar_core.Sys
module Types = Histar_core.Types
module Fs = Histar_unix.Fs
module Process = Histar_unix.Process
module Label = Histar_label.Label
module Level = Histar_label.Level

let fresh_disk () =
  let clock = Sim_clock.create () in
  (clock, Disk.create ~clock ())

(* ---------- raw WAL: prefix durability ---------- *)

let rec is_prefix xs ys =
  match (xs, ys) with
  | [], _ -> true
  | _, [] -> false
  | x :: xs, y :: ys -> String.equal x y && is_prefix xs ys

let wal () =
  let wal_start = 1 and wal_sectors = 1024 and commits = 14 in
  let mk seed =
    let _clock, disk = fresh_disk () in
    let formatted = ref false in
    let committed = ref [] in
    let inflight = ref [] in
    let in_truncate = ref false in
    let run () =
      let rng = Rng.create seed in
      let wal = Wal.format ~disk ~start:wal_start ~sectors:wal_sectors in
      formatted := true;
      for _ = 1 to commits do
        if Rng.int rng 6 = 0 && !committed <> [] then begin
          in_truncate := true;
          Wal.truncate wal;
          committed := [];
          in_truncate := false
        end
        else begin
          let n = 1 + Rng.int rng 4 in
          let payloads =
            List.init n (fun _ -> Rng.bytes rng (1 + Rng.int rng 900))
          in
          List.iter (Wal.append wal) payloads;
          inflight := payloads;
          Wal.commit wal;
          committed := !committed @ payloads;
          inflight := []
        end
      done
    in
    let check ~crashed:_ disk =
      match Wal.recover ~disk ~start:wal_start ~sectors:wal_sectors with
      | exception e ->
          (* Before the format superblock landed, there is nothing to
             recover; afterwards recovery must always succeed. *)
          if !formatted then
            failwith ("WAL recovery failed: " ^ Printexc.to_string e)
      | wal', recovered ->
          Wal.check_invariants wal';
          let full = !committed @ !inflight in
          let ok =
            (is_prefix !committed recovered && is_prefix recovered full)
            || (!in_truncate && recovered = [])
          in
          if not ok then
            failwith
              (Printf.sprintf
                 "WAL prefix durability violated: %d committed, %d in \
                  flight, %d recovered%s"
                 (List.length !committed)
                 (List.length !inflight)
                 (List.length recovered)
                 (if !in_truncate then " (truncate in flight)" else ""))
    in
    (* Model capture for fork-based sweeping: plain value reads, so the
       returned thunk rewinds the model to this instant. *)
    let snapshot () =
      let f = !formatted
      and c = !committed
      and i = !inflight
      and t = !in_truncate in
      fun () ->
        formatted := f;
        committed := c;
        inflight := i;
        in_truncate := t
    in
    { Crash_sweep.disk; run; check; snapshot }
  in
  { Crash_sweep.name = "wal"; mk }

(* ---------- store: version-history model ---------- *)

(* Per-object version history: index 0 is "never existed" (None);
   [floor] is the newest version guaranteed durable by a completed
   barrier (sync or checkpoint). Recovery must yield some version at
   index >= floor — older means a lost write (e.g. skipped WAL replay),
   and a value outside the history altogether means corruption. *)

let describe = function
  | None -> "<absent>"
  | Some v ->
      if String.length v <= 24 then Printf.sprintf "%S" v
      else Printf.sprintf "%S... (%d bytes)" (String.sub v 0 24) (String.length v)

let validate_versions ~what ~history ~floor ~get =
  Array.iteri
    (fun i hist ->
      let got = get i in
      let allowed = List.filteri (fun j _ -> j >= floor.(i)) hist in
      if not (List.mem got allowed) then
        failwith
          (Printf.sprintf
             "%s %d: recovered %s is not a version >= durability floor %d \
              (history has %d versions)"
             what i (describe got) floor.(i) (List.length hist)))
    history

let store ?(nops = 45) () =
  let noids = 6 in
  let oid_of i = 100 + i in
  let mk seed =
    let _clock, disk = fresh_disk () in
    let formatted = ref false in
    let history = Array.make noids [ None ] in
    let floor = Array.make noids 0 in
    let cur i = List.length history.(i) - 1 in
    let push i v = history.(i) <- history.(i) @ [ v ] in
    let run () =
      let rng = Rng.create seed in
      let s =
        Store.format ~disk ~wal_sectors:512 ~apply_threshold:8 ()
      in
      formatted := true;
      for _ = 1 to nops do
        let i = Rng.int rng noids in
        match Rng.int rng 12 with
        | 0 | 1 | 2 | 3 | 4 ->
            let v =
              Printf.sprintf "o%d.%d." i (cur i + 1)
              ^ Rng.bytes rng (Rng.int rng 700)
            in
            Store.put s ~oid:(oid_of i) v;
            push i (Some v)
        | 5 ->
            Store.delete s ~oid:(oid_of i);
            push i None
        | 6 | 7 | 8 ->
            Store.sync_oid s ~oid:(oid_of i);
            floor.(i) <- cur i
        | 9 ->
            (* group sync: the one-barrier fsync path *)
            let n = 1 + Rng.int rng 3 in
            let js =
              List.sort_uniq Int.compare
                (List.init n (fun _ -> Rng.int rng noids))
            in
            Store.sync_oids s ~oids:(List.map oid_of js);
            List.iter (fun j -> floor.(j) <- cur j) js
        | _ ->
            Store.checkpoint s;
            for j = 0 to noids - 1 do
              floor.(j) <- cur j
            done
      done
    in
    let check ~crashed:_ disk =
      match Store.recover ~disk with
      | exception e ->
          if !formatted then
            failwith ("store recovery failed: " ^ Printexc.to_string e)
      | s ->
          Store.fsck s;
          validate_versions ~what:"oid" ~history ~floor ~get:(fun i ->
              Store.get s ~oid:(oid_of i))
    in
    let snapshot () =
      let f = !formatted
      and h = Array.copy history
      and fl = Array.copy floor in
      fun () ->
        formatted := f;
        Array.blit h 0 history 0 (Array.length h);
        Array.blit fl 0 floor 0 (Array.length fl)
    in
    { Crash_sweep.disk; run; check; snapshot }
  in
  { Crash_sweep.name = "store"; mk }

(* ---------- unixlib fs over a full kernel ---------- *)

let fs ?(nops = 24) () =
  let paths = [| "/d0/a"; "/d0/b"; "/d1/a"; "/d1/b"; "/top0"; "/top1" |] in
  let npaths = Array.length paths in
  let l1 = Label.make Level.L1 in
  let mk seed =
    let clock, disk = fresh_disk () in
    let formatted = ref false in
    let base_synced = ref false in
    let history = Array.make npaths [ None ] in
    let floor = Array.make npaths 0 in
    let cur i = List.length history.(i) - 1 in
    let cur_val i = List.nth history.(i) (cur i) in
    let push i v = history.(i) <- history.(i) @ [ v ] in
    let run () =
      let rng = Rng.create seed in
      let store = Store.format ~disk ~wal_sectors:1024 ~apply_threshold:16 () in
      formatted := true;
      let kernel = Kernel.create ~clock ~store () in
      let _tid =
        Kernel.spawn kernel ~name:"init" (fun () ->
            let fs =
              Fs.format_root ~container:(Kernel.root kernel) ~label:l1
            in
            ignore (Fs.mkdir fs "/d0");
            ignore (Fs.mkdir fs "/d1");
            Sys.sync_all ();
            base_synced := true;
            for _ = 1 to nops do
              let i = Rng.int rng npaths in
              let path = paths.(i) in
              match Rng.int rng 10 with
              | 0 | 1 | 2 ->
                  let v =
                    Printf.sprintf "%s#%d#" path (cur i + 1)
                    ^ Rng.bytes rng (Rng.int rng 600)
                  in
                  Fs.write_file fs path v;
                  push i (Some v)
              | 3 -> (
                  let suffix = Rng.bytes rng (1 + Rng.int rng 200) in
                  match cur_val i with
                  | Some v ->
                      Fs.append_file fs path suffix;
                      push i (Some (v ^ suffix))
                  | None ->
                      Fs.write_file fs path suffix;
                      push i (Some suffix))
              | 4 ->
                  if cur_val i <> None then begin
                    Fs.unlink fs path;
                    push i None
                  end
              | 5 | 6 ->
                  (* fsync: file + its directory metadata become
                     durable (the directory chain above is durable
                     since the base sync_all). *)
                  if cur_val i <> None then begin
                    Fs.fsync fs path;
                    floor.(i) <- cur i
                  end
              | _ ->
                  Sys.sync_all ();
                  for j = 0 to npaths - 1 do
                    floor.(j) <- cur j
                  done
            done)
      in
      Kernel.run kernel
    in
    let check ~crashed:_ disk =
      let recovered = Array.make npaths None in
      (match Store.recover ~disk with
      | exception e ->
          if !formatted then
            failwith ("store recovery failed: " ^ Printexc.to_string e)
      | s -> (
          Store.fsck s;
          if Store.object_count s = 0 then begin
            if !base_synced then failwith "empty store after base sync_all"
          end
          else
            match Kernel.recover ~store:s with
            | exception e ->
                if !base_synced then
                  failwith ("kernel recovery failed: " ^ Printexc.to_string e)
            | k ->
                let found = ref None in
                let _tid =
                  Kernel.spawn k ~name:"fsck" (fun () ->
                      let kids =
                        Option.value ~default:[]
                          (Kernel.container_children k (Kernel.root k))
                      in
                      List.iter
                        (fun (oid, kind) ->
                          if kind = Types.Container then
                            match Sys.obj_descrip (Types.self_entry oid) with
                            | "/" -> found := Some oid
                            | _ -> ()
                            | exception _ -> ())
                        kids;
                      match !found with
                      | None -> ()
                      | Some root ->
                          let fs = Fs.make ~root in
                          Array.iteri
                            (fun i path ->
                              match Fs.read_file fs path with
                              | v -> recovered.(i) <- Some v
                              | exception _ -> ())
                            paths)
                in
                Kernel.run k;
                if !found = None && !base_synced then
                  failwith "root directory lost after base sync_all"));
      validate_versions ~what:"path" ~history ~floor ~get:(fun i ->
          recovered.(i))
    in
    let snapshot () =
      let f = !formatted
      and b = !base_synced
      and h = Array.copy history
      and fl = Array.copy floor in
      fun () ->
        formatted := f;
        base_synced := b;
        Array.blit h 0 history 0 (Array.length h);
        Array.blit fl 0 floor 0 (Array.length fl)
    in
    { Crash_sweep.disk; run; check; snapshot }
  in
  { Crash_sweep.name = "fs"; mk }

(* ---------- in-place range flushes over a full kernel ---------- *)

(* One multi-sector file under unaligned writes, fsync_range flushes,
   whole-file fsyncs and an occasional sync_all. The model keeps each
   byte's version history and the version the newest completed flush
   covering it acknowledged; recovery must return that version or a
   newer one at every byte. A crash inside an in-place flush may leave
   its sectors part old, part new: every such byte is still a version
   at or above its floor. *)
let fsync_range ?(nops = 40) () =
  let file_bytes = 6000 in
  let path = "/f" in
  let l1 = Label.make Level.L1 in
  let mk seed =
    let clock, disk = fresh_disk () in
    let formatted = ref false in
    let base_synced = ref false in
    let oid = ref None in
    let versions = Array.make file_bytes [] in (* newest first *)
    let count = Array.make file_bytes 0 in
    let floor = Array.make file_bytes 0 in (* index of the acked version *)
    let write b c =
      versions.(b) <- c :: versions.(b);
      count.(b) <- count.(b) + 1
    in
    let ack lo hi =
      for b = lo to hi - 1 do
        floor.(b) <- count.(b) - 1
      done
    in
    let run () =
      let rng = Rng.create seed in
      let store = Store.format ~disk ~wal_sectors:1024 ~apply_threshold:16 () in
      formatted := true;
      let kernel = Kernel.create ~clock ~store () in
      let _tid =
        Kernel.spawn kernel ~name:"init" (fun () ->
            let fs = Fs.format_root ~container:(Kernel.root kernel) ~label:l1 in
            let proc =
              Process.boot ~fs ~container:(Kernel.root kernel) ~name:"init" ()
            in
            ignore (Fs.create fs path);
            oid := Option.map (fun n -> n.Fs.oid) (Fs.lookup fs path);
            Fs.reserve fs path file_bytes;
            let fd = Process.open_file proc path in
            let write_at off data =
              Process.seek proc fd off;
              ignore (Process.write proc fd data);
              String.iteri (fun i c -> write (off + i) c) data
            in
            write_at 0 (Rng.bytes rng file_bytes);
            Fs.fsync fs path;
            Sys.sync_all ();
            base_synced := true;
            for _ = 1 to nops do
              match Rng.int rng 20 with
              | 0 | 1 | 2 | 3 | 4 | 5 | 6 | 7 | 8 | 9 | 10 | 11 | 12 ->
                  (* an unaligned write, most often flushed right away *)
                  let off = Rng.int rng file_bytes in
                  let len = 1 + Rng.int rng (min 700 (file_bytes - off)) in
                  write_at off (Rng.bytes rng len);
                  if Rng.int rng 3 > 0 then begin
                    Fs.fsync_range fs path ~off ~len;
                    ack off (off + len)
                  end
              | 13 | 14 | 15 ->
                  let off = Rng.int rng file_bytes in
                  let len = 1 + Rng.int rng 1500 in
                  Fs.fsync_range fs path ~off ~len;
                  ack off (min file_bytes (off + len))
              | 16 | 17 ->
                  Fs.fsync fs path;
                  ack 0 file_bytes
              | _ ->
                  Sys.sync_all ();
                  ack 0 file_bytes
            done)
      in
      Kernel.run kernel
    in
    let acked_or_newer b c =
      let rec go k = function
        | [] -> false
        | v :: older -> k > 0 && (Char.equal v c || go (k - 1) older)
      in
      go (count.(b) - floor.(b)) versions.(b)
    in
    let check ~crashed:_ disk =
      match Store.recover ~disk with
      | exception e ->
          if !formatted then
            failwith ("store recovery failed: " ^ Printexc.to_string e)
      | s -> (
          Store.fsck s;
          match Kernel.recover ~store:s with
          | exception e ->
              if !base_synced then
                failwith ("kernel recovery failed: " ^ Printexc.to_string e)
          | k -> (
              if !base_synced then
                match Option.bind !oid (Kernel.segment_data k) with
                | None -> failwith "file lost after base sync_all"
                | Some data ->
                    if String.length data <> file_bytes then
                      failwith
                        (Printf.sprintf "file recovered with %d bytes, want %d"
                           (String.length data) file_bytes);
                    String.iteri
                      (fun b c ->
                        if not (acked_or_newer b c) then
                          failwith
                            (Printf.sprintf
                               "byte %d: recovered %C is older than its \
                                acknowledged version"
                               b c))
                      data))
    in
    let snapshot () =
      let f = !formatted
      and bs = !base_synced
      and o = !oid
      and v = Array.copy versions
      and c = Array.copy count
      and fl = Array.copy floor in
      fun () ->
        formatted := f;
        base_synced := bs;
        oid := o;
        Array.blit v 0 versions 0 file_bytes;
        Array.blit c 0 count 0 file_bytes;
        Array.blit fl 0 floor 0 file_bytes
    in
    { Crash_sweep.disk; run; check; snapshot }
  in
  { Crash_sweep.name = "fsync_range"; mk }

let all () = [ wal (); store (); fs (); fsync_range () ]
