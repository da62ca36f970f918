module Disk = Histar_disk.Disk
module Clock = Histar_util.Sim_clock
open Histar_store
module Check = Histar_check.Check
module Gen = Histar_check.Gen
module Metrics = Histar_metrics.Metrics

let geometry = { Disk.sectors = 500_000; sector_bytes = 512 }

let mk ?(wal_sectors = 1024) ?(apply_threshold = 1000) () =
  let clock = Clock.create () in
  let disk = Disk.create ~geometry ~clock () in
  let store = Store.format ~disk ~wal_sectors ~apply_threshold () in
  (clock, disk, store)

(* [f ()] and the per-counter deltas it caused, read in an enabled
   metrics window: the store counts only through [Metrics]. *)
let counted f =
  Metrics.with_enabled true @@ fun () ->
  let before = Metrics.snapshot () in
  let v = f () in
  (v, Metrics.diff ~before ~after:(Metrics.snapshot ()))

(* ---------- extent allocator ---------- *)

let test_alloc_basic () =
  let a = Extent_alloc.create () in
  Extent_alloc.add_region a ~start:100 ~sectors:1000;
  Alcotest.(check int) "free" 1000 (Extent_alloc.free_sectors a);
  let s1 = Option.get (Extent_alloc.alloc a ~sectors:10) in
  let s2 = Option.get (Extent_alloc.alloc a ~sectors:10) in
  Alcotest.(check bool) "disjoint" true (abs (s1 - s2) >= 10);
  Alcotest.(check int) "free after" 980 (Extent_alloc.free_sectors a);
  Extent_alloc.check_invariants a

let test_alloc_best_fit () =
  let a = Extent_alloc.create () in
  Extent_alloc.add_region a ~start:0 ~sectors:100;
  Extent_alloc.add_region a ~start:1000 ~sectors:10;
  (* A 10-sector request should take the exact-fit small extent. *)
  let s = Option.get (Extent_alloc.alloc a ~sectors:10) in
  Alcotest.(check int) "best fit" 1000 s;
  Extent_alloc.check_invariants a

let test_alloc_exhaustion () =
  let a = Extent_alloc.create () in
  Extent_alloc.add_region a ~start:0 ~sectors:64;
  Alcotest.(check (option int)) "too big" None (Extent_alloc.alloc a ~sectors:65);
  let _ = Option.get (Extent_alloc.alloc a ~sectors:64) in
  Alcotest.(check (option int)) "empty" None (Extent_alloc.alloc a ~sectors:1)

let test_free_coalesce () =
  let a = Extent_alloc.create () in
  Extent_alloc.add_region a ~start:0 ~sectors:300;
  let s1 = Option.get (Extent_alloc.alloc a ~sectors:100) in
  let s2 = Option.get (Extent_alloc.alloc a ~sectors:100) in
  let s3 = Option.get (Extent_alloc.alloc a ~sectors:100) in
  Extent_alloc.free a ~start:s1 ~sectors:100;
  Extent_alloc.free a ~start:s3 ~sectors:100;
  Extent_alloc.free a ~start:s2 ~sectors:100;
  Extent_alloc.check_invariants a;
  Alcotest.(check int) "fully coalesced" 1 (Extent_alloc.extent_count a);
  Alcotest.(check int) "largest" 300 (Extent_alloc.largest_extent a)

let test_double_free_detected () =
  let a = Extent_alloc.create () in
  Extent_alloc.add_region a ~start:0 ~sectors:100;
  let s = Option.get (Extent_alloc.alloc a ~sectors:10) in
  Extent_alloc.free a ~start:s ~sectors:10;
  (try
     Extent_alloc.free a ~start:s ~sectors:10;
     Alcotest.fail "double free not detected"
   with Failure _ -> ())

let prop_alloc_model =
  Check.test_case ~count:200
    ~print:(fun l -> String.concat ";" (List.map string_of_int l))
    "allocator conserves space" Gen.(resize 100 (list (int_range 1 32)))
    (fun sizes ->
      let a = Extent_alloc.create () in
      Extent_alloc.add_region a ~start:0 ~sectors:10_000;
      let allocated =
        List.filter_map
          (fun sectors ->
            Extent_alloc.alloc a ~sectors
            |> Option.map (fun start -> (start, sectors)))
          sizes
      in
      let total_alloc = List.fold_left (fun acc (_, n) -> acc + n) 0 allocated in
      let ok1 = Extent_alloc.free_sectors a = 10_000 - total_alloc in
      List.iter (fun (start, sectors) -> Extent_alloc.free a ~start ~sectors) allocated;
      Extent_alloc.check_invariants a;
      Check.ensure
        (ok1
        && Extent_alloc.free_sectors a = 10_000
        && Extent_alloc.extent_count a = 1))

(* ---------- store ---------- *)

let test_put_get () =
  let _, _, s = mk () in
  Store.put s ~oid:1 "hello";
  Store.put s ~oid:2 "world";
  Alcotest.(check (option string)) "get 1" (Some "hello") (Store.get s ~oid:1);
  Alcotest.(check (option string)) "get 2" (Some "world") (Store.get s ~oid:2);
  Alcotest.(check (option string)) "absent" None (Store.get s ~oid:3);
  Alcotest.(check int) "count" 2 (Store.object_count s)

let test_checkpoint_persists () =
  let clock, disk, s = mk () in
  ignore clock;
  Store.put s ~oid:10 (String.make 5000 'a');
  Store.put s ~oid:11 "small";
  Store.checkpoint s;
  Alcotest.(check int) "nothing dirty" 0 (Store.dirty_count s);
  let s' = Store.recover ~disk in
  Alcotest.(check (option string)) "big object" (Some (String.make 5000 'a'))
    (Store.get s' ~oid:10);
  Alcotest.(check (option string)) "small object" (Some "small")
    (Store.get s' ~oid:11);
  Store.check_invariants s'

let test_unsynced_lost_on_crash () =
  let _, disk, s = mk () in
  Store.put s ~oid:1 "durable";
  Store.checkpoint s;
  Store.put s ~oid:2 "lost";
  (* no sync, no checkpoint; simulate power cut by recovering from media *)
  let s' = Store.recover ~disk in
  Alcotest.(check (option string)) "durable survives" (Some "durable")
    (Store.get s' ~oid:1);
  Alcotest.(check (option string)) "unsynced gone" None (Store.get s' ~oid:2)

let test_sync_oid_survives () =
  let _, disk, s = mk () in
  Store.put s ~oid:5 "fsynced data";
  Store.sync_oid s ~oid:5;
  let s' = Store.recover ~disk in
  Alcotest.(check (option string)) "fsynced survives" (Some "fsynced data")
    (Store.get s' ~oid:5)

let test_sync_delete_survives () =
  let _, disk, s = mk () in
  Store.put s ~oid:5 "data";
  Store.checkpoint s;
  Store.delete s ~oid:5;
  Store.sync_oid s ~oid:5;
  let s' = Store.recover ~disk in
  Alcotest.(check (option string)) "synced delete survives" None
    (Store.get s' ~oid:5)

let test_rewrite_changes_size () =
  let _, disk, s = mk () in
  Store.put s ~oid:7 (String.make 4096 'x');
  Store.checkpoint s;
  let free1 = Store.free_sectors s in
  Store.put s ~oid:7 "tiny";
  Store.checkpoint s;
  let free2 = Store.free_sectors s in
  Alcotest.(check bool) "space reclaimed" true (free2 > free1);
  let s' = Store.recover ~disk in
  Alcotest.(check (option string)) "rewritten" (Some "tiny") (Store.get s' ~oid:7);
  Store.check_invariants s'

let test_apply_threshold_triggers_checkpoint () =
  let _, _, s = mk ~apply_threshold:10 () in
  let (), d =
    counted (fun () ->
        for i = 1 to 25 do
          let oid = i in
          Store.put s ~oid "x";
          Store.sync_oid s ~oid
        done)
  in
  Alcotest.(check bool) "log applied at least twice" true
    (Metrics.value_in d "store.checkpoints" >= 2)

let test_drop_cache_rereads () =
  let _, _, s = mk () in
  Store.put s ~oid:1 "payload";
  Store.checkpoint s;
  Store.drop_clean_cache s;
  let got, d = counted (fun () -> Store.get s ~oid:1) in
  Alcotest.(check (option string)) "reread from disk" (Some "payload") got;
  Alcotest.(check bool) "cache miss happened" true
    (Metrics.value_in d "store.cache_misses" > 0);
  (* second read hits cache *)
  let _, d = counted (fun () -> Store.get s ~oid:1) in
  Alcotest.(check bool) "then cache hit" true
    (Metrics.value_in d "store.cache_hits" > 0)

let test_group_sync_faster_than_per_file_sync () =
  (* The paper's headline storage result: group sync beats per-file sync
     by orders of magnitude (459s vs 2.57s for 10k files). *)
  let n = 300 in
  let clock1, _, s1 = mk ~wal_sectors:8192 () in
  for i = 1 to n do
    Store.put s1 ~oid:i (String.make 1024 'd');
    Store.sync_oid s1 ~oid:i
  done;
  let per_file_ns = Clock.now clock1 in
  let clock2, _, s2 = mk ~wal_sectors:8192 () in
  for i = 1 to n do
    Store.put s2 ~oid:i (String.make 1024 'd')
  done;
  Store.checkpoint s2;
  let group_ns = Clock.now clock2 in
  Alcotest.(check bool)
    (Printf.sprintf "per-file %dns >> group %dns" per_file_ns group_ns)
    true
    (per_file_ns > 15 * group_ns)

(* An object whose payload is a 4-byte prefix plus [data], checkpointed
   to a home image so that {!Store.sync_range} may patch it in place. *)
let prefix = "hdr:"

let homed_object s ~oid data =
  Store.put s ~oid ~prefix_len:(String.length prefix)
    (prefix ^ Bytes.to_string data);
  Store.checkpoint s

let test_sync_range_in_place () =
  let clock, disk, s = mk () in
  let big = Bytes.make 100_000 'a' in
  homed_object s ~oid:9 big;
  (* modify a small range and flush it in place *)
  Bytes.fill big 50_000 100 'b';
  let t0 = Clock.now clock in
  let in_place, d =
    counted (fun () ->
        Store.sync_range s ~oid:9 ~prefix ~data:big ~data_len:(Bytes.length big)
          ~off:50_000 ~len:100)
  in
  Alcotest.(check bool) "in-place path taken" true in_place;
  let dt = Clock.now clock - t0 in
  Alcotest.(check int) "no log commit" 0 (Metrics.value_in d "store.sync_batches");
  Alcotest.(check int) "still clean" 0 (Store.dirty_count s);
  (* cheap: a couple of sectors plus one barrier, far below a full
     100 KB object sync *)
  Alcotest.(check bool) (Printf.sprintf "%dns" dt) true (dt < 30_000_000);
  (* the clean copy was patched with the flushed bytes *)
  (match Store.get s ~oid:9 with
  | Some v -> Alcotest.(check char) "cached copy patched" 'b' v.[4 + 50_050]
  | None -> Alcotest.fail "object lost");
  Store.fsck s;
  (* recovery sees the new bytes *)
  let s' = Store.recover ~disk in
  (match Store.get s' ~oid:9 with
  | Some v ->
      Alcotest.(check char) "patched" 'b' v.[4 + 50_050];
      Alcotest.(check char) "rest intact" 'a' v.[4];
      Alcotest.(check int) "length" 100_004 (String.length v)
  | None -> Alcotest.fail "object lost");
  Store.fsck s'

let test_sync_range_refuses () =
  (* Whenever the home image is not the newest durable copy, or the
     payload layout moved, the store must refuse without writing: the
     caller then takes the log path. *)
  let _clock, disk, s = mk () in
  let data = Bytes.make 4096 'a' in
  homed_object s ~oid:1 data;
  let refuses what ~prefix ~data =
    let writes = Disk.media_writes disk in
    Alcotest.(check bool) what false
      (Store.sync_range s ~oid:1 ~prefix ~data ~data_len:(Bytes.length data)
       ~off:0 ~len:16);
    Alcotest.(check int) (what ^ ": no media writes") writes (Disk.media_writes disk);
    (* a buffered write would reach the media at the next barrier *)
    Disk.flush disk;
    Alcotest.(check int) (what ^ ": nothing buffered") writes (Disk.media_writes disk)
  in
  refuses "payload length changed" ~prefix ~data:(Bytes.make 4095 'a');
  refuses "prefix length changed" ~prefix:"hdr:!" ~data:(Bytes.make 4095 'a');
  (* A logged copy is newer than the home image: WAL replay would
     override an in-place patch. *)
  Store.put s ~oid:1 ~prefix_len:4 (prefix ^ String.make 4096 'x');
  Store.sync_oid s ~oid:1;
  refuses "newer logged copy" ~prefix ~data;
  (* Logging a clean object counts too. *)
  Store.checkpoint s;
  Store.sync_oid s ~oid:1;
  refuses "clean object logged" ~prefix ~data;
  (* Without a declared prefix the store cannot place the data. *)
  Store.put s ~oid:2 (prefix ^ Bytes.to_string data);
  Store.checkpoint s;
  Alcotest.(check bool) "layout never declared" false
    (Store.sync_range s ~oid:2 ~prefix ~data ~data_len:(Bytes.length data)
       ~off:0 ~len:16);
  Store.fsck s

let test_sync_range_multi_sector_prefix () =
  (* The rewritten sectors after sector 0 must form one run: with a
     prefix spanning two sectors, a flush far from it is refused (the
     log takes it), one that adjoins it goes in place. *)
  let _clock, disk, s = mk () in
  let prefix = String.make 600 'p' in
  let data = Bytes.make 8192 'a' in
  Store.put s ~oid:6 ~prefix_len:600 (prefix ^ Bytes.to_string data);
  Store.checkpoint s;
  let writes = Disk.media_writes disk in
  Alcotest.(check bool) "gap between runs: refused" false
    (Store.sync_range s ~oid:6 ~prefix ~data ~data_len:(Bytes.length data)
       ~off:6_000 ~len:10);
  Alcotest.(check int) "refusal writes nothing" writes (Disk.media_writes disk);
  Bytes.fill data 100 10 'b';
  Alcotest.(check bool) "adjoining range: in place" true
    (Store.sync_range s ~oid:6 ~prefix ~data ~data_len:(Bytes.length data)
       ~off:100 ~len:10);
  Store.fsck s;
  match Store.get (Store.recover ~disk) ~oid:6 with
  | Some v -> Alcotest.(check char) "flushed" 'b' v.[600 + 105]
  | None -> Alcotest.fail "object lost"

(* Flip one bit of a sector behind the store's back. *)
let corrupt_sector disk sector =
  let b = Bytes.of_string (Disk.read disk ~sector ~count:1) in
  Bytes.set b 100 (Char.chr (Char.code (Bytes.get b 100) lxor 1));
  Disk.write disk ~sector (Bytes.to_string b);
  Disk.flush disk

let test_sync_range_corruption_caught () =
  (* The sum an in-place flush stores leaves out the data sectors it
     rewrote, but a live store checks every sector against its own hash
     record: a bit flipped there, silently or by the write itself, fails
     fsck and is repaired by scrub from the clean copy. *)
  let module Faults = Histar_faults.Faults in
  let flushed data = Bytes.fill data 6_000 1_000 'b' in
  let check_repaired what disk s =
    Alcotest.(check bool) (what ^ ": fsck fails") true
      (match Store.fsck s with () -> false | exception Failure _ -> true);
    Disk.set_faults disk None;
    let report = Store.scrub s in
    Alcotest.(check int) (what ^ ": repaired") 1 report.Store.repaired;
    Alcotest.(check (list int)) (what ^ ": nothing lost") [] report.Store.lost;
    Store.fsck s;
    match Store.get (Store.recover ~disk) ~oid:4 with
    | Some v -> Alcotest.(check char) (what ^ ": flushed bytes") 'b' v.[4 + 6_500]
    | None -> Alcotest.fail (what ^ ": object lost")
  in
  (* Silent corruption of a flushed sector after the flush. *)
  let _clock, disk, s = mk () in
  let data = Bytes.make 20_000 'a' in
  homed_object s ~oid:4 data;
  flushed data;
  let last_written = ref 0 in
  Disk.set_write_trace disk (Some (fun ~sector ~data:_ -> last_written := sector));
  Alcotest.(check bool) "in place" true
    (Store.sync_range s ~oid:4 ~prefix ~data ~data_len:(Bytes.length data)
       ~off:6_000 ~len:1_000);
  Disk.set_write_trace disk None;
  corrupt_sector disk !last_written;
  check_repaired "silent" disk s;
  (* Every sector the flush writes comes out corrupted. *)
  let _clock, disk, s = mk () in
  let data = Bytes.make 20_000 'a' in
  homed_object s ~oid:4 data;
  flushed data;
  Disk.set_faults disk
    (Faults.Disk_faults.create
       (Faults.Schedule.mk ~seed:1L
          ~disk:
            {
              Faults.Schedule.latent_rate = 0.0;
              transient_rate = 0.0;
              corrupt_rate = 1.0;
            }
          ()));
  Alcotest.(check bool) "in place" true
    (Store.sync_range s ~oid:4 ~prefix ~data ~data_len:(Bytes.length data)
       ~off:6_000 ~len:1_000);
  check_repaired "corrupt writes" disk s

let test_sync_range_scrub_repairs () =
  (* The sectors an in-place flush writes go latent-bad. Scrub must
     re-home the object from its patched clean copy, not report it lost,
     and the repaired image must carry the flushed bytes. *)
  let module Faults = Histar_faults.Faults in
  let _clock, disk, s = mk () in
  let data = Bytes.make 20_000 'a' in
  homed_object s ~oid:4 data;
  Store.put s ~oid:5 "bystander";
  Store.checkpoint s;
  Bytes.fill data 6_000 1_000 'b';
  let every_write_latent =
    Faults.Schedule.mk ~seed:1L
      ~disk:
        {
          Faults.Schedule.latent_rate = 1.0;
          transient_rate = 0.0;
          corrupt_rate = 0.0;
        }
      ()
  in
  Disk.set_faults disk (Faults.Disk_faults.create every_write_latent);
  Alcotest.(check bool) "in place" true
    (Store.sync_range s ~oid:4 ~prefix ~data ~data_len:(Bytes.length data)
       ~off:6_000 ~len:1_000);
  let report = Store.scrub ~max_passes:1 s in
  Alcotest.(check int) "repaired" 1 report.Store.repaired;
  Alcotest.(check (list int)) "nothing lost" [] report.Store.lost;
  (* Repair writes struck latent marks again; with the faults gone the
     next scrub settles and the store checks clean. *)
  Disk.set_faults disk None;
  Alcotest.(check bool) "settles" true (Store.scrub s).Store.clean;
  Store.fsck s;
  let s' = Store.recover ~disk in
  Store.fsck s';
  match Store.get s' ~oid:4 with
  | Some v ->
      Alcotest.(check char) "flushed bytes survive repair" 'b' v.[4 + 6_500];
      Alcotest.(check char) "rest intact" 'a' v.[4 + 100]
  | None -> Alcotest.fail "object lost"

let prop_store_model =
  (* Random puts/deletes/syncs/checkpoints followed by recovery must
     agree with a Hashtbl model of everything made durable. *)
  let open Gen in
  let oid = int_range 0 20 in
  let op =
    oneof
      [
        map2 (fun k v -> `Put (k, v)) oid (resize 200 string);
        map (fun k -> `Delete k) oid;
        map (fun k -> `Sync k) oid;
        return `Checkpoint;
      ]
  in
  Check.test_case ~count:60 "store recovery matches durable model"
    (resize 60 (list op)) (fun ops ->
      let _, disk, s = mk ~wal_sectors:4096 () in
      let live = Hashtbl.create 16 in
      let durable = Hashtbl.create 16 in
      List.iter
        (fun op ->
          match op with
          | `Put (oid, v) ->
              Store.put s ~oid v;
              Hashtbl.replace live oid v
          | `Delete oid ->
              Store.delete s ~oid;
              Hashtbl.remove live oid
          | `Sync oid -> (
              Store.sync_oid s ~oid;
              match Hashtbl.find_opt live oid with
              | Some v -> Hashtbl.replace durable oid v
              | None -> Hashtbl.remove durable oid)
          | `Checkpoint ->
              Store.checkpoint s;
              Hashtbl.reset durable;
              Hashtbl.iter (Hashtbl.replace durable) live)
        ops;
      let s' = Store.recover ~disk in
      Check.ensure
        (Hashtbl.fold
           (fun oid v acc -> acc && Store.get s' ~oid = Some v)
           durable true
        && Store.object_count s' = Hashtbl.length durable))

let test_crash_during_auto_apply () =
  (* with a tiny threshold, a sync triggers a full checkpoint; a crash
     there must still recover a consistent prefix *)
  let _, disk, s = mk ~wal_sectors:4096 ~apply_threshold:3 () in
  for i = 1 to 2 do
    Store.put s ~oid:i (Printf.sprintf "v%d" i);
    Store.sync_oid s ~oid:i
  done;
  Disk.set_crash_after_writes disk 4;
  (* the 3rd sync crosses the threshold and checkpoints mid-crash *)
  (match
     Store.put s ~oid:3 "v3";
     Store.sync_oid s ~oid:3
   with
  | () -> ()
  | exception Disk.Crashed -> ());
  let disk' = if Disk.crashed disk then Disk.reopen_after_crash disk else disk in
  let s' = Store.recover ~disk:disk' in
  Store.check_invariants s';
  (* objects 1 and 2 were durable before the crash; 3 may or may not be *)
  Alcotest.(check (option string)) "obj1" (Some "v1") (Store.get s' ~oid:1);
  Alcotest.(check (option string)) "obj2" (Some "v2") (Store.get s' ~oid:2);
  match Store.get s' ~oid:3 with
  | Some "v3" | None -> ()
  | Some other -> Alcotest.fail ("garbage: " ^ other)

let prop_store_crash_during_checkpoint =
  (* A crash in the middle of a checkpoint must recover to the previous
     consistent snapshot (plus any logged records). *)
  Check.test_case ~count:40
    ~print:(fun (nobj, crash_after) ->
      Printf.sprintf "%d objects, crash after %d writes" nobj crash_after)
    "crash during checkpoint is atomic"
    Gen.(pair (int_range 1 30) (int_range 0 40))
    (fun (nobj, crash_after) ->
      let _, disk, s = mk ~wal_sectors:4096 () in
      for i = 1 to nobj do
        Store.put s ~oid:i (Printf.sprintf "gen1-%d" i)
      done;
      Store.checkpoint s;
      for i = 1 to nobj do
        Store.put s ~oid:i (Printf.sprintf "gen2-%d" i)
      done;
      Disk.set_crash_after_writes disk crash_after;
      let crashed =
        match Store.checkpoint s with
        | () -> false
        | exception Disk.Crashed -> true
      in
      let disk' = if crashed then Disk.reopen_after_crash disk else disk in
      let s' = Store.recover ~disk:disk' in
      (* Every object must read back as gen1 or gen2 consistently with a
         whole-snapshot semantics: either all gen1 or all gen2. *)
      let gens =
        List.init nobj (fun i ->
            match Store.get s' ~oid:(i + 1) with
            | Some v when String.length v >= 4 -> String.sub v 0 4
            | Some _ | None -> "????")
      in
      Check.ensure
        (List.for_all (String.equal "gen1") gens
        || List.for_all (String.equal "gen2") gens))

let () =
  Alcotest.run "histar_store"
    [
      ( "extent_alloc",
        [
          Alcotest.test_case "basic" `Quick test_alloc_basic;
          Alcotest.test_case "best fit" `Quick test_alloc_best_fit;
          Alcotest.test_case "exhaustion" `Quick test_alloc_exhaustion;
          Alcotest.test_case "coalesce" `Quick test_free_coalesce;
          Alcotest.test_case "double free" `Quick test_double_free_detected;
          prop_alloc_model;
        ] );
      ( "store",
        [
          Alcotest.test_case "put/get" `Quick test_put_get;
          Alcotest.test_case "checkpoint persists" `Quick
            test_checkpoint_persists;
          Alcotest.test_case "unsynced lost" `Quick test_unsynced_lost_on_crash;
          Alcotest.test_case "sync survives" `Quick test_sync_oid_survives;
          Alcotest.test_case "synced delete" `Quick test_sync_delete_survives;
          Alcotest.test_case "rewrite size change" `Quick
            test_rewrite_changes_size;
          Alcotest.test_case "apply threshold" `Quick
            test_apply_threshold_triggers_checkpoint;
          Alcotest.test_case "drop cache" `Quick test_drop_cache_rereads;
          Alcotest.test_case "sync_range in place" `Quick
            test_sync_range_in_place;
          Alcotest.test_case "sync_range refuses" `Quick
            test_sync_range_refuses;
          Alcotest.test_case "sync_range scrub repairs" `Quick
            test_sync_range_scrub_repairs;
          Alcotest.test_case "sync_range multi-sector prefix" `Quick
            test_sync_range_multi_sector_prefix;
          Alcotest.test_case "sync_range corruption caught" `Quick
            test_sync_range_corruption_caught;
          Alcotest.test_case "group sync wins" `Quick
            test_group_sync_faster_than_per_file_sync;
          Alcotest.test_case "crash during auto-apply" `Quick
            test_crash_during_auto_apply;
          prop_store_model;
          prop_store_crash_during_checkpoint;
        ] );
    ]
