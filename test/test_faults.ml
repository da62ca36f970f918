(* The unified fault-injection framework: schedule round-trips, disk
   fault semantics (latent/transient/corrupt), WAL graceful
   degradation, store scrub/quarantine/fsck, and the end-to-end
   fault-matrix acceptance cell (webserver workload under combined
   disk + network faults, byte-for-byte reproducible). *)

module Faults = Histar_faults.Faults
module Schedule = Faults.Schedule
module Clock = Histar_util.Sim_clock
module Rng = Histar_util.Rng
module Disk = Histar_disk.Disk
module Wal = Histar_wal.Wal
module Store = Histar_store.Store
module Metrics = Histar_metrics.Metrics
module Fault_sweep = Histar_check.Fault_sweep

(* ---------- schedules ---------- *)

let test_schedule_roundtrip () =
  let rng = Rng.create 0xFA017L in
  let rate () = float_of_int (Rng.int rng 1001) /. 1000.0 in
  for _ = 1 to 200 do
    let seed = Rng.next64 rng in
    let disk =
      if Rng.bool rng then
        Some
          {
            Schedule.latent_rate = rate ();
            transient_rate = rate ();
            corrupt_rate = rate ();
          }
      else None
    in
    let net =
      if Rng.bool rng then
        Some
          {
            Schedule.loss_rate = rate ();
            corrupt_rate = rate ();
            duplicate_rate = rate ();
            reorder_rate = rate ();
            reorder_depth = 1 + Rng.int rng 8;
            jitter_us = Rng.int rng 1000;
            flap_period_ms = Rng.int rng 2000;
            flap_down_ms = Rng.int rng 100;
          }
      else None
    in
    let crashes =
      List.init (Rng.int rng 3) (fun _ ->
          {
            Schedule.crash_node = Rng.int rng 16;
            at_ms = Rng.int rng 10_000;
            restart_after_ms =
              (if Rng.bool rng then Some (Rng.int rng 5_000) else None);
          })
    in
    let s = Schedule.mk ~seed ?disk ?net ~crashes () in
    match Schedule.of_string (Schedule.to_string s) with
    | Ok s' ->
        Alcotest.(check string)
          "schedule round-trips" (Schedule.to_string s) (Schedule.to_string s')
    | Error e ->
        Alcotest.fail
          (Printf.sprintf "of_string (to_string %s): %s" (Schedule.to_string s)
             e)
  done

(* HISTAR_FAULTS is read through [of_env]: its seed= section is the
   seed of the extra sweep cell, and a malformed string names the
   variable. The caller's own HISTAR_FAULTS is restored afterwards. *)
let test_schedule_of_env () =
  let saved = Option.value (Sys.getenv_opt "HISTAR_FAULTS") ~default:"" in
  Fun.protect ~finally:(fun () -> Unix.putenv "HISTAR_FAULTS" saved)
  @@ fun () ->
  Unix.putenv "HISTAR_FAULTS" "";
  Alcotest.(check bool) "empty is unset" true (Schedule.of_env () = None);
  Unix.putenv "HISTAR_FAULTS" "seed=0x2a;net:loss=0.05";
  (match Schedule.of_env () with
  | Some s -> Alcotest.(check int64) "seed= carried" 0x2aL s.Schedule.seed
  | None -> Alcotest.fail "HISTAR_FAULTS ignored");
  Unix.putenv "HISTAR_FAULTS" "seed=0x2a;disk:latent=banana";
  match Schedule.of_env () with
  | _ -> Alcotest.fail "accepted a malformed HISTAR_FAULTS"
  | exception Failure msg ->
      Alcotest.(check bool)
        (Printf.sprintf "error names the variable: %s" msg)
        true
        (String.starts_with ~prefix:"HISTAR_FAULTS:" msg)

(* The documented crash grammar parses field-for-field, multiple
   sections accumulate in order, and a plan built from the schedule
   fires Kill strictly before the paired Restart. *)
let test_schedule_crash_sections () =
  (match Schedule.of_string "crash:node=2,at=500,restart=300" with
  | Ok s -> (
      match s.Schedule.crashes with
      | [ c ] ->
          Alcotest.(check int) "node" 2 c.Schedule.crash_node;
          Alcotest.(check int) "at" 500 c.Schedule.at_ms;
          Alcotest.(check (option int)) "restart" (Some 300) c.restart_after_ms
      | cs -> Alcotest.fail (Printf.sprintf "%d crash entries" (List.length cs)))
  | Error e -> Alcotest.fail e);
  let s =
    Schedule.mk
      ~crashes:
        [
          { Schedule.crash_node = 3; at_ms = 60; restart_after_ms = Some 40 };
          { Schedule.crash_node = 5; at_ms = 80; restart_after_ms = None };
        ]
      ()
  in
  (match Schedule.of_string (Schedule.to_string s) with
  | Ok s' ->
      Alcotest.(check string)
        "crash sections survive the round-trip in order" (Schedule.to_string s)
        (Schedule.to_string s')
  | Error e -> Alcotest.fail e);
  let plan = Option.get (Faults.Node_faults.create s) in
  Alcotest.(check int) "three events armed" 3 (Faults.Node_faults.remaining plan);
  Alcotest.(check bool)
    "nothing due before the first kill" true
    (Faults.Node_faults.due plan ~now_ns:59_000_000 = []);
  Alcotest.(check bool)
    "kill of node 3 due at 60ms" true
    (Faults.Node_faults.due plan ~now_ns:60_000_000
    = [ Faults.Node_faults.Kill 3 ]);
  Alcotest.(check bool)
    "kill of 5 then restart of 3, in time order" true
    (Faults.Node_faults.due plan ~now_ns:200_000_000
    = [ Faults.Node_faults.Kill 5; Faults.Node_faults.Restart 3 ]);
  Alcotest.(check int) "each event fires exactly once" 0
    (Faults.Node_faults.remaining plan)

let test_schedule_errors () =
  let bad = [ "seed=xyzzy"; "disk:latent=banana"; "net:loss"; "bogus:1" ] in
  List.iter
    (fun s ->
      match Schedule.of_string s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted malformed %S" s)
      | Error _ -> ())
    bad;
  (* Times are native-int nanoseconds downstream: a field whose ns
     would pass max_int (4_611_686_018_427 ms, 4_611_686_018_427_387
     µs) is refused, not wrapped into a kill due at time 0. *)
  let too_late =
    [
      "crash:node=0,at=10000000000000";
      "crash:node=0,at=4611686018428";
      "crash:node=0,at=4611686018427,restart=1";
      "crash:node=0,at=1,restart=4611686018427";
      "net:flap_period=4611686018428";
      "net:flap_down=4611686018428";
      "net:jitter=4611686018427388";
    ]
  in
  List.iter
    (fun s ->
      match Schedule.of_string s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted out-of-range %S" s)
      | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "%S: %s" s e) true
            (String.starts_with ~prefix:"bad int" e))
    too_late;
  match Schedule.of_string "crash:node=0,at=4611686018427;net:jitter=4611686018427387" with
  | Error e -> Alcotest.fail e
  | Ok s ->
      let plan = Option.get (Faults.Node_faults.create s) in
      Alcotest.(check bool) "the last ms is not due at 0" true
        (Faults.Node_faults.due plan ~now_ns:0 = []);
      Alcotest.(check bool) "it is due at its own ns" true
        (Faults.Node_faults.due plan ~now_ns:4_611_686_018_427_000_000
        = [ Faults.Node_faults.Kill 0 ])

(* ---------- disk fault semantics ---------- *)

let disk_with ~seed disk_faults =
  let clock = Clock.create () in
  let sched = Schedule.mk ~seed ~disk:disk_faults () in
  Disk.create ?faults:(Faults.Disk_faults.create sched) ~clock ()

let sector_of c = String.make 512 c

(* Latent marks appear on write, make reads fail persistently, and are
   re-rolled (possibly cleared) by every rewrite. *)
let test_latent_mark_and_heal () =
  let disk =
    disk_with ~seed:11L
      { Schedule.latent_rate = 0.5; transient_rate = 0.0; corrupt_rate = 0.0 }
  in
  let plan = Option.get (Disk.faults disk) in
  let saw_bad = ref false and saw_good = ref false in
  for _ = 1 to 20 do
    Disk.write disk ~sector:10 (sector_of 'a');
    Disk.flush disk;
    if Faults.Disk_faults.is_latent plan ~sector:10 then begin
      saw_bad := true;
      (match Disk.read disk ~sector:10 ~count:1 with
      | _ -> Alcotest.fail "read of latent sector succeeded"
      | exception Disk.Read_error { transient = false; _ } -> ());
      (* latent errors are not retryable *)
      match Disk.read_retrying disk ~sector:10 ~count:1 with
      | _ -> Alcotest.fail "read_retrying of latent sector succeeded"
      | exception Disk.Read_error { transient = false; _ } -> ()
    end
    else begin
      saw_good := true;
      Alcotest.(check string)
        "readable when not latent" (sector_of 'a')
        (Disk.read disk ~sector:10 ~count:1)
    end
  done;
  Alcotest.(check bool) "both states observed" true (!saw_bad && !saw_good)

let test_transient_retry () =
  Metrics.set_enabled true;
  let before = Metrics.counter_value "disk.read_retries" in
  let disk =
    disk_with ~seed:3L
      { Schedule.latent_rate = 0.0; transient_rate = 0.3; corrupt_rate = 0.0 }
  in
  Disk.write disk ~sector:5 (sector_of 'b');
  Disk.flush disk;
  for _ = 1 to 50 do
    Alcotest.(check string)
      "read_retrying survives transients" (sector_of 'b')
      (Disk.read_retrying disk ~sector:5 ~count:1)
  done;
  Alcotest.(check bool) "retries were charged" true
    (Metrics.counter_value "disk.read_retries" > before)

let test_silent_corruption () =
  let disk =
    disk_with ~seed:1L
      { Schedule.latent_rate = 0.0; transient_rate = 0.0; corrupt_rate = 1.0 }
  in
  Disk.write disk ~sector:9 (sector_of 'c');
  Disk.flush disk;
  let got = Disk.read disk ~sector:9 ~count:1 in
  let diffs = ref 0 in
  String.iteri (fun i ch -> if ch <> (sector_of 'c').[i] then incr diffs) got;
  Alcotest.(check int) "exactly one byte flipped" 1 !diffs

(* ---------- WAL graceful degradation ---------- *)

(* A latent sector in the middle of the log ends replay at that point:
   the prefix before it survives, nothing after it is invented. *)
let test_wal_prefix_on_latent_sector () =
  Metrics.set_enabled true;
  let stops_before = Metrics.counter_value "wal.media_read_stops" in
  let clock = Clock.create () in
  let disk = Disk.create ~clock () in
  let wal = Wal.format ~disk ~start:1 ~sectors:64 in
  let payloads = List.init 10 (Printf.sprintf "record-%02d") in
  List.iter
    (fun p ->
      Wal.append wal p;
      Wal.commit wal)
    payloads;
  (* Shoot absolute sector 7 — the region starts at sector 1 with its
     superblock, so this is the 6th one-sector record — by attaching a
     plan that marks every written sector latent and overwriting it. *)
  let sched =
    Schedule.mk ~seed:2L
      ~disk:
        { Schedule.latent_rate = 1.0; transient_rate = 0.0; corrupt_rate = 0.0 }
      ()
  in
  Disk.set_faults disk (Faults.Disk_faults.create sched);
  Disk.write disk ~sector:7 (sector_of 'X');
  Disk.flush disk;
  let recovered_wal, recovered = Wal.recover ~disk ~start:1 ~sectors:64 in
  Alcotest.(check (list string))
    "prefix before the bad sector survives"
    [ "record-00"; "record-01"; "record-02"; "record-03"; "record-04" ]
    recovered;
  Alcotest.(check bool) "media stop was counted" true
    (Metrics.counter_value "wal.media_read_stops" > stops_before);
  ignore recovered_wal

(* ---------- store scrub / quarantine / fsck ---------- *)

let test_store_scrub_repairs () =
  Metrics.set_enabled true;
  let clock = Clock.create () in
  let sched =
    Schedule.mk ~seed:5L
      ~disk:
        {
          Schedule.latent_rate = 0.08;
          transient_rate = 0.05;
          corrupt_rate = 0.02;
        }
      ()
  in
  let disk =
    Disk.create ?faults:(Faults.Disk_faults.create sched) ~clock ()
  in
  let store = Store.format ~disk ~wal_sectors:1024 () in
  let model = Hashtbl.create 64 in
  let rng = Rng.create 0xBEEFL in
  for oid = 1 to 50 do
    let payload = Rng.bytes rng (64 + Rng.int rng 2048) in
    Hashtbl.replace model oid payload;
    Store.put store ~oid payload
  done;
  Store.checkpoint store;
  (* The checkpoint writes landed through the fault plan, so some home
     images are now latent or corrupt. Scrub must converge and repair
     them all from the clean cache. *)
  let report = Store.scrub store in
  Alcotest.(check bool) "scrub converged" true report.Store.clean;
  Alcotest.(check (list int)) "no objects lost" [] report.Store.lost;
  Alcotest.(check bool) "faults were actually injected and repaired" true
    (report.Store.repaired > 0);
  Alcotest.(check bool) "bad extents were quarantined" true
    (report.Store.quarantined_sectors > 0);
  Store.fsck store;
  (* Every object must read back from the media byte-exact. *)
  Store.drop_clean_cache store;
  Hashtbl.iter
    (fun oid expected ->
      match Store.get store ~oid with
      | Some got ->
          if not (String.equal got expected) then
            Alcotest.fail (Printf.sprintf "object %d corrupt after scrub" oid)
      | None -> Alcotest.fail (Printf.sprintf "object %d missing" oid))
    model;
  (* Quarantine survives recovery: the list is persisted in checkpoint
     metadata and still counted by fsck's tiling proof. *)
  let store2 = Store.recover ~disk in
  Alcotest.(check (list (pair int int)))
    "quarantined extents persisted"
    (Store.quarantined_extents store)
    (Store.quarantined_extents store2);
  Store.fsck store2;
  Hashtbl.iter
    (fun oid expected ->
      match Store.get store2 ~oid with
      | Some got ->
          Alcotest.(check bool)
            (Printf.sprintf "object %d intact after recover" oid)
            true (String.equal got expected)
      | None -> Alcotest.fail (Printf.sprintf "object %d lost by recover" oid))
    model

let test_scrub_noop_when_healthy () =
  let clock = Clock.create () in
  let disk = Disk.create ~clock () in
  let store = Store.format ~disk ~wal_sectors:1024 () in
  for oid = 1 to 10 do
    Store.put store ~oid (String.make 100 'h')
  done;
  Store.checkpoint store;
  let report = Store.scrub store in
  Alcotest.(check bool) "clean" true report.Store.clean;
  Alcotest.(check int) "one pass" 1 report.Store.passes;
  Alcotest.(check int) "nothing repaired" 0 report.Store.repaired;
  Alcotest.(check int) "nothing quarantined" 0 report.Store.quarantined_sectors;
  Store.fsck store

(* ---------- end-to-end acceptance ---------- *)

(* The ISSUE's acceptance schedule: 5% loss + reorder + dup on the
   wire, 1% latent sector errors (plus transients and silent write
   corruption) on the disk. The webserver workload must complete every
   request byte-exact, scrub must leave fsck clean, and the whole run
   must be byte-for-byte reproducible from the seed. *)
let acceptance_schedule =
  Schedule.mk ~seed:0xACCE97L
    ~disk:
      { Schedule.latent_rate = 0.01; transient_rate = 0.02; corrupt_rate = 0.002 }
    ~net:Schedule.default_net ()

let test_acceptance_cell () =
  let cell = Fault_sweep.run_cell acceptance_schedule in
  Alcotest.(check int) "all requests completed" cell.Fault_sweep.requests
    cell.Fault_sweep.completed;
  Alcotest.(check int) "zero corrupt payloads" 0
    cell.Fault_sweep.corrupt_payloads;
  Alcotest.(check bool) "scrub clean" true cell.Fault_sweep.scrub.Store.clean

let test_acceptance_reproducible () =
  let a = Fault_sweep.run_cell acceptance_schedule in
  let b = Fault_sweep.run_cell acceptance_schedule in
  Alcotest.(check string) "metrics dumps byte-identical"
    a.Fault_sweep.metrics_dump b.Fault_sweep.metrics_dump

(* The full matrix sweep, each cell run twice for reproducibility.
   HISTAR_FAULTS='<schedule>' adds that schedule as one more cell. *)
let test_matrix_sweep () =
  let cells = Fault_sweep.sweep () in
  Alcotest.(check bool) "swept at least one cell" true (List.length cells > 0);
  List.iter
    (fun c ->
      Format.printf "%a@." Fault_sweep.pp_cell c;
      Alcotest.(check int) "no corruption" 0 c.Fault_sweep.corrupt_payloads)
    cells

let () =
  Alcotest.run "faults"
    [
      ( "schedule",
        [
          Alcotest.test_case "roundtrip" `Quick test_schedule_roundtrip;
          Alcotest.test_case "crash sections" `Quick
            test_schedule_crash_sections;
          Alcotest.test_case "errors" `Quick test_schedule_errors;
          Alcotest.test_case "of_env" `Quick test_schedule_of_env;
        ] );
      ( "disk",
        [
          Alcotest.test_case "latent mark and heal" `Quick
            test_latent_mark_and_heal;
          Alcotest.test_case "transient retry" `Quick test_transient_retry;
          Alcotest.test_case "silent corruption" `Quick test_silent_corruption;
        ] );
      ( "wal",
        [
          Alcotest.test_case "prefix on latent sector" `Quick
            test_wal_prefix_on_latent_sector;
        ] );
      ( "store",
        [
          Alcotest.test_case "scrub repairs" `Quick test_store_scrub_repairs;
          Alcotest.test_case "scrub no-op when healthy" `Quick
            test_scrub_noop_when_healthy;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "combined-fault webserver cell" `Quick
            test_acceptance_cell;
          Alcotest.test_case "byte-for-byte reproducible" `Quick
            test_acceptance_reproducible;
          Alcotest.test_case "fault-matrix sweep" `Quick
            test_matrix_sweep;
        ] );
    ]
