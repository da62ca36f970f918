open Histar_wal
module Disk = Histar_disk.Disk
module Clock = Histar_util.Sim_clock

let geometry = { Disk.sectors = 100_000; sector_bytes = 512 }

let mk () =
  let clock = Clock.create () in
  Disk.create ~geometry ~clock ()

let test_format_recover_empty () =
  let disk = mk () in
  let _ = Wal.format ~disk ~start:1 ~sectors:128 in
  let wal, records = Wal.recover ~disk ~start:1 ~sectors:128 in
  Alcotest.(check (list string)) "no records" [] records;
  Alcotest.(check int) "committed" 0 (Wal.committed_records wal)

let test_commit_then_recover () =
  let disk = mk () in
  let wal = Wal.format ~disk ~start:1 ~sectors:128 in
  Wal.append wal "first";
  Wal.append wal "second record, somewhat longer than a few bytes";
  Wal.commit wal;
  Wal.append wal "third";
  Wal.commit wal;
  let _, records = Wal.recover ~disk ~start:1 ~sectors:128 in
  Alcotest.(check (list string))
    "all committed records in order"
    [ "first"; "second record, somewhat longer than a few bytes"; "third" ]
    records

let test_uncommitted_lost () =
  let disk = mk () in
  let wal = Wal.format ~disk ~start:1 ~sectors:128 in
  Wal.append wal "durable";
  Wal.commit wal;
  Wal.append wal "volatile";
  Alcotest.(check int) "pending" 1 (Wal.pending_records wal);
  (* no commit: a recovery (fresh handle over same media) must not see it *)
  Disk.flush disk;
  (* flushing the *disk* alone does not commit the wal buffer *)
  let _, records = Wal.recover ~disk ~start:1 ~sectors:128 in
  Alcotest.(check (list string)) "only committed" [ "durable" ] records

let test_truncate () =
  let disk = mk () in
  let wal = Wal.format ~disk ~start:1 ~sectors:128 in
  Wal.append wal "old";
  Wal.commit wal;
  Wal.truncate wal;
  Wal.append wal "new";
  Wal.commit wal;
  let _, records = Wal.recover ~disk ~start:1 ~sectors:128 in
  Alcotest.(check (list string)) "only new epoch" [ "new" ] records

let test_log_full () =
  let disk = mk () in
  let wal = Wal.format ~disk ~start:1 ~sectors:8 in
  let big = String.make 2048 'x' in
  Wal.append wal big;
  (* 2048 bytes + header = 5 sectors; region has 7 free; second append
     cannot fit. *)
  Alcotest.check_raises "log full" Wal.Log_full (fun () -> Wal.append wal big);
  Wal.commit wal;
  Wal.truncate wal;
  Wal.append wal big (* fits again after truncate *)

let test_empty_commit_noop () =
  let disk = mk () in
  let wal = Wal.format ~disk ~start:1 ~sectors:64 in
  let before = (Disk.stats disk).Disk.flushes in
  Wal.commit wal;
  Alcotest.(check int) "no flush for empty commit" before
    (Disk.stats disk).Disk.flushes

let test_crash_mid_commit () =
  let disk = mk () in
  let wal = Wal.format ~disk ~start:1 ~sectors:128 in
  Wal.append wal "safe";
  Wal.commit wal;
  Wal.append wal (String.make 4096 'y');
  Disk.set_crash_after_writes disk 2;
  (try
     Wal.commit wal;
     Alcotest.fail "expected crash"
   with Disk.Crashed -> ());
  let disk' = Disk.reopen_after_crash disk in
  let _, records = Wal.recover ~disk:disk' ~start:1 ~sectors:128 in
  Alcotest.(check (list string)) "torn record discarded" [ "safe" ] records

let test_binary_payloads () =
  let disk = mk () in
  let wal = Wal.format ~disk ~start:1 ~sectors:128 in
  let rng = Histar_util.Rng.create 5L in
  let payloads = List.init 10 (fun i -> Histar_util.Rng.bytes rng (i * 97)) in
  List.iter (Wal.append wal) payloads;
  Wal.commit wal;
  let _, records = Wal.recover ~disk ~start:1 ~sectors:128 in
  Alcotest.(check (list string)) "binary round-trip" payloads records

let prop_commit_prefix =
  (* After any sequence of append/commit, recovery returns exactly the
     committed prefix. *)
  Histar_check.Check.test_case ~count:100 "recovery = committed prefix"
    Histar_check.Gen.(resize 30 (list (pair (resize 100 string) bool)))
    (fun ops ->
      let disk = mk () in
      let wal = Wal.format ~disk ~start:1 ~sectors:4096 in
      let committed = ref [] and pending = ref [] in
      List.iter
        (fun (payload, do_commit) ->
          Wal.append wal payload;
          pending := payload :: !pending;
          if do_commit then begin
            Wal.commit wal;
            committed := !pending @ !committed;
            pending := []
          end)
        ops;
      let _, records = Wal.recover ~disk ~start:1 ~sectors:4096 in
      Histar_check.Check.ensure (records = List.rev !committed))

let () =
  Alcotest.run "histar_wal"
    [
      ( "wal",
        [
          Alcotest.test_case "format/recover empty" `Quick
            test_format_recover_empty;
          Alcotest.test_case "commit then recover" `Quick
            test_commit_then_recover;
          Alcotest.test_case "uncommitted lost" `Quick test_uncommitted_lost;
          Alcotest.test_case "truncate" `Quick test_truncate;
          Alcotest.test_case "log full" `Quick test_log_full;
          Alcotest.test_case "empty commit no-op" `Quick test_empty_commit_noop;
          Alcotest.test_case "crash mid-commit" `Quick test_crash_mid_commit;
          Alcotest.test_case "binary payloads" `Quick test_binary_payloads;
          prop_commit_prefix;
        ] );
    ]
