open Histar_disk
module Clock = Histar_util.Sim_clock
module Metrics = Histar_metrics.Metrics

let small_geometry = { Disk.sectors = 10_000; sector_bytes = 512 }

let mk () =
  let clock = Clock.create () in
  let d = Disk.create ~geometry:small_geometry ~clock () in
  (clock, d)

let sector c = String.make 512 c

let test_read_zeros () =
  let _, d = mk () in
  Alcotest.(check string) "fresh sectors are zero" (sector '\000')
    (Disk.read d ~sector:42 ~count:1)

let test_write_read () =
  let _, d = mk () in
  Disk.write d ~sector:5 (sector 'a' ^ sector 'b');
  Alcotest.(check string) "read back through cache" (sector 'a' ^ sector 'b')
    (Disk.read d ~sector:5 ~count:2);
  Disk.flush d;
  Alcotest.(check string) "read back from media" (sector 'b')
    (Disk.read d ~sector:6 ~count:1)

let test_bad_args () =
  let _, d = mk () in
  Alcotest.check_raises "unaligned write"
    (Invalid_argument "Disk.write: data not a multiple of the sector size")
    (fun () -> Disk.write d ~sector:0 "abc");
  (try
     ignore (Disk.read d ~sector:9_999 ~count:2);
     Alcotest.fail "expected out-of-range failure"
   with Invalid_argument _ -> ())

let test_time_advances () =
  let clock, d = mk () in
  let t0 = Clock.now clock in
  ignore (Disk.read d ~sector:5_000 ~count:8);
  Alcotest.(check bool) "read costs time" true (Clock.now clock > t0)

let test_sequential_cheaper_than_random () =
  (* 100 sequential sector writes+flush should cost far less than 100
     scattered single-sector write+flush pairs. *)
  let clock_seq, d_seq = mk () in
  for i = 0 to 99 do
    Disk.write d_seq ~sector:(1000 + i) (sector 'x')
  done;
  Disk.flush d_seq;
  let seq_ns = Clock.now clock_seq in
  let clock_rnd, d_rnd = mk () in
  for i = 0 to 99 do
    Disk.write d_rnd ~sector:(i * 97) (sector 'x');
    Disk.flush d_rnd
  done;
  let rnd_ns = Clock.now clock_rnd in
  Alcotest.(check bool)
    (Printf.sprintf "random (%d) >> sequential (%d)" rnd_ns seq_ns)
    true
    (rnd_ns > 10 * seq_ns)

let test_flush_coalesces () =
  let _, d = mk () in
  Metrics.with_enabled true @@ fun () ->
  let before = Metrics.snapshot () in
  for i = 0 to 9 do
    Disk.write d ~sector:(100 + i) (sector 'y')
  done;
  Disk.flush d;
  let delta = Metrics.diff ~before ~after:(Metrics.snapshot ()) in
  Alcotest.(check int) "ten sectors written" 10
    (Metrics.value_in delta "disk.media_sector_writes");
  (* One contiguous run: at most one seek. *)
  Alcotest.(check bool) "coalesced into one seek" true
    (Metrics.value_in delta "disk.seeks" <= 2)

let test_crash_loses_cache () =
  let _, d = mk () in
  Disk.write d ~sector:1 (sector 'a');
  Disk.flush d;
  Disk.write d ~sector:2 (sector 'b');
  Disk.set_crash_after_writes d 0;
  (try
     Disk.flush d;
     Alcotest.fail "expected crash"
   with Disk.Crashed -> ());
  Alcotest.(check bool) "crashed" true (Disk.crashed d);
  Alcotest.check_raises "dead disk" Disk.Crashed (fun () ->
      ignore (Disk.read d ~sector:1 ~count:1));
  let d' = Disk.reopen_after_crash d in
  Alcotest.(check string) "pre-crash data survives" (sector 'a')
    (Disk.read d' ~sector:1 ~count:1);
  Alcotest.(check string) "lost write gone" (sector '\000')
    (Disk.read d' ~sector:2 ~count:1)

let test_crash_partial_flush () =
  let _, d = mk () in
  for i = 0 to 9 do
    Disk.write d ~sector:i (sector 'p')
  done;
  Disk.set_crash_after_writes d 5;
  (try
     Disk.flush d;
     Alcotest.fail "expected crash"
   with Disk.Crashed -> ());
  let d' = Disk.reopen_after_crash d in
  (* Exactly the first five sectors of the elevator scan persisted. *)
  for i = 0 to 4 do
    Alcotest.(check string) "persisted" (sector 'p') (Disk.read d' ~sector:i ~count:1)
  done;
  for i = 5 to 9 do
    Alcotest.(check string) "torn off" (sector '\000')
      (Disk.read d' ~sector:i ~count:1)
  done

let prop_write_read_roundtrip =
  Histar_check.Check.test_case ~count:100
    ~print:(fun (start, count) -> Printf.sprintf "sector %d, count %d" start count)
    "disk write/read round-trip"
    Histar_check.Gen.(pair (int_range 0 999) (int_range 1 8))
    (fun (start, count) ->
      let _, d = mk () in
      let rng = Histar_util.Rng.create (Int64.of_int (start + count)) in
      let data = Histar_util.Rng.bytes rng (count * 512) in
      Disk.write d ~sector:start data;
      Disk.flush d;
      Histar_check.Check.ensure
        (String.equal (Disk.read d ~sector:start ~count) data))

let () =
  Alcotest.run "histar_disk"
    [
      ( "disk",
        [
          Alcotest.test_case "zero fill" `Quick test_read_zeros;
          Alcotest.test_case "write/read" `Quick test_write_read;
          Alcotest.test_case "bad arguments" `Quick test_bad_args;
          Alcotest.test_case "time model" `Quick test_time_advances;
          Alcotest.test_case "seq vs random cost" `Quick
            test_sequential_cheaper_than_random;
          Alcotest.test_case "flush coalesces" `Quick test_flush_coalesces;
          Alcotest.test_case "crash loses cache" `Quick test_crash_loses_cache;
          Alcotest.test_case "crash mid-flush" `Quick test_crash_partial_flush;
          prop_write_read_roundtrip;
        ] );
    ]
