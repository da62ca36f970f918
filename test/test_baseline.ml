module Disk = Histar_disk.Disk
module Clock = Histar_util.Sim_clock
open Histar_baseline

let geometry = { Disk.sectors = 5_000_000; sector_bytes = 512 }

let mk flavor =
  let clock = Clock.create () in
  let disk = Disk.create ~geometry ~clock () in
  (clock, Unixsim.create flavor ~disk ~clock ())

let test_fs_basics () =
  let _, u = mk Unixsim.Linux in
  Unixsim.creat u ~uid:1 ~mode:0o644 "/f";
  Unixsim.write u ~uid:1 "/f" "hello";
  Alcotest.(check string) "read back" "hello" (Unixsim.read u ~uid:2 "/f");
  Unixsim.unlink u ~uid:1 "/f";
  Alcotest.(check bool) "gone" false (Unixsim.exists u "/f")

let test_dac_modes () =
  let _, u = mk Unixsim.Linux in
  Unixsim.creat u ~uid:1 ~mode:0o600 "/private";
  Unixsim.write u ~uid:1 "/private" "secret";
  Alcotest.(check string) "owner reads" "secret" (Unixsim.read u ~uid:1 "/private");
  (try
     ignore (Unixsim.read u ~uid:2 "/private");
     Alcotest.fail "expected permission denial"
   with Failure _ -> ())

let test_fsync_costs_time () =
  let clock, u = mk Unixsim.Linux in
  Unixsim.creat u ~uid:1 ~mode:0o644 "/f";
  Unixsim.write u ~uid:1 "/f" (String.make 1024 'x');
  let t0 = Clock.now clock in
  Unixsim.fsync u "/f";
  let dt = Clock.now clock - t0 in
  (* two barriers: at least ~8 ms of simulated time *)
  Alcotest.(check bool)
    (Printf.sprintf "fsync took %d ns" dt)
    true
    (dt > 6_000_000)

let test_mfs_fsync_free () =
  let clock, u = mk Unixsim.Openbsd in
  Unixsim.creat u ~uid:1 ~mode:0o644 "/f";
  Unixsim.write u ~uid:1 "/f" (String.make 1024 'x');
  let t0 = Clock.now clock in
  Unixsim.fsync u "/f";
  let dt = Clock.now clock - t0 in
  Alcotest.(check bool) "near-free" true (dt < 10_000)

let test_uncached_read_hits_disk () =
  let clock, u = mk Unixsim.Linux in
  Unixsim.creat u ~uid:1 ~mode:0o644 "/f";
  Unixsim.write u ~uid:1 "/f" (String.make 1024 'x');
  Unixsim.sync_all u;
  let t0 = Clock.now clock in
  ignore (Unixsim.read u ~uid:1 "/f");
  let cached_dt = Clock.now clock - t0 in
  Unixsim.drop_caches u;
  let t1 = Clock.now clock in
  ignore (Unixsim.read u ~uid:1 "/f");
  let uncached_dt = Clock.now clock - t1 in
  Alcotest.(check bool)
    (Printf.sprintf "uncached %d >> cached %d" uncached_dt cached_dt)
    true
    (uncached_dt > 10 * cached_dt)

let test_fork_exec_nine_syscalls () =
  let _, u = mk Unixsim.Linux in
  Unixsim.reset_syscall_count u;
  Unixsim.fork_exec_true u;
  Alcotest.(check int) "9 syscalls" 9 (Unixsim.syscall_count u)

let test_pipe_rtt_time () =
  let clock, u = mk Unixsim.Linux in
  let t0 = Clock.now clock in
  for _ = 1 to 1000 do
    Unixsim.pipe_rtt u
  done;
  let per = float_of_int (Clock.now clock - t0) /. 1000.0 in
  (* paper: 4.32 us on Linux *)
  Alcotest.(check bool)
    (Printf.sprintf "per RTT %.0f ns" per)
    true
    (per > 3_500.0 && per < 5_500.0)

let test_attacks_succeed_here () =
  let _, u = mk Unixsim.Linux in
  let leaks = Unixsim.attack_surface u ~secret:"bob-agi-123456" in
  Alcotest.(check int) "six channels" 6 (List.length leaks);
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (Printf.sprintf "channel %s succeeds on unix" l.Unixsim.channel)
        true l.Unixsim.succeeded)
    leaks;
  Alcotest.(check string) "secret reached the network" "bob-agi-123456"
    (Unixsim.network_sink u);
  Alcotest.(check string) "secret in /tmp" "bob-agi-123456"
    (Unixsim.read u ~uid:0 "/tmp/dead-drop")

let () =
  Alcotest.run "histar_baseline"
    [
      ( "unixsim",
        [
          Alcotest.test_case "fs basics" `Quick test_fs_basics;
          Alcotest.test_case "dac modes" `Quick test_dac_modes;
          Alcotest.test_case "fsync cost" `Quick test_fsync_costs_time;
          Alcotest.test_case "mfs fsync free" `Quick test_mfs_fsync_free;
          Alcotest.test_case "uncached read" `Quick test_uncached_read_hits_disk;
          Alcotest.test_case "fork/exec syscalls" `Quick
            test_fork_exec_nine_syscalls;
          Alcotest.test_case "pipe rtt" `Quick test_pipe_rtt_time;
          Alcotest.test_case "attacks succeed" `Quick test_attacks_succeed_here;
        ] );
    ]
