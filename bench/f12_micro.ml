(* Figure 12, upper half: IPC round-trip, fork/exec, spawn — HiStar
   vs the linuxsim/bsdsim comparison kernels, plus the §7.1 syscall
   counts. *)

open Harness
module Unixsim = Histar_baseline.Unixsim

(* The paper's sizes: 2,000 IPC round trips, 30 process cycles. *)
type sizes = { rtts : int; iters : int }

let sizes = { rtts = 2_000; iters = 30 }

let baseline_ipc flavor ~rtts =
  let clock = Clock.create () in
  let u = Unixsim.create flavor ~clock () in
  let (), ns =
    timed clock (fun () ->
        for _ = 1 to rtts do
          Unixsim.pipe_rtt u
        done)
  in
  float_of_int ns /. float_of_int rtts

let baseline_forkexec flavor ~iters =
  let clock = Clock.create () in
  let u = Unixsim.create flavor ~clock () in
  Unixsim.reset_syscall_count u;
  let (), ns =
    timed clock (fun () ->
        for _ = 1 to iters do
          Unixsim.fork_exec_true u
        done)
  in
  (float_of_int ns /. float_of_int iters /. 1e6, Unixsim.syscall_count u / iters)

(* HiStar's side runs the runner's workloads: ms and syscalls per
   create-run-exit-wait cycle. *)
let histar_proc ~use_spawn ~iters =
  let p = Runner.proc_cycle ~use_spawn ~iters in
  (float_of_int p.ns /. float_of_int iters /. 1e6, p.syscalls / iters)

let run { rtts; iters } =
  header "Figure 12 (upper): IPC and process-creation microbenchmarks";
  let ipc = Runner.ipc_pingpong ~rtts in
  let h_ipc_ns = float_of_int ipc.ns /. float_of_int rtts in
  let h_ipc_sc = float_of_int ipc.syscalls /. float_of_int rtts in
  let l_ipc = baseline_ipc Unixsim.Linux ~rtts in
  let b_ipc = baseline_ipc Unixsim.Openbsd ~rtts in
  row4 "Benchmark" "HiStar" "Linux" "OpenBSD";
  row4 "IPC benchmark, per RTT"
    (fmt_time_us (h_ipc_ns /. 1e3))
    (fmt_time_us (l_ipc /. 1e3))
    (fmt_time_us (b_ipc /. 1e3));
  paper "3.11 µs / 4.32 µs / 2.13 µs";
  Printf.printf "%-38s %12s\n" "  syscalls per RTT (HiStar)"
    (Printf.sprintf "%.0f" h_ipc_sc);
  let fe_ms, fe_sc = histar_proc ~use_spawn:false ~iters in
  let sp_ms, sp_sc = histar_proc ~use_spawn:true ~iters in
  let l_fe_ms, l_fe_sc = baseline_forkexec Unixsim.Linux ~iters in
  let b_fe_ms, b_fe_sc = baseline_forkexec Unixsim.Openbsd ~iters in
  row4 "Fork/exec, per iteration" (fmt_time_ms fe_ms) (fmt_time_ms l_fe_ms)
    (fmt_time_ms b_fe_ms);
  paper "1.35 ms / 0.18 ms / 0.18 ms";
  row4 "Spawn, per iteration" (fmt_time_ms sp_ms) na na;
  paper "0.47 ms / — / —";
  header "Table (§7.1): system calls per /bin/true cycle";
  row4 "Path" "HiStar" "Linux" "OpenBSD";
  row4 "fork + exec + exit + wait"
    (string_of_int fe_sc) (string_of_int l_fe_sc) (string_of_int b_fe_sc);
  paper "317 / 9 / 9";
  row4 "spawn + exit + wait" (string_of_int sp_sc) na na;
  paper "127 / — / —";
  Printf.printf
    "\nShape check: spawn uses %.1fx fewer syscalls and is %.1fx faster than\n\
     fork/exec (paper: 2.5x fewer, 2.9x faster).\n"
    (float_of_int fe_sc /. float_of_int sp_sc)
    (fe_ms /. sp_ms)
