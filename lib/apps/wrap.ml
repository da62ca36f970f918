module Sys = Histar_core.Sys
module Process = Histar_unix.Process
module Fs = Histar_unix.Fs
module Label = Histar_label.Label
module Level = Histar_label.Level
open Histar_core.Types

type report = {
  verdicts : Scanner.verdict list;
  timed_out : bool;
  elapsed_ns : int;
}

let run ~proc ~user ~db_path ~paths ?(timeout_ms = 10_000)
    ?(scanner = Scanner.run) ?(spawn_helpers = false) () =
  let started_ns = Sys.clock_ns () in
  let ur = user.Process.ur in
  (* a fresh taint category isolating this scan *)
  let v = Sys.cat_create () in
  let tainted = Label.of_list [ (ur, Level.L3); (v, Level.L3) ] Level.L1 in
  (* the private /tmp: a container the tainted scanner can write *)
  Process.reserve proc 300_000_000L;
  let tmp_ct =
    Sys.container_create ~container:(Process.container proc) ~label:tainted
      ~quota:268_435_456L "wrap private tmp"
  in
  (* the verdict segment, writable by the scanner, readable by us *)
  let result_oid =
    Sys.segment_create ~container:tmp_ct ~label:tainted ~quota:65_536L ~len:8
      "scan results"
  in
  let result_seg = centry tmp_ct result_oid in
  (* launch the scanner tainted {ur3, v3} with NO untainting gates: it
     cannot even declassify its exit (§5.8 strong isolation) *)
  let taints = [ (ur, Level.L3); (v, Level.L3) ] in
  let _h =
    Process.spawn proc ~name:"av-scanner" ~extra_label:taints
      ~extra_clearance:taints ~untaint_exit:false ~in_container:tmp_ct
      (fun scanner_proc ->
        scanner ~proc:scanner_proc ~db_path ~paths ~result_seg ~spawn_helpers)
  in
  (* wait for results, bounded by the timeout (which also bounds how
     long a malicious scanner gets to modulate covert channels) *)
  let deadline = started_ns + (timeout_ms * 1_000_000) in
  let rec await () =
    if not (Int64.equal (Sys.segment_word result_seg ~off:0) 0L) then `Done
    else if Sys.clock_ns () > deadline then `Timeout
    else begin
      Sys.usleep 1000;
      await ()
    end
  in
  let outcome = await () in
  let verdicts =
    match outcome with
    | `Timeout -> []
    | `Done ->
        (* we own ur and v: untaint the verdict by simply reading it *)
        Scanner.decode_verdicts (Sys.segment_read result_seg ~off:8 ~len:(-1) ())
  in
  (* kill the scanner and everything it ever allocated: one unref of
     the private tmp destroys the whole subtree *)
  (try Sys.unref (centry (Process.container proc) tmp_ct)
   with Kernel_error _ -> ());
  {
    verdicts;
    timed_out = (outcome = `Timeout);
    elapsed_ns = Sys.clock_ns () - started_ns;
  }
