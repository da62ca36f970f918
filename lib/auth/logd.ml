module Sys = Histar_core.Sys
module Process = Histar_unix.Process
module Label = Histar_label.Label
module Level = Histar_label.Level
module Codec = Histar_util.Codec
open Histar_core.Types

type t = {
  gate_cell : centry option ref;
  log_cell : centry option ref;
}

let gate t = Sys.await t.gate_cell
let log_segment t = Sys.await t.log_cell

(* Append-only enforcement: the log segment is labeled {lw0, 1} where
   only logd's threads own lw; all writes go through the gate entry,
   which only ever appends. *)
let entry_fn log_cell () =
  let msg = Proto.dec_string (Sys.tls_read ()) in
  let log = Sys.await log_cell in
  let size = Sys.segment_size log in
  let e = Codec.Enc.create () in
  Codec.Enc.str e msg;
  let blob = Codec.Enc.to_string e in
  Sys.segment_resize log (size + String.length blob);
  Sys.segment_write log ~off:size blob;
  Sys.gate_return ()

let start proc =
  let gate_cell = ref None in
  let log_cell = ref None in
  let _h =
    Process.spawn proc ~name:"logd" (fun daemon ->
        let lw = Sys.cat_create () in
        let log_label = Label.of_list [ (lw, Level.L0) ] Level.L1 in
        let ct = Process.container daemon in
        let log =
          Sys.segment_create ~container:ct ~label:log_label ~quota:1_048_576L
            ~len:0 "authentication log"
        in
        log_cell := Some (centry ct log);
        (* the gate owns lw so entries run with append rights *)
        let gl = Label.of_list [ (lw, Level.Star) ] Level.L1 in
        let g =
          Sys.gate_create ~container:ct ~label:gl
            ~clearance:(Label.make Level.L2) ~quota:4096L ~name:"log append"
            (entry_fn log_cell)
        in
        gate_cell := Some (centry ct g);
        (* park forever; the process stays alive to own the log *)
        ignore (Sys.wait_alert ()))
  in
  { gate_cell; log_cell }

let append t ~return_container msg =
  let gate = gate t in
  Sys.tls_write (Proto.enc_string msg);
  Sys.gate_call ~gate
    ~label:(Sys.gate_floor gate)
    ~clearance:(Sys.self_clearance ()) ~return_container
    ~return_label:(Sys.self_label ())
    ~return_clearance:(Sys.self_clearance ()) ()

let entries t =
  let log = Sys.await t.log_cell in
  let blob = Sys.segment_read log () in
  let d = Codec.Dec.of_string blob in
  let rec go acc =
    if Codec.Dec.at_end d then List.rev acc
    else go (Codec.Dec.str d :: acc)
  in
  go []
