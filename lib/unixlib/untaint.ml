module Sys = Histar_core.Sys
module Label = Histar_label.Label
module Level = Histar_label.Level
module Category = Histar_label.Category
module Codec = Histar_util.Codec
open Histar_core.Types

let call gate ~return_container payload =
  Sys.tls_write payload;
  Sys.gate_call ~gate
    ~label:(Sys.gate_floor gate)
    ~clearance:(Sys.self_clearance ()) ~return_container
    ~return_label:(Sys.self_label ())
    ~return_clearance:(Sys.self_clearance ()) ();
  Sys.tls_read ()

(* ---------- file creation ---------- *)

let make_file_create_gate ~fs ~container ~taints =
  let self = Sys.self_label () in
  List.iter
    (fun c ->
      if not (Label.owns self c) then
        invalid_arg "Untaint.make_file_create_gate: caller must own the taint")
    taints;
  let entry () =
    let path = Codec.Dec.str (Codec.Dec.of_string (Sys.tls_read ())) in
    (* the file stays tainted: only its name is declassified *)
    let file_label =
      Label.of_list (List.map (fun c -> (c, Level.L3)) taints) Level.L1
    in
    let reply = Codec.Enc.create () in
    (match Fs.create fs ~label:file_label path with
    | ce ->
        Codec.Enc.bool reply true;
        Codec.Enc.int reply ce.container;
        Codec.Enc.int reply ce.object_id
    | exception _ -> Codec.Enc.bool reply false);
    Sys.tls_write (Codec.Enc.to_string reply);
    Sys.gate_return ()
  in
  let gate_label =
    List.fold_left (fun l c -> Label.set l c Level.Star) (Label.make Level.L1)
      taints
  in
  (* tainted threads must clear the gate's clearance *)
  let gate_clearance =
    List.fold_left (fun l c -> Label.set l c Level.L3) (Label.make Level.L2)
      taints
  in
  centry container
    (Sys.gate_create ~container ~label:gate_label ~clearance:gate_clearance
       ~quota:4096L ~name:"untaint: file creation" entry)

let create_file_via ~gate ~return_container path =
  let e = Codec.Enc.create () in
  Codec.Enc.str e path;
  let d = Codec.Dec.of_string (call gate ~return_container (Codec.Enc.to_string e)) in
  if Codec.Dec.bool d then
    let c = oid_of_int64 (Codec.Dec.i64 d) in
    let o = oid_of_int64 (Codec.Dec.i64 d) in
    centry c o
  else failwith "Untaint.create_file_via: creation refused"

(* ---------- quota adjustment ---------- *)

let make_quota_gate ~container ~taints =
  let self = Sys.self_label () in
  List.iter
    (fun c ->
      if not (Label.owns self c) then
        invalid_arg "Untaint.make_quota_gate: caller must own the taint")
    taints;
  let entry () =
    let d = Codec.Dec.of_string (Sys.tls_read ()) in
    let src = oid_of_int64 (Codec.Dec.i64 d) in
    let target = oid_of_int64 (Codec.Dec.i64 d) in
    let nbytes = Codec.Dec.i64 d in
    let reply = Codec.Enc.create () in
    (match Sys.quota_move ~container:src ~target ~nbytes with
    | () -> Codec.Enc.bool reply true
    | exception Kernel_error _ -> Codec.Enc.bool reply false);
    Sys.tls_write (Codec.Enc.to_string reply);
    Sys.gate_return ()
  in
  let gate_label =
    List.fold_left (fun l c -> Label.set l c Level.Star)
      (Sys.self_label ()) taints
  in
  let gate_clearance =
    List.fold_left (fun l c -> Label.set l c Level.L3) (Label.make Level.L2)
      taints
  in
  centry container
    (Sys.gate_create ~container ~label:gate_label ~clearance:gate_clearance
       ~quota:4096L ~name:"untaint: quota adjustment" entry)

let adjust_quota_via ~gate ~return_container ~container ~target ~nbytes =
  let e = Codec.Enc.create () in
  Codec.Enc.int e container;
  Codec.Enc.int e target;
  Codec.Enc.i64 e nbytes;
  let d = Codec.Dec.of_string (call gate ~return_container (Codec.Enc.to_string e)) in
  if not (Codec.Dec.bool d) then
    failwith "Untaint.adjust_quota_via: refused"
