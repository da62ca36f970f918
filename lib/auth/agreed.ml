(* The mutually-agreed-upon code of §6.2: both the login client and the
   user's authentication service want this exact function — and nothing
   else — to run with their combined privilege (login's pir ownership
   plus the user's uw ownership) in order to create the retry-count
   segment labeled {pir3, uw0, 1}.

   In real HiStar, login writes this code into a segment, marks the
   segment and its address space immutable, and the user's setup code
   verifies the bytes before invoking the gate. In this simulation the
   gate entry is an OCaml closure; immutability of the code is modeled
   by this function living in a shared library both parties link
   against, plus an immutable marker segment the setup code can check
   (Sys.set_immutable). *)

module Sys = Histar_core.Sys
module Label = Histar_label.Label
module Level = Histar_label.Level
module Codec = Histar_util.Codec
open Histar_core.Types

let retry_bytes = 16

(* TLS request: session container, pir, uw. TLS reply: retry centry. *)
let encode_request ~session ~pir ~uw =
  let e = Codec.Enc.create () in
  Codec.Enc.int e session;
  Codec.Enc.int e (pir : Histar_label.Category.t :> int);
  Codec.Enc.int e (uw : Histar_label.Category.t :> int);
  Codec.Enc.to_string e

let create_retry_segment_entry () =
  let d = Codec.Dec.of_string (Sys.tls_read ()) in
  let session = oid_of_int64 (Codec.Dec.i64 d) in
  let pir = Histar_label.Category.of_int64 (Codec.Dec.i64 d) in
  let uw = Histar_label.Category.of_int64 (Codec.Dec.i64 d) in
  let label = Label.of_list [ (pir, Level.L3); (uw, Level.L0) ] Level.L1 in
  let seg =
    Sys.segment_create ~container:session ~label ~quota:4624L ~len:retry_bytes
      "retry count"
  in
  let e = Codec.Enc.create () in
  Proto.enc_centry e (centry session seg);
  Sys.tls_write (Codec.Enc.to_string e);
  Sys.gate_return ()

(* Called by login before invoking the setup gate. Returns the agreed
   gate (label {pir⋆, 1}: combines login's pir ownership with whatever
   the invoking thread owns) plus the immutable code-marker segment the
   service can verify. *)
let install ~container ~pir =
  let marker =
    Sys.segment_create ~container ~label:(Label.make Level.L1) ~quota:4608L
      ~len:32 "agreed code: create_retry_segment v1"
  in
  Sys.segment_write (centry container marker) "create_retry_segment v1";
  Sys.set_immutable (centry container marker);
  let gate =
    Sys.gate_create ~container
      ~label:(Label.of_list [ (pir, Level.Star) ] Level.L1)
      ~clearance:(Label.of_list [ (pir, Level.L3) ] Level.L2)
      ~quota:4096L ~name:"agreed retry-segment gate"
      create_retry_segment_entry
  in
  (centry container gate, centry container marker)

(* The service-side verification that the gate runs only the agreed
   code: checks the marker is immutable and has the expected bytes. *)
let verify ~marker =
  match Sys.segment_read marker () with
  | bytes -> String.length bytes >= 23 && String.sub bytes 0 23 = "create_retry_segment v1"
  | exception Kernel_error _ -> false
