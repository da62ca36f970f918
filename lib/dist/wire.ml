(* Wire format for label-preserving remote gate calls.

   Labels travel with every message as lists of (wire name, level rank)
   pairs plus a default rank — the same numeric view [Label.ranked]
   exposes locally, except that category names are the cluster-scoped
   wire names minted by {!Names}, never raw local category values
   (local names are per-kernel allocator state and would collide or
   leak across nodes, §8 of the paper).

   Transport framing is [u32 length | i64 nonce | sealed body]: the
   nonce rides in the clear so the receiver can key the {!Seal}
   keystream, the body is sealed and tagged so a wire eavesdropper on
   the shared hub sees no label names or payload bytes and a tamperer
   is detected at unseal. Framing is self-delimiting over a TCP byte
   stream; {!deframe} peels one message off a reassembly buffer. *)

module Codec = Histar_util.Codec

type wlabel = { wl_entries : (int64 * int) list; wl_default : int }

type call = {
  c_service : string;
  c_from : int;  (** sender node id, authenticated by the shared key *)
  c_label : wlabel;  (** caller's thread label, wire names *)
  c_clear : wlabel;  (** caller's observation capacity, wire names *)
  c_args : string;
}

type status = S_ok | S_refused | S_error

type reply = {
  r_status : status;
  r_label : wlabel;  (** label of the replying thread, wire names *)
  r_grants : int64 list;  (** wire names granted through the return *)
  r_payload : string;  (** page bytes, or the refusal/error message *)
}

type msg = Call of call | Reply of reply

let enc_wlabel e wl =
  Codec.Enc.list e
    (fun e (w, r) ->
      Codec.Enc.i64 e w;
      Codec.Enc.u8 e r)
    wl.wl_entries;
  Codec.Enc.u8 e wl.wl_default

let dec_wlabel d =
  let wl_entries =
    Codec.Dec.list d (fun d ->
        let w = Codec.Dec.i64 d in
        let r = Codec.Dec.u8 d in
        (w, r))
  in
  let wl_default = Codec.Dec.u8 d in
  { wl_entries; wl_default }

let status_to_u8 = function S_ok -> 0 | S_refused -> 1 | S_error -> 2

let status_of_u8 = function
  | 0 -> S_ok
  | 1 -> S_refused
  | 2 -> S_error
  | n -> Fmt.invalid_arg "Wire.status_of_u8: %d" n

let encode_msg m =
  let e = Codec.Enc.create () in
  (match m with
  | Call c ->
      Codec.Enc.u8 e 1;
      Codec.Enc.str e c.c_service;
      Codec.Enc.u32 e c.c_from;
      enc_wlabel e c.c_label;
      enc_wlabel e c.c_clear;
      Codec.Enc.str e c.c_args
  | Reply r ->
      Codec.Enc.u8 e 2;
      Codec.Enc.u8 e (status_to_u8 r.r_status);
      enc_wlabel e r.r_label;
      Codec.Enc.list e Codec.Enc.i64 r.r_grants;
      Codec.Enc.str e r.r_payload);
  Codec.Enc.to_string e

let decode_msg s =
  let d = Codec.Dec.of_string s in
  match Codec.Dec.u8 d with
  | 1 ->
      let c_service = Codec.Dec.str d in
      let c_from = Codec.Dec.u32 d in
      let c_label = dec_wlabel d in
      let c_clear = dec_wlabel d in
      let c_args = Codec.Dec.str d in
      Call { c_service; c_from; c_label; c_clear; c_args }
  | 2 ->
      let r_status = status_of_u8 (Codec.Dec.u8 d) in
      let r_label = dec_wlabel d in
      let r_grants = Codec.Dec.list d Codec.Dec.i64 in
      let r_payload = Codec.Dec.str d in
      Reply { r_status; r_label; r_grants; r_payload }
  | n -> Fmt.invalid_arg "Wire.decode_msg: bad tag %d" n

(* --- transport framing --- *)

let frame_raw ~nonce body =
  let e = Codec.Enc.create () in
  Codec.Enc.u32 e (8 + String.length body);
  Codec.Enc.i64 e nonce;
  Codec.Enc.raw e body;
  Codec.Enc.to_string e

type deframed = Frame of int64 * string | Partial | Bad_length of int

(* The largest message a cluster sends is a few hundred bytes (177 in
   the dist tests, 77 in the smoke cluster), so 64 KiB leaves room for
   pages and records two orders of magnitude larger. *)
let max_frame_len = 65_536

let oversized frame = String.length frame - 4 > max_frame_len

(* The unread bytes are [data.[off] .. data.[off + len - 1]]. *)
type reader = { mutable data : Bytes.t; mutable off : int; mutable len : int }

let reader () = { data = Bytes.create 256; off = 0; len = 0 }

let feed r s =
  let n = String.length s in
  let cap = Bytes.length r.data in
  if r.off + r.len + n > cap then begin
    (* Slide the unread bytes to the front only when no more of them
       move than were taken off since the last slide, so each byte
       moves at most once per byte consumed; otherwise grow. *)
    let dst =
      if r.len + n <= cap && r.len <= r.off then r.data
      else Bytes.create (max (2 * cap) (r.len + n))
    in
    Bytes.blit r.data r.off dst 0 r.len;
    r.data <- dst;
    r.off <- 0
  end;
  Bytes.blit_string s 0 r.data (r.off + r.len) n;
  r.len <- r.len + n

let deframe r =
  if r.len < 4 then Partial
  else
    let n = Int32.to_int (Bytes.get_int32_le r.data r.off) land 0xFFFF_FFFF in
    if n < 8 || n > max_frame_len then Bad_length n
    else if r.len < 4 + n then Partial
    else begin
      let nonce = Bytes.get_int64_le r.data (r.off + 4) in
      let body = Bytes.sub_string r.data (r.off + 12) (n - 8) in
      r.off <- r.off + 4 + n;
      r.len <- r.len - 4 - n;
      if r.len = 0 then r.off <- 0;
      Frame (nonce, body)
    end

let seal_msg seal ~nonce m =
  frame_raw ~nonce (Histar_crypto.Seal.seal_tagged seal ~nonce (encode_msg m))

let unseal_msg seal ~nonce body =
  match Histar_crypto.Seal.unseal_tagged seal ~nonce body with
  | None -> None
  | Some plain -> (
      match decode_msg plain with
      | m -> Some m
      | exception _ -> None)
