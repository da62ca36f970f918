(** Wire format for label-preserving remote gate calls.

    Every message carries labels explicitly: a {!wlabel} is the
    [Label.ranked] numeric view with cluster-scoped wire names (minted
    by {!Names}) in place of local category values. Transport frames
    are [u32 length | i64 nonce | sealed body] — the nonce keys the
    {!Histar_crypto.Seal} keystream and rides in the clear; everything
    label- or payload-bearing is sealed and tagged, so a wire
    eavesdropper on the shared hub learns only message sizes and a
    tamperer is detected at unseal. *)

type wlabel = { wl_entries : (int64 * int) list; wl_default : int }
(** A label in transit: (wire name, {!Histar_label.Level.to_rank})
    pairs plus the default rank. *)

type call = {
  c_service : string;
  c_from : int;  (** sender node id, authenticated by the shared key *)
  c_label : wlabel;  (** caller's thread label, wire names *)
  c_clear : wlabel;  (** caller's observation capacity, wire names *)
  c_args : string;
}

type status =
  | S_ok
  | S_refused  (** information-flow refusal; payload is the reason *)
  | S_error  (** remote execution error; payload is the message *)

type reply = {
  r_status : status;
  r_label : wlabel;  (** label of the replying thread, wire names *)
  r_grants : int64 list;  (** wire names granted through the return *)
  r_payload : string;
}

type msg = Call of call | Reply of reply

val encode_msg : msg -> string
val decode_msg : string -> msg

val frame_raw : nonce:int64 -> string -> string
(** [u32 length | i64 nonce | body]; [body] is already sealed. *)

val max_frame_len : int
(** The largest length field {!deframe} accepts: the 8-byte nonce plus
    a sealed body of up to 64 KiB less 8. It bounds what a peer can
    make a reader buffer before a frame is whole. *)

val oversized : string -> bool
(** Whether a frame built by {!frame_raw} or {!seal_msg} has a length
    field above {!max_frame_len}, so that its receiver would refuse it
    and drop the stream. A sender checks this before it sends. *)

type deframed =
  | Frame of int64 * string  (** nonce and body, taken off the reader *)
  | Partial  (** the reader does not yet hold a whole frame *)
  | Bad_length of int
      (** a length field below the 8-byte nonce or above
          {!max_frame_len}, which a sender that checks {!oversized}
          never writes: the stream is not frames, and no later byte
          can make it one *)

type reader
(** The reassembly buffer of one byte stream. *)

val reader : unit -> reader

val feed : reader -> string -> unit
(** Append the bytes just received. *)

val deframe : reader -> deframed
(** Take one complete frame off the front of the reader, leaving the
    bytes after it. Neither a partial frame nor the bytes after a
    frame are copied when a frame is taken: a received byte is copied
    once by {!feed}, once into the body it belongs to, and at most
    once more when the unread bytes slide to the front of the buffer,
    which happens only after at least as many bytes were taken off.
    Total: any bytes a peer sends give one of the three answers, never
    an exception. *)

val seal_msg : Histar_crypto.Seal.t -> nonce:int64 -> msg -> string
(** Encode, seal-and-tag, and frame one message. *)

val unseal_msg : Histar_crypto.Seal.t -> nonce:int64 -> string -> msg option
(** Unseal and decode a frame body; [None] on tag or codec failure
    (tampered, truncated, or wrong-key traffic). *)
