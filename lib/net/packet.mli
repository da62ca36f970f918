(** Wire formats for the simulated network: an Ethernet-style frame
    carrying an IP-style packet carrying TCP or UDP. Everything is
    length-delimited little-endian binary, the layout the
    {!Histar_util.Codec} encoders write; malformed input yields [None]
    from the decoders (a real stack drops bad frames). *)

type tcp_flags = { syn : bool; ack : bool; fin : bool; rst : bool }

type view = { buf : string; off : int; len : int }
(** A payload: the bytes [buf[off, off+len)], shared with whatever
    [buf] is. The encoder and the decoder both carry payloads this way,
    so neither copies one into a block of its own: a sender hands out
    views into the strings it queued, and {!frame_of_bytes} returns a
    view into the received frame. *)

val view : string -> view
(** The whole string. *)

val empty : view

val view_to_string : view -> string
(** The bytes as a string: [buf] itself when the view covers all of
    it, else a copy. *)

type tcp = {
  src_port : Addr.port;
  dst_port : Addr.port;
  seq : int;
  ack_no : int;
  flags : tcp_flags;
  window : int;
  payload : view;
}

type udp = { usrc_port : Addr.port; udst_port : Addr.port; upayload : view }
type proto = Tcp of tcp | Udp of udp

type ip_packet = { src_ip : Addr.ip; dst_ip : Addr.ip; proto : proto }

type frame = { src_mac : string; dst_mac : string; ip : ip_packet }

val no_flags : tcp_flags

val frame_to_bytes : frame -> string
(** Serializes the frame and appends an 8-byte FCS trailer (fnv64
    over the body), so single-bit wire corruption is detected at the
    receiving NIC. One allocation: each field is written once into a
    block of the frame's exact length (the payload straight from its
    view), and the FCS is computed over that block in place. *)

val frame_of_bytes : string -> frame option
(** [None] on truncation, a malformed body (including a field that
    runs into the FCS trailer, unknown TCP flag bits, or bytes left
    over after the last field), or an FCS mismatch. Never raises. A
    frame it returns re-encodes to the input bytes. Its payload is a
    view into the input, not a copy. *)

val macs_of_bytes : string -> (string * string) option
(** [Some (src_mac, dst_mac)] of exactly the frames {!frame_of_bytes}
    accepts (the same scan, FCS included), [None] otherwise. Copies
    the two MACs but not the payload: what a hub needs to route a
    frame. Never raises. *)
