(** Wire formats for the simulated network: an Ethernet-style frame
    carrying an IP-style packet carrying TCP or UDP. Everything is
    length-delimited binary via {!Histar_util.Codec}; malformed input
    yields [None] from the decoders (a real stack drops bad frames). *)

type tcp_flags = { syn : bool; ack : bool; fin : bool; rst : bool }

type tcp = {
  src_port : Addr.port;
  dst_port : Addr.port;
  seq : int;
  ack_no : int;
  flags : tcp_flags;
  window : int;
  payload : string;
}

type udp = { usrc_port : Addr.port; udst_port : Addr.port; upayload : string }
type proto = Tcp of tcp | Udp of udp

type ip_packet = { src_ip : Addr.ip; dst_ip : Addr.ip; proto : proto }

type frame = { src_mac : string; dst_mac : string; ip : ip_packet }

val no_flags : tcp_flags

val frame_to_bytes : frame -> string
(** Serializes the frame and appends an 8-byte FCS trailer (fnv64
    over the body), so single-bit wire corruption is detected at the
    receiving NIC. *)

val frame_of_bytes : string -> frame option
(** [None] on truncation, a malformed body (including a field that
    runs into the FCS trailer, unknown TCP flag bits, or bytes left
    over after the last field), or an FCS mismatch. Never raises. A
    frame it returns re-encodes to the input bytes. *)

