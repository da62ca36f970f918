module Codec = Histar_util.Codec

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

let no_flags = { syn = false; ack = false; fin = false; rst = false }

(* Every frame carries an FCS trailer (fnv64 over the body), checked
   by [frame_of_bytes].  A frame whose bits flipped on the wire fails
   the check and is dropped at the receiving NIC rather than handed
   to the stack — the guarantee that makes injected frame corruption
   indistinguishable from loss at the transport layer. *)
let fcs_len = 8

(* The FCS is appended to the buffer the body was encoded into. *)
let frame_to_bytes f =
  let e = Codec.Enc.create () in
  Codec.Enc.str e f.src_mac;
  Codec.Enc.str e f.dst_mac;
  Codec.Enc.u32 e f.ip.src_ip;
  Codec.Enc.u32 e f.ip.dst_ip;
  (match f.ip.proto with
  | Tcp t ->
      Codec.Enc.u8 e 6;
      Codec.Enc.u16 e t.src_port;
      Codec.Enc.u16 e t.dst_port;
      Codec.Enc.u32 e t.seq;
      Codec.Enc.u32 e t.ack_no;
      let bits =
        (if t.flags.syn then 1 else 0)
        lor (if t.flags.ack then 2 else 0)
        lor (if t.flags.fin then 4 else 0)
        lor if t.flags.rst then 8 else 0
      in
      Codec.Enc.u8 e bits;
      Codec.Enc.u32 e t.window;
      Codec.Enc.str e t.payload
  | Udp u ->
      Codec.Enc.u8 e 17;
      Codec.Enc.u16 e u.usrc_port;
      Codec.Enc.u16 e u.udst_port;
      Codec.Enc.str e u.upayload);
  Codec.Enc.i64 e (Histar_util.Checksum.fnv64 (Codec.Enc.to_string e));
  Codec.Enc.to_string e

(* The body is decoded in place, bounded to end where the FCS starts:
   a length field that runs into the trailer is a truncated body.
   Unknown flag bits and bytes left over after the last field are
   malformed, so every frame accepted re-encodes to exactly the bytes
   it came from. *)
let frame_of_bytes s =
  match
    let n = String.length s - fcs_len in
    if n < 0 then raise Codec.Truncated;
    if not
         (Int64.equal (String.get_int64_le s n)
            (Histar_util.Checksum.fnv64_sub s ~pos:0 ~len:n))
    then raise Codec.Truncated;
    let d = Codec.Dec.of_substring s ~pos:0 ~len:n in
    let src_mac = Codec.Dec.str d in
    let dst_mac = Codec.Dec.str d in
    let src_ip = Codec.Dec.u32 d in
    let dst_ip = Codec.Dec.u32 d in
    let proto =
      match Codec.Dec.u8 d with
      | 6 ->
          let src_port = Codec.Dec.u16 d in
          let dst_port = Codec.Dec.u16 d in
          let seq = Codec.Dec.u32 d in
          let ack_no = Codec.Dec.u32 d in
          let bits = Codec.Dec.u8 d in
          if bits land lnot 15 <> 0 then raise Codec.Truncated;
          let window = Codec.Dec.u32 d in
          let payload = Codec.Dec.str d in
          Tcp
            {
              src_port;
              dst_port;
              seq;
              ack_no;
              flags =
                {
                  syn = bits land 1 <> 0;
                  ack = bits land 2 <> 0;
                  fin = bits land 4 <> 0;
                  rst = bits land 8 <> 0;
                };
              window;
              payload;
            }
      | 17 ->
          let usrc_port = Codec.Dec.u16 d in
          let udst_port = Codec.Dec.u16 d in
          let upayload = Codec.Dec.str d in
          Udp { usrc_port; udst_port; upayload }
      | _ -> raise Codec.Truncated
    in
    if not (Codec.Dec.at_end d) then raise Codec.Truncated;
    { src_mac; dst_mac; ip = { src_ip; dst_ip; proto } }
  with
  | f -> Some f
  | exception Codec.Truncated -> None

let pp_frame fmt f =
  match f.ip.proto with
  | Tcp t ->
      Format.fprintf fmt "%a:%d -> %a:%d seq=%d ack=%d%s%s%s len=%d"
        Addr.pp_ip f.ip.src_ip t.src_port Addr.pp_ip f.ip.dst_ip t.dst_port
        t.seq t.ack_no
        (if t.flags.syn then " SYN" else "")
        (if t.flags.ack then " ACK" else "")
        (if t.flags.fin then " FIN" else "")
        (String.length t.payload)
  | Udp u ->
      Format.fprintf fmt "%a:%d -> %a:%d UDP len=%d" Addr.pp_ip f.ip.src_ip
        u.usrc_port Addr.pp_ip f.ip.dst_ip u.udst_port
        (String.length u.upayload)
