type tcp_flags = { syn : bool; ack : bool; fin : bool; rst : bool }
type view = { buf : string; off : int; len : int }

let view buf = { buf; off = 0; len = String.length buf }
let empty = view ""

let view_to_string v =
  if v.off = 0 && v.len = String.length v.buf then v.buf
  else String.sub v.buf v.off v.len

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

let no_flags = { syn = false; ack = false; fin = false; rst = false }

(* Every frame carries an FCS trailer (fnv64 over the body), checked
   by [scan].  A frame whose bits flipped on the wire fails the check
   and is dropped at the receiving NIC rather than handed to the stack
   — the guarantee that makes injected frame corruption
   indistinguishable from loss at the transport layer. *)
let fcs_len = 8

(* The body, little-endian, as the [Codec] encoders lay out fields:
   src MAC and dst MAC, each a u32 length then its bytes; src IP and
   dst IP (u32); the protocol byte; TCP's ports (u16), seq and ack
   (u32), flag bits (u8) and window (u32), or UDP's ports; then the
   payload as a u32 length and its bytes. The MACs end at [p]; every
   later field up to the payload length sits at a fixed offset from
   [p]. *)
let tcp_fixed = 26 (* IPs, protocol byte, TCP header *)
let udp_fixed = 13 (* IPs, protocol byte, UDP ports *)

let set_u16 b o v = Bytes.set_uint16_le b o (v land 0xFFFF)

let set_u32 b o v =
  set_u16 b o v;
  set_u16 b (o + 2) (v lsr 16)

(* writes a length-prefixed string at [o]; returns where it ends *)
let set_sub b o s ~off ~len =
  set_u32 b o len;
  Bytes.blit_string s off b (o + 4) len;
  o + 4 + len

let set_str b o s = set_sub b o s ~off:0 ~len:(String.length s)

let get_u16 = String.get_uint16_le
let get_u32 s o = get_u16 s o lor (get_u16 s (o + 2) lsl 16)

(* Each field is written once into one [Bytes] of the frame's exact
   length, and the FCS is computed over that block in place. *)
let frame_to_bytes f =
  let fixed, payload =
    match f.ip.proto with
    | Tcp t -> (tcp_fixed, t.payload)
    | Udp u -> (udp_fixed, u.upayload)
  in
  let p = 8 + String.length f.src_mac + String.length f.dst_mac in
  let n = p + fixed + 4 + payload.len in
  let b = Bytes.create (n + fcs_len) in
  ignore (set_str b (set_str b 0 f.src_mac) f.dst_mac);
  set_u32 b p f.ip.src_ip;
  set_u32 b (p + 4) f.ip.dst_ip;
  (match f.ip.proto with
  | Tcp t ->
      Bytes.set_uint8 b (p + 8) 6;
      set_u16 b (p + 9) t.src_port;
      set_u16 b (p + 11) t.dst_port;
      set_u32 b (p + 13) t.seq;
      set_u32 b (p + 17) t.ack_no;
      Bytes.set_uint8 b (p + 21)
        ((if t.flags.syn then 1 else 0)
        lor (if t.flags.ack then 2 else 0)
        lor (if t.flags.fin then 4 else 0)
        lor if t.flags.rst then 8 else 0);
      set_u32 b (p + 22) t.window
  | Udp u ->
      Bytes.set_uint8 b (p + 8) 17;
      set_u16 b (p + 9) u.usrc_port;
      set_u16 b (p + 11) u.udst_port);
  ignore (set_sub b (p + fixed) payload.buf ~off:payload.off ~len:payload.len);
  Bytes.set_int64_le b n
    (Histar_util.Checksum.fnv64_sub (Bytes.unsafe_to_string b) ~pos:0 ~len:n);
  Bytes.unsafe_to_string b

(* Where the length-prefixed string at [o] ends, or -1 if it (or [o])
   does not fit before [limit]. *)
let str_end s ~limit o =
  if o < 0 || o + 4 > limit then -1
  else
    let e = o + 4 + get_u32 s o in
    if e > limit then -1 else e

(* The one structural scan of a received frame: the payload's offset if
   the FCS matches and the body has exactly the layout above, else -1.
   A length field that runs into the trailer is a truncated body;
   unknown protocols, unknown flag bits and bytes left over after the
   payload are malformed, so every frame accepted re-encodes to exactly
   the bytes it came from. *)
let scan s =
  let n = String.length s - fcs_len in
  if
    n < 0
    || not
         (Int64.equal (String.get_int64_le s n)
            (Histar_util.Checksum.fnv64_sub s ~pos:0 ~len:n))
  then -1
  else
    let p = str_end s ~limit:n (str_end s ~limit:n 0) in
    let o =
      if p < 0 || p + 9 > n then -1
      else
        match Char.code s.[p + 8] with
        | 6 when p + tcp_fixed <= n && Char.code s.[p + 21] land lnot 15 = 0
          ->
            p + tcp_fixed
        | 17 -> p + udp_fixed
        | _ -> -1
    in
    if str_end s ~limit:n o = n then o + 4 else -1

let src_mac_of s = String.sub s 4 (get_u32 s 0)

let dst_mac_of s =
  let o = 4 + get_u32 s 0 in
  String.sub s (o + 4) (get_u32 s o)

let macs_of_bytes s =
  if scan s < 0 then None else Some (src_mac_of s, dst_mac_of s)

let frame_of_bytes s =
  let off = scan s in
  if off < 0 then None
  else
    let src_mac = src_mac_of s in
    let dst_mac = dst_mac_of s in
    let p = 8 + String.length src_mac + String.length dst_mac in
    let payload = { buf = s; off; len = String.length s - fcs_len - off } in
    let proto =
      if Char.code s.[p + 8] = 6 then
        let bits = Char.code s.[p + 21] in
        Tcp
          {
            src_port = get_u16 s (p + 9);
            dst_port = get_u16 s (p + 11);
            seq = get_u32 s (p + 13);
            ack_no = get_u32 s (p + 17);
            flags =
              {
                syn = bits land 1 <> 0;
                ack = bits land 2 <> 0;
                fin = bits land 4 <> 0;
                rst = bits land 8 <> 0;
              };
            window = get_u32 s (p + 22);
            payload;
          }
      else
        Udp
          {
            usrc_port = get_u16 s (p + 9);
            udst_port = get_u16 s (p + 11);
            upayload = payload;
          }
    in
    let ip = { src_ip = get_u32 s p; dst_ip = get_u32 s (p + 4); proto } in
    Some { src_mac; dst_mac; ip }
