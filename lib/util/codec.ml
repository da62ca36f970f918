exception Truncated

module Enc = struct
  type t = Buffer.t

  let create () = Buffer.create 256
  let u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

  let u16 b v =
    u8 b v;
    u8 b (v lsr 8)

  let u32 b v =
    u16 b v;
    u16 b (v lsr 16)

  let i64 b v = Buffer.add_int64_le b v

  (* The bytes [i64] writes for [Int64.of_int v], in four 16-bit
     pieces so that no boxed int64 is built on the way. *)
  let int b v =
    Buffer.add_uint16_le b (v land 0xffff);
    Buffer.add_uint16_le b ((v lsr 16) land 0xffff);
    Buffer.add_uint16_le b ((v lsr 32) land 0xffff);
    Buffer.add_uint16_le b ((v asr 48) land 0xffff)
  let bool b v = u8 b (if v then 1 else 0)

  let str b s =
    u32 b (String.length s);
    Buffer.add_string b s

  let raw b s = Buffer.add_string b s
  let raw_sub b s pos len = Buffer.add_substring b s pos len

  let list b f l =
    u32 b (List.length l);
    List.iter (f b) l

  let array b f a =
    u32 b (Array.length a);
    Array.iter (f b) a

  let option b f = function
    | None -> u8 b 0
    | Some v ->
        u8 b 1;
        f b v

  let pair b fa fb (x, y) =
    fa b x;
    fb b y

  let length b = Buffer.length b
  let to_string b = Buffer.contents b
end

module Dec = struct
  type t = { src : string; mutable pos : int; limit : int }

  let of_string s = { src = s; pos = 0; limit = String.length s }

  let of_substring s ~pos ~len =
    if pos < 0 || len < 0 || pos > String.length s - len then
      invalid_arg "Codec.Dec.of_substring";
    { src = s; pos; limit = pos + len }

  let need d n =
    if n < 0 || d.pos + n > d.limit then raise Truncated

  let u8 d =
    need d 1;
    let v = Char.code d.src.[d.pos] in
    d.pos <- d.pos + 1;
    v

  let u16 d =
    let lo = u8 d in
    let hi = u8 d in
    lo lor (hi lsl 8)

  let u32 d =
    let lo = u16 d in
    let hi = u16 d in
    lo lor (hi lsl 16)

  let i64 d =
    need d 8;
    let v = String.get_int64_le d.src d.pos in
    d.pos <- d.pos + 8;
    v

  (* An int is 63 bits: a value outside that range would otherwise
     come back reduced modulo 2^63, aliasing an in-range one. *)
  let int d =
    need d 8;
    let v = String.get_int64_le d.src d.pos in
    d.pos <- d.pos + 8;
    let i = Int64.to_int v in
    if Int64.equal (Int64.of_int i) v then i else raise Truncated

  let bool d =
    match u8 d with
    | 0 -> false
    | 1 -> true
    | _ -> raise Truncated

  let raw d n =
    need d n;
    let s = String.sub d.src d.pos n in
    d.pos <- d.pos + n;
    s

  let str d =
    let n = u32 d in
    raw d n

  let list d f =
    let n = u32 d in
    List.init n (fun _ -> f d)

  let array d f =
    let n = u32 d in
    Array.init n (fun _ -> f d)

  let option d f =
    match u8 d with
    | 0 -> None
    | 1 -> Some (f d)
    | _ -> raise Truncated

  let pair d fa fb =
    let a = fa d in
    let b = fb d in
    (a, b)

  let pos d = d.pos
  let remaining d = d.limit - d.pos
  let at_end d = remaining d = 0
end
