open Histar_util
module Check = Histar_check.Check
module Gen = Histar_check.Gen

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* Codec round-trips *)

let test_codec_scalars () =
  let e = Codec.Enc.create () in
  Codec.Enc.u8 e 0xab;
  Codec.Enc.u16 e 0xbeef;
  Codec.Enc.u32 e 0x1234567;
  Codec.Enc.i64 e (-42L);
  Codec.Enc.int e 123456789;
  Codec.Enc.bool e true;
  Codec.Enc.bool e false;
  let d = Codec.Dec.of_string (Codec.Enc.to_string e) in
  check_int "u8" 0xab (Codec.Dec.u8 d);
  check_int "u16" 0xbeef (Codec.Dec.u16 d);
  check_int "u32" 0x1234567 (Codec.Dec.u32 d);
  Alcotest.(check int64) "i64" (-42L) (Codec.Dec.i64 d);
  check_int "int" 123456789 (Codec.Dec.int d);
  Alcotest.(check bool) "bool t" true (Codec.Dec.bool d);
  Alcotest.(check bool) "bool f" false (Codec.Dec.bool d);
  Alcotest.(check bool) "at_end" true (Codec.Dec.at_end d)

let test_codec_str_list () =
  let e = Codec.Enc.create () in
  Codec.Enc.str e "hello";
  Codec.Enc.str e "";
  Codec.Enc.list e Codec.Enc.int [ 1; 2; 3 ];
  Codec.Enc.option e Codec.Enc.str (Some "x");
  Codec.Enc.option e Codec.Enc.str None;
  Codec.Enc.pair e Codec.Enc.int Codec.Enc.str (7, "y");
  let d = Codec.Dec.of_string (Codec.Enc.to_string e) in
  check_str "str" "hello" (Codec.Dec.str d);
  check_str "empty" "" (Codec.Dec.str d);
  Alcotest.(check (list int)) "list" [ 1; 2; 3 ] (Codec.Dec.list d Codec.Dec.int);
  Alcotest.(check (option string)) "some" (Some "x") (Codec.Dec.option d Codec.Dec.str);
  Alcotest.(check (option string)) "none" None (Codec.Dec.option d Codec.Dec.str);
  let a, b = Codec.Dec.pair d Codec.Dec.int Codec.Dec.str in
  check_int "pair fst" 7 a;
  check_str "pair snd" "y" b

let test_codec_truncated () =
  let d = Codec.Dec.of_string "\x01" in
  Alcotest.check_raises "short i64" Codec.Truncated (fun () ->
      ignore (Codec.Dec.i64 d));
  let d = Codec.Dec.of_string "\x05\x00\x00\x00ab" in
  Alcotest.check_raises "short str" Codec.Truncated (fun () ->
      ignore (Codec.Dec.str d));
  let d = Codec.Dec.of_string "\x02" in
  Alcotest.check_raises "bad bool" Codec.Truncated (fun () ->
      ignore (Codec.Dec.bool d));
  (* 2^63+5 and 2^62 do not fit a 63-bit int: no aliasing to 5 or min_int *)
  List.iter
    (fun v ->
      let e = Codec.Enc.create () in
      Codec.Enc.i64 e v;
      let d = Codec.Dec.of_string (Codec.Enc.to_string e) in
      Alcotest.check_raises (Printf.sprintf "int out of range 0x%Lx" v)
        Codec.Truncated (fun () -> ignore (Codec.Dec.int d)))
    [ Int64.add Int64.min_int 5L; Int64.shift_left 1L 62 ]

(* Strings of 0..64 bytes; lists of 0..32 ints over the full range. *)
let prop_codec_string_roundtrip =
  Check.test_case ~count:200 ~print:(Printf.sprintf "%S")
    "codec string round-trip" Gen.(resize 64 string)
    (fun s ->
      let e = Codec.Enc.create () in
      Codec.Enc.str e s;
      let d = Codec.Dec.of_string (Codec.Enc.to_string e) in
      Check.ensure (String.equal (Codec.Dec.str d) s))

let prop_codec_int_list_roundtrip =
  Check.test_case ~count:200
    ~print:(fun l -> String.concat ";" (List.map string_of_int l))
    "codec int list round-trip"
    Gen.(resize 32 (list (map Int64.to_int int64)))
    (fun l ->
      let e = Codec.Enc.create () in
      Codec.Enc.list e Codec.Enc.int l;
      let d = Codec.Dec.of_string (Codec.Enc.to_string e) in
      Check.ensure (Codec.Dec.list d Codec.Dec.int = l))

(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next64 a) (Rng.next64 b)
  done

let test_rng_bounds () =
  let r = Rng.create 7L in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    if v < 0 || v >= 10 then Alcotest.fail "out of bounds"
  done

let test_rng_split_independent () =
  let a = Rng.create 1L in
  let b = Rng.split a in
  let x = Rng.next64 a and y = Rng.next64 b in
  Alcotest.(check bool) "distinct streams" true (not (Int64.equal x y))

let test_rng_bytes_len () =
  let r = Rng.create 3L in
  check_int "len" 17 (String.length (Rng.bytes r 17))

(* Sim_clock *)

let test_clock () =
  let c = Sim_clock.create () in
  Alcotest.(check int) "starts at 0" 0 (Sim_clock.now c);
  Sim_clock.advance c 500;
  Sim_clock.advance_us c 1.5;
  Alcotest.(check int) "sum" 2_000 (Sim_clock.now c);
  Alcotest.(check int64) "now_ns agrees" 2_000L (Sim_clock.now_ns c);
  Alcotest.check_raises "negative" (Invalid_argument "Sim_clock.advance: negative")
    (fun () -> Sim_clock.advance c (-1));
  Sim_clock.advance c max_int;
  Alcotest.(check int) "stops at max_int" max_int (Sim_clock.now c);
  Sim_clock.advance c 1;
  Alcotest.(check int) "and stays there" max_int (Sim_clock.now c)

let () =
  Alcotest.run "histar_util"
    [
      ( "codec",
        [
          Alcotest.test_case "scalars" `Quick test_codec_scalars;
          Alcotest.test_case "strings and containers" `Quick test_codec_str_list;
          Alcotest.test_case "truncated input" `Quick test_codec_truncated;
        ]
        @ [ prop_codec_string_roundtrip; prop_codec_int_list_roundtrip ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "bytes" `Quick test_rng_bytes_len;
        ] );
      ("clock", [ Alcotest.test_case "advance" `Quick test_clock ]);
    ]
