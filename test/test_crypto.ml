open Histar_crypto

let test_encrypt_decrypt_64 () =
  let c = Block_cipher.create ~key:0xdeadbeefL in
  List.iter
    (fun v ->
      Alcotest.(check int64) "decrypt . encrypt = id" v
        (Block_cipher.decrypt64 c (Block_cipher.encrypt64 c v)))
    [ 0L; 1L; -1L; 42L; Int64.max_int; Int64.min_int; 0x123456789abcdefL ]

let test_encrypt61_range () =
  let c = Block_cipher.create ~key:1L in
  for i = 0 to 999 do
    let v = Block_cipher.encrypt61 c (Int64.of_int i) in
    if v < 0L || v > Block_cipher.max61 then Alcotest.fail "out of 61-bit range"
  done

let test_encrypt61_inverse () =
  let c = Block_cipher.create ~key:99L in
  for i = 0 to 499 do
    let v = Int64.of_int (i * 7919) in
    Alcotest.(check int64) "61-bit inverse" v
      (Block_cipher.decrypt61 c (Block_cipher.encrypt61 c v))
  done

let test_encrypt61_injective_prefix () =
  let c = Block_cipher.create ~key:5L in
  let seen = Hashtbl.create 1024 in
  for i = 0 to 9999 do
    let v = Block_cipher.encrypt61 c (Int64.of_int i) in
    if Hashtbl.mem seen v then Alcotest.fail "collision in cipher output";
    Hashtbl.add seen v ()
  done

let test_keys_differ () =
  let a = Block_cipher.create ~key:1L and b = Block_cipher.create ~key:2L in
  let same = ref 0 in
  for i = 0 to 99 do
    if
      Int64.equal
        (Block_cipher.encrypt64 a (Int64.of_int i))
        (Block_cipher.encrypt64 b (Int64.of_int i))
    then incr same
  done;
  Alcotest.(check bool) "different keys give different streams" true (!same < 3)

let test_category_gen_fresh () =
  let g = Category_gen.create ~key:7L in
  let seen = Hashtbl.create 1024 in
  for _ = 1 to 5000 do
    let v = Category_gen.next g in
    if v < 0 || v > Int64.to_int Block_cipher.max61 then Alcotest.fail "out of range";
    if Hashtbl.mem seen v then Alcotest.fail "repeated category name";
    Hashtbl.add seen v ()
  done;
  Alcotest.(check int) "allocated count" 5000 (Category_gen.allocated g)

let test_category_gen_opaque () =
  (* Consecutive names should not be consecutive numbers: the cipher hides
     the counter. *)
  let g = Category_gen.create ~key:11L in
  let a = Category_gen.next g in
  let b = Category_gen.next g in
  Alcotest.(check bool) "names not sequential" true
    (abs (b - a) > 1)

let prop_cipher_bijective =
  Histar_check.Check.test_case ~count:500 ~print:Int64.to_string
    "encrypt64 is invertible" Histar_check.Gen.int64
    (fun v ->
      let c = Block_cipher.create ~key:0x1234L in
      Histar_check.Check.ensure
        (Int64.equal (Block_cipher.decrypt64 c (Block_cipher.encrypt64 c v)) v))

let () =
  Alcotest.run "histar_crypto"
    [
      ( "block_cipher",
        [
          Alcotest.test_case "encrypt/decrypt 64" `Quick test_encrypt_decrypt_64;
          Alcotest.test_case "61-bit range" `Quick test_encrypt61_range;
          Alcotest.test_case "61-bit inverse" `Quick test_encrypt61_inverse;
          Alcotest.test_case "injective" `Quick test_encrypt61_injective_prefix;
          Alcotest.test_case "key separation" `Quick test_keys_differ;
          prop_cipher_bijective;
        ] );
      ( "category_gen",
        [
          Alcotest.test_case "fresh names" `Quick test_category_gen_fresh;
          Alcotest.test_case "opaque names" `Quick test_category_gen_opaque;
        ] );
    ]
