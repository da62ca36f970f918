(* Message encodings passed through thread-local segments during
   authentication (§6.2). *)

module Codec = Histar_util.Codec
open Histar_core.Types

let enc_centry e (ce : centry) =
  Codec.Enc.int e ce.container;
  Codec.Enc.int e ce.object_id

let dec_centry d =
  let c = oid_of_int64 (Codec.Dec.i64 d) in
  let o = oid_of_int64 (Codec.Dec.i64 d) in
  centry c o

let enc_string s =
  let e = Codec.Enc.create () in
  Codec.Enc.str e s;
  Codec.Enc.to_string e

let dec_string s =
  let d = Codec.Dec.of_string s in
  Codec.Dec.str d

(* setup request: session container oid, pir category *)
let enc_setup_req ~session ~pir =
  let e = Codec.Enc.create () in
  Codec.Enc.int e session;
  Codec.Enc.int e (pir : Histar_label.Category.t :> int);
  Codec.Enc.to_string e

let dec_setup_req s =
  let d = Codec.Dec.of_string s in
  let session = oid_of_int64 (Codec.Dec.i64 d) in
  let pir = Histar_label.Category.of_int64 (Codec.Dec.i64 d) in
  (session, pir)

(* setup reply: retry segment, check gate, grant gate, and — when the
   user's service runs in challenge-response mode — a fresh challenge
   the client must answer instead of sending the password *)
let enc_setup_reply ~retry ~check ~grant ~challenge =
  let e = Codec.Enc.create () in
  enc_centry e retry;
  enc_centry e check;
  enc_centry e grant;
  Codec.Enc.option e Codec.Enc.i64 challenge;
  Codec.Enc.to_string e

let dec_setup_reply s =
  let d = Codec.Dec.of_string s in
  let retry = dec_centry d in
  let check = dec_centry d in
  let grant = dec_centry d in
  let challenge = Codec.Dec.option d Codec.Dec.i64 in
  (retry, check, grant, challenge)

(* what the client hands the check gate *)
let enc_credential = function
  | `Password pw ->
      let e = Codec.Enc.create () in
      Codec.Enc.u8 e 0;
      Codec.Enc.str e pw;
      Codec.Enc.to_string e
  | `Response r ->
      let e = Codec.Enc.create () in
      Codec.Enc.u8 e 1;
      Codec.Enc.i64 e r;
      Codec.Enc.to_string e

let dec_credential s =
  let d = Codec.Dec.of_string s in
  match Codec.Dec.u8 d with
  | 0 -> `Password (Codec.Dec.str d)
  | 1 -> `Response (Codec.Dec.i64 d)
  | _ -> failwith "auth: bad credential"

(* response = H(H(password) ‖ challenge): the server stores only the
   hash; the client derives it from the password *)
let challenge_response ~password_hash ~challenge =
  Histar_util.Checksum.fnv64 (Printf.sprintf "%Ld|%Ld" password_hash challenge)

(* check reply: one bit — exactly the information §6.2 permits *)
let enc_check_reply ok =
  let e = Codec.Enc.create () in
  Codec.Enc.bool e ok;
  Codec.Enc.to_string e

let dec_check_reply s =
  let d = Codec.Dec.of_string s in
  Codec.Dec.bool d

(* directory reply: setup gate for a username *)
let enc_dir_reply = function
  | None ->
      let e = Codec.Enc.create () in
      Codec.Enc.bool e false;
      Codec.Enc.to_string e
  | Some gate ->
      let e = Codec.Enc.create () in
      Codec.Enc.bool e true;
      enc_centry e gate;
      Codec.Enc.to_string e

let dec_dir_reply s =
  let d = Codec.Dec.of_string s in
  if Codec.Dec.bool d then Some (dec_centry d) else None

let hash_password ~salt ~password =
  Histar_util.Checksum.fnv64 (salt ^ "\x00" ^ password)
