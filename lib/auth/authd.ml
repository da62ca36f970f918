module Sys = Histar_core.Sys
module Process = Histar_unix.Process
module Label = Histar_label.Label
module Level = Histar_label.Level
module Category = Histar_label.Category
module Codec = Histar_util.Codec
open Histar_core.Types

type mode = Password | Challenge_response

type t = {
  auth_user : Process.user;
  password_hash : int64 ref;
  salt : string;
  mode : mode;
  log : Logd.t;
  setup_cell : centry option ref;
  trojan_cell : centry option ref;
  dropbox_cell : centry option ref;
      (** an untainted, attacker-writable segment: the exfiltration
          target for the trojaned check gate *)
  stolen_paths : string list ref;
}

let setup_gate t = Sys.await t.setup_cell
let trojaned_setup_gate t = Sys.await t.trojan_cell
let stolen t = !(t.stolen_paths)

let set_password t password =
  t.password_hash := Proto.hash_password ~salt:t.salt ~password

(* --- the check gate: runs tainted pir3 on the login thread --- *)

(* A session may try at most this many credentials. *)
let retry_limit = 3

let check_entry t ~x ~retry ~challenge () =
  let credential = Proto.dec_credential (Sys.tls_read ()) in
  let tries = Sys.segment_word retry ~off:0 in
  if Int64.to_int tries >= retry_limit then begin
    Sys.tls_write (Proto.enc_check_reply false);
    Sys.gate_return ()
  end
  else begin
    Sys.set_segment_word retry ~off:0 (Int64.add tries 1L);
    let ok =
      match (credential, challenge) with
      | `Password password, None ->
          Int64.equal
            (Proto.hash_password ~salt:t.salt ~password)
            !(t.password_hash)
      | `Response r, Some ch ->
          Int64.equal r
            (Proto.challenge_response ~password_hash:!(t.password_hash)
               ~challenge:ch)
      | `Password _, Some _ | `Response _, None ->
          (* wrong credential kind for this service's mode *)
          false
    in
    if ok then begin
      (* grant x through the return gate; the caller becomes an owner *)
      Sys.tls_write (Proto.enc_check_reply true);
      Sys.gate_return ~keep:[ x ] ()
    end
    else begin
      Sys.tls_write (Proto.enc_check_reply false);
      Sys.gate_return ()
    end
  end

(* A *trojaned* check gate: instead of verifying, it tries every kernel
   channel it can think of to exfiltrate the password. Each attempt
   that the kernel permits is recorded — the test asserts none are. *)
let evil_check_entry t ~session () =
  let dropbox = Sys.await t.dropbox_cell in
  let password =
    match Proto.dec_credential (Sys.tls_read ()) with
    | `Password pw -> pw
    | `Response r -> Printf.sprintf "response:%Ld" r
  in
  (* 1. write to a world-readable segment pre-created by the attacker *)
  (try
     Sys.segment_write dropbox password;
     t.stolen_paths := ("dropbox:" ^ password) :: !(t.stolen_paths)
   with Kernel_error _ -> ());
  (* 2. append to the authentication log (observable by the admin) *)
  (try
     Logd.append t.log ~return_container:session password;
     t.stolen_paths := ("log:" ^ password) :: !(t.stolen_paths)
   with Kernel_error _ | Invalid_argument _ -> ());
  (* 3. stash the password in a fresh untainted segment in the session *)
  (try
     let seg =
       Sys.segment_create ~container:session ~label:(Label.make Level.L1)
         ~quota:8192L ~len:(String.length password) "stash"
     in
     Sys.segment_write (centry session seg) password;
     t.stolen_paths := ("stash:" ^ password) :: !(t.stolen_paths)
   with Kernel_error _ -> ());
  (* finally report failure, leaking the one permitted bit *)
  Sys.tls_write (Proto.enc_check_reply false);
  Sys.gate_return ()

(* --- the grant gate: entered only by owners of x --- *)

let grant_entry t ~session () =
  (* the tainted check gate could not log; the grant gate can *)
  (try
     Logd.append t.log ~return_container:session
       (Printf.sprintf "login success: %s" t.auth_user.Process.user_name)
   with Kernel_error _ -> ());
  (* category names are not secret; ownership is the protected thing *)
  let e = Codec.Enc.create () in
  Codec.Enc.int e (t.auth_user.Process.ur :> int);
  Codec.Enc.int e (t.auth_user.Process.uw :> int);
  Sys.tls_write (Codec.Enc.to_string e);
  Sys.gate_return
    ~keep:[ t.auth_user.Process.ur; t.auth_user.Process.uw ]
    ()

(* --- the setup gate: one invocation per authentication attempt --- *)

let setup_entry t ~evil () =
  let d = Codec.Dec.of_string (Sys.tls_read ()) in
  let session = oid_of_int64 (Codec.Dec.i64 d) in
  let pir = Category.of_int64 (Codec.Dec.i64 d) in
  let agreed_gate = Proto.dec_centry d in
  let agreed_marker = Proto.dec_centry d in
  (* log the attempt (we are not tainted yet) *)
  (try
     Logd.append t.log ~return_container:session
       (Printf.sprintf "login attempt: %s" t.auth_user.Process.user_name)
   with Kernel_error _ -> ());
  (* challenge-response mode: a fresh, unpredictable-enough challenge
     derived from the session and the clock *)
  let challenge =
    match t.mode with
    | Password -> None
    | Challenge_response ->
        Some
          (Histar_util.Checksum.fnv64
             (Printf.sprintf "%d|%d" session (Sys.clock_ns ())))
  in
  (* verify the agreed code before lending it uw ownership *)
  if not (Agreed.verify ~marker:agreed_marker) then begin
    Sys.tls_write "";
    Sys.gate_return ()
  end
  else begin
    let x = Sys.cat_create () in
    (* create the retry-count segment with combined privilege *)
    Sys.tls_write
      (Agreed.encode_request ~session ~pir ~uw:t.auth_user.Process.uw);
    Sys.gate_call ~gate:agreed_gate
      ~label:(Sys.gate_floor agreed_gate)
      ~clearance:(Label.set (Sys.self_clearance ()) pir Level.L3)
      ~return_container:session
      ~return_label:(Sys.self_label ())
      ~return_clearance:(Sys.self_clearance ()) ();
    let retry =
      let d = Codec.Dec.of_string (Sys.tls_read ()) in
      Proto.dec_centry d
    in
    (* the check gate: label {ur⋆, uw⋆, x⋆, pir3, 1}, clearance {pir3, 2} *)
    let check_label =
      Label.of_list
        [
          (t.auth_user.Process.ur, Level.Star);
          (t.auth_user.Process.uw, Level.Star);
          (x, Level.Star);
          (pir, Level.L3);
        ]
        Level.L1
    in
    let check_clearance = Label.of_list [ (pir, Level.L3) ] Level.L2 in
    let entry =
      if evil then evil_check_entry t ~session
      else check_entry t ~x ~retry ~challenge
    in
    let check =
      Sys.gate_create ~container:session ~label:check_label
        ~clearance:check_clearance ~quota:4096L ~name:"check gate" entry
    in
    (* the grant gate: label {ur⋆, uw⋆, 1}, clearance {x0, 2} *)
    let grant_label =
      Label.of_list
        [
          (t.auth_user.Process.ur, Level.Star);
          (t.auth_user.Process.uw, Level.Star);
        ]
        Level.L1
    in
    let grant_clearance = Label.of_list [ (x, Level.L0) ] Level.L2 in
    let grant =
      Sys.gate_create ~container:session ~label:grant_label
        ~clearance:grant_clearance ~quota:4096L ~name:"grant gate"
        (grant_entry t ~session)
    in
    Sys.tls_write
      (Proto.enc_setup_reply ~retry ~check:(centry session check)
         ~grant:(centry session grant) ~challenge);
    Sys.gate_return ()
  end

let start proc ~user ~password ?(mode = Password) ~log ~dir () =
  let t =
    {
      auth_user = user;
      password_hash = ref 0L;
      salt = "histar-salt-" ^ user.Process.user_name;
      mode;
      log;
      setup_cell = ref None;
      trojan_cell = ref None;
      dropbox_cell = ref None;
      stolen_paths = ref [];
    }
  in
  set_password t password;
  let _h =
    Process.spawn proc ~name:("authd-" ^ user.Process.user_name) ~user
      (fun daemon ->
        let ct = Process.container daemon in
        let setup_label =
          Label.of_list
            [ (user.Process.ur, Level.Star); (user.Process.uw, Level.Star) ]
            Level.L1
        in
        let mk name evil =
          centry ct
            (Sys.gate_create ~container:ct ~label:setup_label
               ~clearance:(Label.make Level.L2) ~quota:4096L ~name
               (setup_entry t ~evil))
        in
        let setup = mk "setup gate" false in
        t.setup_cell := Some setup;
        t.trojan_cell := Some (mk "trojaned setup gate" true);
        let dropbox =
          Sys.segment_create ~container:ct ~label:(Label.make Level.L1)
            ~quota:8704L ~len:64 "trojan dropbox"
        in
        t.dropbox_cell := Some (centry ct dropbox);
        Dird.register dir ~return_container:(Process.internal daemon)
          ~user:user.Process.user_name ~setup_gate:setup;
        ignore (Sys.wait_alert ()))
  in
  t
