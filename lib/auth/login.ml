module Sys = Histar_core.Sys
module Process = Histar_unix.Process
module Label = Histar_label.Label
module Level = Histar_label.Level
module Category = Histar_label.Category
module Codec = Histar_util.Codec
open Histar_core.Types

type outcome =
  | Granted of Process.user
  | Bad_password
  | No_such_user
  | Setup_rejected

let login_via_gate ~proc ~setup_gate ~username ~password =
  let owned_before = Label.owned (Sys.self_label ()) in
  (* pir protects the password; sw controls the session container *)
  let pir = Sys.cat_create () in
  let sw = Sys.cat_create () in
  let session =
    Sys.container_create ~container:(Process.container proc)
      ~label:(Label.of_list [ (sw, Level.L0) ] Level.L1)
      ~quota:1_048_576L "login session"
  in
  let agreed_gate, agreed_marker = Agreed.install ~container:session ~pir in
  (* Step 2: invoke the setup gate. The requested label keeps our own
     ownership (including sw⋆) except pir: the setup code must get
     neither pir's ownership nor pir clearance, or it could stash
     password-readable storage for later (§6.2). *)
  let e = Codec.Enc.create () in
  Codec.Enc.int e session;
  Codec.Enc.int e (pir : Category.t :> int);
  Proto.enc_centry e agreed_gate;
  Proto.enc_centry e agreed_marker;
  Sys.tls_write (Codec.Enc.to_string e);
  Sys.gate_call ~gate:setup_gate
    ~label:(Label.set (Sys.gate_floor setup_gate) pir Level.L1)
    ~clearance:(Label.set (Sys.self_clearance ()) pir Level.L2)
    ~return_container:session
    ~return_label:(Sys.self_label ())
    ~return_clearance:(Sys.self_clearance ()) ();
  let reply = Sys.tls_read () in
  if String.length reply = 0 then Setup_rejected
  else begin
    let retry, check, grant, challenge = Proto.dec_setup_reply reply in
    ignore retry;
    (* Step 3: hand over the credential, tainted pir3. With a password
       service the password itself crosses (protected by the taint);
       with challenge-response only a one-time answer does — even a
       trojaned service learns nothing reusable. *)
    let credential =
      match challenge with
      | None -> `Password password
      | Some ch ->
          let password_hash =
            Proto.hash_password ~salt:("histar-salt-" ^ username) ~password
          in
          `Response (Proto.challenge_response ~password_hash ~challenge:ch)
    in
    Sys.tls_write (Proto.enc_credential credential);
    Sys.gate_call ~gate:check
      ~label:(Label.set (Sys.gate_floor check) pir Level.L3)
      ~clearance:(Sys.self_clearance ())
      ~return_container:session
      ~return_label:(Sys.self_label ())
      ~return_clearance:(Sys.self_clearance ()) ();
    let ok = Proto.dec_check_reply (Sys.tls_read ()) in
    if not ok then Bad_password
    else begin
      (* Step 4: we now own x; the grant gate's clearance {x0, 2}
         admits us, and its return grants ur/uw. *)
      Sys.gate_call ~gate:grant
        ~label:(Sys.gate_floor grant)
        ~clearance:(Sys.self_clearance ())
        ~return_container:session
        ~return_label:(Sys.self_label ())
        ~return_clearance:(Sys.self_clearance ()) ();
      (* the grant gate reports which categories it granted *)
      let d = Codec.Dec.of_string (Sys.tls_read ()) in
      let ur = Category.of_int64 (Codec.Dec.i64 d) in
      let uw = Category.of_int64 (Codec.Dec.i64 d) in
      let owned_after = Label.owned (Sys.self_label ()) in
      if Category.Set.mem ur owned_after && Category.Set.mem uw owned_after
      then begin
        (* hygiene: drop ownership of the session-local x category *)
        let drop =
          Category.Set.diff owned_after
            (Category.Set.add ur
               (Category.Set.add uw
                  (Category.Set.add pir (Category.Set.add sw owned_before))))
        in
        (try
           Sys.self_set_label
             (Category.Set.fold
                (fun c acc -> Label.set acc c Level.L1)
                drop (Sys.self_label ()))
         with Kernel_error _ -> ());
        (* owning ur/uw lets us raise our clearance in them (§3.1), so
           the session can create objects at the user's labels *)
        Sys.self_set_clearance
          (Label.set (Label.set (Sys.self_clearance ()) ur Level.L3) uw
             Level.L3);
        Granted { Process.user_name = username; ur; uw }
      end
      else Setup_rejected
    end
  end

let login ~proc ~dir ~username ~password =
  match
    Dird.lookup dir ~return_container:(Process.internal proc) username
  with
  | None -> No_such_user
  | Some setup_gate -> login_via_gate ~proc ~setup_gate ~username ~password
