module Kernel = Histar_core.Kernel
module Sys = Histar_core.Sys
open Histar_core.Types
open Histar_unix
open Histar_auth
open Histar_label

let l1 = Label.make Level.L1

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* A small world: init process, log, directory, one user "bob" with an
   auth daemon, and an FS with bob's private files. *)
type world = {
  k : Kernel.t;
  proc : Process.t;
  fs : Fs.t;
  log : Logd.t;
  dir : Dird.t;
  bob : Process.user;
  bob_auth : Authd.t;
}

let with_world f =
  let k = Kernel.create () in
  let result = ref None in
  let failure = ref None in
  let _tid =
    Kernel.spawn k ~name:"init" (fun () ->
        let fs = Fs.format_root ~container:(Kernel.root k) ~label:l1 in
        let proc = Process.boot ~fs ~container:(Kernel.root k) ~name:"init" () in
        let log = Logd.start proc in
        let dir = Dird.start proc in
        let bob = Users.create_user ~fs ~name:"bob" in
        Fs.write_file fs "/home/bob/secret" "bob's secret data";
        let bob_auth =
          Authd.start proc ~user:bob ~password:"hunter2" ~log ~dir ()
        in
        let w = { k; proc; fs; log; dir; bob; bob_auth } in
        match f w with
        | v -> result := Some v
        | exception e -> failure := Some (Printexc.to_string e))
  in
  Kernel.run k;
  match (!result, !failure) with
  | Some v, _ -> v
  | None, Some m -> Alcotest.fail ("init crashed: " ^ m)
  | None, None -> Alcotest.fail "init did not complete"

(* Run login in a fresh unprivileged process and return its outcome
   plus whether it could read bob's secret afterwards. *)
let attempt_login w ~username ~password =
  let outcome = ref None in
  let read_secret = ref None in
  let h =
    Process.spawn w.proc ~name:"sshd" (fun sshd ->
        let o = Login.login ~proc:sshd ~dir:w.dir ~username ~password in
        outcome := Some o;
        read_secret :=
          Some
            (match Fs.read_file (Process.fs sshd) "/home/bob/secret" with
            | s -> Some s
            | exception Kernel_error _ -> None))
  in
  ignore (Process.wait w.proc h);
  (Option.get !outcome, Option.get !read_secret)

let test_successful_login () =
  with_world (fun w ->
      let outcome, secret = attempt_login w ~username:"bob" ~password:"hunter2" in
      (match outcome with
      | Login.Granted u ->
          Alcotest.(check string) "username" "bob" u.Process.user_name;
          Alcotest.(check bool) "granted the real categories" true
            (Histar_label.Category.equal u.Process.ur w.bob.Process.ur
            && Histar_label.Category.equal u.Process.uw w.bob.Process.uw)
      | _ -> Alcotest.fail "expected Granted");
      Alcotest.(check (option string)) "can now read bob's files"
        (Some "bob's secret data") secret;
      (* the log shows the attempt and the success *)
      let log = Logd.entries w.log in
      Alcotest.(check bool) "attempt logged" true
        (List.mem "login attempt: bob" log);
      Alcotest.(check bool) "success logged" true
        (List.mem "login success: bob" log))

let test_wrong_password () =
  with_world (fun w ->
      let outcome, secret = attempt_login w ~username:"bob" ~password:"wrong" in
      Alcotest.(check bool) "rejected" true (outcome = Login.Bad_password);
      Alcotest.(check (option string)) "still cannot read bob's files" None
        secret;
      let log = Logd.entries w.log in
      Alcotest.(check bool) "attempt logged" true
        (List.mem "login attempt: bob" log);
      Alcotest.(check bool) "no success logged" false
        (List.mem "login success: bob" log))

let test_unknown_user () =
  with_world (fun w ->
      let outcome, _ = attempt_login w ~username:"mallory" ~password:"x" in
      Alcotest.(check bool) "no such user" true (outcome = Login.No_such_user))

let test_retry_limit () =
  with_world (fun w ->
      (* a single session may try at most retry_limit passwords; after
         that even the correct password is refused in that session *)
      let outcome = ref None in
      let h =
        Process.spawn w.proc ~name:"bruteforce" (fun p ->
            (* drive the protocol manually to stay in one session *)
            let setup =
              Option.get
                (Dird.lookup w.dir ~return_container:(Process.internal p) "bob")
            in
            let try_password ~setup_gate pw = ignore setup_gate; ignore pw in
            ignore try_password;
            let rec go n =
              if n = 0 then ()
              else begin
                ignore
                  (Login.login_via_gate ~proc:p ~setup_gate:setup
                     ~username:"bob" ~password:(Printf.sprintf "guess%d" n));
                go (n - 1)
              end
            in
            go 5;
            (* attempts were in separate sessions, each freshly set up;
               the per-session bound is what we verify below *)
            outcome :=
              Some (Login.login_via_gate ~proc:p ~setup_gate:setup
                      ~username:"bob" ~password:"hunter2"))
      in
      ignore (Process.wait w.proc h);
      (match Option.get !outcome with
      | Login.Granted _ -> ()
      | _ -> Alcotest.fail "correct password in a fresh session must work");
      (* every one of those guesses appears in the log *)
      let attempts =
        List.length
          (List.filter (String.equal "login attempt: bob") (Logd.entries w.log))
      in
      Alcotest.(check bool) "every setup invocation logged" true (attempts >= 6))

let test_retry_bound_within_one_session () =
  (* Drive the §6.2 protocol by hand so all guesses hit the *same*
     check gate, exercising the retry-count segment: after the limit
     (3), even the correct password is refused in that session. *)
  with_world (fun w ->
      let outcomes = ref [] in
      let h =
        Process.spawn w.proc ~name:"bruteforce" (fun p ->
            let setup =
              Option.get
                (Dird.lookup w.dir ~return_container:(Process.internal p) "bob")
            in
            let pir = Sys.cat_create () in
            let sw = Sys.cat_create () in
            let session =
              Sys.container_create ~container:(Process.container p)
                ~label:(Label.of_list [ (sw, Level.L0) ] Level.L1)
                ~quota:1_048_576L "session"
            in
            let agreed_gate, agreed_marker =
              Histar_auth.Agreed.install ~container:session ~pir
            in
            let e = Histar_util.Codec.Enc.create () in
            Histar_util.Codec.Enc.int e session;
            Histar_util.Codec.Enc.int e (pir :> int);
            Histar_auth.Proto.enc_centry e agreed_gate;
            Histar_auth.Proto.enc_centry e agreed_marker;
            Sys.tls_write (Histar_util.Codec.Enc.to_string e);
            Sys.gate_call ~gate:setup
              ~label:(Label.set (Sys.gate_floor setup) pir Level.L1)
              ~clearance:(Label.set (Sys.self_clearance ()) pir Level.L2)
              ~return_container:session
              ~return_label:(Sys.self_label ())
              ~return_clearance:(Sys.self_clearance ()) ();
            let _retry, check, _grant, _challenge =
              Histar_auth.Proto.dec_setup_reply (Sys.tls_read ())
            in
            let try_password pw =
              Sys.tls_write (Histar_auth.Proto.enc_credential (`Password pw));
              Sys.gate_call ~gate:check
                ~label:(Label.set (Sys.gate_floor check) pir Level.L3)
                ~clearance:(Sys.self_clearance ())
                ~return_container:session
                ~return_label:(Sys.self_label ())
                ~return_clearance:(Sys.self_clearance ()) ();
              Histar_auth.Proto.dec_check_reply (Sys.tls_read ())
            in
            outcomes :=
              List.map try_password
                [ "guess1"; "guess2"; "guess3"; "hunter2" ])
      in
      ignore (Process.wait w.proc h);
      Alcotest.(check (list bool))
        "three guesses burn the budget; the 4th (correct!) is refused"
        [ false; false; false; false ] !outcomes)

let test_trojaned_service_cannot_steal_password () =
  with_world (fun w ->
      (* a malicious directory hands login a trojaned setup gate whose
         check gate tries to exfiltrate the password *)
      let evil_gate = Authd.trojaned_setup_gate w.bob_auth in
      let outcome = ref None in
      let h =
        Process.spawn w.proc ~name:"victim-sshd" (fun p ->
            outcome :=
              Some
                (Login.login_via_gate ~proc:p ~setup_gate:evil_gate
                   ~username:"bob" ~password:"hunter2"))
      in
      ignore (Process.wait w.proc h);
      (* the trojan reports failure: exactly one bit leaked *)
      Alcotest.(check bool) "login failed" true
        (!outcome = Some Login.Bad_password);
      (* and nothing else escaped: every kernel-visible channel denied *)
      Alcotest.(check (list string)) "nothing exfiltrated" []
        (Authd.stolen w.bob_auth);
      (* in particular the password never reached the log *)
      Alcotest.(check bool) "password not in log" false
        (List.exists (fun e -> contains_sub e "hunter2") (Logd.entries w.log)))

let test_login_does_not_leak_privilege_to_services () =
  with_world (fun w ->
      (* after a successful login, the *service* side must not have
         picked up login's categories: spawn a snooper owned by bob's
         authd and verify it cannot read a file private to the sshd
         process created after login *)
      let h =
        Process.spawn w.proc ~name:"sshd2" (fun sshd ->
            match Login.login ~proc:sshd ~dir:w.dir ~username:"bob"
                    ~password:"hunter2"
            with
            | Login.Granted u ->
                (* write a file only this session's user can read *)
                ignore
                  (Fs.create (Process.fs sshd)
                     ~label:(Users.private_label u) "/home/bob/session-key")
            | _ -> Alcotest.fail "login failed")
      in
      ignore (Process.wait w.proc h);
      Alcotest.(check bool) "file exists" true
        (Fs.exists w.fs "/home/bob/session-key"))

let test_challenge_response_mode () =
  with_world (fun w ->
      (* a second user whose service runs in challenge-response mode *)
      let fs = w.fs in
      let carol = Users.create_user ~fs ~name:"carol" in
      Fs.write_file fs "/home/carol/secret" "carol's data";
      let _authd =
        Authd.start w.proc ~user:carol ~password:"correct horse"
          ~mode:Authd.Challenge_response ~log:w.log ~dir:w.dir ()
      in
      let attempt pw =
        let outcome = ref None in
        let h =
          Process.spawn w.proc ~name:"sshd-cr" (fun p ->
              outcome :=
                Some (Login.login ~proc:p ~dir:w.dir ~username:"carol" ~password:pw))
        in
        ignore (Process.wait w.proc h);
        Option.get !outcome
      in
      (match attempt "correct horse" with
      | Login.Granted u ->
          Alcotest.(check bool) "real categories" true
            (Histar_label.Category.equal u.Process.ur carol.Process.ur)
      | _ -> Alcotest.fail "challenge-response login failed");
      Alcotest.(check bool) "wrong password still rejected" true
        (attempt "wrong" = Login.Bad_password))

let test_trojan_in_cr_mode_never_sees_password () =
  with_world (fun w ->
      (* in challenge-response mode, even the §6.2 worst case — a
         trojaned service — sees only a one-time response *)
      let fs = w.fs in
      let dave = Users.create_user ~fs ~name:"dave" in
      let authd =
        Authd.start w.proc ~user:dave ~password:"davepw"
          ~mode:Authd.Challenge_response ~log:w.log ~dir:w.dir ()
      in
      let evil = Authd.trojaned_setup_gate authd in
      let h =
        Process.spawn w.proc ~name:"victim" (fun p ->
            ignore
              (Login.login_via_gate ~proc:p ~setup_gate:evil ~username:"dave"
                 ~password:"davepw"))
      in
      ignore (Process.wait w.proc h);
      (* the kernel blocked the exfiltration channels anyway, but even
         what the trojan *saw* in its address space was not the
         password *)
      Alcotest.(check (list string)) "nothing exfiltrated" []
        (Authd.stolen authd))

let test_log_is_append_only () =
  with_world (fun w ->
      Logd.append w.log ~return_container:(Process.internal w.proc) "entry one";
      (* a random process cannot rewrite the log segment directly *)
      let denied = ref false in
      let h =
        Process.spawn w.proc ~name:"tamper" (fun _p ->
            let log_seg = Logd.log_segment w.log in
            match Sys.segment_write log_seg ~off:0 "XXXX" with
            | () -> ()
            | exception Kernel_error (Label_check _) -> denied := true)
      in
      ignore (Process.wait w.proc h);
      Alcotest.(check bool) "tamper denied" true !denied;
      Alcotest.(check bool) "entry present" true
        (List.mem "entry one" (Logd.entries w.log)))

(* §6.2 conformance, mirrored in the reference model's gate-login
   scenarios (test_model.ml): the only ownership login may add beyond
   the session categories the caller mints itself (pir, sw) is the
   user's {ur, uw}, and only on success. In particular no category the
   auth daemon owned before the call — ur, uw, or its per-session check
   category — may ride back through the return gate on failure. *)
let test_owned_set_exact_delta () =
  with_world (fun w ->
      let before = ref Category.Set.empty in
      let after_bad = ref Category.Set.empty in
      let after_ok = ref Category.Set.empty in
      let h =
        Process.spawn w.proc ~name:"sshd" (fun sshd ->
            before := Label.owned (Sys.self_label ());
            (match
               Login.login ~proc:sshd ~dir:w.dir ~username:"bob"
                 ~password:"wrong"
             with
            | Login.Bad_password -> ()
            | _ -> Alcotest.fail "wrong password was not rejected");
            after_bad := Label.owned (Sys.self_label ());
            (match
               Login.login ~proc:sshd ~dir:w.dir ~username:"bob"
                 ~password:"hunter2"
             with
            | Login.Granted _ -> ()
            | _ -> Alcotest.fail "correct password was rejected");
            after_ok := Label.owned (Sys.self_label ()))
      in
      ignore (Process.wait w.proc h);
      let ur = w.bob.Process.ur and uw = w.bob.Process.uw in
      Alcotest.(check bool) "ur/uw not owned before" false
        (Category.Set.mem ur !before || Category.Set.mem uw !before);
      Alcotest.(check bool) "failed login grants neither ur nor uw" false
        (Category.Set.mem ur !after_bad || Category.Set.mem uw !after_bad);
      (* The failure delta is exactly the two session categories the
         caller minted itself (pir, sw) — nothing of the daemon's. *)
      Alcotest.(check int) "failure delta is the caller's own 2 cats" 2
        (Category.Set.cardinal (Category.Set.diff !after_bad !before));
      Alcotest.(check bool) "success grants ur and uw" true
        (Category.Set.mem ur !after_ok && Category.Set.mem uw !after_ok);
      (* Beyond a second (pir, sw) pair, success adds exactly {ur, uw}. *)
      let granted = Category.Set.diff !after_ok !after_bad in
      Alcotest.(check int) "success delta is {ur, uw} + 2 session cats" 4
        (Category.Set.cardinal granted))

(* fuzz: no password other than the exact one is ever granted *)
let prop_no_false_grants =
  Histar_check.Check.test_case ~count:12 ~print:(Printf.sprintf "%S")
    "login never grants on a wrong password"
    Histar_check.Gen.(resize 24 string)
    (fun guess ->
      Histar_check.Check.ensure
        (with_world (fun w ->
             let outcome, _ = attempt_login w ~username:"bob" ~password:guess in
             match outcome with
             | Login.Granted _ -> String.equal guess "hunter2"
             | Login.Bad_password -> not (String.equal guess "hunter2")
             | Login.No_such_user | Login.Setup_rejected -> false)))

let () =
  Alcotest.run "histar_auth"
    [
      ( "login",
        [
          Alcotest.test_case "successful login" `Quick test_successful_login;
          Alcotest.test_case "wrong password" `Quick test_wrong_password;
          Alcotest.test_case "unknown user" `Quick test_unknown_user;
          Alcotest.test_case "retries + logging" `Quick test_retry_limit;
          Alcotest.test_case "retry bound in one session" `Quick
            test_retry_bound_within_one_session;
          Alcotest.test_case "trojaned service" `Quick
            test_trojaned_service_cannot_steal_password;
          Alcotest.test_case "no privilege leak" `Quick
            test_login_does_not_leak_privilege_to_services;
          Alcotest.test_case "owned-set delta is exact" `Quick
            test_owned_set_exact_delta;
          Alcotest.test_case "challenge-response mode" `Quick
            test_challenge_response_mode;
          Alcotest.test_case "trojan in CR mode" `Quick
            test_trojan_in_cr_mode_never_sees_password;
          Alcotest.test_case "append-only log" `Quick test_log_is_append_only;
          prop_no_false_grants;
        ] );
    ]
