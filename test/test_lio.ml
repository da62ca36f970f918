(* The LIO-style floating-label layer (lib/lio) on a real kernel: label
   monotonicity, to_labeled scope restoration via one-shot gates, the
   catch/taint discipline, kernel-backed labeled refs, and a §6.2-style
   login driven through LIO primitives that is observationally
   identical to the raw-gate version. *)

module Kernel = Histar_core.Kernel
module Sys = Histar_core.Sys
module Lio = Histar_lio.Lio
open Histar_core.Types
open Histar_label

let l1 = Label.make Level.L1

(* One kernel, one thread owning a freshly minted secrecy category [s],
   a Lio context with a scratch at {s3,1}. *)
let with_lio f =
  let k = Kernel.create () in
  let result = ref None in
  let failure = ref None in
  ignore
    (Kernel.spawn k ~name:"lio-main" (fun () ->
         let s = Sys.cat_create () in
         let hi = Label.of_list [ (s, Level.L3) ] Level.L1 in
         let ctx = Lio.init ~levels:[ hi ] ~container:(Kernel.root k) () in
         match f ~s ~hi ctx with
         | v -> result := Some v
         | exception e -> failure := Some (Printexc.to_string e)));
  Kernel.run k;
  match (!result, !failure) with
  | Some v, _ -> v
  | None, Some m -> Alcotest.fail ("lio-main crashed: " ^ m)
  | None, None -> Alcotest.fail "lio-main did not complete"

let test_monotonic_and_restore () =
  with_lio (fun ~s ~hi ctx ->
      let l0 = Lio.current_label () in
      Alcotest.(check bool) "thread owns its category" true (Label.owns l0 s);
      let secret = Lio.new_ref ctx ~name:"high" hi "classified" in
      let lv =
        Lio.to_labeled ctx hi (fun () ->
            let before = Lio.current_label () in
            let v = Lio.read_ref secret in
            let after = Lio.current_label () in
            Alcotest.(check bool) "label only rises inside" true
              (Label.leq before after);
            Alcotest.(check bool) "taint clobbers ownership" true
              (Label.get after s = Level.L3 && not (Label.owns after s));
            v)
      in
      Alcotest.(check bool) "to_labeled restores the pre-block label" true
        (Label.equal (Lio.current_label ()) l0);
      Alcotest.(check bool) "result carries the block label" true
        (Label.equal (Lio.label_of lv) hi);
      (* outside any to_labeled, unlabel rises and stays risen *)
      Alcotest.(check string) "value intact" "classified" (Lio.unlabel lv);
      Alcotest.(check bool) "unlabel taints for good" true
        (Label.get (Lio.current_label ()) s = Level.L3))

let test_to_labeled_clearance_bound () =
  with_lio (fun ~s:_ ~hi ctx ->
      let secret = Lio.new_ref ctx ~name:"high" hi "top" in
      let l0 = Lio.current_label () in
      (* a {1} block cannot observe {s3} data: the kernel refuses the
         taint inside the block, and the failure comes back as a
         labeled exception rather than escaping the scope *)
      let lv = Lio.to_labeled ctx l1 (fun () -> Lio.read_ref secret) in
      Alcotest.(check bool) "label restored after refused block" true
        (Label.equal (Lio.current_label ()) l0);
      (match Lio.unlabel lv with
      | _ -> Alcotest.fail "expected the captured kernel denial"
      | exception Kernel_error (Label_check _) -> ());
      Alcotest.(check bool) "unlabel of a {1} result does not taint" true
        (Label.equal (Lio.current_label ()) l0))

let test_catch_taints_handler () =
  with_lio (fun ~s ~hi ctx ->
      let secret = Lio.new_ref ctx ~name:"high" hi "payload" in
      let handler_label = ref l1 in
      let r =
        Lio.catch ctx
          (fun () ->
            ignore (Lio.read_ref secret);
            raise Exit)
          (fun e ->
            Alcotest.(check bool) "original exception" true (e = Exit);
            handler_label := Lio.current_label ();
            "handled")
      in
      Alcotest.(check string) "handler ran" "handled" r;
      Alcotest.(check bool) "handler runs at the throw-point label" true
        (Label.get !handler_label s = Level.L3);
      Alcotest.(check bool) "taint survives the catch" true
        (Label.get (Lio.current_label ()) s = Level.L3);
      (* the success path re-taints the same way *)
      let l0 = Lio.current_label () in
      let v = Lio.catch ctx (fun () -> Lio.read_ref secret) (fun _ -> "?") in
      Alcotest.(check string) "body result" "payload" v;
      Alcotest.(check bool) "success path keeps the block's taint" true
        (Label.leq l0 (Lio.current_label ())))

let test_refs_kernel_backed () =
  with_lio (fun ~s:_ ~hi ctx ->
      let low = Lio.new_ref ctx ~name:"low" l1 "public" in
      let secret = Lio.new_ref ctx ~name:"high" hi "sekrit" in
      Alcotest.(check string) "low read" "public" (Lio.read_ref low);
      ignore (Lio.read_ref secret);
      (* tainted: the library refuses the write down... *)
      (match Lio.write_ref low "leak" with
      | () -> Alcotest.fail "write down must be refused"
      | exception Lio.Lio_error _ -> ());
      (* ...and the kernel stands behind it even if the library is
         bypassed *)
      (match Sys.segment_write (Lio.ref_entry low) "leak" with
      | () -> Alcotest.fail "kernel must refuse the raw write too"
      | exception Kernel_error (Label_check _) -> ());
      (* writing *up* while public is fine, reading it taints *)
      Alcotest.(check string) "low ref unchanged" "public" (Lio.read_ref low))

let test_labeled_exception_roundtrip () =
  with_lio (fun ~s:_ ~hi ctx ->
      let l0 = Lio.current_label () in
      let lv = Lio.to_labeled ctx hi (fun () -> failwith "boom") in
      Alcotest.(check bool) "label restored" true
        (Label.equal (Lio.current_label ()) l0);
      (match Lio.unlabel lv with
      | _ -> Alcotest.fail "expected the captured exception"
      | exception Failure m -> Alcotest.(check string) "payload" "boom" m);
      Alcotest.(check bool) "unlabel taints before rethrowing" true
        (Label.leq hi (Label.lub (Lio.current_label ()) hi)
        && Label.get (Lio.current_label ())
             (List.hd (Label.entries hi) |> fst)
           = Level.L3))

let test_label_checks () =
  with_lio (fun ~s:_ ~hi ctx ->
      ignore (Lio.label hi "up is fine");
      ignore (Lio.read_ref (Lio.new_ref ctx ~name:"h" hi "x"));
      (* now tainted: labeling below the current label is refused *)
      (match Lio.label l1 "down" with
      | _ -> Alcotest.fail "label below current must be refused"
      | exception Lio.Lio_error _ -> ());
      (match Lio.new_ref ctx l1 "down" with
      | _ -> Alcotest.fail "new_ref below current must be refused"
      | exception Lio.Lio_error _ -> ()))

let test_scope_gates_are_reaped () =
  with_lio (fun ~s:_ ~hi ctx ->
      let scratch = Lio.scratch_for ctx (Lio.current_label ()) in
      let count () =
        List.length (Sys.container_list (self_entry scratch))
      in
      let secret = Lio.new_ref ctx ~name:"high" hi "x" in
      let before = count () in
      for _ = 1 to 8 do
        ignore (Lio.to_labeled ctx hi (fun () -> Lio.read_ref secret))
      done;
      Alcotest.(check int) "scope and return gates all reaped" before
        (count ()))

let test_one_shot_gate_single_use () =
  with_lio (fun ~s:_ ~hi:_ ctx ->
      let scratch = Lio.scratch_for ctx (Lio.current_label ()) in
      let hits = ref 0 in
      let g =
        Sys.gate_create ~one_shot:true ~container:scratch
          ~label:(Sys.self_label ())
          ~clearance:(Sys.self_clearance ())
          ~quota:4096L ~name:"once" (fun () ->
            incr hits;
            Sys.gate_return ())
      in
      let call () =
        Sys.gate_call ~gate:(centry scratch g) ~label:(Sys.self_label ())
          ~clearance:(Sys.self_clearance ())
          ~return_container:scratch
          ~return_label:(Sys.self_label ())
          ~return_clearance:(Sys.self_clearance ())
          ()
      in
      call ();
      Alcotest.(check int) "first call runs" 1 !hits;
      (match call () with
      | () -> Alcotest.fail "second call must find no gate"
      | exception Kernel_error (Not_found_ _) -> ());
      Alcotest.(check int) "entry did not run again" 1 !hits)

let test_weaken_to_labeled_result () =
  with_lio (fun ~s ~hi ctx ->
      let secret = Lio.new_ref ctx ~name:"high" hi "odd-one" in
      Lio.set_weaken (Some Lio.Weaken_toLabeled_result);
      Fun.protect
        ~finally:(fun () -> Lio.set_weaken None)
        (fun () ->
          (* the planted leak: the {1} block reads {s3} data and its
             result comes back labeled {1} *)
          let lv =
            Lio.to_labeled ctx l1 (fun () ->
                string_of_int (String.length (Lio.read_ref secret)))
          in
          let v = Lio.unlabel lv in
          Alcotest.(check string) "secret-derived value escaped" "7" v;
          Alcotest.(check bool) "and the thread is not even tainted" true
            (Label.get (Lio.current_label ()) s <> Level.L3)))

let test_weaken_lio_catch () =
  with_lio (fun ~s ~hi ctx ->
      let secret = Lio.new_ref ctx ~name:"high" hi "x" in
      Lio.set_weaken (Some Lio.Weaken_lio_catch);
      Fun.protect
        ~finally:(fun () -> Lio.set_weaken None)
        (fun () ->
          let handler_label = ref hi in
          ignore
            (Lio.catch ctx
               (fun () ->
                 ignore (Lio.read_ref secret);
                 raise Exit)
               (fun _ ->
                 handler_label := Lio.current_label ();
                 "leaked"));
          Alcotest.(check bool)
            "planted leak: handler runs at the laundered pre-taint label" true
            (Label.get !handler_label s <> Level.L3)))

(* --- §6.2 login via LIO ------------------------------------------- *)

module Process = Histar_unix.Process
module Fs = Histar_unix.Fs
module Login = Histar_auth.Login
module Authd = Histar_auth.Authd
module Dird = Histar_auth.Dird
module Logd = Histar_auth.Logd
module Users = Histar_unix.Users
module Proto = Histar_auth.Proto
module Agreed = Histar_auth.Agreed
module Codec = Histar_util.Codec

(* login_via_gate with the password-handling step driven through LIO:
   the credential handover (the only step that handles the secret) runs
   inside a Lio scope, explicitly tainted pir3; leaving the scope is the
   pir owner's declassification of the one-bit outcome — exactly the
   flow the raw protocol gets from its return gate. *)
let lio_login ~proc ~setup_gate ~username ~password =
  let ctx = Lio.init ~container:(Process.container proc) () in
  let pir = Sys.cat_create () in
  let sw = Sys.cat_create () in
  let session =
    Sys.container_create ~container:(Process.container proc)
      ~label:(Label.of_list [ (sw, Level.L0) ] Level.L1)
      ~quota:1_048_576L "login session"
  in
  let agreed_gate, agreed_marker = Agreed.install ~container:session ~pir in
  let e = Codec.Enc.create () in
  Codec.Enc.int e session;
  Codec.Enc.int e (pir :> int);
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
  if String.length reply = 0 then Login.Setup_rejected
  else begin
    let _retry, check, grant, challenge = Proto.dec_setup_reply reply in
    let pir3 = Label.of_list [ (pir, Level.L3) ] Level.L1 in
    let labeled_pw = Lio.label pir3 password in
    (* §6.1 tainted workspace: unlike the raw protocol — which is only
       tainted *during* the gate transfer — the LIO flow taints itself
       before calling the check gate, so its return gate needs a
       container already at pir3. *)
    let workspace =
      Sys.container_create ~container:session ~label:pir3 ~quota:65536L
        "tainted workspace"
    in
    let ok_out, _final =
      Lio.with_scope ctx (fun () ->
          let pw = Lio.unlabel labeled_pw in
          let credential =
            match challenge with
            | None -> `Password pw
            | Some ch ->
                let password_hash =
                  Proto.hash_password ~salt:("histar-salt-" ^ username)
                    ~password:pw
                in
                `Response
                  (Proto.challenge_response ~password_hash ~challenge:ch)
          in
          Sys.tls_write (Proto.enc_credential credential);
          Sys.gate_call ~gate:check
            ~label:(Label.set (Sys.gate_floor check) pir Level.L3)
            ~clearance:(Sys.self_clearance ())
            ~return_container:workspace
            ~return_label:(Sys.self_label ())
            ~return_clearance:(Sys.self_clearance ()) ();
          Proto.dec_check_reply (Sys.tls_read ()))
    in
    match ok_out with
    | Error e -> raise e
    | Ok false -> Login.Bad_password
    | Ok true ->
        Sys.gate_call ~gate:grant
          ~label:(Sys.gate_floor grant)
          ~clearance:(Sys.self_clearance ())
          ~return_container:session
          ~return_label:(Sys.self_label ())
          ~return_clearance:(Sys.self_clearance ()) ();
        let d = Codec.Dec.of_string (Sys.tls_read ()) in
        let ur = Category.of_int64 (Codec.Dec.i64 d) in
        let uw = Category.of_int64 (Codec.Dec.i64 d) in
        let owned = Label.owned (Sys.self_label ()) in
        if Category.Set.mem ur owned && Category.Set.mem uw owned then begin
          Sys.self_set_clearance
            (Label.set
               (Label.set (Sys.self_clearance ()) ur Level.L3)
               uw Level.L3);
          Login.Granted { Process.user_name = username; ur; uw }
        end
        else Login.Setup_rejected
  end

type login_world = {
  k : Kernel.t;
  proc : Process.t;
  fs : Fs.t;
  log : Logd.t;
  dir : Dird.t;
  bob : Process.user;
}

let with_login_world f =
  let k = Kernel.create () in
  let result = ref None in
  let failure = ref None in
  ignore
    (Kernel.spawn k ~name:"init" (fun () ->
         let fs = Fs.format_root ~container:(Kernel.root k) ~label:l1 in
         let proc =
           Process.boot ~fs ~container:(Kernel.root k) ~name:"init" ()
         in
         let log = Logd.start proc in
         let dir = Dird.start proc in
         let bob = Users.create_user ~fs ~name:"bob" in
         Fs.write_file fs "/home/bob/secret" "bob's secret data";
         let _authd =
           Authd.start proc ~user:bob ~password:"hunter2" ~log ~dir ()
         in
         match f { k; proc; fs; log; dir; bob } with
         | v -> result := Some v
         | exception e -> failure := Some (Printexc.to_string e)));
  Kernel.run k;
  match (!result, !failure) with
  | Some v, _ -> v
  | None, Some m -> Alcotest.fail ("init crashed: " ^ m)
  | None, None -> Alcotest.fail "init did not complete"

(* Observable footprint of one login attempt: outcome shape, whether
   the real user categories were granted, whether bob's secret became
   readable, and the audit log. *)
let observe_login w login ~password =
  let outcome = ref None in
  let secret = ref None in
  let h =
    Process.spawn w.proc ~name:"sshd" (fun sshd ->
        let setup =
          Option.get
            (Dird.lookup w.dir ~return_container:(Process.internal sshd) "bob")
        in
        let o = login ~proc:sshd ~setup_gate:setup ~username:"bob" ~password in
        outcome := Some o;
        secret :=
          Some
            (match Fs.read_file (Process.fs sshd) "/home/bob/secret" with
            | s -> Some s
            | exception Kernel_error _ -> None))
  in
  ignore (Process.wait w.proc h);
  let shape =
    match Option.get !outcome with
    | Login.Granted u ->
        Printf.sprintf "granted:%s:real-cats=%b" u.Process.user_name
          (Category.equal u.Process.ur w.bob.Process.ur
          && Category.equal u.Process.uw w.bob.Process.uw)
    | Login.Bad_password -> "bad-password"
    | Login.No_such_user -> "no-such-user"
    | Login.Setup_rejected -> "setup-rejected"
  in
  (shape, Option.get !secret, Logd.entries w.log)

let test_lio_login_identical_to_raw () =
  let run login =
    with_login_world (fun w ->
        let bad = observe_login w login ~password:"wrong" in
        let ok = observe_login w login ~password:"hunter2" in
        (bad, ok))
  in
  let raw = run Login.login_via_gate in
  let lio = run lio_login in
  let check_leg name (sh_r, sec_r, log_r) (sh_l, sec_l, log_l) =
    Alcotest.(check string) (name ^ ": outcome") sh_r sh_l;
    Alcotest.(check (option string)) (name ^ ": secret visibility") sec_r sec_l;
    Alcotest.(check (list string)) (name ^ ": audit log") log_r log_l
  in
  check_leg "wrong password" (fst raw) (fst lio);
  check_leg "correct password" (snd raw) (snd lio)

let () =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.Warning);
  Alcotest.run "histar_lio"
    [
      ( "floating-label",
        [
          Alcotest.test_case "monotonic rise + scope restore" `Quick
            test_monotonic_and_restore;
          Alcotest.test_case "to_labeled clearance bound" `Quick
            test_to_labeled_clearance_bound;
          Alcotest.test_case "catch taints the handler" `Quick
            test_catch_taints_handler;
          Alcotest.test_case "refs are kernel-backed" `Quick
            test_refs_kernel_backed;
          Alcotest.test_case "labeled exception roundtrip" `Quick
            test_labeled_exception_roundtrip;
          Alcotest.test_case "label/new_ref bounds" `Quick test_label_checks;
          Alcotest.test_case "scope gates are reaped" `Quick
            test_scope_gates_are_reaped;
          Alcotest.test_case "one-shot gate is single use" `Quick
            test_one_shot_gate_single_use;
        ] );
      ( "planted-leaks",
        [
          Alcotest.test_case "Weaken_toLabeled_result leaks" `Quick
            test_weaken_to_labeled_result;
          Alcotest.test_case "Weaken_lio_catch leaks" `Quick
            test_weaken_lio_catch;
        ] );
      ( "login",
        [
          Alcotest.test_case "LIO login == raw-gate login" `Quick
            test_lio_login_identical_to_raw;
        ] );
    ]
