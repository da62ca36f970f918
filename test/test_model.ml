(* The executable reference model and the conformance fuzzer built on
   it: Mlabel-vs-Label differential properties (the model's naive label
   algebra against the production Map-based one), the §6.2 gate-login
   scenarios replayed inside the model, a bounded clean conformance
   fuzz over the real kernel, mutation-killing self-tests (each
   [Kernel.weaken] switch must be caught within a fixed budget at the
   default seed), and the container-quota conformance property. *)

module Mlabel = Histar_model.Mlabel
module Model = Histar_model.Model
module Conf = Histar_check.Conformance
module Check = Histar_check.Check
module Gen = Histar_check.Gen
module Kernel = Histar_core.Kernel
open Histar_label

(* ---------- Mlabel vs Label differential ---------- *)

(* A label description both algebras can build: default rank 1..4 and
   (category, rank 0..5) entries over a small category universe, so
   generated pairs collide on categories often. *)
type ldesc = { ld_def : int; ld_ents : (int * int) list }

let gen_ldesc =
  let open Gen in
  let* d = int_range 1 4 in
  let* ents = resize 4 (list (pair (int_range 0 7) (int_range 0 5))) in
  return { ld_def = d; ld_ents = ents }

let print_ldesc { ld_def; ld_ents } =
  Printf.sprintf "{d=%d;[%s]}" ld_def
    (String.concat ";"
       (List.map (fun (c, r) -> Printf.sprintf "(%d,%d)" c r) ld_ents))

let mlabel_of d = Mlabel.of_entries d.ld_ents d.ld_def

let label_of d =
  Label.of_list
    (List.map (fun (c, r) -> (Category.of_int c, Level.of_rank r)) d.ld_ents)
    (Level.of_rank d.ld_def)

(* Canonical form shared by both: sorted non-default entries + default. *)
let canon_m l = (Mlabel.entries l, Mlabel.default l)
let canon_r l = Label.ranked l

let ranked = Alcotest.(pair (list (pair int int)) int)

let prop_ops_agree (a, b) =
  let ma = mlabel_of a and mb = mlabel_of b in
  let ra = label_of a and rb = label_of b in
  Check.ensure ~msg:"construction"
    (canon_m ma = canon_r ra && canon_m mb = canon_r rb);
  Check.ensure ~msg:"leq" (Mlabel.leq ma mb = Label.leq ra rb);
  Check.ensure ~msg:"lub" (canon_m (Mlabel.lub ma mb) = canon_r (Label.lub ra rb));
  Check.ensure ~msg:"glb" (canon_m (Mlabel.glb ma mb) = canon_r (Label.glb ra rb));
  Check.ensure ~msg:"raise_j" (canon_m (Mlabel.raise_j ma) = canon_r (Label.raise_j ra));
  Check.ensure ~msg:"lower_star"
    (canon_m (Mlabel.lower_star ma) = canon_r (Label.lower_star ra));
  Check.ensure ~msg:"can_observe"
    (Mlabel.can_observe ~thread:ma ~obj:mb = Label.can_observe ~thread:ra ~obj:rb);
  Check.ensure ~msg:"can_modify"
    (Mlabel.can_modify ~thread:ma ~obj:mb = Label.can_modify ~thread:ra ~obj:rb);
  Check.ensure ~msg:"can_flow"
    (Mlabel.can_flow ~src:ma ~dst:mb = Label.can_flow ~src:ra ~dst:rb);
  Check.ensure ~msg:"taint_to_read"
    (canon_m (Mlabel.taint_to_read ~thread:ma ~obj:mb)
    = canon_r (Label.taint_to_read ~thread:ra ~obj:rb))

let test_label_algebra_units () =
  (* The identities the fuzzer's bias leans on, spelled out once. *)
  let star_u = Mlabel.of_entries [ (7, Mlabel.star) ] Mlabel.l1 in
  let floor =
    Mlabel.lower_star
      (Mlabel.lub (Mlabel.raise_j (Mlabel.make Mlabel.l1)) (Mlabel.raise_j star_u))
  in
  Alcotest.(check ranked) "floor keeps the gate's stars"
    ([ (7, Mlabel.star) ], Mlabel.l1)
    (canon_m floor);
  Alcotest.(check bool) "floor is below everything at owned cats" true
    (Mlabel.leq floor (Mlabel.make Mlabel.l3));
  let tainted = Mlabel.of_entries [ (3, Mlabel.l3) ] Mlabel.l1 in
  Alcotest.(check ranked) "taint_to_read picks up object taint"
    ([ (3, Mlabel.l3) ], Mlabel.l1)
    (canon_m (Mlabel.taint_to_read ~thread:(Mlabel.make Mlabel.l1) ~obj:tainted))

(* ---------- §6.2 gate-based login in the model ---------- *)

(* Drive [Model.step] directly; any error response fails the test. *)
let mstep st tid req =
  match Model.step st ~thread:tid req with
  | st', resp, Model.S_continue -> (st', resp)
  | _, _, Model.S_thread_gone -> Alcotest.fail "model thread destroyed"
  | _, _, Model.S_stuck (e, m) ->
      Alcotest.fail
        (Printf.sprintf "model thread stuck: %s: %s" (Model.err_to_string e) m)

let owned_of st tid =
  match Model.thread_label_of st tid with
  | None -> Alcotest.fail "thread has no label"
  | Some l -> Mlabel.owned l

let l1m = Mlabel.make Mlabel.l1
let l2m = Mlabel.make Mlabel.l2

(* One user: category [u] guards their data; the auth daemon exposes a
   grant gate owning {u⋆} (returns ownership on success, §6.2) and a
   check gate owning the check category [c] (never returns it). *)
let login_world () =
  let st = Model.init () in
  let daemon = Model.boot_thread st in
  let root = Model.root st in
  let st, u = match mstep st daemon Model.Cat_create with
    | st, Model.R_cat u -> (st, u)
    | _ -> Alcotest.fail "cat_create"
  in
  let st, c = match mstep st daemon Model.Cat_create with
    | st, Model.R_cat c -> (st, c)
    | _ -> Alcotest.fail "cat_create"
  in
  let gate ~owns ~keep descrip st =
    let gc_spec =
      {
        Model.sc_container = root;
        sc_label = Mlabel.set l1m owns Mlabel.star;
        sc_quota = 8192L;
        sc_descrip = descrip;
      }
    in
    match
      mstep st daemon
        (Model.Gate_create
           { gc_spec; gc_clearance = l2m; gc_keep = keep; gc_once = false })
    with
    | st, Model.R_oid g -> (st, g)
    | _ -> Alcotest.fail "gate_create"
  in
  let st, grant = gate ~owns:u ~keep:true "grant bob" st in
  let st, check = gate ~owns:c ~keep:false "check bob" st in
  let st, caller =
    Model.spawn st ~container:root ~label:l1m ~clearance:l2m ~descrip:"sshd"
  in
  (st, root, u, c, grant, check, caller)

let gate_call ~gate ~retcon ?label st tid =
  Model.step st ~thread:tid
    (Model.Gate_call
       {
         g_gate = { Model.container = retcon; object_id = gate };
         g_label = label;
         g_clear = None;
         g_verify = l2m;
         g_retcon = retcon;
       })

let test_model_login_grants_exactly_user_star () =
  let st, root, u, _c, grant, _check, caller = login_world () in
  Alcotest.(check (list int)) "caller starts with no ownership" []
    (owned_of st caller);
  match gate_call ~gate:grant ~retcon:root st caller with
  | st, Model.R_unit, Model.S_continue ->
      Alcotest.(check (list int)) "success grants exactly {u}" [ u ]
        (owned_of st caller);
      (* The granted star rides an otherwise unchanged label: no taint. *)
      let l = Option.get (Model.thread_label_of st caller) in
      Alcotest.(check ranked) "label is {1, u:*}"
        ([ (u, Mlabel.star) ], Mlabel.l1)
        (canon_m l)
  | _, r, _ ->
      Alcotest.fail
        ("grant-gate call failed: "
        ^ match r with Model.R_err (e, m) -> Model.err_to_string e ^ ": " ^ m | _ -> "?")

let test_model_login_failure_leaks_nothing () =
  (* The check gate models the wrong-password path: the service runs
     owning the check category but returns without granting it. The
     caller must come back with ownership of nothing — the check
     category never leaks. *)
  let st, root, _u, _c, _grant, check, caller = login_world () in
  match gate_call ~gate:check ~retcon:root st caller with
  | st, Model.R_unit, Model.S_continue ->
      Alcotest.(check (list int)) "failed login grants nothing" []
        (owned_of st caller);
      let l = Option.get (Model.thread_label_of st caller) in
      Alcotest.(check ranked) "caller label untouched" ([], Mlabel.l1) (canon_m l)
  | _ -> Alcotest.fail "check-gate call did not complete"

let test_model_login_below_floor_rejected () =
  (* A caller may not launder its own taint through the gate: asking to
     run below the floor (default 0 < its own default 1) is E_label. *)
  let st, root, _u, _c, grant, _check, caller = login_world () in
  match gate_call ~gate:grant ~retcon:root ~label:(Mlabel.make Mlabel.l0) st caller with
  | _, Model.R_err (Model.E_label, _), Model.S_continue -> ()
  | _, Model.R_err (e, m), _ ->
      Alcotest.fail
        (Printf.sprintf "wrong error: %s: %s" (Model.err_to_string e) m)
  | _ -> Alcotest.fail "below-floor request was accepted"

(* ---------- conformance: clean kernel ---------- *)

let test_fuzz_clean_kernel () =
  (* The headline acceptance check: a bounded coverage-guided fuzz on
     the unmodified kernel finds no divergence from the model. The
     budget is well above every mutant's detection point (536 traces,
     worst case) and still runs in well under a second;
     HISTAR_CHECK_FULL=1 (nightly CI) multiplies it by 8. *)
  let runs = if Check.full_mode () then 9600 else 1200 in
  let stats = Conf.run_fuzz ~runs () in
  (match stats.Conf.fs_divergence with
  | None -> ()
  | Some (trace, detail) ->
      Alcotest.fail
        (Printf.sprintf "kernel diverged from model:\n%s\n%s\n%s"
           (Conf.report stats) detail (Conf.pp_trace trace)));
  if stats.Conf.fs_corpus < 100 then
    Alcotest.fail
      (Printf.sprintf "coverage collapsed: only %d signatures in %d runs"
         stats.Conf.fs_corpus stats.Conf.fs_runs)

(* ---------- mutation-killing self-tests ---------- *)

(* Each [weaken] switch deletes one label comparison from the kernel.
   The fuzzer must catch all three within a bounded budget at the
   default seed, or it has lost its teeth. Detection points at
   [Check.default_seed]: segment 536 traces, gate 53, unref 70 — the
   2000-trace budget leaves a wide margin and still takes < 0.5 s. *)
let assert_mutant_caught name weaken =
  let stats = Conf.run_fuzz ~weaken ~runs:2000 ~seed:Check.default_seed () in
  match stats.Conf.fs_divergence with
  | Some (trace, _detail) ->
      (* The shrunk witness must itself still witness the divergence. *)
      (match Conf.compare_traces ~weaken trace with
      | Some _ -> ()
      | None ->
          Alcotest.fail
            (Printf.sprintf "%s: shrunk trace no longer diverges:\n%s" name
               (Conf.pp_trace trace)));
      if Conf.compare_traces trace <> None then
        Alcotest.fail
          (Printf.sprintf
             "%s: witness also diverges on the unweakened kernel:\n%s" name
             (Conf.pp_trace trace))
  | None ->
      Alcotest.fail
        (Printf.sprintf "mutant %s survived %d traces (%s)" name
           stats.Conf.fs_runs (Conf.report stats))

let test_mutant_segment_read_taint () =
  assert_mutant_caught "segment read taint" Kernel.Weaken_segment_read_taint

let test_mutant_gate_star_grant () =
  assert_mutant_caught "gate star grant" Kernel.Weaken_gate_star_grant

let test_mutant_unref_check () =
  assert_mutant_caught "unref permission" Kernel.Weaken_unref_check

(* ---------- container quota property ---------- *)

let prop_quota_conformance trace =
  match Conf.compare_traces trace with
  | None -> ()
  | Some detail ->
      Check.ensure ~msg:("quota divergence: " ^ detail) false

(* ---------- replayable regressions ---------- *)

(* Minimized traces for kernel bugs the differential approach exposed
   (fixed in lib/core/kernel.ml); kept as conformance regressions so a
   reintroduction shows up as a divergence, not just a unit failure. *)
let l1s = { Conf.ls_def = 2; ls_ents = [] }
let near_max = Int64.sub Int64.max_int 100L

let regression name trace () =
  match Conf.compare_traces trace with
  | None -> ()
  | Some detail -> Alcotest.fail (Printf.sprintf "%s regressed: %s" name detail)

let trace_charge_overflow =
  (* Finite-container admission check used [usage + amount > quota],
     which wraps for huge requests and over-commits. *)
  [
    Conf.O_container_create (0, l1s, near_max, []);
    Conf.O_segment_create (2, l1s, Int64.sub Int64.max_int 1L, 8);
    Conf.O_get_quota (0, 2);
  ]

let trace_infinite_usage_wrap =
  (* Infinite containers skip admission, but their usage accounting
     still has to saturate rather than wrap negative. *)
  [
    Conf.O_container_create (0, l1s, 65536L, []);
    Conf.O_quota_move (0, 2, near_max);
    Conf.O_quota_move (0, 2, near_max);
    Conf.O_get_quota (0, 0);
    Conf.O_get_quota (0, 2);
  ]

let trace_quota_move_wrap =
  (* Repeated quota_move into the same target overflowed the target's
     quota field when the source was infinite. *)
  [
    Conf.O_segment_create (0, l1s, 1024L, 8);
    Conf.O_quota_move (0, 2, near_max);
    Conf.O_quota_move (0, 2, near_max);
    Conf.O_get_quota (0, 2);
  ]

let trace_negative_cas_offset =
  (* segment_cas/futex with a negative offset raised Invalid_argument
     inside the kernel and killed the thread instead of returning an
     Invalid error. *)
  [
    Conf.O_segment_create (0, l1s, 1024L, 16);
    Conf.O_segment_cas ((0, 2), -8, 0L, 7L);
    Conf.O_futex_wake ((0, 2), -4, 1);
  ]

let trace_one_shot_gate =
  (* One-shot service gates (the mechanism beneath lib/lio's scope
     excursions) reap themselves from the naming container on first
     invocation: the second call through the same entry must fail
     identically — the name is gone — in kernel and model alike.
     O_gate_create_oneshot is never emitted by gen_trace (that would
     shift the pinned mutation-catch indices), so this hand-written
     trace is its conformance coverage. *)
  [
    Conf.O_gate_create_oneshot (0, l1s, { Conf.ls_def = 3; ls_ents = [] },
      4096L, false);
    Conf.O_gate_call ((0, 2), None, None, { Conf.ls_def = 4; ls_ents = [] }, 0);
    Conf.O_gate_call ((0, 2), None, None, { Conf.ls_def = 4; ls_ents = [] }, 0);
  ]

(* A gate call decided before an ownership-backed clearance raise and
   repeated, with the identical requested triple, after it: the raise
   flips C_R ⊑ C_T ⊔ C_G, so the second call must be re-checked, not
   answered from the first. Any cache of gate decisions that does not
   key on the caller's current clearance fails here. *)
let trace_clearance_raise_window =
  let l1 = { Conf.ls_def = 2; ls_ents = [] } in
  let l2 = { Conf.ls_def = 3; ls_ents = [] } in
  let lv = { Conf.ls_def = 4; ls_ents = [] } in
  (* requested clearance {c0 3, 2}: above C_T ⊔ C_G until the thread,
     owning c0, raises its own clearance to match *)
  let cr = { Conf.ls_def = 3; ls_ents = [ (0, 4) ] } in
  let call = Conf.O_gate_call ((0, 2), Some l1, Some cr, lv, 0) in
  [
    Conf.O_cat_create;
    (* cat_create grants clearance c0→3; drop back to {2} so the first
       call's requested clearance is out of reach *)
    Conf.O_self_set_clearance l2;
    Conf.O_gate_create (0, l1, l2, 4096L, false);
    call;
    Conf.O_self_set_clearance cr;
    call;
  ]

let regress_charge_overflow = regression "charge overflow" trace_charge_overflow

let regress_infinite_usage_wrap =
  regression "infinite-container usage wrap" trace_infinite_usage_wrap

let regress_quota_move_wrap =
  regression "quota_move target wrap" trace_quota_move_wrap

let regress_negative_cas_offset =
  regression "negative CAS offset crash" trace_negative_cas_offset

let regress_one_shot_gate = regression "one-shot gate reaped" trace_one_shot_gate

let regress_clearance_raise_window =
  regression "gate call across a clearance raise" trace_clearance_raise_window

(* ---------- fork/resume round trip ----------

   Forking a kernel serializes every object and resuming decodes them
   all, so a field the codec drops shows up as a slot whose final-state
   view changed across the round trip. Random traces reach every object
   kind and label shape the fuzzer does. *)

let prop_fork_resume_preserves_state trace =
  match Conf.fork_resume_divergence trace with
  | None -> ()
  | Some detail -> Check.ensure ~msg:detail false

(* ---------- live remote-gate conformance (lib/dist hook) ----------

   The grid in test_dist checks [Proto.admit] against
   [Model.check_gate_invoke] clause for clause on synthetic labels.
   This case closes the loop on a *live* system: a real remote gate
   call across two kernels is refused exactly when the model's
   gate-invocation rule refuses the same translated inputs, with the
   identical error string (same class, E_label). *)

let test_remote_call_matches_model () =
  let module Addr = Histar_net.Addr in
  let module Hub = Histar_net.Hub in
  let module Netd = Histar_net.Netd in
  let module Sim_clock = Histar_util.Sim_clock in
  let module Sys = Histar_core.Sys in
  let module Names = Histar_dist.Names in
  let module Distd = Histar_dist.Distd in
  let module Cluster = Histar_dist.Cluster in
  let l1 = Label.make Level.L1 and l3 = Label.make Level.L3 in
  (* two-node fixture, as in test_dist *)
  let cluster = Cluster.create () in
  let directory = Names.Directory.create () in
  let key = 0xd157L in
  let back = Hub.create ~clock:(Sim_clock.create ()) () in
  let ip i = Printf.sprintf "10.2.0.%d" (i + 1) in
  let peers i = Addr.v (ip i) 7000 in
  let mk i =
    let clock = Sim_clock.create () in
    let k = Kernel.create ~seed:(Int64.of_int (23 * (i + 1))) ~clock () in
    Cluster.add_kernel cluster k;
    let root = Kernel.root k in
    let netd =
      Netd.start k ~hub:back ~container:root ~ip:(Addr.ip_of_string (ip i))
        ~mac:(Printf.sprintf "m%d" i) ()
    in
    let names = Names.create ~node_id:i ~key ~directory in
    (k, Distd.start k ~netd ~names ~key ~container:root ~port:7000 ~peers ())
  in
  let k0, d0 = mk 0 in
  let k1, d1 = mk 1 in
  ignore (k1 : Kernel.t);
  ignore
    (Kernel.spawn k1 ~label:l1 ~clearance:l3 ~name:"svc-init" (fun () ->
         Distd.register d1 ~service:"clean" ~label:l1 ~clearance:l3 (fun _ ->
             ("ok", []));
         let d = Sys.cat_create () in
         ignore (Distd.export_owned d1 d : int64);
         Distd.register d1 ~service:"tainted-gate"
           ~label:(Label.of_list [ (d, Level.L2) ] Level.L1)
           ~clearance:l3
           (fun _ -> ("unreachable", []))));
  Cluster.settle cluster;
  let r_clean = ref None and r_tainted = ref None in
  ignore
    (Kernel.spawn k0 ~label:l1 ~clearance:l3 ~name:"caller" (fun () ->
         r_clean := Some (Distd.call d0 ~node:1 ~service:"clean" "");
         r_tainted := Some (Distd.call d0 ~node:1 ~service:"tainted-gate" "")));
  Alcotest.(check bool) "cluster made progress" true
    (Cluster.drive cluster ~until:(fun () -> !r_tainted <> None) ());
  (* mirror of the admission inputs Distd computed for this caller: a
     clean l1/l3 thread translates to itself, the proxy's requested
     label is the caller's (no service ⋆s), lv is permissive *)
  let ml ents d = Mlabel.of_entries ents d in
  let model_verdict ~lg =
    Model.check_gate_invoke ~lt:(ml [] 1) ~ct:(ml [] 3) ~lg
      ~gclear:(ml [] 3) ~rl:(ml [] 1) ~rc:(ml [] 3) ~lv:(ml [] 3)
  in
  (match (model_verdict ~lg:(ml [] 1), !r_clean) with
  | Ok (), Some (Ok ("ok", [])) -> ()
  | Ok (), Some (Error _) ->
      Alcotest.fail "live call refused where the model admits"
  | Error _, _ -> Alcotest.fail "model refuses the clean case"
  | _, _ -> Alcotest.fail "clean call did not complete");
  match (model_verdict ~lg:(ml [ (9, 2) ] 1), !r_tainted) with
  | Error (Model.E_label, want), Some (Error (Histar_dist.Distd.Refused got))
    ->
      Alcotest.(check string) "same refusal string" want got
  | Error (_, _), Some (Ok _) ->
      Alcotest.fail "live call admitted where the model refuses"
  | Error (e, m), _ ->
      Alcotest.failf "unexpected live outcome for model refusal %s: %s"
        (Model.err_to_string e) m
  | Ok (), _ -> Alcotest.fail "model admits the tainted-gate case"

let () =
  Alcotest.run "histar_model"
    [
      ( "label algebra",
        [
          Check.test_case ~count:300
            ~print:(fun (a, b) -> print_ldesc a ^ " vs " ^ print_ldesc b)
            "Mlabel agrees with Label on all operators"
            Gen.(pair gen_ldesc gen_ldesc)
            prop_ops_agree;
          Alcotest.test_case "floor and taint identities" `Quick
            test_label_algebra_units;
        ] );
      ( "gate login (§6.2)",
        [
          Alcotest.test_case "success grants exactly the user star" `Quick
            test_model_login_grants_exactly_user_star;
          Alcotest.test_case "failure leaks no check category" `Quick
            test_model_login_failure_leaks_nothing;
          Alcotest.test_case "below-floor request rejected" `Quick
            test_model_login_below_floor_rejected;
        ] );
      ( "conformance",
        [
          Alcotest.test_case "bounded fuzz finds no divergence" `Quick
            test_fuzz_clean_kernel;
          Alcotest.test_case "live remote gate call matches model" `Quick
            test_remote_call_matches_model;
          Check.test_case ~count:150
            ~print:Conf.pp_trace
            "container quotas conform on adversarial traces"
            Conf.gen_quota_trace prop_quota_conformance;
        ] );
      ( "mutation killing",
        [
          Alcotest.test_case "catches weakened segment read taint" `Quick
            test_mutant_segment_read_taint;
          Alcotest.test_case "catches weakened gate star grant" `Quick
            test_mutant_gate_star_grant;
          Alcotest.test_case "catches weakened unref check" `Quick
            test_mutant_unref_check;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "finite-charge overflow" `Quick
            regress_charge_overflow;
          Alcotest.test_case "infinite-usage saturation" `Quick
            regress_infinite_usage_wrap;
          Alcotest.test_case "quota_move target wrap" `Quick
            regress_quota_move_wrap;
          Alcotest.test_case "negative CAS offset" `Quick
            regress_negative_cas_offset;
          Alcotest.test_case "one-shot gate reaped" `Quick
            regress_one_shot_gate;
        ] );
      ( "stale gate decision",
        [
          Alcotest.test_case "re-checked after a clearance raise" `Quick
            regress_clearance_raise_window;
        ] );
      ( "fork/resume",
        [
          Check.test_case ~count:200 ~print:Conf.pp_trace
            "final state survives a round trip" Conf.gen_trace
            prop_fork_resume_preserves_state;
        ] );
    ]
