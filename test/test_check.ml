(* The checking harness itself: generator determinism, shrinking
   quality, the crash-point sweep over all four workloads, and a
   meta-test proving an injected durability regression is caught with a
   replayable report. *)

module Gen = Histar_check.Gen
module Check = Histar_check.Check
module Crash_sweep = Histar_check.Crash_sweep
module Workloads = Histar_check.Workloads
module Ni = Histar_check.Noninterference
module Lio = Histar_lio.Lio
module Wal = Histar_wal.Wal
module Disk = Histar_disk.Disk
module Sim_clock = Histar_util.Sim_clock

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let check_mentions msg needles =
  List.iter
    (fun needle ->
      if not (contains ~needle msg) then
        Alcotest.fail (Printf.sprintf "report missing %S in:\n%s" needle msg))
    needles

(* ---------- generator engine ---------- *)

let test_generate_deterministic () =
  let gen = Gen.(list (pair nat (string_of char))) in
  let a = Gen.generate gen ~seed:42L ~size:20 in
  let b = Gen.generate gen ~seed:42L ~size:20 in
  if a <> b then Alcotest.fail "same seed produced different values";
  let c = Gen.generate gen ~seed:43L ~size:20 in
  if a = c then Alcotest.fail "different seeds produced identical values"

let test_shrink_int_to_boundary () =
  (* The minimal value violating [n < 10] is exactly 10. *)
  match
    Check.find_counterexample ~count:200 ~seed:1L
      (Gen.int_range 0 10_000)
      (fun n -> Check.ensure (n < 10))
  with
  | None -> Alcotest.fail "property n < 10 was never falsified"
  | Some n -> Alcotest.(check int) "shrunk to boundary" 10 n

let test_shrink_list_to_minimal () =
  (* The minimal list violating [length < 4] has exactly 4 elements,
     each shrunk to 0. *)
  match
    Check.find_counterexample ~count:200 ~seed:1L
      Gen.(list nat)
      (fun l -> Check.ensure (List.length l < 4))
  with
  | None -> Alcotest.fail "property length < 4 was never falsified"
  | Some l ->
      Alcotest.(check (list int)) "minimal counterexample" [ 0; 0; 0; 0 ] l

let test_shrink_respects_invariant () =
  (* Shrinking only ever proposes values the generator could have
     produced: int_range never shrinks below its lower bound. *)
  match
    Check.find_counterexample ~count:100 ~seed:7L (Gen.int_range 5 100)
      (fun n -> Check.ensure (n > 1_000))
  with
  | None -> Alcotest.fail "unsatisfiable property was never falsified"
  | Some n -> Alcotest.(check int) "shrunk to range minimum" 5 n

let test_run_reports_replay_seed () =
  match
    Check.run ~name:"always-false" ~count:5 ~seed:0xABCL Gen.nat (fun _ ->
        failwith "nope")
  with
  | () -> Alcotest.fail "property should have been falsified"
  | exception Check.Falsified msg ->
      check_mentions msg [ "HISTAR_CHECK_SEED=0xABC"; "counterexample:"; "nope" ]

(* ---------- crash sweep: real workloads ---------- *)

let reports : Crash_sweep.report list ref = ref []

let sweep_test ?max_points w =
  Alcotest.test_case ("sweep " ^ w.Crash_sweep.name) `Quick (fun () ->
      match Crash_sweep.sweep ?max_points w with
      | r ->
          reports := r :: !reports;
          if r.Crash_sweep.total_writes <= 0 then
            Alcotest.fail "workload performed no media writes";
          Format.printf "%a@." Crash_sweep.pp_report r
      | exception Check.Falsified msg -> Alcotest.fail msg)

(* Under a single-point replay (HISTAR_CHECK_WORKLOAD /
   HISTAR_CHECK_CRASH_INDEX) the sweep is deliberately narrowed, so
   whole-sweep meta-assertions don't apply. *)
let replaying () =
  Stdlib.Sys.getenv_opt "HISTAR_CHECK_WORKLOAD" <> None
  || Stdlib.Sys.getenv_opt "HISTAR_CHECK_CRASH_INDEX" <> None

let test_coverage () =
  (* Strided tier-1 sweeps still cover a healthy spread; the full sweep
     (HISTAR_CHECK_FULL=1) must exercise >= 200 distinct crash points
     across the workloads, per the §4 durability claim. *)
  if not (replaying ()) then begin
    let points =
      List.fold_left (fun acc r -> acc + r.Crash_sweep.points) 0 !reports
    in
    let floor = if Check.full_mode () then 200 else 48 in
    if points < floor then
      Alcotest.fail
        (Printf.sprintf "only %d crash points exercised (want >= %d)" points
           floor)
  end

(* ---------- fork vs replay: the double-run discipline ----------

   The sweep branches every cell off its clean-run capture; the replay
   cell re-runs the workload up to the crash and is kept only as the
   reference. The same crash cell produced both ways must do
   metric-for-metric identical recovery work. *)

let metric_list =
  Alcotest.(list (pair string int))

let test_fork_replay_recovery_identical () =
  if replaying () then ()
  else
    let seed = Check.default_seed in
    List.iter
      (fun w ->
        List.iter
          (fun index ->
            let fork =
              Crash_sweep.recovery_metrics w ~seed ~index ~mode:`Fork
            in
            let replay =
              Crash_sweep.recovery_metrics w ~seed ~index ~mode:`Replay
            in
            Alcotest.check metric_list
              (Printf.sprintf "%s @ %d: fork == replay" w.Crash_sweep.name
                 index)
              replay fork)
          [ 0; 3; 17 ])
      (Workloads.all ())

let test_cells_counter_and_throughput () =
  if replaying () then ()
  else begin
    let was = Histar_metrics.Metrics.enabled () in
    Histar_metrics.Metrics.set_enabled true;
    let cells0 = Histar_metrics.Metrics.counter_value "crash_sweep.cells" in
    let r =
      Fun.protect
        ~finally:(fun () -> Histar_metrics.Metrics.set_enabled was)
        (fun () -> Crash_sweep.sweep ~max_points:12 (Workloads.wal ()))
    in
    let cells = Histar_metrics.Metrics.counter_value "crash_sweep.cells" in
    Alcotest.(check int) "one cells tick per crash point" r.Crash_sweep.points
      (cells - cells0);
    Alcotest.(check bool) "throughput is measurable" true
      (Crash_sweep.cells_per_sec r > 0.0)
  end

(* The sweep's strided sample: [n] evenly spaced indices of
   [0, total), endpoints included. *)
let strided ~total ~n =
  if total <= n then List.init total Fun.id
  else
    List.init n (fun i -> i * (total - 1) / (n - 1))
    |> List.sort_uniq Int.compare

(* The replay oracle over [indices], in order: the first falsification
   message, as a sequential replay sweep would raise it. *)
let replay_first_failure w ~seed ~total indices =
  List.find_map
    (fun i ->
      match Crash_sweep.replay_cell w ~seed ~total i with
      | () -> None
      | exception Check.Falsified msg -> Some msg)
    indices

(* The >= 10x wall-clock claim. CPU-time ratios on shared CI runners
   are noisy, so this only runs when explicitly requested
   (HISTAR_CHECK_SPEEDUP=1, set by a build-test CI step). *)
let test_fork_speedup () =
  if Stdlib.Sys.getenv_opt "HISTAR_CHECK_SPEEDUP" <> Some "1" then ()
  else begin
    (* A longer run sharpens the asymptotics: replay pays the whole
       prefix per cell, fork pays only the recovery check. *)
    let w = Workloads.store ~nops:300 () in
    let seed = Check.seed () in
    let fork = Crash_sweep.sweep ~seed ~max_points:64 w in
    let total = fork.Crash_sweep.total_writes in
    let indices = strided ~total ~n:64 in
    let t0 = Stdlib.Sys.time () in
    List.iter (Crash_sweep.replay_cell w ~seed ~total) indices;
    let replay_cps =
      float_of_int (List.length indices) /. (Stdlib.Sys.time () -. t0)
    in
    let ratio = Crash_sweep.cells_per_sec fork /. replay_cps in
    Format.printf "fork %.0f cells/s, replay %.0f cells/s (%.1fx)@."
      (Crash_sweep.cells_per_sec fork)
      replay_cps ratio;
    if ratio < 10.0 then
      Alcotest.fail
        (Printf.sprintf "fork-based sweep only %.1fx faster than replay"
           ratio)
  end

(* ---------- injected regression is caught ---------- *)

let broken_wal_workload () =
    {
      Crash_sweep.name = "wal-noreplay";
      mk =
        (fun seed ->
          let clock = Sim_clock.create () in
          let disk = Disk.create ~clock () in
          let committed = ref 0 in
          let run () =
            ignore seed;
            let wal = Wal.format ~disk ~start:1 ~sectors:64 in
            for _ = 1 to 3 do
              Wal.append wal "record";
              Wal.commit wal;
              incr committed
            done
          in
          let check ~crashed disk =
            match Wal.recover ~disk ~start:1 ~sectors:64 with
            | exception _ -> ()
            | _, recovered ->
                (* regression under test: the crash-recovery path drops
                   every record instead of replaying the prefix *)
                let replayed = if crashed then 0 else List.length recovered in
                if replayed < !committed then
                  failwith
                    (Printf.sprintf "%d committed records lost" !committed)
          in
          let snapshot () =
            let c = !committed in
            fun () -> committed := c
          in
          { Crash_sweep.disk; run; check; snapshot });
    }

(* A "recovery" that skips WAL replay: it formats and commits like the
   real WAL workload but validates against a recovery that drops every
   record. The sweep must catch this at some crash index and print a
   replayable report — and the replay oracle, run over the same
   indices, must print the {e same} report, since it checks identical
   media. Skipped under a replay filter, since the sweep then visits
   at most one crash point. *)
let catch_broken () =
  match Crash_sweep.sweep ~max_points:16 (broken_wal_workload ()) with
  | _ -> Alcotest.fail "injected WAL-replay regression was not caught"
  | exception Check.Falsified msg ->
      check_mentions msg
        [
          "crash index";
          "HISTAR_CHECK_SEED=";
          "HISTAR_CHECK_WORKLOAD=wal-noreplay";
          "HISTAR_CHECK_CRASH_INDEX=";
          "records lost";
        ];
      msg

let test_injected_regression_caught () =
  if replaying () then ()
  else
    let by_fork = catch_broken () in
    let total =
      Scanf.sscanf by_fork
        "crash sweep %_s@: invariant violation at crash index %_d of %d"
        Fun.id
    in
    let by_replay =
      replay_first_failure (broken_wal_workload ()) ~seed:(Check.seed ())
        ~total (strided ~total ~n:16)
    in
    Alcotest.(check (option string)) "fork and replay report identically"
      (Some by_fork) by_replay

(* ---------- noninterference twins ---------- *)

(* The property itself, through the shrinking engine: any divergence
   found here comes back as a minimal program with a replay line. *)
let test_ni_property =
  Check.test_case ~count:60 ~max_size:12 ~print:Ni.pp_prog
    "twin traces low-equivalent" Ni.gen_prog Ni.prop

(* The acceptance sweep: >= 500 clean twin pairs at the pinned seed,
   and the whole harness bit-identical when run twice. Nightly CI sets
   HISTAR_CHECK_FULL=1 (with a date-seeded HISTAR_CHECK_SEED) to run a
   larger schedule. *)
let ni_count () = if Check.full_mode () then 2000 else 500

let test_ni_suite_deterministic () =
  let count = ni_count () in
  let seed = Check.seed () in
  let n1, d1 = Ni.suite_digest ~count ~seed () in
  let n2, d2 = Ni.suite_digest ~count ~seed () in
  Alcotest.(check int) "clean twin pairs" count n1;
  Alcotest.(check int) "same pair count" n1 n2;
  Alcotest.(check string) "double harness run bit-identical" d1 d2

(* Committed witness programs for the two planted library-level leaks:
   each must diverge under its weaken switch and stay clean on the
   unweakened library — the LIO analogue of PR-4's regression traces. *)
let ni_witness_tolabeled =
  [
    Ni.S_write_high (0, "a");
    Ni.S_to_labeled_low [ Ni.S_read_high 0 ];
    Ni.S_unlabel_last;
    Ni.S_write_low_reg 0;
  ]

let ni_witness_catch =
  [
    Ni.S_write_high (0, "a");
    Ni.S_catch ([ Ni.S_throw_if_odd 0 ], [ Ni.S_write_low (0, "caught") ]);
  ]

let ni_witness name weaken prog () =
  let a, b = Ni.check_twins ~weaken prog in
  if List.equal String.equal a b then
    Alcotest.fail
      (Printf.sprintf "%s: witness %s no longer diverges under %s" name
         (Ni.pp_prog prog) (Lio.weaken_to_string weaken));
  (* the unweakened library conforms on the very same program *)
  Ni.prop prog

(* The generated schedule must also expose both mutants within a
   bounded budget (catch indices recorded in EXPERIMENTS.md). *)
let ni_mutant name weaken () =
  match Ni.catch_index ~weaken ~budget:500 () with
  | Some (_, _) -> ()
  | None ->
      Alcotest.fail
        (Printf.sprintf "%s survived 500 twin pairs of the pinned schedule"
           name)

(* Allocation-order perturbation: twin A throws before the two high
   allocations, twin B performs both, so every oid allocated after the
   block differs between the twins — including the low-visible scope
   gates of the subsequent to_labeled_low. Only the canonical
   (descrip, first-appearance) naming keeps the projections equal. *)
let ni_perturbation () =
  let prog =
    [
      Ni.S_write_high (0, "a");
      Ni.S_to_labeled_high
        [ Ni.S_throw_if_odd 0; Ni.S_alloc_high; Ni.S_alloc_high ];
      Ni.S_to_labeled_low [ Ni.S_read_low 0 ];
      Ni.S_write_low (1, "z");
    ]
  in
  let a, b = Ni.check_twins prog in
  if not (List.equal String.equal a b) then
    Alcotest.fail "projection not invariant under oid-stream perturbation";
  if not (List.exists (fun l -> contains ~needle:"low1" l) a) then
    Alcotest.fail "projection lost the low write after the perturbed block"

(* ---------- lib/lio vs Mlio reference differential ---------- *)

let test_lio_model_diff =
  Check.test_case ~count:200 ~max_size:10 ~print:Ni.pp_lops
    "lio clearance semantics match Mlio" Ni.gen_lops Ni.prop_lio_model_diff

(* ---------- domain-count identity ----------

   The lib/par acceptance contract: every pooled harness output — fuzz
   stats and reports, twin digests, catch indices — must be
   byte-identical at every domain count, double runs included.
   [~domains] is passed explicitly so these hold regardless of the
   ambient HISTAR_DOMAINS. *)

module Conf = Histar_check.Conformance

(* A pool pass is the sequential loop run in a cell: at every domain
   count its stats and report equal a standalone [run_fuzz] at the
   pass's split seed. *)
let test_fuzz_domain_identity () =
  let seed = Check.default_seed in
  let alone =
    List.init 3 (fun p ->
        Conf.run_fuzz ~runs:150 ~seed:(Histar_par.Par.split_seed seed p) ())
  in
  List.iter
    (fun d ->
      let pooled = Conf.run_fuzz_many ~domains:d ~runs:150 ~passes:3 ~seed () in
      Alcotest.(check bool)
        (Printf.sprintf "fuzz stats identical at %d domains" d)
        true (pooled = alone);
      Alcotest.(check (list string))
        (Printf.sprintf "fuzz reports identical at %d domains" d)
        (List.map Conf.report alone)
        (List.map Conf.report pooled))
    [ 1; 2; 8 ]

let test_fuzz_many_domain_identity () =
  let run d =
    Conf.run_fuzz_many ~domains:d ~runs:80 ~passes:4 ~seed:Check.default_seed
      ()
  in
  let m1 = run 1 in
  Alcotest.(check int) "one stats record per pass" 4 (List.length m1);
  List.iter
    (fun s ->
      if s.Conf.fs_divergence <> None then
        Alcotest.fail "clean kernel diverged in a split-seed pass")
    m1;
  Alcotest.(check bool) "split-seed passes identical at 8 domains" true
    (run 8 = m1)

let test_ni_domain_identity () =
  let digest d =
    Ni.suite_digest ~domains:d ~count:120 ~seed:Check.default_seed ()
  in
  let d1 = digest 1 in
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "twin digest identical at %d domains" d)
        true (digest d = d1))
    [ 2; 8 ];
  List.iter
    (fun weaken ->
      let catch d = Ni.catch_index ~domains:d ~weaken ~budget:500 () in
      match (catch 1, catch 8) with
      | Some (i1, p1), Some (i8, p8) ->
          Alcotest.(check int)
            (Lio.weaken_to_string weaken ^ ": same catch index")
            i1 i8;
          Alcotest.(check bool) "same witness program" true (p1 = p8)
      | _ ->
          Alcotest.fail
            (Lio.weaken_to_string weaken
           ^ " not caught at some domain count"))
    [ Lio.Weaken_toLabeled_result; Lio.Weaken_lio_catch ]

(* ---------- decoder range: ids are 61-bit, fields are 64-bit ---------- *)

module Codec = Histar_util.Codec
module Label = Histar_label.Label
module Level = Histar_label.Level
module Category = Histar_label.Category
module Kernel = Histar_core.Kernel
module Sys = Histar_core.Sys
module Store = Histar_store.Store
module Wire = Histar_dist.Wire
module Proto = Histar_dist.Proto

let two61 = Int64.shift_left 1L 61

(* A 64-bit id field no 61-bit name fits: negative, in [2^61, 2^63),
   or 2^63+k for an in-range k — the value a decoder that reduced
   modulo 2^63 would read as the valid id k. *)
let gen_bad_id =
  let open Gen in
  let low61 = map (fun v -> Int64.logand v (Int64.pred two61)) int64 in
  oneof
    [
      map (fun k -> Int64.of_int (-1 - k)) (int_range 0 1_000_000);
      map (fun v -> Int64.logor two61 (Int64.logand v Int64.max_int)) int64;
      map (fun k -> Int64.logor Int64.min_int k) low61;
    ]

let patch_i64 s ~at v =
  let b = Bytes.of_string s in
  Bytes.set_int64_le b at v;
  Bytes.to_string b

let rejects what f =
  match f () with
  | _ -> Alcotest.fail (what ^ ": out-of-range id decoded")
  | exception Invalid_argument _ -> ()

(* Label encoding: default u8, count u32, then (category i64, level u8)
   per entry, so the one entry's category sits at byte 5. *)
let prop_label_decode_range bad =
  let e = Codec.Enc.create () in
  Label.encode e (Label.of_list [ (Category.of_int 5, Level.L3) ] Level.L1);
  let good = Codec.Enc.to_string e in
  ignore (Label.decode (Codec.Dec.of_string good));
  rejects "Label.decode" (fun () ->
      Label.decode (Codec.Dec.of_string (patch_i64 good ~at:5 bad)))

(* Wire names are full 64-bit cipher outputs, so the wire decoder has no
   range to reject: it must hand each name to the resolver unchanged.
   A label naming [w] and its 63-bit alias must therefore import two
   distinct categories. *)
let prop_of_wire_distinct bad =
  let alias = Int64.of_int (Int64.to_int bad) in
  if not (Int64.equal alias bad) then begin
    let msg =
      Wire.Reply
        {
          Wire.r_status = Wire.S_ok;
          r_label = { Wire.wl_entries = [ (bad, 4); (alias, 4) ]; wl_default = 2 };
          r_grants = [];
          r_payload = "";
        }
    in
    match Wire.decode_msg (Wire.encode_msg msg) with
    | Wire.Reply r ->
        let seen = Hashtbl.create 4 in
        let resolve w =
          match Hashtbl.find_opt seen w with
          | Some c -> c
          | None ->
              let c = Category.of_int (Hashtbl.length seen) in
              Hashtbl.replace seen w c;
              c
        in
        let l = Proto.of_wire ~resolve ~trusted:(fun _ -> false) r.Wire.r_label in
        Alcotest.(check int) "two wire names, two categories" 2
          (List.length (Label.entries l))
    | Wire.Call _ -> Alcotest.fail "reply decoded as a call"
  end

(* The kernel's object decoder, reached through [Kernel.recover]: a
   checkpointed segment labelled with one category, whose oid field
   (byte 1) or label category (byte 14: kind u8, oid i64, then the
   label) is overwritten in the store. *)
let kernel_image =
  lazy
    (let clock = Sim_clock.create () in
     let store = Store.format ~disk:(Disk.create ~clock ()) () in
     let k = Kernel.create ~clock ~store () in
     let seg = ref 0 in
     ignore
       (Kernel.spawn k ~name:"mk" (fun () ->
            let c = Sys.cat_create () in
            seg :=
              Sys.segment_create ~container:(Kernel.root k)
                ~label:(Label.of_list [ (c, Level.L2) ] Level.L1)
                ~quota:8192L "victim"));
     Kernel.run k;
     Kernel.checkpoint k;
     (store, !seg, Option.get (Store.get store ~oid:!seg)))

let prop_kernel_decode_range bad =
  let store, seg, good = Lazy.force kernel_image in
  List.iter
    (fun at ->
      Store.put store ~oid:seg (patch_i64 good ~at bad);
      rejects (Printf.sprintf "Kernel.recover (field at %d)" at) (fun () ->
          Kernel.recover ~store))
    [ 1; 14 ];
  Store.put store ~oid:seg good;
  ignore (Kernel.recover ~store)

let decoder_range_tests =
  let print = Printf.sprintf "0x%Lx" in
  [
    Check.test_case ~print "Label.decode rejects out-of-range categories"
      gen_bad_id prop_label_decode_range;
    Check.test_case ~print "Proto.of_wire keeps 64-bit wire names apart"
      gen_bad_id prop_of_wire_distinct;
    Check.test_case ~count:40 ~print "kernel object decoder rejects out-of-range ids"
      gen_bad_id prop_kernel_decode_range;
  ]

let () =
  Alcotest.run "histar_check"
    [
      ( "engine",
        [
          Alcotest.test_case "deterministic" `Quick test_generate_deterministic;
          Alcotest.test_case "shrink int" `Quick test_shrink_int_to_boundary;
          Alcotest.test_case "shrink list" `Quick test_shrink_list_to_minimal;
          Alcotest.test_case "shrink in range" `Quick
            test_shrink_respects_invariant;
          Alcotest.test_case "replayable report" `Quick
            test_run_reports_replay_seed;
        ] );
      ( "crash sweep",
        [
          sweep_test ~max_points:24 (Workloads.wal ());
          sweep_test ~max_points:24 (Workloads.store ());
          sweep_test ~max_points:16 (Workloads.fs ());
          sweep_test ~max_points:16 (Workloads.fsync_range ());
          Alcotest.test_case "coverage" `Quick test_coverage;
          Alcotest.test_case "injected regression caught" `Quick
            test_injected_regression_caught;
        ] );
      ( "fork vs replay",
        [
          Alcotest.test_case "recovery metrics byte-identical" `Quick
            test_fork_replay_recovery_identical;
          Alcotest.test_case "cells counter and throughput" `Quick
            test_cells_counter_and_throughput;
          Alcotest.test_case "fork sweep >= 10x (HISTAR_CHECK_SPEEDUP=1)"
            `Quick test_fork_speedup;
        ] );
      ("decoder range", decoder_range_tests);
      ( "noninterference",
        [
          test_ni_property;
          Alcotest.test_case "500 clean twin pairs, bit-identical reruns"
            `Quick test_ni_suite_deterministic;
          Alcotest.test_case "witness: to_labeled result leak" `Quick
            (ni_witness "to_labeled" Lio.Weaken_toLabeled_result
               ni_witness_tolabeled);
          Alcotest.test_case "witness: catch label leak" `Quick
            (ni_witness "catch" Lio.Weaken_lio_catch ni_witness_catch);
          Alcotest.test_case "mutant caught: Weaken_toLabeled_result" `Quick
            (ni_mutant "Weaken_toLabeled_result" Lio.Weaken_toLabeled_result);
          Alcotest.test_case "mutant caught: Weaken_lio_catch" `Quick
            (ni_mutant "Weaken_lio_catch" Lio.Weaken_lio_catch);
          Alcotest.test_case "projection invariant under oid perturbation"
            `Quick ni_perturbation;
          test_lio_model_diff;
        ] );
      ( "domain identity",
        [
          Alcotest.test_case "fuzz stats and report" `Quick
            test_fuzz_domain_identity;
          Alcotest.test_case "split-seed fuzz passes" `Quick
            test_fuzz_many_domain_identity;
          Alcotest.test_case "twin digest and catch indices" `Quick
            test_ni_domain_identity;
        ] );
    ]
