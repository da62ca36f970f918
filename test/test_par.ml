(* Determinism properties of the lib/par domain pool.

   The pool's contract is that [Par.run n f] is observationally
   identical to the sequential loop [f 0; f 1; ...; f (n-1)] as far as
   the returned array, the re-raised exception, and the caller's
   metrics scope are concerned — at every domain count, under any
   completion order.  These tests perturb completion order on purpose
   (slow-task injection keyed off the task index) and check
   bit-identical results at HISTAR_DOMAINS in {1, 2, 8}. *)

module Par = Histar_par.Par
module Metrics = Histar_metrics.Metrics
module Label = Histar_label.Label

let dcounts = [ 1; 2; 8 ]

(* Busy-wait long enough to let other workers overtake; pure spin so
   the test stays portable (no Unix dependency in the loop body). *)
let spin n =
  let acc = ref 0 in
  for i = 1 to n do
    acc := !acc + (i land 7)
  done;
  ignore (Sys.opaque_identity !acc)

let slow_for i = if i mod 7 = 3 then spin 2_000_000 else ()

(* --- ordered join: results land in submission order ------------------- *)

let test_ordered_join () =
  let n = 64 in
  let reference = Array.init n (fun i -> Printf.sprintf "task-%d:%d" i (i * i)) in
  List.iter
    (fun d ->
      let got =
        Par.run ~domains:d n (fun i ->
            slow_for i;
            Printf.sprintf "task-%d:%d" i (i * i))
      in
      Alcotest.(check (array string))
        (Printf.sprintf "ordered results at %d domains" d)
        reference got)
    dcounts

(* --- exception: lowest-index failure wins, like the sequential loop --- *)

let test_first_error_wins () =
  let n = 40 in
  List.iter
    (fun d ->
      let raised =
        try
          ignore
            (Par.run ~domains:d n (fun i ->
                 (* make later failures finish first *)
                 if i < 20 then spin 1_000_000;
                 if i mod 9 = 4 then failwith (Printf.sprintf "boom-%d" i);
                 i)
              : int array);
          "no-exn"
        with Failure m -> m
      in
      Alcotest.(check string)
        (Printf.sprintf "lowest-index exception at %d domains" d)
        "boom-4" raised)
    dcounts

(* --- split_seed: pure, injective-in-practice fan-out seeds ------------ *)

let test_split_seed () =
  let seed = 0x5EED_CAFEL in
  let a = Array.init 64 (fun i -> Par.split_seed seed i) in
  let b = Array.init 64 (fun i -> Par.split_seed seed i) in
  Alcotest.(check (array int64)) "split_seed deterministic" a b;
  let tbl = Hashtbl.create 64 in
  Array.iter (fun s -> Hashtbl.replace tbl s ()) a;
  Alcotest.(check int) "split_seed collision-free over 64 lanes" 64
    (Hashtbl.length tbl);
  Alcotest.(check bool) "split differs from parent" true
    (Array.for_all (fun s -> s <> seed) a)

(* --- nesting: a Par.run inside a task runs inline --------------------- *)

let test_sealed_nesting () =
  Alcotest.(check bool) "not in task at top level" false (Par.in_task ());
  let inner_flags =
    Par.run ~domains:2 4 (fun _ ->
        let nested = Par.run ~domains:8 3 (fun j -> (Par.in_task (), j)) in
        Array.for_all (fun (inside, _) -> inside) nested
        && Array.map snd nested = [| 0; 1; 2 |])
  in
  Alcotest.(check bool) "nested runs are inline and ordered" true
    (Array.for_all Fun.id inner_flags);
  Alcotest.(check bool) "flag restored" false (Par.in_task ())

(* --- metrics: task scopes fold into the caller's sequential totals ---- *)

let test_metrics_merge_independent () =
  let c = Metrics.counter "par.test.hits" in
  let h = Metrics.histogram "par.test.lat" ~bounds:[| 1; 10; 100 |] in
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  let run d =
    Metrics.reset ();
    ignore
      (Par.run ~domains:d 32 (fun i ->
           slow_for i;
           Metrics.Counter.add c (i + 1);
           Metrics.Histogram.observe h ((i * 13) mod 120);
           i)
        : int array);
    ( Metrics.Counter.value c,
      Metrics.Histogram.count h,
      Metrics.Histogram.sum h,
      Metrics.Histogram.bucket_counts h )
  in
  let reference = run 1 in
  List.iter
    (fun d ->
      let got = run d in
      Alcotest.(check bool)
        (Printf.sprintf "merged metrics identical at %d domains" d)
        true (got = reference))
    dcounts;
  (* the folded total is the arithmetic series however tasks were spread *)
  let total, _, _, _ = reference in
  Alcotest.(check int) "counter sums task scopes" (32 * 33 / 2) total;
  Metrics.set_enabled was

(* Tasks inherit the submitter's flag: a disabled submitter's tasks
   count nothing. *)
let test_disabled_submitter () =
  let c = Metrics.counter "par.test.hits" in
  Metrics.with_enabled false (fun () ->
      List.iter
        (fun d ->
          Metrics.reset ();
          let flags =
            Par.run ~domains:d 16 (fun i ->
                slow_for i;
                Metrics.Counter.incr c;
                Metrics.enabled ())
          in
          Alcotest.(check bool)
            (Printf.sprintf "tasks disabled at %d domains" d)
            false (Array.exists Fun.id flags);
          Alcotest.(check int)
            (Printf.sprintf "nothing counted at %d domains" d)
            0 (Metrics.Counter.value c))
        dcounts)

(* [with_enabled false] inside one task is confined to that task: its
   siblings keep counting and the submitter's flag is untouched. *)
let test_task_flag_confined () =
  let c = Metrics.counter "par.test.hits" in
  Metrics.with_enabled true (fun () ->
      List.iter
        (fun d ->
          Metrics.reset ();
          let flags =
            Par.run ~domains:d 16 (fun i ->
                if i = 3 then
                  Metrics.with_enabled false (fun () ->
                      slow_for i;
                      Metrics.Counter.incr c;
                      true)
                else begin
                  spin 200_000;
                  Metrics.Counter.incr c;
                  Metrics.enabled ()
                end)
          in
          Alcotest.(check bool)
            (Printf.sprintf "siblings enabled at %d domains" d)
            true (Array.for_all Fun.id flags);
          Alcotest.(check bool)
            (Printf.sprintf "submitter enabled at %d domains" d)
            true (Metrics.enabled ());
          Alcotest.(check int)
            (Printf.sprintf "only the quiet task uncounted at %d domains" d)
            15 (Metrics.Counter.value c))
        dcounts)

(* A snapshot window around a nested [Par.run] reads the d = 1 window,
   both at top level and inside a pool task (where the nested run is
   inline): the property any caller's metrics window around a pooled
   run rests on. *)
let test_window_around_nested_run () =
  let c = Metrics.counter "par.test.hits" in
  let h = Metrics.histogram "par.test.lat" ~bounds:[| 1; 10; 100 |] in
  let window f =
    let before = Metrics.snapshot () in
    f ();
    Metrics.diff ~before ~after:(Metrics.snapshot ())
  in
  let work d () =
    ignore
      (Par.run ~domains:d 12 (fun i ->
           slow_for i;
           Metrics.Counter.add c (i + 1);
           Metrics.Histogram.observe h ((i * 13) mod 120))
        : unit array)
  in
  let run d =
    (window (work d), Par.run ~domains:d 3 (fun _ -> window (work d)))
  in
  Metrics.with_enabled true (fun () ->
      let reference = run 1 in
      Alcotest.(check int) "window sees the work" (12 * 13 / 2)
        (Metrics.value_in (fst reference) "par.test.hits");
      List.iter
        (fun d ->
          Alcotest.(check bool)
            (Printf.sprintf "windows identical at %d domains" d)
            true (run d = reference))
        dcounts)

(* --- labels: weak intern table keeps pointer-equality under load ------ *)

let test_label_intern_stress () =
  let lvl = Histar_label.Level.of_int in
  let mk i =
    Label.of_list
      [
        (Histar_label.Category.of_int (i mod 17), lvl 3);
        (Histar_label.Category.of_int (100 + (i mod 5)), lvl 0);
      ]
      (lvl (if i land 1 = 0 then 1 else 2))
  in
  List.iter
    (fun d ->
      let labels =
        Par.run ~domains:d 256 (fun i ->
            let a = mk i in
            let b = mk i in
            (* hash-consing: structurally equal labels intern to the
               same pointer even when built on different domains *)
            if a != b then
              failwith (Printf.sprintf "intern broke pointer eq at %d" i);
            ignore (Label.leq a b : bool);
            ignore (Label.lub a b : Label.t);
            a)
      in
      (* same (i mod 17, i mod 5, parity) triple => same interned label *)
      Array.iteri
        (fun i a ->
          let j = i mod 170 in
          if
            i mod 17 = j mod 17
            && i mod 5 = j mod 5
            && i land 1 = j land 1
            && labels.(j) != a
          then Alcotest.failf "cross-domain intern mismatch %d vs %d" i j)
        labels)
    dcounts

(* --- measured speedup (env-gated) ------------------------------------ *)

(* The >= 3x wall-clock claim at 8 domains: 8 independent conformance
   fuzz passes (split seeds), 1 domain vs 8. Wall-clock ratios are
   meaningless on single-core or shared hosts, so this only runs when
   explicitly requested (HISTAR_CHECK_SPEEDUP=1, set by the nightly CI
   job on a multi-core runner). *)
let test_par_speedup () =
  if Stdlib.Sys.getenv_opt "HISTAR_CHECK_SPEEDUP" <> Some "1" then ()
  else begin
    let module Conf = Histar_check.Conformance in
    let module Check = Histar_check.Check in
    let passes = 8 in
    let sweep ~domains ~runs =
      ignore
        (Conf.run_fuzz_many ~domains ~runs ~passes ~seed:Check.default_seed ()
          : Conf.fuzz_stats list)
    in
    sweep ~domains:8 ~runs:50 (* warm the pool and allocators *);
    let time domains =
      let t0 = Unix.gettimeofday () in
      sweep ~domains ~runs:400;
      Unix.gettimeofday () -. t0
    in
    let t1 = time 1 in
    let t8 = time 8 in
    let ratio = t1 /. t8 in
    Format.printf "par: %d fuzz passes — 1 domain %.2fs, 8 domains %.2fs (%.1fx)@."
      passes t1 t8 ratio;
    if ratio < 3.0 then
      Alcotest.failf "8-domain fuzz sweep only %.1fx faster than 1-domain"
        ratio
  end

(* --- env parsing ------------------------------------------------------ *)

let test_domains_config () =
  let saved = Par.domains () in
  Par.set_domains 3;
  Alcotest.(check int) "set_domains" 3 (Par.domains ());
  Alcotest.(check bool) "zero rejected" true
    (match Par.set_domains 0 with
    | () -> false
    | exception Invalid_argument _ -> true);
  Par.set_domains saved

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "ordered join under perturbation" `Quick
            test_ordered_join;
          Alcotest.test_case "lowest-index error wins" `Quick
            test_first_error_wins;
          Alcotest.test_case "split_seed" `Quick test_split_seed;
          Alcotest.test_case "sealed nesting" `Quick test_sealed_nesting;
          Alcotest.test_case "domains config" `Quick test_domains_config;
        ] );
      ( "shards",
        [
          Alcotest.test_case "metrics merge interleaving-independent" `Quick
            test_metrics_merge_independent;
          Alcotest.test_case "disabled submitter's tasks count nothing" `Quick
            test_disabled_submitter;
          Alcotest.test_case "task with_enabled confined to the task" `Quick
            test_task_flag_confined;
          Alcotest.test_case "window around nested run matches 1 domain" `Quick
            test_window_around_nested_run;
          Alcotest.test_case "label intern stress" `Quick
            test_label_intern_stress;
        ] );
      ( "speedup",
        [
          Alcotest.test_case "8-domain fuzz sweep >= 3x" `Quick
            test_par_speedup;
        ] );
    ]
