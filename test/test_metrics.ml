(* Property tests for the observability subsystem (lib/metrics):
   counter monotonicity, histogram bucket accounting and quantile
   bounds, snapshot diffs, and JSON round-trips. *)

module Metrics = Histar_metrics.Metrics
module Json = Histar_metrics.Json
module Check = Histar_check.Check
module Gen = Histar_check.Gen

(* Every test starts from a clean, enabled registry; the registry is
   process-global, so names are reused across iterations. *)
let fresh () =
  Metrics.set_enabled true;
  Metrics.reset ()

(* ---------- counters ---------- *)

type cop = Incr | Add of int

let gen_cop =
  Gen.oneof [ Gen.return Incr; Gen.map (fun n -> Add n) Gen.nat ]

let print_cops ops =
  String.concat ";"
    (List.map (function Incr -> "i" | Add n -> "+" ^ string_of_int n) ops)

let prop_counter_monotone ops =
  fresh ();
  let c = Metrics.counter "test.counter" in
  let expected = ref 0 in
  List.iter
    (fun op ->
      let before = Metrics.Counter.value c in
      (match op with
      | Incr ->
          Metrics.Counter.incr c;
          incr expected
      | Add n ->
          Metrics.Counter.add c n;
          expected := !expected + n);
      let after = Metrics.Counter.value c in
      Check.ensure ~msg:"counter decreased" (after >= before))
    ops;
  Check.ensure ~msg:"counter is the op sum" (Metrics.Counter.value c = !expected)

let test_counter_negative_add () =
  fresh ();
  let c = Metrics.counter "test.counter" in
  Alcotest.check_raises "negative add rejected"
    (Invalid_argument "Metrics.Counter.add: negative increment") (fun () ->
      Metrics.Counter.add c (-1))

let test_disabled_is_inert () =
  fresh ();
  Metrics.set_enabled false;
  let c = Metrics.counter "test.counter" in
  let h = Metrics.histogram "test.histo" in
  Metrics.Counter.incr c;
  Metrics.Counter.add c 10;
  Metrics.Histogram.observe h 42;
  Alcotest.(check int) "counter untouched" 0 (Metrics.Counter.value c);
  Alcotest.(check int) "histogram untouched" 0 (Metrics.Histogram.count h)

let test_kind_mismatch () =
  fresh ();
  ignore (Metrics.counter "test.counter");
  match Metrics.histogram "test.counter" with
  | _ -> Alcotest.fail "kind mismatch accepted"
  | exception Invalid_argument _ -> ()

(* ---------- histograms ---------- *)

(* Observations spanning every regime of the default ns buckets: the
   first bucket, mid-range, and past the last bound (overflow). *)
let gen_observation =
  Gen.oneof
    [
      Gen.int_range 0 1_000;
      Gen.int_range 0 1_000_000;
      Gen.int_range 900_000_000 20_000_000_000;
    ]

let gen_observations = Gen.list gen_observation

let print_obs vs = String.concat "," (List.map string_of_int vs)

let prop_histogram_buckets_sum vs =
  fresh ();
  let h = Metrics.histogram "test.histo" in
  List.iter (Metrics.Histogram.observe h) vs;
  let counts = Metrics.Histogram.bucket_counts h in
  let total = Array.fold_left ( + ) 0 counts in
  Check.ensure ~msg:"bucket counts sum to observation count"
    (total = List.length vs);
  Check.ensure ~msg:"count field agrees"
    (Metrics.Histogram.count h = List.length vs);
  Check.ensure ~msg:"sum field agrees"
    (Metrics.Histogram.sum h = List.fold_left ( + ) 0 vs)

let prop_histogram_bucket_placement vs =
  fresh ();
  let h = Metrics.histogram "test.histo" in
  List.iter
    (fun v ->
      Metrics.Histogram.observe h v;
      let b = Metrics.Histogram.bucket_of_value h v in
      let lower, upper = Metrics.Histogram.bucket_bounds h b in
      Check.ensure ~msg:"value below its bucket" (v >= lower);
      match upper with
      | Some u -> Check.ensure ~msg:"value above its bucket" (v <= u)
      | None -> ())
    vs

(* Quantile estimates must be ordered (p50 ≤ p95 ≤ p99) and each must
   land in the same bucket as the exact rank statistic, never below
   it. *)
let prop_histogram_quantiles vs =
  match vs with
  | [] -> ()
  | _ ->
      fresh ();
      let h = Metrics.histogram "test.histo" in
      List.iter (Metrics.Histogram.observe h) vs;
      let sorted = List.sort compare vs in
      let n = List.length sorted in
      let exact q =
        let rank = int_of_float (ceil (q *. float_of_int n)) in
        let rank = max 1 (min n rank) in
        List.nth sorted (rank - 1)
      in
      let est q = Option.get (Metrics.Histogram.quantile h q) in
      List.iter
        (fun q ->
          let x = exact q and v = est q in
          Check.ensure ~msg:"estimate below exact rank value" (v >= x);
          Check.ensure ~msg:"estimate escaped the rank's bucket"
            (Metrics.Histogram.bucket_of_value h v
            = Metrics.Histogram.bucket_of_value h x))
        [ 0.50; 0.95; 0.99 ];
      let p50 = est 0.50 and p95 = est 0.95 and p99 = est 0.99 in
      Check.ensure ~msg:"p50 <= p95" (p50 <= p95);
      Check.ensure ~msg:"p95 <= p99" (p95 <= p99);
      Check.ensure ~msg:"p99 <= max"
        (p99 <= Option.get (Metrics.Histogram.max_value h))

(* ---------- snapshot / diff ---------- *)

let prop_snapshot_diff increments =
  fresh ();
  (* give each generated increment its own counter *)
  let named =
    List.mapi (fun i n -> (Printf.sprintf "test.diff.%d" i, n)) increments
  in
  let before = Metrics.snapshot () in
  List.iter
    (fun (name, n) -> Metrics.Counter.add (Metrics.counter name) n)
    named;
  let after = Metrics.snapshot () in
  let delta = Metrics.diff ~before ~after in
  (* diff carries exactly the nonzero increments *)
  List.iter
    (fun (name, n) ->
      let got = Option.value (List.assoc_opt name delta) ~default:0 in
      Check.ensure ~msg:"diff delta wrong" (got = n))
    named;
  List.iter
    (fun (_, d) -> Check.ensure ~msg:"zero delta reported" (d <> 0))
    delta

(* ---------- JSON codec ---------- *)

(* Arbitrary-byte strings exercise the \u00XX escape path. *)
let gen_json =
  Gen.sized (fun size ->
      let rec go depth =
        let leaves =
          [
            Gen.return Json.Null;
            Gen.map (fun b -> Json.Bool b) Gen.bool;
            Gen.map (fun n -> Json.Int (n - 15)) Gen.nat;
            Gen.map (fun s -> Json.Str s) Gen.string;
          ]
        in
        if depth = 0 then Gen.oneof leaves
        else
          Gen.oneof
            (leaves
            @ [
                Gen.map
                  (fun xs -> Json.List xs)
                  (Gen.list (go (depth - 1)));
                Gen.map
                  (fun kvs -> Json.Obj kvs)
                  (Gen.list (Gen.pair Gen.string (go (depth - 1))));
              ])
      in
      go (min 3 (1 + (size / 10))))

let prop_json_roundtrip j =
  let s = Json.to_string j in
  Check.ensure ~msg:"compact round trip" (Json.of_string s = j);
  let pretty = Json.to_string ~indent:2 j in
  Check.ensure ~msg:"indented round trip" (Json.of_string pretty = j)

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | _ -> Alcotest.failf "accepted %S" s
      | exception Json.Parse_error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":1} trailing"; "nul"; "\"unterminated" ]

(* ---------- registry JSON export ---------- *)

let test_to_json_shape () =
  fresh ();
  Metrics.Counter.add (Metrics.counter "test.counter") 3;
  Metrics.Histogram.observe (Metrics.histogram "test.histo") 400;
  match Metrics.to_json () with
  | Json.Obj fields ->
      (match List.assoc_opt "test.counter" fields with
      | Some (Json.Obj cf) ->
          Alcotest.(check bool)
            "counter value exported" true
            (List.assoc_opt "value" cf = Some (Json.Int 3))
      | _ -> Alcotest.fail "counter missing from to_json");
      (match List.assoc_opt "test.histo" fields with
      | Some (Json.Obj hf) ->
          Alcotest.(check bool)
            "histogram count exported" true
            (List.assoc_opt "count" hf = Some (Json.Int 1))
      | _ -> Alcotest.fail "histogram missing from to_json")
  | _ -> Alcotest.fail "to_json is not an object"

let () =
  Alcotest.run "histar_metrics"
    [
      ( "counters",
        [
          Check.test_case ~print:print_cops "never decrease"
            (Gen.list gen_cop) prop_counter_monotone;
          Alcotest.test_case "negative add rejected" `Quick
            test_counter_negative_add;
          Alcotest.test_case "disabled registry is inert" `Quick
            test_disabled_is_inert;
          Alcotest.test_case "kind mismatch rejected" `Quick test_kind_mismatch;
        ] );
      ( "histograms",
        [
          Check.test_case ~print:print_obs "bucket counts sum to count"
            gen_observations prop_histogram_buckets_sum;
          Check.test_case ~print:print_obs "values land in their bucket"
            gen_observations prop_histogram_bucket_placement;
          Check.test_case ~print:print_obs "quantiles ordered, in bucket"
            gen_observations prop_histogram_quantiles;
        ] );
      ( "snapshots",
        [
          Check.test_case "diff carries exactly the increments"
            (Gen.list Gen.nat) prop_snapshot_diff;
        ] );
      ( "json",
        [
          Check.test_case "round trip" gen_json prop_json_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
          Alcotest.test_case "registry export shape" `Quick test_to_json_shape;
        ] );
    ]
