(* Property tests for the observability subsystem (lib/metrics):
   counter monotonicity, snapshot diffs, and JSON round-trips. *)

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

(* Rejected whether or not the registry is enabled, so a bad caller
   fails in untraced runs too. *)
let test_counter_negative_add () =
  fresh ();
  let c = Metrics.counter "test.counter" in
  List.iter
    (fun on ->
      Metrics.set_enabled on;
      Alcotest.check_raises
        (Printf.sprintf "negative add rejected (enabled=%b)" on)
        (Invalid_argument "Metrics.Counter.add: negative increment") (fun () ->
          Metrics.Counter.add c (-1)))
    [ true; false ]

let test_disabled_is_inert () =
  fresh ();
  Metrics.set_enabled false;
  let c = Metrics.counter "test.counter" in
  Metrics.Counter.incr c;
  Metrics.Counter.add c 10;
  Alcotest.(check int) "counter untouched" 0 (Metrics.Counter.value c)

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
        ] );
    ]
