open Histar_btree
module Metrics = Histar_metrics.Metrics

module IntMap = Map.Make (Int)

let kv = Alcotest.(option (pair int int))

(* Functional helpers over the persistent API. *)
let insert_seq t n f =
  let t = ref t in
  for i = 0 to n - 1 do
    let k, v = f i in
    t := Bptree.insert !t k v
  done;
  !t

let test_empty () =
  let t = Bptree.create () in
  Alcotest.(check bool) "empty" true (Bptree.is_empty t);
  Alcotest.(check int) "cardinal" 0 (Bptree.cardinal t);
  Alcotest.check kv "min" None (Bptree.min_binding t);
  Alcotest.check kv "max" None (Bptree.max_binding t);
  Alcotest.(check (option int)) "find" None (Bptree.find t 5);
  Alcotest.(check bool) "remove absent" true (Bptree.remove t 5 = None);
  Bptree.check_invariants t

let test_insert_find () =
  let t =
    insert_seq (Bptree.create ~order:4 ()) 1000 (fun i ->
        (i * 7 mod 1000, i))
  in
  Bptree.check_invariants t;
  Alcotest.(check int) "cardinal" 1000 (Bptree.cardinal t);
  for i = 0 to 999 do
    if not (Bptree.mem t i) then Alcotest.fail "missing key"
  done

let test_replace () =
  let t = Bptree.create () in
  let t = Bptree.insert t 1 10 in
  let t = Bptree.insert t 1 20 in
  Alcotest.(check int) "no duplicate" 1 (Bptree.cardinal t);
  Alcotest.(check (option int)) "replaced" (Some 20) (Bptree.find t 1)

let test_delete_all () =
  let n = 500 in
  let t =
    insert_seq (Bptree.create ~order:4 ()) n (fun i ->
        (i, i * 2))
  in
  (* Remove in a scrambled order to exercise borrows and merges. *)
  let t = ref t in
  for i = 0 to n - 1 do
    let k = i * 17 mod n in
    (match Bptree.remove !t k with
    | Some t' -> t := t'
    | None -> Alcotest.fail "remove failed");
    Bptree.check_invariants !t
  done;
  Alcotest.(check bool) "empty at end" true (Bptree.is_empty !t)

let test_ordered_queries () =
  let t =
    List.fold_left
      (fun t k -> Bptree.insert t k (Int.neg k))
      (Bptree.create ~order:4 ())
      [ 10; 20; 30; 40 ]
  in
  Alcotest.check kv "geq exact" (Some (20, -20)) (Bptree.find_geq t 20);
  Alcotest.check kv "geq between" (Some (30, -30)) (Bptree.find_geq t 21);
  Alcotest.check kv "geq past end" None (Bptree.find_geq t 41);
  Alcotest.check kv "gt exact" (Some (30, -30)) (Bptree.find_gt t 20);
  Alcotest.check kv "leq exact" (Some (20, -20)) (Bptree.find_leq t 20);
  Alcotest.check kv "leq between" (Some (20, -20)) (Bptree.find_leq t 29);
  Alcotest.check kv "leq before start" None (Bptree.find_leq t 9);
  Alcotest.check kv "lt exact" (Some (10, -10)) (Bptree.find_lt t 20);
  Alcotest.check kv "min" (Some (10, -10)) (Bptree.min_binding t);
  Alcotest.check kv "max" (Some (40, -40)) (Bptree.max_binding t)

let test_iter_sorted () =
  let t = ref (Bptree.create ~order:4 ()) in
  for i = 99 downto 0 do
    t := Bptree.insert !t i 0
  done;
  let keys = List.map fst (Bptree.to_list !t) in
  Alcotest.(check (list int)) "sorted" (List.init 100 Fun.id) keys

let test_height_logarithmic () =
  let t =
    insert_seq (Bptree.create ~order:16 ()) 10_000 (fun i ->
        (i, 0))
  in
  Alcotest.(check bool) "height small" true (Bptree.height t <= 5)

let test_codec_roundtrip () =
  let t =
    insert_seq (Bptree.create ~order:8 ()) 300 (fun i ->
        (i * 13, i))
  in
  let e = Histar_util.Codec.Enc.create () in
  Bptree.encode e t;
  let d = Histar_util.Codec.Dec.of_string (Histar_util.Codec.Enc.to_string e) in
  let t' = Bptree.decode d in
  Bptree.check_invariants t';
  Alcotest.(check (list (pair int int)))
    "same bindings" (Bptree.to_list t) (Bptree.to_list t');
  (* Golden bytes: order, size, then each key and value as 8
     little-endian bytes — keys -2 (the kernel's metadata record), 0
     and 2^61 - 1. *)
  let t =
    List.fold_left
      (fun t (k, v) -> Bptree.insert t k v)
      (Bptree.create ~order:4 ())
      [ (-2, 7); (0, 8); ((1 lsl 61) - 1, 9) ]
  in
  let e = Histar_util.Codec.Enc.create () in
  Bptree.encode e t;
  let bytes = Histar_util.Codec.Enc.to_string e in
  Alcotest.(check string) "golden encoding"
    "0400000003000000feffffffffffffff07000000000000000000000000000000\
     0800000000000000ffffffffffffff1f0900000000000000"
    (String.concat ""
       (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq bytes))));
  Alcotest.(check (list (pair int int))) "golden decodes" (Bptree.to_list t)
    (Bptree.to_list (Bptree.decode (Histar_util.Codec.Dec.of_string bytes)))

(* ---- persistence: old versions survive mutation ---- *)

let test_versions_independent () =
  let base =
    insert_seq (Bptree.create ~order:4 ()) 200 (fun i ->
        (i, i))
  in
  let before = Bptree.to_list base in
  (* Derive two divergent versions; the base and each sibling must be
     unaffected by the other's edits. *)
  let a = Bptree.insert base 1000 1 in
  let b = Option.get (Bptree.remove base 0) in
  let b = Bptree.insert b 50 999 in
  Bptree.check_invariants a;
  Bptree.check_invariants b;
  Alcotest.(check (list (pair int int))) "base unchanged" before
    (Bptree.to_list base);
  Alcotest.(check (option int)) "a sees its insert" (Some 1)
    (Bptree.find a 1000);
  Alcotest.(check (option int)) "b does not" None (Bptree.find b 1000);
  Alcotest.(check (option int)) "b removed 0" None (Bptree.find b 0);
  Alcotest.(check (option int)) "a kept 0" (Some 0) (Bptree.find a 0);
  Alcotest.(check (option int)) "b replaced 50" (Some 999)
    (Bptree.find b 50);
  Alcotest.(check (option int)) "base kept 50" (Some 50)
    (Bptree.find base 50)

(* ---- structural sharing: forks cost O(height), not O(entries) ----

   The [btree.node_allocs] counter increments on every node
   construction, so the cost of deriving versions is directly
   observable. Forking N branches off a 10k-entry tree with one insert
   each must allocate O(N · height) nodes — path copying — never
   O(N · entries), which is what a naive copy-the-map design costs. *)

let with_metrics f =
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled was) f

let alloc_count () = Metrics.counter_value "btree.node_allocs"

let test_fork_allocs_o_height () =
  let entries = 10_000 and nforks = 64 in
  let base =
    insert_seq (Bptree.create ~order:16 ()) entries (fun i ->
        (i * 2, 0))
  in
  let h = Bptree.height base in
  let branches = ref [] in
  let spent =
    with_metrics (fun () ->
        let a0 = alloc_count () in
        for i = 0 to nforks - 1 do
          (* odd key: every branch inserts a fresh binding *)
          branches :=
            Bptree.insert base ((i * 2) + 1) 1 :: !branches
        done;
        alloc_count () - a0)
  in
  (* An insert rewrites the root-to-leaf path and at worst splits every
     node on it: well under 3·height constructions. *)
  let bound = nforks * ((3 * h) + 2) in
  if spent > bound then
    Alcotest.fail
      (Printf.sprintf
         "forking %d branches allocated %d nodes (height %d, bound %d): \
          sharing is broken"
         nforks spent h bound);
  Alcotest.(check bool) "far below O(N*entries)" true
    (spent < nforks * entries / 100);
  (* And the branches are real: each sees exactly its own insert. *)
  Alcotest.(check int) "base untouched" entries (Bptree.cardinal base);
  List.iteri
    (fun j t ->
      let i = nforks - 1 - j in
      Alcotest.(check int) "branch cardinal" (entries + 1) (Bptree.cardinal t);
      Alcotest.(check (option int))
        "branch sees own key" (Some 1)
        (Bptree.find t ((i * 2) + 1));
      Bptree.check_invariants t)
    !branches

let test_remove_allocs_o_height () =
  let entries = 10_000 and nforks = 64 in
  let base =
    insert_seq (Bptree.create ~order:16 ()) entries (fun i ->
        (i, 0))
  in
  let h = Bptree.height base in
  let spent =
    with_metrics (fun () ->
        let a0 = alloc_count () in
        for i = 0 to nforks - 1 do
          ignore (Option.get (Bptree.remove base (i * 100)))
        done;
        alloc_count () - a0)
  in
  (* A remove rewrites the path and may borrow/merge at each level. *)
  let bound = nforks * ((4 * h) + 2) in
  if spent > bound then
    Alcotest.fail
      (Printf.sprintf
         "removing on %d branches allocated %d nodes (height %d, bound %d)"
         nforks spent h bound);
  Alcotest.(check int) "base untouched" entries (Bptree.cardinal base)

(* ---- model-based properties: compare against Map ---- *)

module Gen = Histar_check.Gen
module Check = Histar_check.Check

type op = Insert of int * int | Remove of int | FindGeq of int | FindLeq of int

let gen_op =
  let open Gen in
  let key = int_range 0 200 in
  oneof
    [
      map2 (fun k v -> Insert (k, v)) key (map Int64.to_int int64);
      map (fun k -> Remove k) key;
      map (fun k -> FindGeq k) key;
      map (fun k -> FindLeq k) key;
    ]

let model_geq m k =
  IntMap.fold
    (fun key v acc ->
      if Int.compare key k >= 0 then
        match acc with
        | Some (bk, _) when Int.compare bk key <= 0 -> acc
        | Some _ | None -> Some (key, v)
      else acc)
    m None

let model_leq m k =
  IntMap.fold
    (fun key v acc ->
      if Int.compare key k <= 0 then
        match acc with
        | Some (bk, _) when Int.compare bk key >= 0 -> acc
        | Some _ | None -> Some (key, v)
      else acc)
    m None

let prop_model order =
  Check.test_case ~count:300
    (Printf.sprintf "btree matches Map model (order %d)" order)
    Gen.(resize 400 (list gen_op))
    (fun ops ->
      let t = ref (Bptree.create ~order ()) in
      let m = ref IntMap.empty in
      Check.ensure
        (List.for_all
           (fun op ->
             match op with
             | Insert (k, v) ->
                 t := Bptree.insert !t k v;
                 m := IntMap.add k v !m;
                 Bptree.find !t k = Some v
             | Remove k -> (
                 let was = IntMap.mem k !m in
                 m := IntMap.remove k !m;
                 match Bptree.remove !t k with
                 | Some t' ->
                     t := t';
                     was
                 | None -> not was)
             | FindGeq k -> Bptree.find_geq !t k = model_geq !m k
             | FindLeq k -> Bptree.find_leq !t k = model_leq !m k)
           ops
        && Bptree.cardinal !t = IntMap.cardinal !m
        && Bptree.to_list !t = IntMap.bindings !m);
      Bptree.check_invariants !t)

let prop_random_churn =
  Check.test_case ~count:50 ~print:string_of_int "btree invariants under churn"
    (Gen.int_range 1 10_000)
    (fun seed ->
      let rng = Histar_util.Rng.create (Int64.of_int seed) in
      let t = ref (Bptree.create ~order:6 ()) in
      let m = ref IntMap.empty in
      for _ = 1 to 2000 do
        let k = Histar_util.Rng.int rng 500 in
        if Histar_util.Rng.bool rng then begin
          t := Bptree.insert !t k k;
          m := IntMap.add k k !m
        end
        else begin
          (match Bptree.remove !t k with Some t' -> t := t' | None -> ());
          m := IntMap.remove k !m
        end
      done;
      Bptree.check_invariants !t;
      Check.ensure (Bptree.to_list !t = IntMap.bindings !m))

(* Every intermediate version of a random edit sequence stays exactly
   what it was when it was made — the property the kernel-fork layer
   rests on. *)
let prop_versions_persistent =
  Check.test_case ~count:30 ~print:string_of_int
    "every version persists unchanged" (Gen.int_range 1 10_000)
    (fun seed ->
      let rng = Histar_util.Rng.create (Int64.of_int seed) in
      let t = ref (Bptree.create ~order:4 ()) in
      let versions = ref [] in
      for _ = 1 to 300 do
        let k = Histar_util.Rng.int rng 80 in
        (if Histar_util.Rng.bool rng then t := Bptree.insert !t k k
         else
           match Bptree.remove !t k with Some t' -> t := t' | None -> ());
        versions := (!t, Bptree.to_list !t) :: !versions
      done;
      Check.ensure
        (List.for_all
           (fun (v, expected) -> Bptree.to_list v = expected)
           !versions))

(* ---------- histar_check: differential test against Map with
   integrated shrinking — a divergence shrinks to a minimal op
   sequence over a handful of keys. ---------- *)

type dop = Ins of int * int | Del of int | Find of int

let pp_op = function
  | Ins (k, v) -> Printf.sprintf "Ins(%d,%d)" k v
  | Del k -> Printf.sprintf "Del %d" k
  | Find k -> Printf.sprintf "Find %d" k

let pp_ops ops = "[" ^ String.concat "; " (List.map pp_op ops) ^ "]"

(* Keys from a small window so inserts, deletes and probes collide;
   shrinking drives keys towards 0 and drops ops chunk-wise. *)
let gen_key = Gen.int_range 0 50

let gen_op =
  Gen.oneof
    [
      Gen.map (fun k -> Find k) gen_key;
      Gen.map2 (fun k v -> Ins (k, v)) gen_key (Gen.int_range 0 1000);
      Gen.map (fun k -> Del k) gen_key;
    ]

let gen_ops = Gen.(resize 60 (list gen_op))

let apply_differential order ops =
  let t = ref (Bptree.create ~order ()) in
  let m = ref IntMap.empty in
  List.iter
    (fun op ->
      (match op with
      | Ins (k, v) ->
          t := Bptree.insert !t k v;
          m := IntMap.add k v !m
      | Del k ->
          let removed =
            match Bptree.remove !t k with
            | Some t' ->
                t := t';
                true
            | None -> false
          in
          Check.ensure ~msg:(Printf.sprintf "remove %d disagrees" k)
            (removed = IntMap.mem k !m);
          m := IntMap.remove k !m
      | Find k ->
          Check.ensure ~msg:(Printf.sprintf "find %d disagrees" k)
            (Bptree.find !t k = IntMap.find_opt k !m));
      Bptree.check_invariants !t;
      Check.ensure ~msg:"cardinal disagrees"
        (Bptree.cardinal !t = IntMap.cardinal !m))
    ops;
  Check.ensure ~msg:"final bindings disagree"
    (Bptree.to_list !t = IntMap.bindings !m);
  (* ordered queries against the model, at every key in the window *)
  let bindings = IntMap.bindings !m in
  for k = 0 to 50 do
    let geq = List.find_opt (fun (k', _) -> Int.compare k' k >= 0) bindings in
    Check.ensure ~msg:(Printf.sprintf "find_geq %d disagrees" k)
      (Bptree.find_geq !t k = geq);
    let leq =
      List.fold_left
        (fun acc (k', v) -> if Int.compare k' k <= 0 then Some (k', v) else acc)
        None bindings
    in
    Check.ensure ~msg:(Printf.sprintf "find_leq %d disagrees" k)
      (Bptree.find_leq !t k = leq)
  done

let check_tests =
  [
    Check.test_case ~print:pp_ops "differential vs Map (order 4)" gen_ops
      (apply_differential 4);
    Check.test_case ~print:pp_ops "differential vs Map (order 16)" gen_ops
      (apply_differential 16);
  ]

let () =
  Alcotest.run "histar_btree"
    [
      ( "bptree",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "insert/find" `Quick test_insert_find;
          Alcotest.test_case "replace" `Quick test_replace;
          Alcotest.test_case "delete all" `Quick test_delete_all;
          Alcotest.test_case "ordered queries" `Quick test_ordered_queries;
          Alcotest.test_case "iter sorted" `Quick test_iter_sorted;
          Alcotest.test_case "height" `Quick test_height_logarithmic;
          Alcotest.test_case "codec" `Quick test_codec_roundtrip;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "versions independent" `Quick
            test_versions_independent;
          Alcotest.test_case "fork allocs O(height)" `Quick
            test_fork_allocs_o_height;
          Alcotest.test_case "remove allocs O(height)" `Quick
            test_remove_allocs_o_height;
        ] );
      ( "model",
        [ prop_model 4; prop_model 16; prop_random_churn;
          prop_versions_persistent ] );
      ("differential (histar_check)", check_tests);
    ]
