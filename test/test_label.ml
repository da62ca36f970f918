open Histar_label

let cat = Category.of_int
let lbl entries d = Label.of_list entries d
let label_t = Alcotest.testable Label.pp Label.equal
let level_t = Alcotest.testable Level.pp Level.equal

(* The paper's running example (§2): L = {w0, r3, 1}. *)
let w = cat 1
let r = cat 2
let v = cat 3

let test_paper_example () =
  let l = lbl [ (w, Level.L0); (r, Level.L3) ] Level.L1 in
  Alcotest.check level_t "L(w)=0" Level.L0 (Label.get l w);
  Alcotest.check level_t "L(r)=3" Level.L3 (Label.get l r);
  Alcotest.check level_t "L(other)=1" Level.L1 (Label.get l v)

let test_normalization () =
  let l = Label.set (lbl [ (w, Level.L0) ] Level.L1) w Level.L1 in
  Alcotest.check label_t "set to default removes entry" (Label.make Level.L1) l;
  Alcotest.(check int) "no entries" 0 (List.length (Label.entries l))

let test_leq_basics () =
  let t = Label.make Level.L1 in
  let o_more = lbl [ (v, Level.L3) ] Level.L1 in
  let o_less = lbl [ (v, Level.L0) ] Level.L1 in
  (* §2: thread {1} cannot read {c3,1}, cannot write {c0,1} *)
  Alcotest.(check bool) "more tainted not ⊑ thread" false (Label.leq o_more t);
  Alcotest.(check bool) "thread ⊑ more tainted" true (Label.leq t o_more);
  Alcotest.(check bool) "thread not ⊑ less tainted" false (Label.leq t o_less);
  Alcotest.(check bool) "less tainted ⊑ thread" true (Label.leq o_less t)

let test_observe_modify () =
  let thread = Label.make Level.L1 in
  let tainted = lbl [ (v, Level.L3) ] Level.L1 in
  let integrity = lbl [ (v, Level.L0) ] Level.L1 in
  Alcotest.(check bool) "cannot observe more tainted" false
    (Label.can_observe ~thread ~obj:tainted);
  Alcotest.(check bool) "cannot modify low-integrity" false
    (Label.can_modify ~thread ~obj:integrity);
  Alcotest.(check bool) "can observe low-integrity" true
    (Label.can_observe ~thread ~obj:integrity);
  (* Ownership bypasses both. *)
  let owner = lbl [ (v, Level.Star) ] Level.L1 in
  Alcotest.(check bool) "owner observes tainted" true
    (Label.can_observe ~thread:owner ~obj:tainted);
  Alcotest.(check bool) "owner modifies low-integrity" true
    (Label.can_modify ~thread:owner ~obj:integrity)

let test_star_j_shift () =
  (* §2.2: if L = {a*, bJ, 1} then L^J = {aJ, bJ, 1}, L^* = {a*, b*, 1} *)
  let a = cat 10 and b = cat 11 in
  let l =
    Label.set (Label.set (Label.make Level.L1) a Level.Star) b Level.J
  in
  Alcotest.check label_t "raise_j"
    (lbl [ (a, Level.J); (b, Level.J) ] Level.L1)
    (Label.raise_j l);
  Alcotest.check label_t "lower_star"
    (lbl [ (a, Level.Star); (b, Level.Star) ] Level.L1)
    (Label.lower_star l)

let test_taint_to_read () =
  (* To observe O labeled {v3,1}, thread {1} must raise to {v3,1}. *)
  let thread = Label.make Level.L1 in
  let obj = lbl [ (v, Level.L3) ] Level.L1 in
  let raised = Label.taint_to_read ~thread ~obj in
  Alcotest.check label_t "minimal taint" obj raised;
  (* An owner of v keeps its star after tainting to read. *)
  let owner = lbl [ (v, Level.Star) ] Level.L1 in
  let raised = Label.taint_to_read ~thread:owner ~obj in
  Alcotest.check level_t "ownership preserved" Level.Star (Label.get raised v)

let test_taint_to_read_satisfies_both () =
  let thread = lbl [ (w, Level.L0) ] Level.L1 in
  let obj = lbl [ (v, Level.L3); (r, Level.L2) ] Level.L1 in
  let raised = Label.taint_to_read ~thread ~obj in
  Alcotest.(check bool) "L_T ⊑ L'_T" true (Label.leq thread raised);
  Alcotest.(check bool) "L_O ⊑ L'_T^J" true
    (Label.can_observe ~thread:raised ~obj)

let test_wrap_scenario () =
  (* Figure 4: the ClamAV port label configuration. *)
  let br = cat 20 and bw = cat 21 and vv = cat 22 in
  let user_data = lbl [ (bw, Level.L0); (br, Level.L3) ] Level.L1 in
  let wrap = lbl [ (br, Level.Star); (vv, Level.Star) ] Level.L1 in
  let scanner = lbl [ (br, Level.L3); (vv, Level.L3) ] Level.L1 in
  let update_daemon = Label.make Level.L1 in
  let network = Label.make Level.L1 in
  Alcotest.(check bool) "wrap reads user data" true
    (Label.can_observe ~thread:wrap ~obj:user_data);
  Alcotest.(check bool) "scanner reads user data" true
    (Label.can_observe ~thread:scanner ~obj:user_data);
  Alcotest.(check bool) "update daemon cannot read user data" false
    (Label.can_observe ~thread:update_daemon ~obj:user_data);
  (* Information tainted v3 cannot flow to the untainted network. *)
  Alcotest.(check bool) "scanner output cannot reach network" false
    (Label.can_flow ~src:scanner ~dst:network);
  (* wrap, owning v, can untaint: scanner ⊑ wrap^J. *)
  Alcotest.(check bool) "wrap can receive scanner output" true
    (Label.leq scanner (Label.raise_j wrap))

let test_validity () =
  let obj = lbl [ (v, Level.L3) ] Level.L1 in
  let thr = lbl [ (v, Level.Star) ] Level.L1 in
  Alcotest.(check bool) "object label valid" true (Label.is_object_label obj);
  Alcotest.(check bool) "star not object label" false (Label.is_object_label thr);
  Alcotest.(check bool) "star storable" true (Label.is_storable thr);
  Alcotest.(check bool) "J not storable" false
    (Label.is_storable (Label.raise_j thr))

let test_codec_roundtrip () =
  let l = lbl [ (w, Level.L0); (r, Level.L3); (v, Level.Star) ] Level.L2 in
  let e = Histar_util.Codec.Enc.create () in
  Label.encode e l;
  let d = Histar_util.Codec.Dec.of_string (Histar_util.Codec.Enc.to_string e) in
  Alcotest.check label_t "round-trip" l (Label.decode d);
  (* Golden bytes at both ends of the 61-bit range: a category is
     written as 8 little-endian bytes, whatever type holds it. *)
  let max61 = (1 lsl 61) - 1 in
  let l = lbl [ (cat 0, Level.Star); (cat max61, Level.L3) ] Level.L1 in
  let e = Histar_util.Codec.Enc.create () in
  Label.encode e l;
  let bytes = Histar_util.Codec.Enc.to_string e in
  Alcotest.(check string) "golden encoding"
    "0202000000000000000000000000ffffffffffffff1f04"
    (String.concat ""
       (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq bytes))));
  Alcotest.check label_t "golden decodes" l
    (Label.decode (Histar_util.Codec.Dec.of_string bytes))

let test_pp () =
  let l = lbl [ (w, Level.L0) ] Level.L1 in
  Alcotest.(check string) "paper notation" "{c1 0, 1}" (Label.to_string l)

(* ---------- lattice laws through lib/check, with integrated
   shrinking so a violation shrinks to a minimal pair of labels
   ---------- *)

module Gen = Histar_check.Gen
module Check = Histar_check.Check

let gen_level_storable = Gen.choose Level.[ L0; L1; L2; L3; Star ]
let gen_level_numeric = Gen.choose Level.[ L0; L1; L2; L3 ]

(* Small category pool so generated labels collide on categories, which
   is where leq/lub/glb actually have to merge entries. *)
let gen_label =
  let open Gen in
  let* d = gen_level_numeric in
  let* n = int_range 0 4 in
  let* entries =
    list_len n (pair (map cat (int_range 0 7)) gen_level_storable)
  in
  return (Label.of_list entries d)

let pp_label l = Label.to_string l
let pp2 (a, b) = Printf.sprintf "(%s, %s)" (pp_label a) (pp_label b)

let pp3 (a, b, c) =
  Printf.sprintf "(%s, %s, %s)" (pp_label a) (pp_label b) (pp_label c)

let label1 = (pp_label, gen_label)
let label2 = (pp2, Gen.pair gen_label gen_label)
let label3 = (pp3, Gen.triple gen_label gen_label gen_label)

(* A law that must hold on 500 generated cases. *)
let law name (print, gen) f =
  Check.test_case ~count:500 ~print name gen (fun x -> Check.ensure (f x))

let lattice_laws =
  [
    law "leq reflexive" label1 (fun l -> Label.leq l l);
    law "leq antisymmetric" label2 (fun (a, b) ->
        if Label.leq a b && Label.leq b a then Label.equal a b else true);
    law "leq transitive" label3 (fun (a, b, c) ->
        if Label.leq a b && Label.leq b c then Label.leq a c else true);
    law "lub is upper bound" label2 (fun (a, b) ->
        let u = Label.lub a b in
        Label.leq a u && Label.leq b u);
    law "lub is least" label3 (fun (a, b, c) ->
        if Label.leq a c && Label.leq b c then Label.leq (Label.lub a b) c
        else true);
    law "glb is lower bound" label2 (fun (a, b) ->
        let g = Label.glb a b in
        Label.leq g a && Label.leq g b);
    law "glb is greatest" label3 (fun (a, b, c) ->
        if Label.leq c a && Label.leq c b then Label.leq c (Label.glb a b)
        else true);
    law "lub commutative" label2 (fun (a, b) ->
        Label.equal (Label.lub a b) (Label.lub b a));
    law "lub associative" label3 (fun (a, b, c) ->
        Label.equal (Label.lub a (Label.lub b c)) (Label.lub (Label.lub a b) c));
    law "lub idempotent" label1 (fun a -> Label.equal (Label.lub a a) a);
    law "absorption" label2 (fun (a, b) ->
        Label.equal (Label.lub a (Label.glb a b)) a);
    law "raise_j . lower_star stable on storable" label1 (fun a ->
        Label.equal
          (Label.lower_star (Label.raise_j a))
          (Label.lower_star (Label.raise_j (Label.lower_star (Label.raise_j a)))));
    law "taint_to_read is minimal" label2 (fun (thread, obj) ->
        let raised = Label.taint_to_read ~thread ~obj in
        Label.leq thread raised && Label.can_observe ~thread:raised ~obj);
    law "lattice distributivity" label3 (fun (a, b, c) ->
        Label.equal
          (Label.glb a (Label.lub b c))
          (Label.lub (Label.glb a b) (Label.glb a c)));
    law "raise_j is extensive" label1 (fun a ->
        (* ⋆ < everything < J, so lifting ⋆ to J can only go up *)
        Label.leq a (Label.raise_j a));
    law "lower_star . raise_j identity on star-free" label1 (fun a ->
        if Label.has_star a then true
        else Label.equal (Label.lower_star (Label.raise_j a)) a);
    law "codec round-trip" label1 (fun l ->
        let e = Histar_util.Codec.Enc.create () in
        Label.encode e l;
        let d =
          Histar_util.Codec.Dec.of_string (Histar_util.Codec.Enc.to_string e)
        in
        Label.equal l (Label.decode d));
    law "can_modify implies can_observe" label2 (fun (thread, obj) ->
        if Label.can_modify ~thread ~obj then Label.can_observe ~thread ~obj
        else true);
  ]

(* The same algebra at the default count, asserting each side of a
   law separately so a failure names the side that broke. *)
let check_tests =
  let open Gen in
  [
    Check.test_case ~print:pp_label "leq reflexive" gen_label (fun l ->
        Check.ensure (Label.leq l l));
    Check.test_case ~print:pp2 "leq antisymmetric" (pair gen_label gen_label)
      (fun (a, b) ->
        if Label.leq a b && Label.leq b a then
          Check.ensure ~msg:"leq both ways but not equal" (Label.equal a b));
    Check.test_case ~print:pp3 "leq transitive"
      (triple gen_label gen_label gen_label)
      (fun (a, b, c) ->
        if Label.leq a b && Label.leq b c then
          Check.ensure ~msg:"a ⊑ b ⊑ c but not a ⊑ c" (Label.leq a c));
    Check.test_case ~print:pp2 "lub least upper bound"
      (pair gen_label gen_label)
      (fun (a, b) ->
        let u = Label.lub a b in
        Check.ensure ~msg:"not an upper bound" (Label.leq a u && Label.leq b u));
    Check.test_case ~print:pp3 "lub minimality"
      (triple gen_label gen_label gen_label)
      (fun (a, b, c) ->
        if Label.leq a c && Label.leq b c then
          Check.ensure ~msg:"lub above another upper bound"
            (Label.leq (Label.lub a b) c));
    Check.test_case ~print:pp3 "glb maximality"
      (triple gen_label gen_label gen_label)
      (fun (a, b, c) ->
        let g = Label.glb a b in
        Check.ensure ~msg:"not a lower bound" (Label.leq g a && Label.leq g b);
        if Label.leq c a && Label.leq c b then
          Check.ensure ~msg:"glb below another lower bound" (Label.leq c g));
    Check.test_case ~print:pp2 "lub/glb commute" (pair gen_label gen_label)
      (fun (a, b) ->
        Check.ensure (Label.equal (Label.lub a b) (Label.lub b a));
        Check.ensure (Label.equal (Label.glb a b) (Label.glb b a)));
    Check.test_case ~print:pp2 "taint_to_read minimal sufficient"
      (pair gen_label gen_label)
      (fun (thread, obj) ->
        let raised = Label.taint_to_read ~thread ~obj in
        Check.ensure ~msg:"thread label lowered" (Label.leq thread raised);
        Check.ensure ~msg:"still cannot observe"
          (Label.can_observe ~thread:raised ~obj));
    Check.test_case ~print:pp2 "ownership survives taint_to_read"
      (pair gen_label gen_label)
      (fun (thread, obj) ->
        let raised = Label.taint_to_read ~thread ~obj in
        List.iter
          (fun (c, lv) ->
            if Level.equal lv Level.Star then
              Check.ensure ~msg:"⋆ lost while tainting"
                (Level.equal (Label.get raised c) Level.Star))
          (Label.entries thread));
    Check.test_case ~print:pp_label "star-free raise_j/lower_star identity"
      gen_label (fun a ->
        if not (Label.has_star a) then
          Check.ensure (Label.equal (Label.lower_star (Label.raise_j a)) a));
  ]

(* ---------- hash-consing and the pure algebra ----------

   Labels are interned in a weak table: structural equality coincides
   with pointer equality ([Label.equal] is [==]). The operations keep no
   memo and shortcut when the result is one of their inputs; these
   properties pin them to the reference model's assoc-list algebra. *)

module Mlabel = Histar_model.Mlabel

let mlabel_of l =
  let ents, d = Label.ranked l in
  Mlabel.of_entries ents d

let canon_m l = (Mlabel.entries l, Mlabel.default l)

let hashcons_tests =
  let open Gen in
  [
    Check.test_case ~print:pp2 "pointer equality iff structural equality"
      (pair gen_label gen_label)
      (fun (a, b) ->
        Check.ensure ~msg:"equal/ranked disagree"
          (Label.equal a b = (Label.ranked a = Label.ranked b)));
    Check.test_case ~print:pp_label "of_list reconstructs the same pointer"
      gen_label (fun a ->
        Check.ensure (Label.equal (Label.of_list (Label.entries a) (Label.default a)) a));
    Check.test_case ~print:pp2 "can_observe/can_modify agree with Mlabel"
      (pair gen_label gen_label)
      (fun (a, b) ->
        let ma = mlabel_of a and mb = mlabel_of b in
        Check.ensure ~msg:"can_observe"
          (Label.can_observe ~thread:a ~obj:b = Mlabel.can_observe ~thread:ma ~obj:mb);
        Check.ensure ~msg:"can_observe (self)"
          (Label.can_observe ~thread:a ~obj:a = Mlabel.can_observe ~thread:ma ~obj:ma);
        Check.ensure ~msg:"can_modify"
          (Label.can_modify ~thread:a ~obj:b = Mlabel.can_modify ~thread:ma ~obj:mb));
    Check.test_case ~print:pp2 "taint_to_read agrees with Mlabel"
      (pair gen_label gen_label)
      (fun (a, b) ->
        let ma = mlabel_of a and mb = mlabel_of b in
        Check.ensure
          (Label.ranked (Label.taint_to_read ~thread:a ~obj:b)
          = canon_m (Mlabel.taint_to_read ~thread:ma ~obj:mb)));
    Check.test_case ~print:pp2 "leq/lub/glb agree with Mlabel"
      (pair gen_label gen_label)
      (fun (a, b) ->
        let ma = mlabel_of a and mb = mlabel_of b in
        Check.ensure ~msg:"leq" (Label.leq a b = Mlabel.leq ma mb);
        Check.ensure ~msg:"lub"
          (Label.ranked (Label.lub a b) = canon_m (Mlabel.lub ma mb));
        Check.ensure ~msg:"glb"
          (Label.ranked (Label.glb a b) = canon_m (Mlabel.glb ma mb)));
  ]

let test_intern_single_allocation () =
  (* Categories no other test touches, so the first build is the only
     allocation; every later build — reordered, with shadowed
     duplicate entries, or through set — must return the same value
     without growing the intern table. *)
  let c1 = cat 910001 and c2 = cat 910002 in
  let a = lbl [ (c1, Level.L3); (c2, Level.Star) ] Level.L1 in
  let n = Label.interned_count () in
  let b = lbl [ (c2, Level.Star); (c1, Level.L3) ] Level.L1 in
  let c = lbl [ (c1, Level.L0); (c1, Level.L3); (c2, Level.Star) ] Level.L1 in
  Alcotest.(check bool) "reordered entries intern to the same label" true
    (Label.equal b a);
  Alcotest.(check bool) "of_list keeps the last duplicate entry" true
    (Label.equal c a);
  Alcotest.(check int) "no new interned values" n (Label.interned_count ());
  let via_set = Label.set (Label.set (Label.make Level.L1) c1 Level.L3) c2 Level.Star in
  Alcotest.(check bool) "set chain reaches the interned label" true
    (Label.equal via_set a)

let () =
  Alcotest.run "histar_label"
    [
      ( "label",
        [
          Alcotest.test_case "paper example" `Quick test_paper_example;
          Alcotest.test_case "normalization" `Quick test_normalization;
          Alcotest.test_case "leq basics" `Quick test_leq_basics;
          Alcotest.test_case "observe/modify" `Quick test_observe_modify;
          Alcotest.test_case "star/J shift" `Quick test_star_j_shift;
          Alcotest.test_case "taint to read" `Quick test_taint_to_read;
          Alcotest.test_case "taint satisfies both sides" `Quick
            test_taint_to_read_satisfies_both;
          Alcotest.test_case "wrap scenario (Fig 4)" `Quick test_wrap_scenario;
          Alcotest.test_case "validity" `Quick test_validity;
          Alcotest.test_case "codec" `Quick test_codec_roundtrip;
          Alcotest.test_case "printing" `Quick test_pp;
        ] );
      ("lattice laws", lattice_laws);
      ("lattice laws (histar_check)", check_tests);
      ( "hash-consing",
        hashcons_tests
        @ [
            Alcotest.test_case "single allocation per distinct label" `Quick
              test_intern_single_allocation;
          ] );
    ]
