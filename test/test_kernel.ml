module Kernel = Histar_core.Kernel
module Sys = Histar_core.Sys
module Types = Histar_core.Types
module Syscall = Histar_core.Syscall
module Profile = Histar_core.Profile
module Metrics = Histar_metrics.Metrics
module Check = Histar_check.Check
module Gen = Histar_check.Gen
open Histar_label
open Types

let l entries d = Label.of_list entries d
let l1 = Label.make Level.L1
let l2 = Label.make Level.L2

(* Run [f] as the initial thread of a fresh kernel and return its result;
   raises if the thread crashed or deadlocked. *)
let in_kernel ?label ?clearance f =
  let k = Kernel.create () in
  let result = ref None in
  let _tid =
    Kernel.spawn k ?label ?clearance ~name:"test" (fun () ->
        result := Some (f (Kernel.root k)))
  in
  Kernel.run k;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "test thread did not complete"

let in_kernel_k ?label ?clearance f =
  let k = Kernel.create () in
  let result = ref None in
  let _tid =
    Kernel.spawn k ?label ?clearance ~name:"test" (fun () ->
        result := Some (f k (Kernel.root k)))
  in
  Kernel.run k;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "test thread did not complete"

let expect_label_error f =
  match f () with
  | _ -> Alcotest.fail "expected Label_check error"
  | exception Kernel_error (Label_check _) -> ()

let expect_error f =
  match f () with
  | _ -> Alcotest.fail "expected kernel error"
  | exception Kernel_error _ -> ()

(* Yield until [pred] holds (children run between our slices). *)
let join pred =
  let tries = ref 0 in
  while (not (pred ())) && !tries < 10_000 do
    incr tries;
    Sys.yield ()
  done;
  if not (pred ()) then Alcotest.fail "join: condition never became true"

(* Run every runnable slice without letting an idle kernel fire a
   timer: [Kernel.run] would jump the clock to the first deadline. *)
let settle k =
  while Kernel.runnable_count k > 0 do
    ignore (Kernel.step k : bool)
  done

(* ---------- basic lifecycle ---------- *)

let test_spawn_runs () =
  let v = in_kernel (fun _root -> 41 + 1) in
  Alcotest.(check int) "thread ran" 42 v

let test_self_label_default () =
  let lbl, clr = in_kernel (fun _ -> (Sys.self_label (), Sys.self_clearance ())) in
  Alcotest.(check bool) "label {1}" true (Label.equal lbl l1);
  Alcotest.(check bool) "clearance {2}" true (Label.equal clr l2)

let test_cat_create_grants_star () =
  in_kernel (fun _ ->
      let c = Sys.cat_create () in
      let lbl = Sys.self_label () in
      let clr = Sys.self_clearance () in
      Alcotest.(check bool) "owns c" true (Label.owns lbl c);
      Alcotest.(check bool) "clearance 3 in c" true
        (Level.equal (Label.get clr c) Level.L3))

let test_categories_distinct () =
  in_kernel (fun _ ->
      let a = Sys.cat_create () and b = Sys.cat_create () in
      Alcotest.(check bool) "fresh" false (Category.equal a b))

(* ---------- self_set_label / clearance ---------- *)

let test_taint_self_ok () =
  in_kernel (fun _ ->
      let c = Sys.cat_create () in
      ignore c;
      (* raise own label within clearance *)
      let v = Category.of_int 99 in
      ignore v;
      Sys.self_set_label (l [] Level.L2) (* {2} ⊒ {1}, ⊑ clearance {2} *))

let test_cannot_exceed_clearance () =
  in_kernel (fun _ ->
      expect_label_error (fun () -> Sys.self_set_label (Label.make Level.L3)))

let test_cannot_lower_label () =
  in_kernel (fun _ ->
      expect_label_error (fun () ->
          Sys.self_set_label (Label.make Level.L0)))

let test_raise_clearance_owned_only () =
  in_kernel (fun _ ->
      let c = Sys.cat_create () in
      (* owning c lets us raise clearance in other categories? no — only
         up to C_T ⊔ L_T^J. For an unowned category that bound is 2. *)
      ignore c;
      let unowned = Category.of_int 7 in
      expect_label_error (fun () ->
          Sys.self_set_clearance (l [ (unowned, Level.L3) ] Level.L2)))

let test_lower_clearance_ok () =
  in_kernel (fun _ ->
      let c = Sys.cat_create () in
      (* clearance in c is 3; lower it to 2 *)
      Sys.self_set_clearance (l [ (c, Level.L2) ] Level.L2);
      Alcotest.(check bool) "lowered" true
        (Level.equal (Label.get (Sys.self_clearance ()) c) Level.L2))

(* ---------- segments and the fault path ---------- *)

let test_segment_rw () =
  in_kernel (fun root ->
      let seg =
        Sys.segment_create ~container:root ~label:l1 ~quota:8192L ~len:16 "s"
      in
      let ce = centry root seg in
      Sys.segment_write ce "hello";
      Alcotest.(check string) "read back" "hello"
        (Sys.segment_read ce ~len:5 ());
      Alcotest.(check int) "size" 16 (Sys.segment_size ce);
      Sys.segment_resize ce 5;
      Alcotest.(check string) "after shrink" "hello" (Sys.segment_read ce ()))

let test_segment_oob () =
  in_kernel (fun root ->
      let seg =
        Sys.segment_create ~container:root ~label:l1 ~quota:8192L ~len:4 "s"
      in
      let ce = centry root seg in
      expect_error (fun () -> Sys.segment_write ce "too long");
      expect_error (fun () -> Sys.segment_read ce ~off:2 ~len:10 ()))

(* A segment keeps its block when it shrinks, so the bytes it cut off
   are still in the block; growing again must read them as zeros. The
   TLS is where this would show: a short gate message after a long one
   must not carry the long one's tail. *)
let test_segment_shrink_grow_zeros () =
  in_kernel (fun root ->
      let s =
        Sys.segment_create ~container:root ~label:l1 ~quota:4096L ~len:64 "s"
      in
      let ce = centry root s in
      Sys.segment_write ce ~off:32 "MARKER";
      Sys.segment_resize ce 16;
      Sys.segment_resize ce 64;
      Alcotest.(check string) "grown bytes are zero" (String.make 6 '\000')
        (Sys.segment_read ce ~off:32 ~len:6 ());
      Sys.tls_write (String.make 100 'x' ^ "TAIL");
      Sys.tls_write "short";
      Sys.segment_resize Sys.tls 104;
      Alcotest.(check string) "a short message leaves no tail"
        ("short" ^ String.make 99 '\000')
        (Sys.tls_read ()))

(* Random resize, read, write, CAS and copy sequences on one segment,
   each step checked against a plain [Bytes] reference (an operation
   out of range must fail on both), then a fork: the handle must hold
   the logical bytes and nothing of the spare capacity. *)
type seg_op =
  | Op_resize of int
  | Op_read of int * int
  | Op_write of int * string
  | Op_cas of int * bool  (** offset, whether [expected] is the word there *)
  | Op_copy

let gen_seg_op =
  let open Gen in
  let off = int_range 0 160 in
  frequency
    [
      (3, map (fun n -> Op_resize n) (int_range 0 160));
      (2, map2 (fun o n -> Op_read (o, n)) off (int_range 0 40));
      ( 3,
        map2
          (fun o d -> Op_write (o, d))
          off
          (string_of (map Char.chr (int_range 1 255))) );
      (1, map2 (fun o hit -> Op_cas (o, hit)) off bool);
      (1, return Op_copy);
    ]

let print_seg_op = function
  | Op_resize n -> Printf.sprintf "resize %d" n
  | Op_read (o, n) -> Printf.sprintf "read %d+%d" o n
  | Op_write (o, d) -> Printf.sprintf "write %d %S" o d
  | Op_cas (o, hit) -> Printf.sprintf "cas %d %b" o hit
  | Op_copy -> "copy"

(* Apply [ops] to a fresh segment in [root] and to [reference] side by
   side; returns the segment. *)
let run_seg_ops ~root ~reference ops =
  let s = Sys.segment_create ~container:root ~label:l1 ~quota:65536L ~len:8 "s" in
  let ce = centry root s in
  (* [ok] says whether the reference allows the step; the kernel must
     agree by failing exactly when it does not *)
  let step ~ok f =
    match f () with
    | () -> Check.ensure ~msg:"kernel accepted an out-of-range step" ok
    | exception Kernel_error _ ->
        Check.ensure ~msg:"kernel refused an in-range step" (not ok)
  in
  let in_range o n = o + n <= Bytes.length !reference in
  List.iter
    (fun op ->
      match op with
      | Op_resize n ->
          step ~ok:true (fun () -> Sys.segment_resize ce n);
          let r = Bytes.make n '\000' in
          Bytes.blit !reference 0 r 0 (min n (Bytes.length !reference));
          reference := r
      | Op_read (o, n) ->
          step ~ok:(in_range o n) (fun () ->
              let got = Sys.segment_read ce ~off:o ~len:n () in
              Check.ensure ~msg:"read differs from the reference"
                (got = Bytes.sub_string !reference o n))
      | Op_write (o, d) ->
          let ok = in_range o (String.length d) in
          step ~ok (fun () -> Sys.segment_write ce ~off:o d);
          if ok then Bytes.blit_string d 0 !reference o (String.length d)
      | Op_cas (o, hit) ->
          let ok = in_range o 8 in
          let now = if ok then Bytes.get_int64_le !reference o else 0L in
          let expected = if hit then now else Int64.lognot now in
          step ~ok (fun () ->
              Check.ensure ~msg:"cas outcome differs from the reference"
                (Sys.segment_cas ce ~off:o ~expected ~desired:0x5A5AL = hit));
          if ok && hit then Bytes.set_int64_le !reference o 0x5A5AL
      | Op_copy ->
          let c =
            centry root
              (Sys.segment_copy ~src:ce ~container:root ~label:l1
                 ~quota:65536L "copy")
          in
          Check.ensure ~msg:"copy differs from the reference"
            (Sys.segment_read c () = Bytes.to_string !reference);
          Check.ensure ~msg:"copy size"
            (Sys.segment_size c = Bytes.length !reference))
    ops;
  Check.ensure ~msg:"size differs from the reference"
    (Sys.segment_size ce = Bytes.length !reference);
  s

let prop_segment_reference ops =
  let k = Kernel.create () in
  let reference = ref (Bytes.make 8 '\000') in
  (* a thread that raises only halts, so the outcome is carried out *)
  let outcome = ref None in
  let _tid =
    Kernel.spawn k ~name:"ops" (fun () ->
        outcome :=
          Some
            (match run_seg_ops ~root:(Kernel.root k) ~reference ops with
            | s -> Ok s
            | exception e -> Error e))
  in
  Kernel.run k;
  let s =
    match !outcome with
    | Some (Ok s) -> s
    | Some (Error e) -> raise e
    | None -> failwith "the ops thread did not finish"
  in
  let want = Some (Bytes.to_string !reference) in
  Check.ensure ~msg:"the live segment differs from the reference"
    (Kernel.segment_data k s = want);
  Check.ensure ~msg:"the fork holds more or other bytes than the segment's"
    (Kernel.segment_data (Kernel.resume (Kernel.fork k)) s = want)

let test_tainted_segment_unreadable () =
  in_kernel (fun root ->
      let c = Sys.cat_create () in
      let secret_label = l [ (c, Level.L3) ] Level.L1 in
      let seg =
        Sys.segment_create ~container:root ~label:secret_label ~quota:8192L
          ~len:8 "secret"
      in
      let ce = centry root seg in
      (* owner can read/write despite taint *)
      Sys.segment_write ce "a";
      (* drop ownership by starting an unprivileged thread *)
      let done_ = ref false in
      let _tid =
        Sys.thread_create ~container:root ~label:l1 ~clearance:l2 ~quota:65536L
          ~name:"reader" (fun () ->
            expect_label_error (fun () -> ignore (Sys.segment_read ce ()));
            expect_label_error (fun () -> Sys.segment_write ce "x");
            done_ := true)
      in
      join (fun () -> !done_))

let test_taint_to_read () =
  in_kernel (fun root ->
      let c = Sys.cat_create () in
      let seg =
        Sys.segment_create ~container:root
          ~label:(l [ (c, Level.L3) ] Level.L1)
          ~quota:8192L ~len:4 "secret"
      in
      Sys.segment_write (centry root seg) "key!";
      let got = ref "" in
      let _tid =
        Sys.thread_create ~container:root ~label:l1
          ~clearance:(l [ (c, Level.L3) ] Level.L2)
          ~quota:65536L ~name:"tainter" (fun () ->
            (* cannot read untainted *)
            expect_label_error (fun () ->
                ignore (Sys.segment_read (centry root seg) ()));
            (* taint self up to clearance, then read *)
            Sys.self_set_label (l [ (c, Level.L3) ] Level.L1);
            got := Sys.segment_read (centry root seg) ())
      in
      join (fun () -> !got <> "");
      Alcotest.(check string) "read after tainting" "key!" !got)

let test_tainted_thread_cannot_write_down () =
  in_kernel (fun root ->
      let c = Sys.cat_create () in
      let public =
        Sys.segment_create ~container:root ~label:l1 ~quota:8192L ~len:4 "pub"
      in
      let _tid =
        Sys.thread_create ~container:root
          ~label:(l [ (c, Level.L3) ] Level.L1)
          ~clearance:(l [ (c, Level.L3) ] Level.L2)
          ~quota:65536L ~name:"tainted" (fun () ->
            expect_label_error (fun () ->
                Sys.segment_write (centry root public) "leak"))
      in
      Sys.yield ())

let test_integrity_write_protection () =
  in_kernel (fun root ->
      let c = Sys.cat_create () in
      (* {c0,1}: cannot be written except by owners of c *)
      let sys_file =
        Sys.segment_create ~container:root
          ~label:(l [ (c, Level.L0) ] Level.L1)
          ~quota:8192L ~len:4 "sysfile"
      in
      Sys.segment_write (centry root sys_file) "ok!!";
      let _tid =
        Sys.thread_create ~container:root ~label:l1 ~clearance:l2 ~quota:65536L
          ~name:"untrusted" (fun () ->
            (* read allowed, write denied *)
            Alcotest.(check string) "read ok" "ok!!"
              (Sys.segment_read (centry root sys_file) ());
            expect_label_error (fun () ->
                Sys.segment_write (centry root sys_file) "bad!"))
      in
      Sys.yield ())

let test_segment_copy_new_label () =
  in_kernel (fun root ->
      let c = Sys.cat_create () in
      let seg =
        Sys.segment_create ~container:root ~label:l1 ~quota:8192L ~len:4 "s"
      in
      Sys.segment_write (centry root seg) "data";
      let tainted_label = l [ (c, Level.L3) ] Level.L1 in
      let copy =
        Sys.segment_copy ~src:(centry root seg) ~container:root
          ~label:tainted_label ~quota:8192L "tainted copy"
      in
      Alcotest.(check string) "copy contents" "data"
        (Sys.segment_read (centry root copy) ());
      Alcotest.(check bool) "copy label" true
        (Label.equal (Sys.obj_label (centry root copy)) tainted_label))

let test_immutable () =
  in_kernel (fun root ->
      let seg =
        Sys.segment_create ~container:root ~label:l1 ~quota:8192L ~len:4 "s"
      in
      Sys.set_immutable (centry root seg);
      match Sys.segment_write (centry root seg) "x" with
      | () -> Alcotest.fail "expected Immutable error"
      | exception Kernel_error (Immutable _) -> ())

(* ---------- TLS ---------- *)

let test_tls_per_thread () =
  in_kernel (fun root ->
      Sys.tls_write "parent";
      let child_saw = ref "?" in
      let _tid =
        Sys.thread_create ~container:root ~label:l1 ~clearance:l2 ~quota:65536L
          ~name:"child" (fun () ->
            Sys.tls_write "child";
            child_saw := Sys.tls_read ())
      in
      join (fun () -> !child_saw <> "?");
      Alcotest.(check string) "child tls" "child" !child_saw;
      Alcotest.(check string) "parent tls intact" "parent" (Sys.tls_read ()))

(* ---------- containers, entries, quotas ---------- *)

let test_container_entries_require_read () =
  in_kernel (fun root ->
      let c = Sys.cat_create () in
      (* a container only readable when tainted c3 *)
      let hidden =
        Sys.container_create ~container:root
          ~label:(l [ (c, Level.L3) ] Level.L1)
          ~quota:65536L "hidden"
      in
      let seg =
        Sys.segment_create ~container:hidden
          ~label:(l [ (c, Level.L3) ] Level.L1)
          ~quota:8192L ~len:4 "s"
      in
      let _tid =
        Sys.thread_create ~container:root ~label:l1 ~clearance:l2 ~quota:65536L
          ~name:"outsider" (fun () ->
            (* cannot use a container entry through an unreadable container *)
            expect_label_error (fun () ->
                ignore (Sys.segment_read (centry hidden seg) ())))
      in
      Sys.yield ())

let test_container_self_entry () =
  in_kernel (fun root ->
      let d =
        Sys.container_create ~container:root ~label:l1 ~quota:65536L "d"
      in
      (* ⟨D,D⟩ works even without naming the parent *)
      let es = Sys.container_list (self_entry d) in
      Alcotest.(check int) "empty" 0 (List.length es))

let test_unref_recursive () =
  in_kernel_k (fun k root ->
      let d = Sys.container_create ~container:root ~label:l1 ~quota:65536L "d" in
      let inner = Sys.container_create ~container:d ~label:l1 ~quota:32768L "i" in
      let seg =
        Sys.segment_create ~container:inner ~label:l1 ~quota:8192L ~len:4 "s"
      in
      let before = Kernel.object_count k in
      Sys.unref (centry root d);
      (* d, inner, seg all gone *)
      Alcotest.(check int) "three objects freed" (before - 3)
        (Kernel.object_count k);
      Alcotest.(check bool) "segment gone" true
        (Kernel.obj_kind k seg = None))

(* Children come back in ascending oid order, whatever order they were
   linked in and whichever of them were unlinked since. *)
let test_children_in_oid_order () =
  let kids, listed =
    in_kernel_k (fun k root ->
        let d =
          Sys.container_create ~container:root ~label:l1 ~quota:1_000_000L "d"
        in
        let segs =
          Array.init 24 (fun i ->
              let s =
                Sys.segment_create ~container:root ~label:l1 ~quota:1024L
                  (Printf.sprintf "s%d" i)
              in
              Sys.set_fixed_quota (centry root s);
              s)
        in
        (* 7 is coprime to 24: link in a scrambled order. *)
        Array.iteri
          (fun i _ ->
            Sys.container_link ~container:d
              ~target:(centry root segs.(i * 7 mod 24)))
          segs;
        Array.iteri
          (fun i s -> if i mod 3 = 0 then Sys.unref (centry d s))
          segs;
        ( List.map fst (Option.get (Kernel.container_children k d)),
          List.map (fun (o, _, _) -> o) (Sys.container_list (centry root d)) ))
  in
  Alcotest.(check int) "unlinked children gone" 16 (List.length kids);
  let rec ascending = function
    | a :: (b :: _ as rest) -> a < b && ascending rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "strictly ascending" true (ascending kids);
  Alcotest.(check (list int)) "as container_list returns them" listed kids

let test_hard_link_keeps_alive () =
  in_kernel_k (fun k root ->
      let d1 = Sys.container_create ~container:root ~label:l1 ~quota:65536L "d1" in
      let d2 = Sys.container_create ~container:root ~label:l1 ~quota:65536L "d2" in
      let seg =
        Sys.segment_create ~container:d1 ~label:l1 ~quota:4096L ~len:4 "s"
      in
      Sys.segment_write (centry d1 seg) "data";
      Sys.set_fixed_quota (centry d1 seg);
      Sys.container_link ~container:d2 ~target:(centry d1 seg);
      Sys.unref (centry root d1);
      (* still reachable through d2 *)
      Alcotest.(check string) "alive via d2" "data"
        (Sys.segment_read (centry d2 seg) ());
      Sys.unref (centry d2 seg);
      Alcotest.(check bool) "now gone" true (Kernel.obj_kind k seg = None))

let test_link_requires_fixed_quota () =
  in_kernel (fun root ->
      let d2 = Sys.container_create ~container:root ~label:l1 ~quota:65536L "d2" in
      let seg =
        Sys.segment_create ~container:root ~label:l1 ~quota:4096L ~len:4 "s"
      in
      expect_error (fun () ->
          Sys.container_link ~container:d2 ~target:(centry root seg)))

let test_quota_exhaustion () =
  in_kernel (fun root ->
      let d =
        Sys.container_create ~container:root ~label:l1 ~quota:4096L "small"
      in
      (* container overhead 512; a segment with quota 8192 can't fit *)
      match
        Sys.segment_create ~container:d ~label:l1 ~quota:8192L ~len:0 "big"
      with
      | _ -> Alcotest.fail "expected quota error"
      | exception Kernel_error (Quota _) -> ())

let test_quota_move () =
  in_kernel (fun root ->
      let d =
        Sys.container_create ~container:root ~label:l1 ~quota:8192L "d"
      in
      let seg =
        Sys.segment_create ~container:d ~label:l1 ~quota:1024L ~len:0 "s"
      in
      (* growing the segment beyond 1024 fails until we move quota in *)
      expect_error (fun () -> Sys.segment_resize (centry d seg) 2048);
      Sys.quota_move ~container:d ~target:seg ~nbytes:4096L;
      Sys.segment_resize (centry d seg) 2048;
      let q, u = Sys.obj_quota (centry d seg) in
      Alcotest.(check int64) "quota" 5120L q;
      Alcotest.(check bool) "usage within" true (Int64.compare u q <= 0))

let test_segment_growth_bounded_by_quota () =
  in_kernel (fun root ->
      let seg =
        Sys.segment_create ~container:root ~label:l1 ~quota:1024L ~len:0 "s"
      in
      match Sys.segment_resize (centry root seg) 100_000 with
      | () -> Alcotest.fail "expected quota error"
      | exception Kernel_error (Quota _) -> ())

let test_avoid_types () =
  in_kernel (fun root ->
      let d =
        Sys.container_create ~avoid:[ Thread ] ~container:root ~label:l1
          ~quota:1_000_000L "no threads"
      in
      (match
         Sys.thread_create ~container:d ~label:l1 ~clearance:l2 ~quota:65536L
           ~name:"t" (fun () -> ())
       with
      | _ -> Alcotest.fail "expected avoid_type error"
      | exception Kernel_error (Avoid_type _) -> ());
      (* inherited by sub-containers *)
      let sub = Sys.container_create ~container:d ~label:l1 ~quota:65536L "sub" in
      match
        Sys.thread_create ~container:sub ~label:l1 ~clearance:l2 ~quota:32768L
          ~name:"t" (fun () -> ())
      with
      | _ -> Alcotest.fail "expected inherited avoid_type error"
      | exception Kernel_error (Avoid_type _) -> ())

(* ---------- threads ---------- *)

(* §3.3: every object is named by a container or is a live thread's
   TLS. A refused thread_create must leave no TLS behind, whichever
   check refuses it, and a host-side spawn into a bad container must
   insert nothing before it raises. *)
let test_refused_create_leaves_nothing () =
  in_kernel_k (fun k root ->
      let small =
        Sys.container_create ~container:root ~label:l1 ~quota:4096L "small"
      in
      let no_threads =
        Sys.container_create ~avoid:[ Thread ] ~container:root ~label:l1
          ~quota:1_000_000L "no threads"
      in
      let c = Sys.cat_create () in
      let locked =
        Sys.container_create ~container:root
          ~label:(l [ (c, Level.L0) ] Level.L1)
          ~quota:1_000_000L "locked"
      in
      (* give up c⋆, so [locked] is no longer writable *)
      Sys.self_set_label l1;
      let refused what container expect =
        let before = Kernel.object_count k in
        (match
           Sys.thread_create ~container ~label:l1 ~clearance:l2
             ~quota:65536L ~name:"t" ignore
         with
        | _ -> Alcotest.failf "%s: thread_create succeeded" what
        | exception Kernel_error e ->
            Alcotest.(check bool)
              (what ^ ": " ^ error_to_string e)
              true (expect e));
        Alcotest.(check int) (what ^ ": object count") before
          (Kernel.object_count k)
      in
      refused "quota" small (function Quota _ -> true | _ -> false);
      refused "missing container" 0x5eed (function
        | Not_found_ _ -> true
        | _ -> false);
      refused "avoided type" no_threads (function
        | Avoid_type _ -> true
        | _ -> false);
      refused "container label" locked (function
        | Label_check _ -> true
        | _ -> false);
      let before = Kernel.object_count k in
      (match Kernel.spawn k ~container:small ~name:"x" ignore with
      | _ -> ()
      | exception Invalid_argument _ -> Alcotest.fail "small is a container");
      Alcotest.(check int) "spawn into a container" (before + 2)
        (Kernel.object_count k);
      let seg =
        Sys.segment_create ~container:root ~label:l1 ~quota:4096L ~len:0 "s"
      in
      let before = Kernel.object_count k in
      (match Kernel.spawn k ~container:seg ~name:"y" ignore with
      | _ -> Alcotest.fail "spawn into a segment succeeded"
      | exception Invalid_argument _ -> ());
      Alcotest.(check int) "spawn into a segment" before
        (Kernel.object_count k))

let test_thread_label_rules () =
  in_kernel (fun root ->
      (* cannot spawn a thread owning a category we don't own *)
      let foreign = Category.of_int 12345 in
      expect_label_error (fun () ->
          ignore
            (Sys.thread_create ~container:root
               ~label:(l [ (foreign, Level.Star) ] Level.L1)
               ~clearance:l2 ~quota:65536L ~name:"evil" (fun () -> ())));
      (* owning it makes the same spawn legal *)
      let c = Sys.cat_create () in
      let _tid =
        Sys.thread_create ~container:root
          ~label:(l [ (c, Level.Star) ] Level.L1)
          ~clearance:(l [ (c, Level.L3) ] Level.L2)
          ~quota:65536L ~name:"good" (fun () -> ())
      in
      ())

let test_thread_clearance_bound () =
  in_kernel (fun root ->
      (* child clearance must be ⊑ parent clearance *)
      expect_label_error (fun () ->
          ignore
            (Sys.thread_create ~container:root ~label:l1
               ~clearance:(Label.make Level.L3) ~quota:65536L ~name:"over"
               (fun () -> ()))))

let test_alert_wakes () =
  in_kernel (fun root ->
      let asp = Sys.as_create ~container:root ~label:l1 ~quota:4096L "as" in
      let got = ref (-1) in
      let tid =
        Sys.thread_create ~container:root ~label:l1 ~clearance:l2 ~quota:65536L
          ~name:"waiter" (fun () ->
            Sys.self_set_as (centry root asp);
            got := Sys.wait_alert ())
      in
      Sys.yield ();
      (* waiter is now blocked *)
      Sys.thread_alert (centry root tid) 9;
      join (fun () -> !got >= 0);
      Alcotest.(check int) "alert delivered" 9 !got)

let test_alert_requires_as_write () =
  in_kernel (fun root ->
      let c = Sys.cat_create () in
      (* AS writable only by owners of c *)
      let asp =
        Sys.as_create ~container:root
          ~label:(l [ (c, Level.L0) ] Level.L1)
          ~quota:4096L "as"
      in
      let tid =
        Sys.thread_create ~container:root ~label:l1 ~clearance:l2 ~quota:65536L
          ~name:"victim" (fun () -> Sys.yield ())
      in
      (* victim adopts the AS: needs observe only *)
      ignore asp;
      let _attacker =
        Sys.thread_create ~container:root ~label:l1 ~clearance:l2 ~quota:65536L
          ~name:"attacker" (fun () ->
            expect_error (fun () -> Sys.thread_alert (centry root tid) 9))
      in
      Sys.yield ())

(* ---------- futexes ---------- *)

let test_futex_wait_wake () =
  in_kernel (fun root ->
      let seg =
        Sys.segment_create ~container:root ~label:l1 ~quota:8192L ~len:8 "f"
      in
      let ce = centry root seg in
      let order = ref [] in
      let _waiter =
        Sys.thread_create ~container:root ~label:l1 ~clearance:l2 ~quota:65536L
          ~name:"waiter" (fun () ->
            Sys.futex_wait ce ~off:0 ~expected:0L;
            order := "woke" :: !order)
      in
      Sys.yield ();
      order := "waking" :: !order;
      let n = Sys.futex_wake ce ~off:0 ~count:1 in
      join (fun () -> List.mem "woke" !order);
      Alcotest.(check int) "one woken" 1 n;
      Alcotest.(check (list string)) "ordering" [ "woke"; "waking" ] !order)

let test_futex_value_mismatch_returns () =
  in_kernel (fun root ->
      let seg =
        Sys.segment_create ~container:root ~label:l1 ~quota:8192L ~len:8 "f"
      in
      let ce = centry root seg in
      let e = Histar_util.Codec.Enc.create () in
      Histar_util.Codec.Enc.i64 e 7L;
      Sys.segment_write ce (Histar_util.Codec.Enc.to_string e);
      (* expected 0 but value is 7: returns immediately *)
      Sys.futex_wait ce ~off:0 ~expected:0L)

(* T blocks on futex A, is restarted, and blocks on futex B; W then
   blocks on A. T's entry in A's queue is stale, so a wake on A must
   skip it and reach W. [wake] is the wake on A. *)
let restarted_across_futexes wake =
  let k = Kernel.create () in
  let root = Kernel.root k in
  let segs = ref (0, 0) in
  let _setup =
    Kernel.spawn k ~name:"setup" (fun () ->
        let seg n =
          Sys.segment_create ~container:root ~label:l1 ~quota:8192L ~len:8 n
        in
        segs := (seg "a", seg "b"))
  in
  settle k;
  let a, b = !segs in
  let sleep_on seg woke () =
    Sys.futex_wait (centry root seg) ~off:0 ~expected:0L;
    woke := true
  in
  let t_woke = ref false and w_woke = ref false in
  let t = Kernel.spawn k ~name:"t" (sleep_on a t_woke) in
  settle k;
  Kernel.restart_thread k t (sleep_on b t_woke);
  let _w = Kernel.spawn k ~name:"w" (sleep_on a w_woke) in
  settle k;
  wake k root a;
  settle k;
  Alcotest.(check bool) "A's waiter woke" true !w_woke;
  Alcotest.(check bool) "the thread on B did not" false !t_woke;
  Alcotest.(check bool) "it still sleeps on B" true
    (Kernel.thread_state k t = Some `Blocked)

let test_futex_wake_skips_restarted () =
  restarted_across_futexes (fun k root a ->
      let n = ref (-1) in
      let _waker =
        Kernel.spawn k ~name:"waker" (fun () ->
            n := Sys.futex_wake (centry root a) ~off:0 ~count:1)
      in
      settle k;
      Alcotest.(check int) "one woken" 1 !n)

let test_host_wake_skips_restarted () =
  restarted_across_futexes (fun k _root a -> Kernel.host_wake_futex k a ~off:0)

(* The syscalls of [Sys.wait_until], pinned: none when the predicate
   holds, then one generation read and one [futex_wait] per sleep. A
   segment syscall traces one check on the container and one on the
   segment; the second names the syscall once. *)
let test_wait_until_profile () =
  let k = Kernel.create () in
  let root = Kernel.root k in
  let seg = ref 0 in
  let _setup =
    Kernel.spawn k ~name:"setup" (fun () ->
        seg :=
          Sys.segment_create ~container:root ~label:l1 ~quota:8192L ~len:8 "gen")
  in
  settle k;
  let ce = centry root !seg in
  let syscalls () =
    List.fold_left (fun n (_, c) -> n + c) 0 (Profile.to_list (Kernel.profile k))
  in
  let ready = ref false and held = ref (-1) and returned = ref false in
  let waiter =
    Kernel.spawn k ~name:"waiter" (fun () ->
        let before = syscalls () in
        Sys.wait_until ce (fun () -> true);
        held := syscalls () - before;
        Sys.wait_until ce (fun () -> !ready);
        returned := true)
  in
  let ops = ref [] in
  Kernel.set_trace k
    (Some
       (fun ev ->
         if ev.Kernel.ev_thread = waiter && ev.ev_obj = !seg then
           ops := ev.ev_op :: !ops));
  let bump () =
    ignore (Kernel.spawn k ~name:"bumper" (fun () -> Sys.bump ce) : oid);
    settle k
  in
  let sleep = [ "segment_read"; "futex_wait" ] in
  settle k;
  Alcotest.(check int) "a predicate that holds: no syscall" 0 !held;
  Alcotest.(check (list string)) "first sleep" sleep (List.rev !ops);
  bump ();
  Alcotest.(check (list string)) "a wake that leaves it false: one more sleep"
    (sleep @ sleep) (List.rev !ops);
  Alcotest.(check bool) "still waiting" false !returned;
  ready := true;
  bump ();
  Alcotest.(check bool) "returned" true !returned;
  Alcotest.(check (list string)) "no syscall after the wake that ends it"
    (sleep @ sleep) (List.rev !ops)

(* ---------- gates ---------- *)

let test_gate_grants_privilege () =
  in_kernel (fun root ->
      (* A privileged daemon owns c and exposes a gate granting c. The
         caller picks up ownership by entering with L_R including c⋆ —
         allowed because the gate's label owns c. *)
      let c = Sys.cat_create () in
      let glabel = l [ (c, Level.Star) ] Level.L1 in
      let observed = ref None in
      let gate =
        Sys.gate_create ~container:root ~label:glabel ~clearance:l2
          ~quota:4096L ~name:"grant-c" (fun () ->
            observed := Some (Sys.self_label ());
            Sys.self_halt ())
      in
      let _caller =
        Sys.thread_create ~container:root ~label:l1 ~clearance:l2 ~quota:65536L
          ~name:"caller" (fun () ->
            Sys.gate_enter ~gate:(centry root gate)
              ~label:(l [ (c, Level.Star) ] Level.L1)
              ~clearance:l2 ())
      in
      join (fun () -> !observed <> None);
      match !observed with
      | Some lbl -> Alcotest.(check bool) "owns c inside gate" true (Label.owns lbl c)
      | None -> Alcotest.fail "gate entry did not run")

let test_gate_cannot_self_grant () =
  in_kernel (fun root ->
      (* entering a gate that does NOT own c cannot yield c⋆ *)
      let gate =
        Sys.gate_create ~container:root ~label:l1 ~clearance:l2 ~quota:4096L
          ~name:"plain" (fun () -> Sys.self_halt ())
      in
      let foreign = Category.of_int 4242 in
      let _caller =
        Sys.thread_create ~container:root ~label:l1 ~clearance:l2 ~quota:65536L
          ~name:"caller" (fun () ->
            expect_label_error (fun () ->
                Sys.gate_enter ~gate:(centry root gate)
                  ~label:(l [ (foreign, Level.Star) ] Level.L1)
                  ~clearance:l2 ()))
      in
      Sys.yield ())

let test_gate_clearance_gates_invocation () =
  in_kernel (fun root ->
      let c = Sys.cat_create () in
      (* gate requiring ownership of c to invoke: clearance {c0, 2} *)
      let gate =
        Sys.gate_create ~container:root ~label:l1
          ~clearance:(l [ (c, Level.L0) ] Level.L2)
          ~quota:4096L ~name:"locked" (fun () -> Sys.self_halt ())
      in
      let _outsider =
        Sys.thread_create ~container:root ~label:l1 ~clearance:l2 ~quota:65536L
          ~name:"outsider" (fun () ->
            (* L_T = {1}: L_T ⊑ {c0,2} fails in category c *)
            expect_label_error (fun () ->
                Sys.gate_enter ~gate:(centry root gate) ~label:l1 ~clearance:l2
                  ()))
      in
      Sys.yield ())

let test_gate_call_round_trip () =
  in_kernel (fun root ->
      (* the timestamped-signature daemon of §5.5, minus the crypto *)
      let service_calls = ref 0 in
      let gate =
        Sys.gate_create ~container:root ~label:l1 ~clearance:l2 ~quota:4096L
          ~name:"sigd" (fun () ->
            incr service_calls;
            let input = Sys.tls_read () in
            Sys.tls_write ("signed:" ^ input);
            match Sys.self_get_return_gate () with
            | Some rg -> Sys.gate_enter ~gate:rg ~label:l1 ~clearance:l2 ()
            | None -> Alcotest.fail "no return gate")
      in
      let answer = ref "" in
      let _caller =
        Sys.thread_create ~container:root ~label:l1 ~clearance:l2 ~quota:65536L
          ~name:"client" (fun () ->
            Sys.tls_write "doc";
            Sys.gate_call ~gate:(centry root gate) ~label:l1 ~clearance:l2
              ~return_container:root ~return_label:l1 ~return_clearance:l2 ();
            answer := Sys.tls_read ())
      in
      join (fun () -> !answer <> "");
      Alcotest.(check int) "service ran once" 1 !service_calls;
      Alcotest.(check string) "result returned" "signed:doc" !answer)

let test_gate_call_restores_privilege () =
  in_kernel (fun root ->
      let c = Sys.cat_create () in
      let my_label = l [ (c, Level.Star) ] Level.L1 in
      let gate =
        Sys.gate_create ~container:root ~label:l1 ~clearance:l2 ~quota:4096L
          ~name:"svc" (fun () ->
            (* inside the service we do NOT own c *)
            Alcotest.(check bool) "dropped c" false
              (Label.owns (Sys.self_label ()) c);
            match Sys.self_get_return_gate () with
            | Some rg ->
                Sys.gate_enter ~gate:rg ~label:my_label
                  ~clearance:(l [ (c, Level.L3) ] Level.L2)
                  ()
            | None -> Alcotest.fail "no return gate")
      in
      let restored = ref false in
      let _caller =
        Sys.thread_create ~container:root ~label:my_label
          ~clearance:(l [ (c, Level.L3) ] Level.L2)
          ~quota:65536L ~name:"client" (fun () ->
            Sys.gate_call ~gate:(centry root gate) ~label:l1 ~clearance:l2
              ~return_container:root ~return_label:my_label
              ~return_clearance:(l [ (c, Level.L3) ] Level.L2)
              ();
            restored := Label.owns (Sys.self_label ()) c)
      in
      join (fun () -> !restored);
      Alcotest.(check bool) "privilege restored after return" true !restored)

let test_return_gate_single_use () =
  in_kernel (fun root ->
      let saved = ref None in
      let gate =
        Sys.gate_create ~container:root ~label:l1 ~clearance:l2 ~quota:4096L
          ~name:"svc" (fun () ->
            let rg = Option.get (Sys.self_get_return_gate ()) in
            saved := Some rg;
            Sys.gate_enter ~gate:rg ~label:l1 ~clearance:l2 ())
      in
      let _caller =
        Sys.thread_create ~container:root ~label:l1 ~clearance:l2 ~quota:65536L
          ~name:"client" (fun () ->
            Sys.gate_call ~gate:(centry root gate) ~label:l1 ~clearance:l2
              ~return_container:root ~return_label:l1 ~return_clearance:l2 ();
            (* calling the consumed return gate again must fail *)
            expect_error (fun () ->
                Sys.gate_enter ~gate:(Option.get !saved) ~label:l1
                  ~clearance:l2 ()))
      in
      Sys.yield ();
      Sys.yield ();
      Sys.yield ())

(* ---------- devices ---------- *)

let test_netdev_taint () =
  let k = Kernel.create () in
  let root = Kernel.root k in
  let sent = ref [] in
  let i = Category.of_int 777 in
  let dev_label = l [ (i, Level.L2) ] Level.L1 in
  let dev =
    Kernel.attach_netdev k ~container:root ~label:dev_label ~mac:"02:00:00:00:00:01"
      ~transmit:(fun frame -> sent := frame :: !sent)
  in
  let phase = ref [] in
  let tid =
    Kernel.spawn k ~name:"netd"
      ~label:(l [ (i, Level.L2) ] Level.L1)
      ~clearance:(l [ (i, Level.L2) ] Level.L2)
      (fun () ->
        let ce = centry root dev in
        Alcotest.(check string) "mac" "02:00:00:00:00:01" (Sys.net_mac ce);
        Sys.net_send ce "ping";
        phase := "sent" :: !phase;
        let pkt = Sys.net_recv ce in
        phase := ("got:" ^ pkt) :: !phase)
  in
  Kernel.run k;
  (* thread should now be blocked in net_recv *)
  Alcotest.(check bool) "blocked on rx" true
    (Kernel.thread_state k tid = Some `Blocked);
  Kernel.deliver_packet k dev "pong";
  Kernel.run k;
  Alcotest.(check (list string)) "tx seen" [ "ping" ] !sent;
  Alcotest.(check (list string)) "phases" [ "got:pong"; "sent" ] !phase

(* ---------- blocked-thread index ---------- *)

let deadline = 1_000_000_000

let test_timer_ties_wake_in_tid_order () =
  let k = Kernel.create () in
  let woke = ref [] in
  let tids =
    List.init 6 (fun i ->
        Kernel.spawn k ~name:(Printf.sprintf "sleeper-%d" i) (fun () ->
            Sys.sleep_until_ns deadline;
            woke := (Sys.self_id (), Sys.clock_ns ()) :: !woke))
  in
  let sorted = List.sort Int.compare tids in
  Alcotest.(check bool) "spawn order is not tid order" false (tids = sorted);
  Kernel.run k;
  Alcotest.(check (list int)) "woken in tid order" sorted
    (List.rev_map fst !woke);
  List.iter
    (fun (_, at) ->
      Alcotest.(check bool) "not woken early" true
        (at >= deadline))
    !woke;
  Alcotest.(check (option int)) "no timer left" None (Kernel.next_timer_ns k)

let test_destroyed_sleeper_never_woken () =
  let k = Kernel.create () in
  let root = Kernel.root k in
  let woke = ref false in
  let sleeper =
    Kernel.spawn k ~name:"sleeper" (fun () ->
        Sys.sleep_until_ns deadline;
        woke := true)
  in
  settle k;
  Alcotest.(check (option int)) "indexed" (Some deadline)
    (Kernel.next_timer_ns k);
  let _killer =
    Kernel.spawn k ~name:"killer" (fun () -> Sys.unref (centry root sleeper))
  in
  settle k;
  Alcotest.(check bool) "destroyed" true (Kernel.thread_state k sleeper = None);
  Alcotest.(check (option int)) "entry dropped" None (Kernel.next_timer_ns k);
  Alcotest.(check bool) "nothing to fire" false (Kernel.step k);
  Alcotest.(check bool) "never woken" false !woke;
  Alcotest.(check bool) "clock did not jump" true
    (Histar_util.Sim_clock.now (Kernel.clock k) < deadline)

(* [thread_alert] does not cut a sleep short, so the sleeper is
   re-armed to wait for the alert instead: its old deadline must not
   resume the alert wait, and the alert must. *)
let test_alerted_sleeper_never_woken_by_timer () =
  let k = Kernel.create () in
  let root = Kernel.root k in
  let asp = ref 0 in
  let woke = ref false and got = ref None in
  let _setup =
    Kernel.spawn k ~name:"setup" (fun () ->
        asp := Sys.as_create ~container:root ~label:l1 ~quota:4096L "as")
  in
  let sleeper =
    Kernel.spawn k ~name:"sleeper" (fun () ->
        Sys.sleep_until_ns deadline;
        woke := true)
  in
  settle k;
  Alcotest.(check (option int)) "indexed" (Some deadline)
    (Kernel.next_timer_ns k);
  Kernel.restart_thread k sleeper (fun () ->
      Sys.self_set_as (centry root !asp);
      got := Some (Sys.wait_alert ()));
  settle k;
  Alcotest.(check bool) "waits for an alert" true
    (Kernel.thread_state k sleeper = Some `Blocked);
  Alcotest.(check (option int)) "entry dropped" None (Kernel.next_timer_ns k);
  Alcotest.(check bool) "nothing to fire" false (Kernel.step k);
  Alcotest.(check (option int)) "not resumed by the deadline" None !got;
  let _alerter =
    Kernel.spawn k ~name:"alerter" (fun () ->
        Sys.thread_alert (centry root sleeper) 7)
  in
  Kernel.run k;
  Alcotest.(check (option int)) "alert delivered" (Some 7) !got;
  Alcotest.(check bool) "never woken by the timer" false !woke;
  Alcotest.(check (option int)) "no timer left" None (Kernel.next_timer_ns k)

(* ---------- virtual-time bounds ---------- *)

let now k = Histar_util.Sim_clock.now (Kernel.clock k)

(* A sleep amount is a thread's to choose: one whose nanoseconds would
   carry the clock past max_int is refused with [Invalid], like a
   negative one, and neither the kernel nor the clock moves for it
   (syscalls cost nothing here, so the clock reads only sleeps). *)
let test_usleep_past_end_refused () =
  List.iter
    (fun us ->
      let k = Kernel.create ~syscall_cost_ns:0 () in
      let refused = ref false in
      let _tid =
        Kernel.spawn k ~name:"sleeper" (fun () ->
            try Sys.usleep us with Kernel_error (Invalid _) -> refused := true)
      in
      Kernel.run k;
      Alcotest.(check bool) (Printf.sprintf "usleep %d refused" us) true !refused;
      Alcotest.(check int) "clock unmoved" 0 (now k))
    [ max_int; (max_int / 1000) + 1 ];
  let k = Kernel.create ~syscall_cost_ns:0 () in
  let _tid = Kernel.spawn k ~name:"sleeper" (fun () -> Sys.usleep (max_int / 1000)) in
  Kernel.run k;
  Alcotest.(check int) "the longest sleep that fits" (max_int / 1000 * 1000) (now k)

(* Parking on the last representable deadline is legal; the syscall
   after it finds time stopped at max_int rather than wrapped. *)
let test_sleep_until_end_of_time () =
  let k = Kernel.create () in
  let seen = ref 0 in
  let _tid =
    Kernel.spawn k ~name:"late" (fun () ->
        Sys.sleep_until_ns max_int;
        seen := Sys.clock_ns ())
  in
  Kernel.run k;
  Alcotest.(check int) "time stops at max_int" max_int !seen;
  Alcotest.(check int) "and stays there" max_int (now k)

let test_frame_for_destroyed_waiter_stays_queued () =
  let k = Kernel.create () in
  let root = Kernel.root k in
  let dev =
    Kernel.attach_netdev k ~container:root ~label:l1 ~mac:"02:00:00:00:00:04"
      ~transmit:ignore
  in
  let stolen = ref None and got = ref None in
  let waiter =
    Kernel.spawn k ~name:"waiter" (fun () ->
        stolen := Some (Sys.net_recv (centry root dev)))
  in
  settle k;
  let _killer =
    Kernel.spawn k ~name:"killer" (fun () -> Sys.unref (centry root waiter))
  in
  settle k;
  Kernel.deliver_packet k dev "frame";
  Alcotest.(check int) "nobody woken" 0 (Kernel.runnable_count k);
  let _reader =
    Kernel.spawn k ~name:"reader" (fun () ->
        got := Some (Sys.net_recv (centry root dev)))
  in
  Kernel.run k;
  Alcotest.(check (option string)) "destroyed waiter got nothing" None !stolen;
  Alcotest.(check (option string)) "next net_recv gets the frame"
    (Some "frame") !got

let test_netdev_untainted_cannot_recv () =
  let k = Kernel.create () in
  let root = Kernel.root k in
  let i = Category.of_int 777 in
  let dev =
    Kernel.attach_netdev k ~container:root
      ~label:(l [ (i, Level.L2) ] Level.L1)
      ~mac:"02:00:00:00:00:02" ~transmit:ignore
  in
  let checked = ref false in
  let _tid =
    Kernel.spawn k ~name:"plain" (fun () ->
        (* untainted thread: reading the device would taint-violate *)
        expect_label_error (fun () -> ignore (Sys.net_recv (centry root dev)));
        checked := true)
  in
  Kernel.run k;
  Alcotest.(check bool) "denied" true !checked

let test_netdev_vpn_tainted_cannot_send () =
  let k = Kernel.create () in
  let root = Kernel.root k in
  let i = Category.of_int 777 and v = Category.of_int 888 in
  let dev =
    Kernel.attach_netdev k ~container:root
      ~label:(l [ (i, Level.L2) ] Level.L1)
      ~mac:"02:00:00:00:00:03" ~transmit:ignore
  in
  let checked = ref false in
  let _tid =
    Kernel.spawn k ~name:"vpn-tainted"
      ~label:(l [ (v, Level.L2) ] Level.L1)
      ~clearance:(l [ (v, Level.L2) ] Level.L2)
      (fun () ->
        (* v-tainted data must not leave via the internet device *)
        expect_label_error (fun () -> Sys.net_send (centry root dev) "secret");
        checked := true)
  in
  Kernel.run k;
  Alcotest.(check bool) "blocked transmission" true !checked

(* ---------- persistence ---------- *)

let mk_store () =
  let clock = Histar_util.Sim_clock.create () in
  let disk =
    Histar_disk.Disk.create
      ~geometry:{ Histar_disk.Disk.sectors = 500_000; sector_bytes = 512 }
      ~clock ()
  in
  (disk, Histar_store.Store.format ~disk ~wal_sectors:1024 ())

let test_checkpoint_recover () =
  let _disk, store = mk_store () in
  let k = Kernel.create ~store () in
  let root = Kernel.root k in
  let seg_id = ref 0 in
  let dir_id = ref 0 in
  let _tid =
    Kernel.spawn k ~name:"init" (fun () ->
        let d = Sys.container_create ~container:root ~label:l1 ~quota:65536L "home" in
        let s = Sys.segment_create ~container:d ~label:l1 ~quota:8192L ~len:5 "file" in
        Sys.segment_write (centry d s) "hello";
        dir_id := d;
        seg_id := s)
  in
  Kernel.run k;
  Kernel.checkpoint k;
  (* "reboot": rebuild from the store *)
  let k' = Kernel.recover ~store in
  Alcotest.(check (option string)) "segment data survives" (Some "hello")
    (Kernel.segment_data k' !seg_id);
  Alcotest.(check bool) "container structure survives" true
    (match Kernel.container_children k' !dir_id with
    | Some kids -> List.mem_assoc !seg_id kids
    | None -> false);
  (* labels survive *)
  Alcotest.(check bool) "label survives" true
    (match Kernel.obj_label k' !seg_id with
    | Some lbl -> Label.equal lbl l1
    | None -> false);
  (* recovered kernel can run new threads against old objects *)
  let root' = Kernel.root k' in
  ignore root';
  let readback = ref "" in
  let _tid =
    Kernel.spawn k' ~name:"reader" (fun () ->
        readback := Sys.segment_read (centry !dir_id !seg_id) ())
  in
  Kernel.run k';
  Alcotest.(check string) "readable after recovery" "hello" !readback

(* [f ()] and the log commits it caused: the [store.sync_batches]
   delta of an enabled metrics window. *)
let with_commits f =
  Metrics.with_enabled true @@ fun () ->
  let n0 = Metrics.counter_value "store.sync_batches" in
  let v = f () in
  (v, Metrics.counter_value "store.sync_batches" - n0)

let test_sync_object_path () =
  let _disk, store = mk_store () in
  let k = Kernel.create ~store () in
  let root = Kernel.root k in
  let _tid =
    Kernel.spawn k ~name:"init" (fun () ->
        let s =
          Sys.segment_create ~container:root ~label:l1 ~quota:8192L ~len:4 "f"
        in
        Sys.segment_write (centry root s) "sync";
        Sys.sync_object (centry root s))
  in
  Alcotest.(check bool) "wal commit happened" true
    (snd (with_commits (fun () -> Kernel.run k)) >= 1)

let test_sync_range_after_recover () =
  (* A recovered kernel re-declares each segment's layout to the store:
     the first fsync_range after a reboot flushes in place, with no log
     commit, and a second reboot sees the flushed bytes. *)
  let disk, store = mk_store () in
  let k = Kernel.create ~store () in
  let root = Kernel.root k in
  let seg = ref 0 in
  let _tid =
    Kernel.spawn k ~name:"init" (fun () ->
        let s =
          Sys.segment_create ~container:root ~label:l1 ~quota:16384L ~len:4096
            "file"
        in
        Sys.segment_write (centry root s) (String.make 4096 'a');
        Sys.sync_all ();
        seg := s)
  in
  Kernel.run k;
  let store', commits =
    with_commits (fun () ->
        let store' = Histar_store.Store.recover ~disk in
        let k' = Kernel.recover ~store:store' in
        let _tid =
          Kernel.spawn k' ~name:"writer" (fun () ->
              Sys.segment_write (centry root !seg) ~off:1000 "0123456789";
              Sys.sync_range (centry root !seg) ~off:1000 ~len:10)
        in
        Kernel.run k';
        store')
  in
  Alcotest.(check int) "flushed in place, no log commit" 0 commits;
  Histar_store.Store.fsck store';
  let k'' = Kernel.recover ~store:(Histar_store.Store.recover ~disk) in
  match Kernel.segment_data k'' !seg with
  | Some data ->
      Alcotest.(check string) "range durable" "0123456789" (String.sub data 1000 10);
      Alcotest.(check char) "rest intact" 'a' data.[4095]
  | None -> Alcotest.fail "segment lost"

(* ---------- flow oracle ---------- *)

let prop_flow_oracle =
  Check.test_case ~count:60 ~print:string_of_int
    "every permitted access obeys the flow rules" (Gen.int_range 1 100_000)
    (fun seed ->
      let k = Kernel.create ~seed:(Int64.of_int seed) () in
      let violations = ref [] in
      Kernel.set_trace k
        (Some
           (fun ev ->
             let ok =
               match ev.Kernel.ev_dir with
               | `Observe ->
                   Label.can_observe ~thread:ev.Kernel.ev_thread_label
                     ~obj:ev.Kernel.ev_obj_label
               | `Modify ->
                   Label.can_modify ~thread:ev.Kernel.ev_thread_label
                     ~obj:ev.Kernel.ev_obj_label
             in
             if not ok then violations := ev :: !violations));
      let root = Kernel.root k in
      let rng = Histar_util.Rng.create (Int64.of_int seed) in
      let _tid =
        Kernel.spawn k ~name:"fuzz" (fun () ->
            let cats = Array.init 3 (fun _ -> Sys.cat_create ()) in
            (* drop ownership of a random subset by spawning children *)
            let segs = ref [] in
            for _ = 1 to 30 do
              let c = cats.(Histar_util.Rng.int rng 3) in
              let lv =
                match Histar_util.Rng.int rng 4 with
                | 0 -> Level.L0
                | 1 -> Level.L1
                | 2 -> Level.L2
                | _ -> Level.L3
              in
              let lbl = l [ (c, lv) ] Level.L1 in
              match
                Sys.segment_create ~container:root ~label:lbl ~quota:4096L
                  ~len:8 "fz"
              with
              | s -> segs := s :: !segs
              | exception Kernel_error _ -> ()
            done;
            (* children with random labels try random accesses *)
            for _ = 1 to 10 do
              let c = cats.(Histar_util.Rng.int rng 3) in
              let taint = Histar_util.Rng.bool rng in
              let lbl = if taint then l [ (c, Level.L3) ] Level.L1 else l1 in
              let clr = if taint then l [ (c, Level.L3) ] Level.L2 else l2 in
              let segs' = !segs in
              match
                Sys.thread_create ~container:root ~label:lbl ~clearance:clr
                  ~quota:65536L ~name:"fz-child" (fun () ->
                    List.iter
                      (fun s ->
                        let ce = centry root s in
                        (try ignore (Sys.segment_read ce ())
                         with Kernel_error _ -> ());
                        try Sys.segment_write ce "xxxxxxxx"
                        with Kernel_error _ -> ())
                      segs')
              with
              | _ -> ()
              | exception Kernel_error _ -> ()
            done)
      in
      Kernel.run k;
      Check.ensure (!violations = []))

(* ---------- label cache & observability ---------- *)

module Label_cache = Histar_core.Label_cache

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Labels over a small category pool so generated pairs actually share
   categories (otherwise every comparison degenerates to defaults). *)
let gen_label =
  let open Gen in
  let entry =
    pair (int_range 1 5)
      (choose [ Level.Star; Level.L0; Level.L1; Level.L2; Level.L3 ])
  in
  let* entries = list entry in
  let* d = choose [ Level.L0; Level.L1; Level.L2; Level.L3 ] in
  let dedup =
    List.fold_left
      (fun acc (c, lv) -> if List.mem_assoc c acc then acc else (c, lv) :: acc)
      [] entries
  in
  return (Label.of_list (List.map (fun (c, lv) -> (Category.of_int c, lv)) dedup) d)

let print_label_pairs ps =
  String.concat "; "
    (List.map
       (fun (t, o) -> Label.to_string t ^ " vs " ^ Label.to_string o)
       ps)

(* Differential: the memoized cache must agree with the uncached
   relations on both the miss path and the hit path, and its metrics
   must account for every lookup and every denial: misses count as
   [label.checks] and [label.cache_misses], hits as [label.elided].
   Each pair is looked up twice in a row, so at least half the
   lookups hit. Then every pair is looked up again in reverse order:
   a cache whose stored keys alias its lookup probe answers those
   revisits from whichever entry shares the bucket. A tiny bound
   forces wholesale clears mid-sequence; with an unreachable bound
   every revisit must hit. *)
let label_cache_differential ~bound pairs =
  let cache = Label_cache.create ~bound () in
  let checks0 = Metrics.counter_value "label.checks" in
  let elided0 = Metrics.counter_value "label.elided" in
  let misses0 = Metrics.counter_value "label.cache_misses" in
  let denied0 = Metrics.counter_value "label.denied" in
  let denials = ref 0 in
  let lookup (t, o) =
    let want_obs = Label.can_observe ~thread:t ~obj:o in
    let want_mod = Label.can_modify ~thread:t ~obj:o in
    Check.ensure ~msg:"cached observe differs from Label.can_observe"
      (Label_cache.observe cache ~thread:t ~obj:o = want_obs);
    Check.ensure ~msg:"cached modify differs from Label.can_modify"
      (Label_cache.modify cache ~thread:t ~obj:o = want_mod);
    if not want_obs then incr denials;
    if not want_mod then incr denials
  in
  List.iter
    (fun pair ->
      lookup pair;
      lookup pair)
    pairs;
  let elided_before_revisit = Metrics.counter_value "label.elided" in
  List.iter lookup (List.rev pairs);
  let revisit_hits =
    Metrics.counter_value "label.elided" - elided_before_revisit
  in
  let checks = Metrics.counter_value "label.checks" - checks0 in
  let elided = Metrics.counter_value "label.elided" - elided0 in
  let misses = Metrics.counter_value "label.cache_misses" - misses0 in
  Check.ensure ~msg:"checks + elided must cover every lookup"
    (checks + elided = 6 * List.length pairs);
  Check.ensure ~msg:"label.checks must equal cache misses" (checks = misses);
  Check.ensure ~msg:"every repeated lookup must count as elided"
    (elided >= 2 * List.length pairs);
  if bound = max_int then
    Check.ensure ~msg:"every revisit must count as elided"
      (revisit_hits = 2 * List.length pairs);
  Check.ensure ~msg:"label.denied missed denials"
    (Metrics.counter_value "label.denied" - denied0 = !denials)

let prop_label_cache_differential pairs =
  Metrics.with_enabled true (fun () ->
      label_cache_differential ~bound:8 pairs;
      label_cache_differential ~bound:max_int pairs)

(* The cache's hits must not depend on when the GC runs. Build label
   pairs over categories nothing else uses, look them up, drop them,
   optionally collect, then rebuild equal pairs and look them up again.
   A cache keyed on anything that identifies a label by its heap object
   (an address, or an id handed out per live value) fails this: the
   rebuilt labels are new objects, so the second pass misses. Hits and
   misses are the [label.elided] / [label.cache_misses] deltas of an
   enabled metrics window. *)
let test_label_cache_gc_independent () =
  let pass cache =
    for i = 0 to 63 do
      let c = Category.of_int (920_000 + i) in
      let t = Label.of_list [ (c, Level.Star) ] Level.L1 in
      let o = Label.of_list [ (c, Level.L2) ] Level.L1 in
      ignore (Label_cache.observe cache ~thread:t ~obj:o : bool);
      ignore (Label_cache.modify cache ~thread:t ~obj:o : bool)
    done
  in
  let run ~gc =
    Metrics.with_enabled true @@ fun () ->
    let counts () =
      (Metrics.counter_value "label.elided",
       Metrics.counter_value "label.cache_misses")
    in
    let h0, m0 = counts () in
    let cache = Label_cache.create () in
    pass cache;
    if gc then Gc.full_major ();
    pass cache;
    let h1, m1 = counts () in
    (h1 - h0, m1 - m0)
  in
  let without_gc = run ~gc:false in
  Gc.full_major ();
  let with_gc = run ~gc:true in
  Alcotest.(check (pair int int)) "second pass hits every pair" (128, 128) without_gc;
  Alcotest.(check (pair int int)) "hit/miss counts identical after a GC" without_gc
    with_gc

(* After a thread picks up ownership of c through a gate, the same
   (thread, object) comparison must flip from denied to allowed — the
   cache keys on the thread's label, so the pre-transfer denial must
   not be served stale. *)
let test_label_cache_gate_transfer () =
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  let got = ref None in
  let denied_before = ref (-1) in
  let denied_after_denial = ref (-1) in
  Fun.protect
    ~finally:(fun () -> Metrics.set_enabled was)
    (fun () ->
      in_kernel (fun root ->
          let c = Sys.cat_create () in
          let secret =
            Sys.segment_create ~container:root
              ~label:(l [ (c, Level.L3) ] Level.L1)
              ~quota:8192L ~len:6 "secret"
          in
          Sys.segment_write (centry root secret) "sealed";
          let gate =
            Sys.gate_create ~container:root
              ~label:(l [ (c, Level.Star) ] Level.L1)
              ~clearance:l2 ~quota:4096L ~name:"grant-c" (fun () ->
                got := Some (Sys.segment_read (centry root secret) ());
                Sys.self_halt ())
          in
          let _reader =
            Sys.thread_create ~container:root ~label:l1 ~clearance:l2
              ~quota:65536L ~name:"reader" (fun () ->
                denied_before := Metrics.counter_value "label.denied";
                expect_label_error (fun () ->
                    ignore (Sys.segment_read (centry root secret) ()));
                denied_after_denial := Metrics.counter_value "label.denied";
                Sys.gate_enter ~gate:(centry root gate)
                  ~label:(l [ (c, Level.Star) ] Level.L1)
                  ~clearance:l2 ())
          in
          join (fun () -> !got <> None)));
  Alcotest.(check bool)
    "denied read hit the label.denied counter" true
    (!denied_after_denial > !denied_before);
  Alcotest.(check (option string))
    "read allowed after ownership transfer" (Some "sealed") !got

(* The gate invocation error path: a caller without clearance must get
   the specific clearance-check failure, and the kernel must account
   for it in both label.denied and kernel.syscall_label_errors. *)
let test_gate_denied_message_and_counters () =
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  let msg = ref "" in
  let d0 = ref (-1) and e0 = ref (-1) in
  Fun.protect
    ~finally:(fun () -> Metrics.set_enabled was)
    (fun () ->
      in_kernel (fun root ->
          let c = Sys.cat_create () in
          let gate =
            Sys.gate_create ~container:root ~label:l1
              ~clearance:(l [ (c, Level.L0) ] Level.L2)
              ~quota:4096L ~name:"locked" (fun () -> Sys.self_halt ())
          in
          let _outsider =
            Sys.thread_create ~container:root ~label:l1 ~clearance:l2
              ~quota:65536L ~name:"outsider" (fun () ->
                d0 := Metrics.counter_value "label.denied";
                e0 := Metrics.counter_value "kernel.syscall_label_errors";
                match
                  Sys.gate_enter ~gate:(centry root gate) ~label:l1
                    ~clearance:l2 ()
                with
                | () -> ()
                | exception Kernel_error (Label_check m) -> msg := m)
          in
          join (fun () -> !msg <> ""));
      Alcotest.(check bool)
        "error names the clearance check (not ⊑ C_G)" true
        (contains !msg "not ⊑ C_G");
      Alcotest.(check bool)
        "label.denied incremented" true
        (Metrics.counter_value "label.denied" > !d0);
      Alcotest.(check bool)
        "kernel.syscall_label_errors incremented" true
        (Metrics.counter_value "kernel.syscall_label_errors" > !e0))

(* ---------- elided decisions never go stale ----------

   A decision served from the label cache ([label.elided]) is keyed on
   the thread's label, so anything that changes that label — picking
   up ownership through a gate, dropping a ⋆ — must flip the decision,
   never serve the old one. *)

let call_gate root gate ~label =
  Sys.gate_call ~gate:(centry root gate) ~label ~clearance:l2
    ~return_container:root
    ~return_label:(Sys.self_label ())
    ~return_clearance:(Sys.self_clearance ()) ()

let with_metrics f =
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled was) f

(* Requesting c⋆ from a gate is denied until the caller owns c, then
   allowed: the denied→allowed flip after an ownership transfer. *)
let test_decision_flips_on_ownership_transfer () =
  with_metrics (fun () ->
      let before = ref [] and after = ref [] and elided = ref 0 in
      in_kernel (fun root ->
          let c = Sys.cat_create () in
          let owned = l [ (c, Level.Star) ] Level.L1 in
          let svc =
            Sys.gate_create ~container:root ~label:l1 ~clearance:l2
              ~quota:4096L ~name:"svc" (fun () -> Sys.gate_return ())
          in
          let attempt () =
            match call_gate root svc ~label:owned with
            | () -> `Allowed
            | exception Kernel_error (Label_check _) -> `Denied
          in
          let grant =
            Sys.gate_create ~container:root ~label:owned ~clearance:l2
              ~quota:4096L ~name:"grant-c" (fun () ->
                after := [ attempt (); attempt () ];
                Sys.self_halt ())
          in
          let _reader =
            Sys.thread_create ~container:root ~label:l1 ~clearance:l2
              ~quota:65536L ~name:"reader" (fun () ->
                let e0 = Metrics.counter_value "label.elided" in
                before := [ attempt (); attempt () ];
                elided := Metrics.counter_value "label.elided" - e0;
                Sys.gate_enter ~gate:(centry root grant) ~label:owned
                  ~clearance:l2 ())
          in
          join (fun () -> !after <> []));
      Alcotest.(check bool) "repeat attempt served cached decisions" true
        (!elided > 0);
      Alcotest.(check bool) "denied before the transfer" true
        (!before = [ `Denied; `Denied ]);
      Alcotest.(check bool) "allowed after the transfer" true
        (!after = [ `Allowed; `Allowed ]))

(* Dropping the last ⋆ for c (the category is then garbage) flips the
   same request back to denied. *)
let test_decision_flips_on_category_gc () =
  in_kernel (fun root ->
      let c = Sys.cat_create () in
      let owned = l [ (c, Level.Star) ] Level.L1 in
      let svc =
        Sys.gate_create ~container:root ~label:l1 ~clearance:l2 ~quota:4096L
          ~name:"svc" (fun () -> Sys.gate_return ())
      in
      (* requesting c⋆ is only legal while the thread owns c *)
      call_gate root svc ~label:owned;
      call_gate root svc ~label:owned;
      Sys.self_set_label l1;
      expect_label_error (fun () -> call_gate root svc ~label:owned))

(* ---------- arithmetic regressions from differential fuzzing ----------

   Minimized by the model-conformance fuzzer (lib/check/conformance.ml);
   each was an int64 overflow or missing bound in quota accounting or
   segment addressing. The conformance copies live in test_model.ml;
   these pin the concrete kernel behaviour directly. *)

let near_max = Int64.sub Int64.max_int 100L

let test_charge_overflow_rejected () =
  (* Admission into a finite container must not wrap: quota - usage is
     the real headroom, and a near-max request exceeds it. *)
  in_kernel (fun root ->
      let c =
        Sys.container_create ~container:root ~label:l1 ~quota:near_max "c"
      in
      (match
         Sys.segment_create ~container:c ~label:l1
           ~quota:(Int64.sub Int64.max_int 1L) ~len:8 "huge"
       with
      | _ -> Alcotest.fail "over-committing segment was admitted"
      | exception Kernel_error (Quota _) -> ());
      (* The failed create must not have charged anything. *)
      let _, usage = Sys.obj_quota (centry root c) in
      Alcotest.(check int64) "usage untouched" 512L usage)

let test_infinite_usage_saturates () =
  (* The root container has infinite quota and skips admission, but its
     usage accounting still has to saturate rather than wrap negative
     when near-max bytes are moved out of it. *)
  in_kernel (fun root ->
      let sink =
        Sys.container_create ~container:root ~label:l1 ~quota:1024L "sink"
      in
      Sys.quota_move ~container:root ~target:sink
        ~nbytes:(Int64.sub Int64.max_int 2048L);
      let _, usage = Sys.obj_quota (centry root root) in
      Alcotest.(check int64) "root usage saturated at max" Int64.max_int usage;
      (* A second move now exceeds the sink's remaining headroom. *)
      match Sys.quota_move ~container:root ~target:sink ~nbytes:2048L with
      | () -> Alcotest.fail "second move wrapped the sink quota"
      | exception Kernel_error (Quota _) -> ())

let test_quota_move_target_wrap_rejected () =
  (* The target's quota field itself must not overflow when the source
     is infinite and can always supply more. *)
  in_kernel (fun root ->
      let s =
        Sys.segment_create ~container:root ~label:l1 ~quota:1024L ~len:8 "s"
      in
      Sys.quota_move ~container:root ~target:s
        ~nbytes:(Int64.sub Int64.max_int 2048L);
      (match Sys.quota_move ~container:root ~target:s ~nbytes:2048L with
      | () -> Alcotest.fail "second move wrapped the target quota"
      | exception Kernel_error (Quota _) -> ());
      let quota, _ = Sys.obj_quota (centry root s) in
      Alcotest.(check int64) "target quota at max - 1024"
        (Int64.sub Int64.max_int 1024L)
        quota)

let test_negative_offset_is_error () =
  (* A negative word offset in segment_cas used to raise
     Invalid_argument from Bytes and kill the thread; it must surface
     as an Invalid kernel error like any other bad address, and the
     thread must stay runnable. *)
  in_kernel (fun root ->
      let s =
        Sys.segment_create ~container:root ~label:l1 ~quota:1024L ~len:16 "s"
      in
      (match Sys.segment_cas (centry root s) ~off:(-8) ~expected:0L ~desired:7L with
      | _ -> Alcotest.fail "negative CAS offset accepted"
      | exception Kernel_error (Invalid _) -> ());
      (* Wakes at any offset with no waiters are harmless no-ops on
         both the kernel and the model. *)
      Alcotest.(check int) "no waiters woken" 0
        (Sys.futex_wake (centry root s) ~off:(-4) ~count:1);
      Alcotest.(check bool) "thread still runs" true
        (Sys.segment_cas (centry root s) ~off:8 ~expected:0L ~desired:7L))

(* ---------- allocation on the segment-syscall path ---------- *)

(* Minor words per call of [f] over 2,000 calls, measured inside one
   kernel thread after a warm-up call, so the count covers the whole
   round trip: request, dispatch, label-cache hits and response. At one
   domain the count is exact. The bounds sit about 20% above the
   measured 32 and 425 words; before the path was made allocation-lean
   the same calls took 121 and 1,991 words. *)
let words_per_call f =
  f ();
  let n = 2000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let check_words what ~bound w =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.1f words per call, bound %.0f" what w bound)
    true (w <= bound)

let test_segment_word_alloc () =
  in_kernel (fun root ->
      let s =
        Sys.segment_create ~container:root ~label:l1 ~quota:1024L ~len:64 "w"
      in
      let ce = centry root s in
      words_per_call (fun () -> ignore (Sys.segment_word ce ~off:8)))
  |> check_words "Sys.segment_word" ~bound:40.

let test_pipe_round_trip_alloc () =
  in_kernel (fun root ->
      let p = Histar_unix.Pipe.create ~container:root ~label:l1 in
      words_per_call (fun () ->
          Histar_unix.Pipe.write p "8 bytes!";
          ignore (Histar_unix.Pipe.read p ~max:8)))
  |> check_words "8-byte pipe write + read" ~bound:520.

(* Words allocated so far, exactly, in both heaps: a block above the
   minor heap's size limit (a 5 KB reply) goes straight to the major
   heap, which [Gc.minor_words] does not see. [Gc.counters]'s major
   minus promoted words is that direct major allocation. *)
let words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* A gate call's TLS traffic with a 5 KB reply: the caller writes a
   short request, the callee overwrites it with the reply, the caller
   reads it back. With spare capacity, the reply's resize reuses the
   block the first call grew, so the read is the one 5 KB block a call
   allocates (about 640 words); when every resize allocated a block of
   the new length, each call allocated two. *)
let test_tls_reply_alloc () =
  let reply = String.make 5000 'r' in
  let w =
    in_kernel (fun _ ->
        let call () =
          Sys.tls_write "request";
          Sys.tls_write reply;
          ignore (Sys.tls_read ())
        in
        call ();
        let n = 200 in
        let w0 = words () in
        for _ = 1 to n do
          call ()
        done;
        (words () -. w0) /. float_of_int n)
  in
  check_words "5 KB TLS reply round trip" ~bound:880. w

(* ---------- syscall profile ---------- *)

(* A fixed program making 16 distinct syscalls, some several times. *)
let profile_program root =
  ignore (Sys.self_label ());
  ignore (Sys.self_clearance ());
  ignore (Sys.cat_create ());
  let d = Sys.container_create ~container:root ~label:l1 ~quota:65536L "d" in
  let s = Sys.segment_create ~container:d ~label:l1 ~quota:8192L ~len:8 "s" in
  Sys.segment_write (centry d s) "abcdefgh";
  for _ = 1 to 3 do
    ignore (Sys.segment_read (centry d s) ())
  done;
  ignore (Sys.segment_size (centry d s));
  Sys.segment_resize (centry d s) 16;
  Sys.segment_write (centry d s) ~off:8 "ijklmnop";
  ignore (Sys.obj_label (centry d s));
  ignore (Sys.obj_kind (centry d s));
  ignore (Sys.container_list (centry root d));
  ignore (Sys.futex_wake (centry d s) ~off:0 ~count:1);
  ignore (Sys.clock_ns ());
  Sys.yield ();
  Sys.unref (centry root d)

let profiled_kernel () =
  let k = Kernel.create () in
  let _tid = Kernel.spawn k ~name:"profiled" (fun () -> profile_program (Kernel.root k)) in
  Kernel.run k;
  k

(* Names, counts and order are pinned: perfbench's
   kernel.sys.<name>_per_op figures read them, so they must not move
   with the profile's representation. *)
let expected_profile =
  [
    ("segment_read", 3);
    ("segment_write", 2);
    ("cat_create", 1);
    ("clock_read", 1);
    ("container_create", 1);
    ("container_list", 1);
    ("futex_wake", 1);
    ("obj_get_kind", 1);
    ("obj_get_label", 1);
    ("segment_create", 1);
    ("segment_get_size", 1);
    ("segment_resize", 1);
    ("self_get_clearance", 1);
    ("self_get_label", 1);
    ("self_yield", 1);
    ("unref", 1);
  ]

let test_profile_fixed_program () =
  let p = Kernel.profile (profiled_kernel ()) in
  Alcotest.(check (list (pair string int))) "to_list" expected_profile
    (Profile.to_list p);
  Alcotest.(check int) "total"
    (List.fold_left (fun n (_, c) -> n + c) 0 expected_profile)
    (Profile.total p);
  List.iter
    (fun (name, c) -> Alcotest.(check int) ("count " ^ name) c (Profile.count p name))
    expected_profile

let test_profile_unknown_name () =
  let p = Kernel.profile (profiled_kernel ()) in
  Alcotest.(check int) "unknown name" 0 (Profile.count p "no_such_syscall");
  Alcotest.(check int) "named but never made" 0 (Profile.count p "gate_call");
  Alcotest.(check int) "empty name" 0 (Profile.count p "")

let test_profile_copy_reset () =
  let p = Kernel.profile (profiled_kernel ()) in
  let c = Profile.copy p in
  Alcotest.(check bool) "copy equal" true (Profile.equal p c);
  Profile.reset p;
  Alcotest.(check int) "reset total" 0 (Profile.total p);
  Alcotest.(check (list (pair string int))) "reset list" [] (Profile.to_list p);
  Alcotest.(check (list (pair string int))) "copy unaffected" expected_profile
    (Profile.to_list c);
  Alcotest.(check bool) "no longer equal" false (Profile.equal p c)

let test_profile_fork_resume () =
  let k = profiled_kernel () in
  let h = Kernel.fork k in
  let b = Kernel.resume h in
  Alcotest.(check bool) "resumed counts equal" true
    (Profile.equal (Kernel.profile k) (Kernel.profile b));
  (* The branch counts on its own copy. *)
  let _tid = Kernel.spawn b ~name:"branch" (fun () -> Sys.yield ()) in
  Kernel.run b;
  Alcotest.(check int) "branch counted" (Profile.total (Kernel.profile k) + 1)
    (Profile.total (Kernel.profile b));
  Alcotest.(check (list (pair string int))) "trunk unchanged" expected_profile
    (Profile.to_list (Kernel.profile k))

(* ---------- branchable kernel states (fork / resume) ---------- *)

let test_fork_resume_isolated () =
  let k = Kernel.create () in
  let seg = ref None in
  let _tid =
    Kernel.spawn k ~name:"setup" (fun () ->
        let s =
          Sys.segment_create ~container:(Kernel.root k) ~label:l1 ~quota:4096L
            ~len:6 "shared"
        in
        Sys.segment_write (centry (Kernel.root k) s) ~off:0 "trunk!";
        seg := Some s)
  in
  Kernel.run k;
  let s = Option.get !seg in
  let h = Kernel.fork k in
  (* Two independent branches off the same handle, each mutating the
     same segment differently; neither sees the other or the trunk. *)
  let run_branch data =
    let b = Kernel.resume h in
    let tid =
      Kernel.spawn b ~name:"branch" (fun () ->
          Sys.segment_write (centry (Kernel.root b) s) ~off:0 data)
    in
    ignore tid;
    Kernel.run b;
    Option.get (Kernel.segment_data b s)
  in
  let d1 = run_branch "brancA" in
  let d2 = run_branch "brancB" in
  Alcotest.(check string) "branch 1 sees its write" "brancA" d1;
  Alcotest.(check string) "branch 2 sees its write" "brancB" d2;
  Alcotest.(check (option string)) "trunk untouched" (Some "trunk!")
    (Kernel.segment_data k s);
  (* The handle captured the whole state: object population matches. *)
  Alcotest.(check int) "handle object count" (Kernel.object_count k)
    (Kernel.handle_object_count h)

let test_fork_resume_reruns_deterministically () =
  (* A resumed branch restarts its thread and replays the same suffix:
     generator state (oids, categories) was captured, so two resumes
     produce identical object ids. *)
  let k = Kernel.create () in
  let tid = Kernel.spawn k ~name:"setup" (fun () -> ignore (Sys.cat_create ())) in
  Kernel.run k;
  let h = Kernel.fork k in
  let run_once () =
    let b = Kernel.resume h in
    (* Resumed threads are halted (continuations don't serialize);
       re-arm the captured thread with a fresh body. *)
    Alcotest.(check (option Alcotest.string)) "resumed thread halted"
      (Some "halted")
      (match Kernel.thread_state b tid with
      | Some `Halted -> Some "halted"
      | Some `Ready -> Some "ready"
      | Some `Running -> Some "running"
      | Some `Blocked -> Some "blocked"
      | None -> None);
    let made = ref [] in
    Kernel.restart_thread b tid (fun () ->
        let s =
          Sys.segment_create ~container:(Kernel.root b) ~label:l1
            ~quota:1024L ~len:4 "s"
        in
        made := [ s ]);
    Kernel.run b;
    !made
  in
  Alcotest.(check (list int)) "same oids on both resumes" (run_once ())
    (run_once ())

let test_fork_after_destroy_and_create () =
  (* A second fork after the trunk destroyed one segment and created
     another captures exactly the trunk's live objects. *)
  let k = Kernel.create () in
  let root = Kernel.root k in
  let in_thread f =
    let r = ref None in
    let _tid = Kernel.spawn k ~name:"step" (fun () -> r := Some (f ())) in
    Kernel.run k;
    Option.get !r
  in
  let make data =
    in_thread (fun () ->
        let s =
          Sys.segment_create ~container:root ~label:l1 ~quota:4096L
            ~len:(String.length data) "seg"
        in
        Sys.segment_write (centry root s) ~off:0 data;
        s)
  in
  let doomed = make "doomed" in
  let _kept = make "kept" in
  let first = Kernel.fork k in
  Alcotest.(check bool) "first fork holds the doomed segment" true
    (Kernel.obj_kind (Kernel.resume first) doomed <> None);
  in_thread (fun () -> Sys.unref (centry root doomed));
  let fresh = make "fresh!" in
  let h = Kernel.fork k in
  let b = Kernel.resume h in
  Alcotest.(check int) "handle holds the trunk's live objects"
    (Kernel.object_count k)
    (Kernel.handle_object_count h);
  Alcotest.(check int) "resumed object count" (Kernel.object_count k)
    (Kernel.object_count b);
  Alcotest.(check (option string)) "new segment's bytes" (Some "fresh!")
    (Kernel.segment_data b fresh);
  Alcotest.(check bool) "destroyed oid absent" true
    (Kernel.obj_kind b doomed = None);
  Alcotest.(check bool) "same container children" true
    (Kernel.container_children b root = Kernel.container_children k root)

let test_restart_thread_rejects_non_thread () =
  let k = Kernel.create () in
  match Kernel.restart_thread k (Kernel.root k) (fun () -> ()) with
  | () -> Alcotest.fail "restarted a container"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "histar_kernel"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "spawn runs" `Quick test_spawn_runs;
          Alcotest.test_case "default labels" `Quick test_self_label_default;
          Alcotest.test_case "cat_create grants star" `Quick
            test_cat_create_grants_star;
          Alcotest.test_case "categories distinct" `Quick
            test_categories_distinct;
        ] );
      ( "self labels",
        [
          Alcotest.test_case "taint self" `Quick test_taint_self_ok;
          Alcotest.test_case "clearance bound" `Quick
            test_cannot_exceed_clearance;
          Alcotest.test_case "no label lowering" `Quick test_cannot_lower_label;
          Alcotest.test_case "clearance raise needs ownership" `Quick
            test_raise_clearance_owned_only;
          Alcotest.test_case "clearance lowering" `Quick test_lower_clearance_ok;
        ] );
      ( "segments",
        [
          Alcotest.test_case "read/write/resize" `Quick test_segment_rw;
          Alcotest.test_case "bounds" `Quick test_segment_oob;
          Alcotest.test_case "tainted unreadable" `Quick
            test_tainted_segment_unreadable;
          Alcotest.test_case "taint to read" `Quick test_taint_to_read;
          Alcotest.test_case "no write down" `Quick
            test_tainted_thread_cannot_write_down;
          Alcotest.test_case "integrity protection" `Quick
            test_integrity_write_protection;
          Alcotest.test_case "copy with new label" `Quick
            test_segment_copy_new_label;
          Alcotest.test_case "shrink then grow reads zeros" `Quick
            test_segment_shrink_grow_zeros;
          Check.test_case ~count:300
            ~print:(fun ops -> String.concat "; " (List.map print_seg_op ops))
            "random ops match a Bytes reference" (Gen.list gen_seg_op)
            prop_segment_reference;
          Alcotest.test_case "immutable" `Quick test_immutable;
          Alcotest.test_case "tls per thread" `Quick test_tls_per_thread;
        ] );
      ( "containers",
        [
          Alcotest.test_case "entries require read" `Quick
            test_container_entries_require_read;
          Alcotest.test_case "self entry" `Quick test_container_self_entry;
          Alcotest.test_case "recursive unref" `Quick test_unref_recursive;
          Alcotest.test_case "hard links" `Quick test_hard_link_keeps_alive;
          Alcotest.test_case "children in oid order" `Quick
            test_children_in_oid_order;
          Alcotest.test_case "link needs fixed quota" `Quick
            test_link_requires_fixed_quota;
          Alcotest.test_case "quota exhaustion" `Quick test_quota_exhaustion;
          Alcotest.test_case "quota move" `Quick test_quota_move;
          Alcotest.test_case "segment growth bounded" `Quick
            test_segment_growth_bounded_by_quota;
          Alcotest.test_case "avoid types" `Quick test_avoid_types;
        ] );
      ( "threads",
        [
          Alcotest.test_case "refused create leaves nothing" `Quick
            test_refused_create_leaves_nothing;
          Alcotest.test_case "label rules" `Quick test_thread_label_rules;
          Alcotest.test_case "clearance bound" `Quick
            test_thread_clearance_bound;
          Alcotest.test_case "alert wakes" `Quick test_alert_wakes;
          Alcotest.test_case "alert needs AS write" `Quick
            test_alert_requires_as_write;
        ] );
      ( "futexes",
        [
          Alcotest.test_case "wait/wake" `Quick test_futex_wait_wake;
          Alcotest.test_case "value mismatch" `Quick
            test_futex_value_mismatch_returns;
          Alcotest.test_case "wake skips a restarted waiter" `Quick
            test_futex_wake_skips_restarted;
          Alcotest.test_case "host wake skips a restarted waiter" `Quick
            test_host_wake_skips_restarted;
          Alcotest.test_case "wait_until syscall profile" `Quick
            test_wait_until_profile;
        ] );
      ( "gates",
        [
          Alcotest.test_case "grant privilege" `Quick test_gate_grants_privilege;
          Alcotest.test_case "no self-grant" `Quick test_gate_cannot_self_grant;
          Alcotest.test_case "clearance gates invocation" `Quick
            test_gate_clearance_gates_invocation;
          Alcotest.test_case "call round trip" `Quick test_gate_call_round_trip;
          Alcotest.test_case "privilege restored" `Quick
            test_gate_call_restores_privilege;
          Alcotest.test_case "return gate single use" `Quick
            test_return_gate_single_use;
        ] );
      ( "devices",
        [
          Alcotest.test_case "send/recv with taint" `Quick test_netdev_taint;
          Alcotest.test_case "untainted cannot recv" `Quick
            test_netdev_untainted_cannot_recv;
          Alcotest.test_case "vpn taint cannot send" `Quick
            test_netdev_vpn_tainted_cannot_send;
        ] );
      ( "blocked index",
        [
          Alcotest.test_case "timer ties wake in tid order" `Quick
            test_timer_ties_wake_in_tid_order;
          Alcotest.test_case "destroyed sleeper never woken" `Quick
            test_destroyed_sleeper_never_woken;
          Alcotest.test_case "alerted sleeper never woken by timer" `Quick
            test_alerted_sleeper_never_woken_by_timer;
          Alcotest.test_case "frame for destroyed waiter stays queued" `Quick
            test_frame_for_destroyed_waiter_stays_queued;
        ] );
      ( "virtual time",
        [
          Alcotest.test_case "usleep past the end refused" `Quick
            test_usleep_past_end_refused;
          Alcotest.test_case "sleep until the last ns" `Quick
            test_sleep_until_end_of_time;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "checkpoint/recover" `Quick test_checkpoint_recover;
          Alcotest.test_case "sync object" `Quick test_sync_object_path;
          Alcotest.test_case "sync_range after recover" `Quick
            test_sync_range_after_recover;
        ] );
      ( "label cache",
        [
          Check.test_case ~print:print_label_pairs
            "differential vs uncached relations"
            (Gen.list (Gen.pair gen_label gen_label))
            prop_label_cache_differential;
          Alcotest.test_case "invalidated by gate ownership transfer" `Quick
            test_label_cache_gate_transfer;
          Alcotest.test_case "gate denial message and counters" `Quick
            test_gate_denied_message_and_counters;
          Alcotest.test_case "hits independent of GC timing" `Quick
            test_label_cache_gc_independent;
        ] );
      ( "elision",
        [
          Alcotest.test_case "invalidated by ownership transfer" `Quick
            test_decision_flips_on_ownership_transfer;
          Alcotest.test_case "invalidated by category GC" `Quick
            test_decision_flips_on_category_gc;
        ] );
      ("flow oracle", [ prop_flow_oracle ]);
      ( "fuzzer regressions",
        [
          Alcotest.test_case "finite-charge overflow rejected" `Quick
            test_charge_overflow_rejected;
          Alcotest.test_case "infinite usage saturates" `Quick
            test_infinite_usage_saturates;
          Alcotest.test_case "quota_move target wrap rejected" `Quick
            test_quota_move_target_wrap_rejected;
          Alcotest.test_case "negative segment offsets are errors" `Quick
            test_negative_offset_is_error;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "segment_word words per call" `Quick
            test_segment_word_alloc;
          Alcotest.test_case "pipe round trip words per call" `Quick
            test_pipe_round_trip_alloc;
          Alcotest.test_case "5 KB TLS reply words per call" `Quick
            test_tls_reply_alloc;
        ] );
      ( "profile",
        [
          Alcotest.test_case "fixed program's counts" `Quick
            test_profile_fixed_program;
          Alcotest.test_case "unknown name counts 0" `Quick
            test_profile_unknown_name;
          Alcotest.test_case "copy survives reset" `Quick test_profile_copy_reset;
          Alcotest.test_case "fork/resume keeps counts" `Quick
            test_profile_fork_resume;
        ] );
      ( "branchable states",
        [
          Alcotest.test_case "fork/resume isolation" `Quick
            test_fork_resume_isolated;
          Alcotest.test_case "resume is deterministic" `Quick
            test_fork_resume_reruns_deterministically;
          Alcotest.test_case "fork after destroy and create" `Quick
            test_fork_after_destroy_and_create;
          Alcotest.test_case "restart guard" `Quick
            test_restart_thread_rejects_non_thread;
        ] );
    ]
