module Kernel = Histar_core.Kernel
module Sys = Histar_core.Sys
module Label = Histar_label.Label
module Level = Histar_label.Level
module Lio = Histar_lio.Lio
module Par = Histar_par.Par
module Mlabel = Histar_model.Mlabel
module Mlio = Histar_model.Mlio
open Histar_core.Types

(* ------------------------------------------------------------------ *)
(* Twin-trace programs                                                *)
(* ------------------------------------------------------------------ *)

type stmt =
  | S_write_low of int * string
  | S_write_high of int * string
  | S_write_low_reg of int
  | S_write_high_reg of int
  | S_read_low of int
  | S_read_high of int
  | S_unlabel_last
  | S_throw_if_odd of int
  | S_alloc_high
  | S_to_labeled_low of stmt list
  | S_to_labeled_high of stmt list
  | S_catch of stmt list * stmt list

exception Prog_throw

let rec twin_stmt = function
  | S_write_high (i, s) -> S_write_high (i, s ^ "'")
  | S_to_labeled_low b -> S_to_labeled_low (twin_prog b)
  | S_to_labeled_high b -> S_to_labeled_high (twin_prog b)
  | S_catch (b, h) -> S_catch (twin_prog b, twin_prog h)
  | s -> s

and twin_prog prog = List.map twin_stmt prog

let rec pp_stmt = function
  | S_write_low (i, s) -> Printf.sprintf "write_low(%d,%S)" i s
  | S_write_high (i, s) -> Printf.sprintf "write_high(%d,%S)" i s
  | S_write_low_reg i -> Printf.sprintf "write_low_reg(%d)" i
  | S_write_high_reg i -> Printf.sprintf "write_high_reg(%d)" i
  | S_read_low i -> Printf.sprintf "read_low(%d)" i
  | S_read_high i -> Printf.sprintf "read_high(%d)" i
  | S_unlabel_last -> "unlabel_last"
  | S_throw_if_odd i -> Printf.sprintf "throw_if_odd(%d)" i
  | S_alloc_high -> "alloc_high"
  | S_to_labeled_low b -> Printf.sprintf "to_labeled_low%s" (pp_prog b)
  | S_to_labeled_high b -> Printf.sprintf "to_labeled_high%s" (pp_prog b)
  | S_catch (b, h) -> Printf.sprintf "catch%s%s" (pp_prog b) (pp_prog h)

and pp_prog prog = "[" ^ String.concat "; " (List.map pp_stmt prog) ^ "]"

(* Literal lengths deliberately mix parities: the twin transform
   appends one byte, so throw_if_odd branches differently between the
   twins exactly when it reads a twin-varied value. *)
let gen_lit = Gen.choose [ "a"; "bb"; "ccc"; "dddd" ]
let gen_idx = Gen.int_range 0 2

let gen_prog : stmt list Gen.t =
  let open Gen in
  let base =
    [
      (3, map2 (fun i s -> S_write_low (i, s)) gen_idx gen_lit);
      (4, map2 (fun i s -> S_write_high (i, s)) gen_idx gen_lit);
      (2, map (fun i -> S_write_low_reg i) gen_idx);
      (2, map (fun i -> S_write_high_reg i) gen_idx);
      (2, map (fun i -> S_read_low i) gen_idx);
      (3, map (fun i -> S_read_high i) gen_idx);
      (2, return S_unlabel_last);
      (3, map (fun i -> S_throw_if_odd i) gen_idx);
      (2, return S_alloc_high);
    ]
  in
  let rec stmt depth =
    if depth = 0 then frequency base
    else
      let sub = resize 4 (list (stmt (depth - 1))) in
      frequency
        (base
        @ [
            (2, map (fun b -> S_to_labeled_low b) sub);
            (2, map (fun b -> S_to_labeled_high b) sub);
            (1, map2 (fun b h -> S_catch (b, h)) sub sub);
          ])
  in
  list (stmt 2)

(* ------------------------------------------------------------------ *)
(* Interpreter                                                        *)
(* ------------------------------------------------------------------ *)

type world = {
  w_ctx : Lio.ctx;
  w_hi : Label.t;
  w_lows : Lio.lref array;
  w_highs : Lio.lref array;
}

let low = Label.make Level.L1

(* Run a program against the LIO layer, inside the kernel thread.
   Denied operations are no-ops (the denial itself is label-determined,
   so twins agree on it); Prog_throw is the program's own control flow
   and propagates — to the nearest catch, or to the top level, where it
   ends the program.

   The host-level [reg] register must never become a side channel
   around the labels: every write to it goes through read_ref/unlabel
   (which taint first), and to_labeled blocks run on a private copy
   seeded from the outer register — sound because the to_labeled entry
   check already demands current ⊑ block label, and reg's content is
   always covered by the current label. *)
let interp w prog =
  let last = ref (Lio.label low "") in
  let rec exec reg = function
    | S_write_low (i, s) -> Lio.write_ref w.w_lows.(i) s
    | S_write_high (i, s) -> Lio.write_ref w.w_highs.(i) s
    | S_write_low_reg i -> Lio.write_ref w.w_lows.(i) !reg
    | S_write_high_reg i -> Lio.write_ref w.w_highs.(i) !reg
    | S_read_low i -> reg := Lio.read_ref w.w_lows.(i)
    | S_read_high i -> reg := Lio.read_ref w.w_highs.(i)
    | S_unlabel_last -> reg := Lio.unlabel !last
    | S_throw_if_odd i ->
        reg := Lio.read_ref w.w_highs.(i);
        if String.length !reg land 1 = 1 then raise Prog_throw
    | S_alloc_high -> ignore (Lio.new_ref w.w_ctx ~name:"dyn high" w.w_hi !reg)
    | S_to_labeled_low body ->
        last := Lio.to_labeled w.w_ctx low (fun () -> block reg body)
    | S_to_labeled_high body ->
        last := Lio.to_labeled w.w_ctx w.w_hi (fun () -> block reg body)
    | S_catch (body, handler) ->
        Lio.catch w.w_ctx
          (fun () -> List.iter (guarded reg) body)
          (fun _ -> List.iter (guarded reg) handler)
  and block reg body =
    let inner = ref !reg in
    List.iter (guarded inner) body;
    !inner
  and guarded reg s =
    try exec reg s with Lio.Lio_error _ | Kernel_error _ -> ()
  in
  let reg = ref "" in
  try List.iter (guarded reg) prog with Prog_throw -> ()

(* ------------------------------------------------------------------ *)
(* Low projection                                                     *)
(* ------------------------------------------------------------------ *)

(* Everything the projection emits is canonical: objects are named by
   descrip plus order of first appearance (never raw oids — a twin
   that allocates a different number of high objects shifts every
   subsequent oid), categories by their index in the world's category
   table (never raw ids or intern ids), and no metrics, elision
   counters, quotas or clock values appear at all. *)

type canon = {
  c_names : (oid, string) Hashtbl.t;
  c_counts : (string, int) Hashtbl.t;
  c_cats : int list;
}

let canon_make cats =
  {
    c_names = Hashtbl.create 16;
    c_counts = Hashtbl.create 16;
    c_cats = cats;
  }

let canon_name canon k oid =
  match Hashtbl.find_opt canon.c_names oid with
  | Some n -> n
  | None ->
      let d = Option.value ~default:"?" (Kernel.obj_descrip k oid) in
      let c = Option.value ~default:0 (Hashtbl.find_opt canon.c_counts d) in
      Hashtbl.replace canon.c_counts d (c + 1);
      let n = Printf.sprintf "%s#%d" d c in
      Hashtbl.replace canon.c_names oid n;
      n

let rank_name r = [| "*"; "0"; "1"; "2"; "3"; "J" |].(r)

let canon_label canon l =
  let entries, default = Label.ranked l in
  let cat_idx id =
    let rec go i = function
      | [] -> Printf.sprintf "?%d" id
      | c :: tl -> if Int.equal c id then Printf.sprintf "c%d" i else go (i + 1) tl
    in
    go 0 canon.c_cats
  in
  Printf.sprintf "{%s%s}"
    (String.concat ""
       (List.map
          (fun (id, r) -> Printf.sprintf "%s:%s, " (cat_idx id) (rank_name r))
          entries))
    (rank_name default)

let kind_name = function
  | Segment -> "segment"
  | Thread -> "thread"
  | Address_space -> "as"
  | Gate -> "gate"
  | Container -> "container"
  | Device -> "device"

(* The low view of one finished run: the low-visible trace events (an
   untainted thread touching a low-labeled object) followed by the
   low-readable final state, walked from the root. Threads are skipped
   in the walk — their observable behavior is already the trace. *)
let project k ~canon ~events =
  let visible l = Label.leq l low in
  let ev_lines =
    List.filter_map
      (fun e ->
        if visible e.Kernel.ev_thread_label && visible e.Kernel.ev_obj_label
        then
          Some
            (Printf.sprintf "ev %s %s %s"
               (match e.Kernel.ev_dir with
               | `Observe -> "observe"
               | `Modify -> "modify")
               e.Kernel.ev_op
               (canon_name canon k e.Kernel.ev_obj))
        else None)
      events
  in
  let lines = ref [] in
  let emit s = lines := s :: !lines in
  let rec walk oid =
    match Kernel.obj_kind k oid with
    | None -> ()
    | Some Thread -> ()
    | Some kind -> (
        let lbl = Kernel.obj_label k oid in
        match lbl with
        | Some l when visible l ->
            let data =
              match Kernel.segment_data k oid with
              | Some d -> Printf.sprintf " data=%S" d
              | None -> ""
            in
            emit
              (Printf.sprintf "obj %s kind=%s label=%s%s"
                 (canon_name canon k oid) (kind_name kind) (canon_label canon l)
                 data);
            if kind = Container then
              List.iter
                (fun (child, _) -> walk child)
                (Option.value ~default:[] (Kernel.container_children k oid))
        | _ -> ())
  in
  walk (Kernel.root k);
  ev_lines @ List.rev !lines

(* ------------------------------------------------------------------ *)
(* The harness                                                        *)
(* ------------------------------------------------------------------ *)

type base = {
  b_handle : Kernel.handle;
  b_tid : oid;
  b_world : world;
  b_cats : int list;
}

(* Shared prologue: one kernel, one thread that mints the secrecy
   category, builds the LIO context (low scratch + high scratch) and
   the named low/high refs — then halts. Both twins fork from here, so
   they agree bit-for-bit on every generator stream at the divergence
   point. *)
let build_base () =
  let k = Kernel.create () in
  let cell = ref None in
  let tid =
    Kernel.spawn k ~name:"twin-main" (fun () ->
        let s = Sys.cat_create () in
        let hi = Label.of_list [ (s, Level.L3) ] Level.L1 in
        let ctx = Lio.init ~levels:[ hi ] ~container:(Kernel.root k) () in
        let w_lows =
          Array.init 3 (fun i ->
              Lio.new_ref ctx ~name:(Printf.sprintf "low%d" i) low "init")
        in
        let w_highs =
          Array.init 3 (fun i ->
              Lio.new_ref ctx ~name:(Printf.sprintf "high%d" i) hi "init")
        in
        cell := Some ({ w_ctx = ctx; w_hi = hi; w_lows; w_highs }, (s :> int)))
  in
  Kernel.run k;
  match !cell with
  | Some (world, cat) ->
      { b_handle = Kernel.fork k; b_tid = tid; b_world = world; b_cats = [ cat ] }
  | None -> failwith "noninterference: prologue did not run"

let run_variant base prog =
  let k = Kernel.resume base.b_handle in
  let events = ref [] in
  Kernel.set_trace k (Some (fun e -> events := e :: !events));
  Kernel.restart_thread k base.b_tid (fun () -> interp base.b_world prog);
  Kernel.run k;
  Kernel.set_trace k None;
  let canon = canon_make base.b_cats in
  project k ~canon ~events:(List.rev !events)

let check_twins ?weaken prog =
  Lio.set_weaken weaken;
  Fun.protect
    ~finally:(fun () -> Lio.set_weaken None)
    (fun () ->
      let base = build_base () in
      let a = run_variant base prog in
      let b = run_variant base (twin_prog prog) in
      (a, b))

let diff_report prog a b =
  let rec first_diff i = function
    | x :: xs, y :: ys when String.equal x y -> first_diff (i + 1) (xs, ys)
    | x :: _, y :: _ -> Printf.sprintf "line %d:\n  A: %s\n  B: %s" i x y
    | x :: _, [] -> Printf.sprintf "line %d only in A: %s" i x
    | [], y :: _ -> Printf.sprintf "line %d only in B: %s" i y
    | [], [] -> "(no diff?)"
  in
  Printf.sprintf
    "low views diverge — noninterference violated\nprogram: %s\nfirst \
     divergence at %s\n--- low view A (%d lines)\n%s\n--- low view B (%d \
     lines)\n%s"
    (pp_prog prog)
    (first_diff 0 (a, b))
    (List.length a) (String.concat "\n" a) (List.length b)
    (String.concat "\n" b)

let prop ?weaken prog =
  let a, b = check_twins ?weaken prog in
  if not (List.equal String.equal a b) then failwith (diff_report prog a b)

(* Deterministic program schedule shared by the digest suite and the
   mutant hunt, so "catch index" means the same thing in both. *)
let prog_at ~seed i =
  let si = Int64.add (Int64.mul 0x2545F4914F6CDD1DL (Int64.of_int i)) seed in
  Gen.generate gen_prog ~seed:si ~size:(4 + (i mod 27))

(* Twin pairs are index-seeded and mutually independent, so the suite
   fans out on the lib/par pool: pair [i] runs as task [i] against its
   own fresh prologue, results join in index order, and the digest is
   computed from the ordered concatenation — byte-identical to the
   sequential loop at any HISTAR_DOMAINS. A failing pair surfaces as
   the lowest failing index, exactly what the sequential scan would
   have reported first. *)
let suite_digest ?domains ?(count = 500) ?(seed = Check.default_seed) () =
  let results =
    Par.run ?domains count (fun i ->
        let prog = prog_at ~seed i in
        let a, b = check_twins prog in
        (prog, a, b))
  in
  let buf = Buffer.create 4096 in
  Array.iteri
    (fun i (prog, a, b) ->
      if not (List.equal String.equal a b) then
        failwith (Printf.sprintf "pair %d: %s" i (diff_report prog a b));
      List.iter
        (fun l ->
          Buffer.add_string buf l;
          Buffer.add_char buf '\n')
        a)
    results;
  (count, Digest.to_hex (Digest.string (Buffer.contents buf)))

(* Chunked scan: evaluate a pool-width batch of indices concurrently,
   then take the first catch in index order — the same smallest index
   the sequential scan returns, with wasted work bounded by one
   chunk. *)
let catch_index ?domains ~weaken ?(seed = Check.default_seed) ?(budget = 2000)
    () =
  let d =
    match domains with Some d -> max 1 d | None -> Par.domains ()
  in
  let chunk = max d (min budget (4 * d)) in
  let rec go i =
    if i >= budget then None
    else begin
      let n = min chunk (budget - i) in
      let caught =
        Par.run ?domains n (fun j ->
            let prog = prog_at ~seed (i + j) in
            match prop ~weaken prog with
            | () -> None
            | exception Failure _ -> Some (i + j, prog))
      in
      match Array.to_list caught |> List.filter_map Fun.id with
      | hit :: _ -> Some hit
      | [] -> go (i + n)
    end
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Differential test: Lio vs the Mlio reference                       *)
(* ------------------------------------------------------------------ *)

type lspec = (int * int) list

type lop =
  | L_taint of lspec
  | L_label of lspec
  | L_to_labeled of lspec * lop list
  | L_catch of lop list * bool

let pp_lspec sp =
  "{"
  ^ String.concat ","
      (List.map (fun (i, r) -> Printf.sprintf "c%d:%d" i r) sp)
  ^ "}"

let rec pp_lop = function
  | L_taint sp -> "taint" ^ pp_lspec sp
  | L_label sp -> "label" ^ pp_lspec sp
  | L_to_labeled (sp, b) -> "to_labeled" ^ pp_lspec sp ^ pp_lops b
  | L_catch (b, t) -> Printf.sprintf "catch%s(throw=%b)" (pp_lops b) t

and pp_lops ops = "[" ^ String.concat "; " (List.map pp_lop ops) ^ "]"

let gen_lops : lop list Gen.t =
  let open Gen in
  let spec = resize 3 (list (pair (int_range 0 3) (int_range 0 3))) in
  let rec op depth =
    if depth = 0 then
      frequency [ (3, map (fun s -> L_taint s) spec); (2, map (fun s -> L_label s) spec) ]
    else
      let sub = resize 4 (list (op (depth - 1))) in
      frequency
        [
          (3, map (fun s -> L_taint s) spec);
          (2, map (fun s -> L_label s) spec);
          (2, map2 (fun s b -> L_to_labeled (s, b)) spec sub);
          (1, map2 (fun b t -> L_catch (b, t)) sub bool);
        ]
  in
  list (op 2)

exception Body_throw

(* Both sides record one line per operation (plus a line at every scope
   exit), rendering labels canonically over the category-index table.
   The real side runs on a live kernel through lib/lio; the model side
   folds the same ops through the pure Mlio state machine. *)

let mlabel_of_spec sp =
  Mlabel.of_entries
    (List.map (fun (i, r) -> (i, r + 1)) sp)
    Mlabel.l1

let render_state cur clear = Printf.sprintf "cur=%s clear=%s" cur clear

let real_trajectory ops =
  let k = Kernel.create () in
  let out = ref [] in
  let record s = out := s :: !out in
  let _tid =
    Kernel.spawn k ~name:"lio-diff" (fun () ->
        let cats = Array.init 4 (fun _ -> Sys.cat_create ()) in
        (* Keep ownership of c0/c1, drop c2/c3 back to the default:
           both owned and non-owned taint paths get exercised. *)
        Sys.self_set_label
          (Label.set (Label.set (Sys.self_label ()) cats.(2) Level.L1)
             cats.(3) Level.L1);
        let ctx = Lio.init ~container:(Kernel.root k) () in
        let label_of_spec sp =
          Label.of_list
            (List.map (fun (i, r) -> (cats.(i), Level.of_rank (r + 1))) sp)
            Level.L1
        in
        let conv l =
          let entries, default = Label.ranked l in
          let idx id =
            let rec go i =
              if i >= 4 then 99
              else if Int.equal (cats.(i) :> int) id then i
              else go (i + 1)
            in
            go 0
          in
          (* Render sorted by category index: the raw ids sort in mint
             order only by accident, and the model side sorts by its
             own 0..3 ids. *)
          let indexed =
            List.sort compare (List.map (fun (id, r) -> (idx id, r)) entries)
          in
          "{"
          ^ String.concat ","
              (List.map (fun (i, r) -> Printf.sprintf "c%d:%d" i r) indexed)
          ^ Printf.sprintf "|%d}" default
        in
        let state () =
          render_state (conv (Sys.self_label ())) (conv (Sys.self_clearance ()))
        in
        let rec run ops = List.iter step ops
        and step = function
          | L_taint sp ->
              let v =
                try
                  Lio.taint (label_of_spec sp);
                  "ok"
                with Kernel_error _ -> "deny"
              in
              record (Printf.sprintf "taint %s %s" v (state ()))
          | L_label sp ->
              let v =
                try
                  ignore (Lio.label (label_of_spec sp) 0);
                  "ok"
                with Lio.Lio_error _ -> "deny"
              in
              record (Printf.sprintf "label %s %s" v (state ()))
          | L_to_labeled (sp, body) -> (
              match
                Lio.to_labeled ctx (label_of_spec sp) (fun () ->
                    record (Printf.sprintf "enter ok %s" (state ()));
                    run body)
              with
              | _ -> record (Printf.sprintf "exit %s" (state ()))
              | exception Lio.Lio_error _ ->
                  record (Printf.sprintf "enter deny %s" (state ())))
          | L_catch (body, throws) -> (
              (* A tainted thread may have no scratch container it can
                 modify (the differential runs with the default {1}
                 scratch only) — scope creation itself is then denied.
                 Placement is label-determined, so the model mirrors
                 the same rule below. *)
              match
                Lio.catch ctx
                  (fun () ->
                    run body;
                    if throws then raise Body_throw)
                  (fun _ -> ())
              with
              | () -> record (Printf.sprintf "caught ok %s" (state ()))
              | exception Lio.Lio_error _ ->
                  record (Printf.sprintf "caught deny %s" (state ())))
        in
        run ops)
  in
  Kernel.run k;
  List.rev !out

let model_trajectory ops =
  let out = ref [] in
  let record s = out := s :: !out in
  let conv m =
    "{"
    ^ String.concat ","
        (List.map
           (fun (id, r) -> Printf.sprintf "c%d:%d" id r)
           (Mlabel.entries m))
    ^ Printf.sprintf "|%d}" (Mlabel.default m)
  in
  let init =
    Mlio.make
      ~cur:(Mlabel.of_entries [ (0, Mlabel.star); (1, Mlabel.star) ] Mlabel.l1)
      ~clear:
        (Mlabel.of_entries
           (List.map (fun i -> (i, Mlabel.l3)) [ 0; 1; 2; 3 ])
           Mlabel.l2)
  in
  let st = ref init in
  let state () = render_state (conv (Mlio.cur !st)) (conv (Mlio.clear !st)) in
  (* The real runner's ctx has only the default {1} scratch, so a scope
     is possible exactly when the current label can modify a {1} object
     — the same placement rule lib/lio's scratch_for applies. *)
  let can_scope () =
    Mlabel.can_modify ~thread:(Mlio.cur !st) ~obj:(Mlabel.make Mlabel.l1)
  in
  let rec run ops = List.iter step ops
  and step = function
    | L_taint sp ->
        let v =
          match Mlio.taint !st (mlabel_of_spec sp) with
          | Ok st' ->
              st := st';
              "ok"
          | Error () -> "deny"
        in
        record (Printf.sprintf "taint %s %s" v (state ()))
    | L_label sp ->
        let v = if Mlio.label_ok !st (mlabel_of_spec sp) then "ok" else "deny" in
        record (Printf.sprintf "label %s %s" v (state ()))
    | L_to_labeled (sp, body) -> (
        let pre = !st in
        match
          if can_scope () then Mlio.enter_to_labeled !st (mlabel_of_spec sp)
          else Error ()
        with
        | Ok st' ->
            st := st';
            record (Printf.sprintf "enter ok %s" (state ()));
            run body;
            st := Mlio.exit_scope ~pre ~keep_acquired:false !st;
            record (Printf.sprintf "exit %s" (state ()))
        | Error () -> record (Printf.sprintf "enter deny %s" (state ())))
    | L_catch (body, _throws) ->
        if not (can_scope ()) then
          record (Printf.sprintf "caught deny %s" (state ()))
        else begin
          let pre = !st in
          st := Mlio.enter_catch !st;
          run body;
          let final = Mlio.cur !st in
          st := Mlio.exit_scope ~pre ~keep_acquired:true !st;
          (match Mlio.taint !st final with Ok st' -> st := st' | Error () -> ());
          record (Printf.sprintf "caught ok %s" (state ()))
        end
  in
  run ops;
  List.rev !out

let prop_lio_model_diff ops =
  let real = real_trajectory ops in
  let model = model_trajectory ops in
  if not (List.equal String.equal real model) then
    failwith
      (Printf.sprintf
         "lio/model trajectories diverge\nops: %s\n--- real\n%s\n--- model\n%s"
         (pp_lops ops)
         (String.concat "\n" real)
         (String.concat "\n" model))
