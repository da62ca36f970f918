(* Differential execution of syscall traces against the real kernel
   and the pure reference model, plus the coverage-guided fuzz loop.
   See conformance.mli for the trace/slot conventions. *)

module Kernel = Histar_core.Kernel
module Sys = Histar_core.Sys
module T = Histar_core.Types
module Sc = Histar_core.Syscall
module Profile = Histar_core.Profile
module Label = Histar_label.Label
module Level = Histar_label.Level
module Category = Histar_label.Category
module Metrics = Histar_metrics.Metrics
module Model = Histar_model.Model
module Mlabel = Histar_model.Mlabel
module Rng = Histar_util.Rng
module Par = Histar_par.Par

type lspec = { ls_def : int; ls_ents : (int * int) list }

type op =
  | O_cat_create
  | O_self_get_label
  | O_self_get_clearance
  | O_self_set_label of lspec
  | O_self_set_clearance of lspec
  | O_get_label of int * int
  | O_get_kind of int * int
  | O_get_descrip of int * int
  | O_get_quota of int * int
  | O_set_fixed_quota of int * int
  | O_set_immutable of int * int
  | O_get_metadata of int * int
  | O_set_metadata of int * int * string
  | O_unref of int * int
  | O_quota_move of int * int * int64
  | O_container_create of int * lspec * int64 * Model.kind list
  | O_container_list of int * int
  | O_container_get_parent of int * int
  | O_container_link of int * (int * int)
  | O_segment_create of int * lspec * int64 * int
  | O_segment_read of (int * int) * int * int
  | O_segment_write of (int * int) * int * string
  | O_segment_resize of (int * int) * int
  | O_segment_get_size of int * int
  | O_segment_copy of (int * int) * int * lspec * int64
  | O_segment_cas of (int * int) * int * int64 * int64
  | O_as_create of int * lspec * int64
  | O_as_get of int * int
  | O_as_map of (int * int) * int64 * (int * int) * int * int
  | O_as_unmap of (int * int) * int64
  | O_thread_create of int * lspec * lspec * int64
  | O_gate_create of int * lspec * lspec * int64 * bool
  | O_gate_create_oneshot of int * lspec * lspec * int64 * bool
  | O_gate_call of (int * int) * lspec option * lspec option * lspec * int
  | O_taint_to_read of int * int
  | O_futex_wake of (int * int) * int * int
  | O_sync_object of int * int

type outcome =
  | Ok_unit
  | Ok_bool of bool
  | Ok_bytes of string
  | Ok_int of int64
  | Ok_quota of int64 * int64
  | Ok_kind of string
  | Ok_label of ((int * int) list * int)
  | Ok_slot of int
  | Ok_cat of int
  | Ok_entries of (int * string * string) list
  | Ok_maps of string
  | Err of string

type term =
  | T_done
  | T_gone
  | T_stuck of string
  | T_crash of string

(* ---------- printing ---------- *)

let pp_lspec sp =
  Printf.sprintf "{d=%d;[%s]}" sp.ls_def
    (String.concat ";"
       (List.map (fun (c, r) -> Printf.sprintf "(%d,%d)" c r) sp.ls_ents))

let pp_kinds ks =
  String.concat ";" (List.map Model.kind_to_string ks)

let pp_op = function
  | O_cat_create -> "O_cat_create"
  | O_self_get_label -> "O_self_get_label"
  | O_self_get_clearance -> "O_self_get_clearance"
  | O_self_set_label sp -> Printf.sprintf "O_self_set_label %s" (pp_lspec sp)
  | O_self_set_clearance sp ->
      Printf.sprintf "O_self_set_clearance %s" (pp_lspec sp)
  | O_get_label (c, o) -> Printf.sprintf "O_get_label (%d,%d)" c o
  | O_get_kind (c, o) -> Printf.sprintf "O_get_kind (%d,%d)" c o
  | O_get_descrip (c, o) -> Printf.sprintf "O_get_descrip (%d,%d)" c o
  | O_get_quota (c, o) -> Printf.sprintf "O_get_quota (%d,%d)" c o
  | O_set_fixed_quota (c, o) -> Printf.sprintf "O_set_fixed_quota (%d,%d)" c o
  | O_set_immutable (c, o) -> Printf.sprintf "O_set_immutable (%d,%d)" c o
  | O_get_metadata (c, o) -> Printf.sprintf "O_get_metadata (%d,%d)" c o
  | O_set_metadata (c, o, s) ->
      Printf.sprintf "O_set_metadata (%d,%d,%S)" c o s
  | O_unref (c, o) -> Printf.sprintf "O_unref (%d,%d)" c o
  | O_quota_move (c, t, n) -> Printf.sprintf "O_quota_move (%d,%d,%LdL)" c t n
  | O_container_create (c, sp, q, av) ->
      Printf.sprintf "O_container_create (%d,%s,%LdL,[%s])" c (pp_lspec sp) q
        (pp_kinds av)
  | O_container_list (c, o) -> Printf.sprintf "O_container_list (%d,%d)" c o
  | O_container_get_parent (c, o) ->
      Printf.sprintf "O_container_get_parent (%d,%d)" c o
  | O_container_link (d, (c, o)) ->
      Printf.sprintf "O_container_link (%d,(%d,%d))" d c o
  | O_segment_create (c, sp, q, len) ->
      Printf.sprintf "O_segment_create (%d,%s,%LdL,%d)" c (pp_lspec sp) q len
  | O_segment_read ((c, o), off, len) ->
      Printf.sprintf "O_segment_read ((%d,%d),%d,%d)" c o off len
  | O_segment_write ((c, o), off, s) ->
      Printf.sprintf "O_segment_write ((%d,%d),%d,%S)" c o off s
  | O_segment_resize ((c, o), len) ->
      Printf.sprintf "O_segment_resize ((%d,%d),%d)" c o len
  | O_segment_get_size (c, o) -> Printf.sprintf "O_segment_get_size (%d,%d)" c o
  | O_segment_copy ((c, o), d, sp, q) ->
      Printf.sprintf "O_segment_copy ((%d,%d),%d,%s,%LdL)" c o d (pp_lspec sp) q
  | O_segment_cas ((c, o), off, e, d) ->
      Printf.sprintf "O_segment_cas ((%d,%d),%d,%LdL,%LdL)" c o off e d
  | O_as_create (c, sp, q) ->
      Printf.sprintf "O_as_create (%d,%s,%LdL)" c (pp_lspec sp) q
  | O_as_get (c, o) -> Printf.sprintf "O_as_get (%d,%d)" c o
  | O_as_map ((c, o), va, (sc, so), off, np) ->
      Printf.sprintf "O_as_map ((%d,%d),%LdL,(%d,%d),%d,%d)" c o va sc so off np
  | O_as_unmap ((c, o), va) -> Printf.sprintf "O_as_unmap ((%d,%d),%LdL)" c o va
  | O_thread_create (c, sp, csp, q) ->
      Printf.sprintf "O_thread_create (%d,%s,%s,%LdL)" c (pp_lspec sp)
        (pp_lspec csp) q
  | O_gate_create (c, sp, csp, q, keep) ->
      Printf.sprintf "O_gate_create (%d,%s,%s,%LdL,%b)" c (pp_lspec sp)
        (pp_lspec csp) q keep
  | O_gate_create_oneshot (c, sp, csp, q, keep) ->
      Printf.sprintf "O_gate_create_oneshot (%d,%s,%s,%LdL,%b)" c (pp_lspec sp)
        (pp_lspec csp) q keep
  | O_gate_call ((c, o), lsp, csp, vsp, r) ->
      let opt = function None -> "None" | Some sp -> "Some " ^ pp_lspec sp in
      Printf.sprintf "O_gate_call ((%d,%d),%s,%s,%s,%d)" c o (opt lsp) (opt csp)
        (pp_lspec vsp) r
  | O_taint_to_read (c, o) -> Printf.sprintf "O_taint_to_read (%d,%d)" c o
  | O_futex_wake ((c, o), off, n) ->
      Printf.sprintf "O_futex_wake ((%d,%d),%d,%d)" c o off n
  | O_sync_object (c, o) -> Printf.sprintf "O_sync_object (%d,%d)" c o

let pp_trace ops =
  String.concat "\n"
    (List.mapi (fun i op -> Printf.sprintf "  %2d: %s" i (pp_op op)) ops)

let pp_canon (ents, d) =
  Printf.sprintf "{%s|%d}"
    (String.concat ","
       (List.map (fun (c, r) -> Printf.sprintf "%d:%d" c r) ents))
    d

let pp_outcome = function
  | Ok_unit -> "ok"
  | Ok_bool b -> Printf.sprintf "bool %b" b
  | Ok_bytes s -> Printf.sprintf "bytes %S" s
  | Ok_int n -> Printf.sprintf "int %Ld" n
  | Ok_quota (q, u) -> Printf.sprintf "quota (%Ld,%Ld)" q u
  | Ok_kind k -> Printf.sprintf "kind %s" k
  | Ok_label c -> Printf.sprintf "label %s" (pp_canon c)
  | Ok_slot s -> Printf.sprintf "slot %d" s
  | Ok_cat c -> Printf.sprintf "cat %d" c
  | Ok_entries es ->
      Printf.sprintf "entries [%s]"
        (String.concat "; "
           (List.map (fun (s, k, d) -> Printf.sprintf "(%d,%s,%S)" s k d) es))
  | Ok_maps s -> Printf.sprintf "maps [%s]" s
  | Err c -> Printf.sprintf "err:%s" c

let pp_term = function
  | T_done -> "done"
  | T_gone -> "thread-gone"
  | T_stuck c -> "stuck:" ^ c
  | T_crash m -> "CRASH:" ^ m

(* ---------- shared helpers ---------- *)

let pos_mod a n = ((a mod n) + n) mod n

(* The slot an object id occupies in a slot table, or -1. *)
let slot_in slots oid =
  let rec go i = function
    | [] -> -1
    | o :: tl -> if Int64.equal o oid then i else go (i + 1) tl
  in
  go 0 slots

let eclass : T.error -> string = function
  | T.Label_check _ -> "label"
  | T.Not_found_ _ -> "not_found"
  | T.Invalid _ -> "invalid"
  | T.Quota _ -> "quota"
  | T.Immutable _ -> "immutable"
  | T.Avoid_type _ -> "avoid_type"

let mkind_to_tkind : Model.kind -> T.kind = function
  | Model.Segment -> T.Segment
  | Model.Thread -> T.Thread
  | Model.Address_space -> T.Address_space
  | Model.Gate -> T.Gate
  | Model.Container -> T.Container
  | Model.Device -> T.Device

(* ---------- model-side execution ---------- *)

let canon_mlabel ml =
  ( List.sort compare
      (List.map (fun (c, r) -> (Int64.to_int c, r)) (Mlabel.entries ml)),
    Mlabel.default ml )

exception Stop_model of term

type model_run = {
  mr_outs : outcome list;
  mr_term : term;
  mr_st : Model.state;
  mr_slots : Model.oid list;
}

(* Model-side executor over caller-owned refs. The returned function
   raises [Stop_model] on a terminal step. *)
let mk_model_harness ~st ~slots ~ncats ~outs =
  let tid = Model.boot_thread !st in
  let record o = outs := o :: !outs in
  let nslots () = List.length !slots in
  let oid_of s = List.nth !slots (pos_mod s (nslots ())) in
  let slot_of oid = slot_in !slots oid in
  let ce (c, o) : Model.centry = { container = oid_of c; object_id = oid_of o } in
  let mlab sp =
    let n = !ncats in
    List.fold_left
      (fun acc (ci, r) ->
        if n = 0 then acc else Mlabel.set acc (Int64.of_int (pos_mod ci n)) r)
      (Mlabel.make sp.ls_def) sp.ls_ents
  in
  let mstep req =
    let st', resp, status = Model.step !st ~thread:tid req in
    st := st';
    match status with
    | Model.S_continue -> resp
    | Model.S_thread_gone -> raise (Stop_model T_gone)
    | Model.S_stuck (e, _) -> raise (Stop_model (T_stuck (Model.err_to_string e)))
  in
  let out_of = function
    | Model.R_unit -> Ok_unit
    | Model.R_bool b -> Ok_bool b
    | Model.R_cat c -> Ok_cat (Int64.to_int c)
    | Model.R_label l -> Ok_label (canon_mlabel l)
    | Model.R_oid _ -> Ok_unit (* creates handled per-op *)
    | Model.R_bytes s -> Ok_bytes s
    | Model.R_int n -> Ok_int n
    | Model.R_quota (q, u) -> Ok_quota (q, u)
    | Model.R_kind k -> Ok_kind (Model.kind_to_string k)
    | Model.R_entries es ->
        Ok_entries
          (List.sort compare
             (List.map
                (fun (o, k, d) -> (slot_of o, Model.kind_to_string k, d))
                es))
    | Model.R_mappings ms ->
        Ok_maps
          (String.concat "; "
             (List.map
                (fun (m : Model.mapping) ->
                  Printf.sprintf "va=%Ld seg=(%d,%d) off=%d np=%d rwx=%b%b%b"
                    m.va
                    (slot_of m.seg.container)
                    (slot_of m.seg.object_id)
                    m.map_off m.npages m.mread m.mwrite m.mexec)
                ms))
    | Model.R_err (e, _) -> Err (Model.err_to_string e)
  in
  (* run a request that creates an object on success *)
  let creating req =
    match mstep req with
    | Model.R_oid id ->
        slots := !slots @ [ id ];
        record (Ok_slot (nslots () - 1))
    | resp -> record (out_of resp)
  in
  let spec cs sp q d : Model.spec =
    { sc_container = oid_of cs; sc_label = mlab sp; sc_quota = q; sc_descrip = d }
  in
  let do_op = function
    | O_cat_create -> (
        match mstep Model.Cat_create with
        | Model.R_cat c ->
            incr ncats;
            record (Ok_cat (Int64.to_int c))
        | resp -> record (out_of resp))
    | O_self_get_label -> record (out_of (mstep Model.Self_get_label))
    | O_self_get_clearance -> record (out_of (mstep Model.Self_get_clearance))
    | O_self_set_label sp ->
        record (out_of (mstep (Model.Self_set_label (mlab sp))))
    | O_self_set_clearance sp ->
        record (out_of (mstep (Model.Self_set_clearance (mlab sp))))
    | O_get_label (c, o) -> record (out_of (mstep (Model.Obj_get_label (ce (c, o)))))
    | O_get_kind (c, o) -> record (out_of (mstep (Model.Obj_get_kind (ce (c, o)))))
    | O_get_descrip (c, o) ->
        record (out_of (mstep (Model.Obj_get_descrip (ce (c, o)))))
    | O_get_quota (c, o) -> record (out_of (mstep (Model.Obj_get_quota (ce (c, o)))))
    | O_set_fixed_quota (c, o) ->
        record (out_of (mstep (Model.Obj_set_fixed_quota (ce (c, o)))))
    | O_set_immutable (c, o) ->
        record (out_of (mstep (Model.Obj_set_immutable (ce (c, o)))))
    | O_get_metadata (c, o) ->
        record (out_of (mstep (Model.Obj_get_metadata (ce (c, o)))))
    | O_set_metadata (c, o, s) ->
        record (out_of (mstep (Model.Obj_set_metadata (ce (c, o), s))))
    | O_unref (c, o) -> record (out_of (mstep (Model.Unref (ce (c, o)))))
    | O_quota_move (c, t, n) ->
        record
          (out_of
             (mstep
                (Model.Quota_move
                   { qm_container = oid_of c; qm_target = oid_of t; qm_nbytes = n })))
    | O_container_create (c, sp, q, av) ->
        creating (Model.Container_create (spec c sp q "con", av))
    | O_container_list (c, o) ->
        record (out_of (mstep (Model.Container_list (ce (c, o)))))
    | O_container_get_parent (c, o) -> (
        match mstep (Model.Container_get_parent (ce (c, o))) with
        | Model.R_oid p -> record (Ok_slot (slot_of p))
        | resp -> record (out_of resp))
    | O_container_link (d, tgt) ->
        record
          (out_of
             (mstep
                (Model.Container_link
                   { cl_container = oid_of d; cl_target = ce tgt })))
    | O_segment_create (c, sp, q, len) ->
        creating (Model.Segment_create (spec c sp q "seg", len))
    | O_segment_read (r, off, len) ->
        record (out_of (mstep (Model.Segment_read (ce r, off, len))))
    | O_segment_write (r, off, s) ->
        record (out_of (mstep (Model.Segment_write (ce r, off, s))))
    | O_segment_resize (r, len) ->
        record (out_of (mstep (Model.Segment_resize (ce r, len))))
    | O_segment_get_size (c, o) ->
        record (out_of (mstep (Model.Segment_get_size (ce (c, o)))))
    | O_segment_copy (src, d, sp, q) ->
        creating (Model.Segment_copy (ce src, spec d sp q "copy"))
    | O_segment_cas (r, off, e, dsr) ->
        record
          (out_of
             (mstep
                (Model.Segment_cas
                   { cas_seg = ce r; cas_off = off; cas_exp = e; cas_des = dsr })))
    | O_as_create (c, sp, q) -> creating (Model.As_create (spec c sp q "as"))
    | O_as_get (c, o) -> record (out_of (mstep (Model.As_get (ce (c, o)))))
    | O_as_map (r, va, sr, off, np) ->
        record
          (out_of
             (mstep
                (Model.As_map
                   ( ce r,
                     {
                       Model.va;
                       seg = ce sr;
                       map_off = off;
                       npages = np;
                       mread = true;
                       mwrite = true;
                       mexec = false;
                     } ))))
    | O_as_unmap (r, va) -> record (out_of (mstep (Model.As_unmap (ce r, va))))
    | O_thread_create (c, sp, csp, q) ->
        creating (Model.Thread_create (spec c sp q "thr", mlab csp))
    | O_gate_create (c, sp, csp, q, keep) ->
        creating
          (Model.Gate_create
             {
               gc_spec = spec c sp q "gate";
               gc_clearance = mlab csp;
               gc_keep = keep;
               gc_once = false;
             })
    | O_gate_create_oneshot (c, sp, csp, q, keep) ->
        creating
          (Model.Gate_create
             {
               gc_spec = spec c sp q "gate1";
               gc_clearance = mlab csp;
               gc_keep = keep;
               gc_once = true;
             })
    | O_gate_call (g, lsp, csp, vsp, r) ->
        record
          (out_of
             (mstep
                (Model.Gate_call
                   {
                     g_gate = ce g;
                     g_label = Option.map mlab lsp;
                     g_clear = Option.map mlab csp;
                     g_verify = mlab vsp;
                     g_retcon = oid_of r;
                   })))
    | O_taint_to_read (c, o) -> (
        let e = ce (c, o) in
        match mstep (Model.Obj_get_label e) with
        | Model.R_label l ->
            record (Ok_label (canon_mlabel l));
            let self = Option.get (Model.thread_label_of !st tid) in
            let l' = Mlabel.taint_to_read ~thread:self ~obj:l in
            record (out_of (mstep (Model.Self_set_label l')));
            record (out_of (mstep (Model.Segment_read (e, 0, -1))))
        | resp -> record (out_of resp))
    | O_futex_wake (r, off, n) ->
        record (out_of (mstep (Model.Futex_wake (ce r, off, n))))
    | O_sync_object (c, o) ->
        record (out_of (mstep (Model.Sync_object (ce (c, o)))))
  in
  do_op

let run_model ops =
  let st = ref (Model.init ()) in
  let slots = ref [ Model.root !st; Model.boot_thread !st ] in
  let ncats = ref 0 in
  let outs = ref [] in
  let do_op = mk_model_harness ~st ~slots ~ncats ~outs in
  let term =
    try
      List.iter do_op ops;
      T_done
    with Stop_model t -> t
  in
  { mr_outs = List.rev !outs; mr_term = term; mr_st = !st; mr_slots = !slots }

(* ---------- real-side execution ---------- *)

let canon_label cats l =
  let ents, d = Label.ranked l in
  let idx cid =
    let rec go i = function
      | [] -> -1
      | c :: tl -> if Int64.equal (Category.to_int64 c) cid then i else go (i + 1) tl
    in
    go 0 cats
  in
  (List.sort compare (List.map (fun (c, r) -> (idx c, r)) ents), d)

type real_run = {
  rr_outs : outcome list;
  rr_term : term;
  rr_k : Kernel.t;
  rr_slots : T.oid list;
  rr_cats : Category.t list;
  rr_cov : int;
}

let bucket n =
  let rec go i v = if v <= 0 then i else go (i + 1) (v lsr 1) in
  go 0 n

let out_tag = function
  | Ok_unit -> "u"
  | Ok_bool b -> if b then "b1" else "b0"
  | Ok_bytes _ -> "by"
  | Ok_int _ -> "i"
  | Ok_quota _ -> "q"
  | Ok_kind k -> "k" ^ k
  | Ok_label _ -> "l"
  | Ok_slot _ -> "s"
  | Ok_cat _ -> "c"
  | Ok_entries _ -> "e"
  | Ok_maps _ -> "m"
  | Err c -> "E" ^ c

(* The service body every trace gate runs: immediately gate-return,
   optionally granting every owned category (the §6.2 pattern). *)
let gate_entry ~stuck keep () =
  try
    if keep then
      Sys.gate_return
        ~keep:(Category.Set.elements (Label.owned (Sys.self_label ())))
        ()
    else Sys.gate_return ()
  with T.Kernel_error e ->
    stuck := Some (eclass e);
    Sys.self_halt ()

(* Kernel-side executor over caller-owned refs (slot/category tables,
   recorded outcomes). The returned function performs syscalls, so it
   must run inside a kernel thread. *)
let mk_real_harness ~outs ~slots ~cats ~stuck =
  let record o = outs := o :: !outs in
  let nslots () = List.length !slots in
  let oid_of s = List.nth !slots (pos_mod s (nslots ())) in
  let slot_of oid = slot_in !slots oid in
  let ce (c, o) = T.centry (oid_of c) (oid_of o) in
  let lab sp =
    let n = List.length !cats in
    List.fold_left
      (fun acc (ci, r) ->
        if n = 0 then acc
        else Label.set acc (List.nth !cats (pos_mod ci n)) (Level.of_rank r))
      (Label.make (Level.of_rank sp.ls_def))
      sp.ls_ents
  in
  let atomic f = try record (f ()) with T.Kernel_error e -> record (Err (eclass e)) in
  let created id =
    slots := !slots @ [ id ];
    Ok_slot (nslots () - 1)
  in
  let do_op = function
    | O_cat_create ->
        atomic (fun () ->
            let c = Sys.cat_create () in
            cats := !cats @ [ c ];
            Ok_cat (List.length !cats - 1))
    | O_self_get_label ->
        atomic (fun () -> Ok_label (canon_label !cats (Sys.self_label ())))
    | O_self_get_clearance ->
        atomic (fun () -> Ok_label (canon_label !cats (Sys.self_clearance ())))
    | O_self_set_label sp ->
        atomic (fun () ->
            Sys.self_set_label (lab sp);
            Ok_unit)
    | O_self_set_clearance sp ->
        atomic (fun () ->
            Sys.self_set_clearance (lab sp);
            Ok_unit)
    | O_get_label (c, o) ->
        atomic (fun () -> Ok_label (canon_label !cats (Sys.obj_label (ce (c, o)))))
    | O_get_kind (c, o) ->
        atomic (fun () -> Ok_kind (T.kind_to_string (Sys.obj_kind (ce (c, o)))))
    | O_get_descrip (c, o) ->
        atomic (fun () -> Ok_bytes (Sys.obj_descrip (ce (c, o))))
    | O_get_quota (c, o) ->
        atomic (fun () ->
            let q, u = Sys.obj_quota (ce (c, o)) in
            Ok_quota (q, u))
    | O_set_fixed_quota (c, o) ->
        atomic (fun () ->
            Sys.set_fixed_quota (ce (c, o));
            Ok_unit)
    | O_set_immutable (c, o) ->
        atomic (fun () ->
            Sys.set_immutable (ce (c, o));
            Ok_unit)
    | O_get_metadata (c, o) ->
        atomic (fun () -> Ok_bytes (Sys.get_metadata (ce (c, o))))
    | O_set_metadata (c, o, s) ->
        atomic (fun () ->
            Sys.set_metadata (ce (c, o)) s;
            Ok_unit)
    | O_unref (c, o) ->
        atomic (fun () ->
            Sys.unref (ce (c, o));
            Ok_unit)
    | O_quota_move (c, t, n) ->
        atomic (fun () ->
            Sys.quota_move ~container:(oid_of c) ~target:(oid_of t) ~nbytes:n;
            Ok_unit)
    | O_container_create (c, sp, q, av) ->
        atomic (fun () ->
            created
              (Sys.container_create
                 ~avoid:(List.map mkind_to_tkind av)
                 ~container:(oid_of c) ~label:(lab sp) ~quota:q "con"))
    | O_container_list (c, o) ->
        atomic (fun () ->
            Ok_entries
              (List.sort compare
                 (List.map
                    (fun (oid, kd, d) -> (slot_of oid, T.kind_to_string kd, d))
                    (Sys.container_list (ce (c, o))))))
    | O_container_get_parent (c, o) ->
        atomic (fun () -> Ok_slot (slot_of (Sys.container_parent (ce (c, o)))))
    | O_container_link (d, tgt) ->
        atomic (fun () ->
            Sys.container_link ~container:(oid_of d) ~target:(ce tgt);
            Ok_unit)
    | O_segment_create (c, sp, q, len) ->
        atomic (fun () ->
            created
              (Sys.segment_create ~container:(oid_of c) ~label:(lab sp) ~quota:q
                 ~len "seg"))
    | O_segment_read (r, off, len) ->
        atomic (fun () -> Ok_bytes (Sys.segment_read (ce r) ~off ~len ()))
    | O_segment_write (r, off, s) ->
        atomic (fun () ->
            Sys.segment_write (ce r) ~off s;
            Ok_unit)
    | O_segment_resize (r, len) ->
        atomic (fun () ->
            Sys.segment_resize (ce r) len;
            Ok_unit)
    | O_segment_get_size (c, o) ->
        atomic (fun () -> Ok_int (Int64.of_int (Sys.segment_size (ce (c, o)))))
    | O_segment_copy (src, d, sp, q) ->
        atomic (fun () ->
            created
              (Sys.segment_copy ~src:(ce src) ~container:(oid_of d)
                 ~label:(lab sp) ~quota:q "copy"))
    | O_segment_cas (r, off, e, d) ->
        atomic (fun () ->
            Ok_bool (Sys.segment_cas (ce r) ~off ~expected:e ~desired:d))
    | O_as_create (c, sp, q) ->
        atomic (fun () ->
            created
              (Sys.as_create ~container:(oid_of c) ~label:(lab sp) ~quota:q "as"))
    | O_as_get (c, o) ->
        atomic (fun () ->
            Ok_maps
              (String.concat "; "
                 (List.map
                    (fun (m : Sc.mapping) ->
                      Printf.sprintf "va=%Ld seg=(%d,%d) off=%d np=%d rwx=%b%b%b"
                        m.va
                        (slot_of m.seg.container)
                        (slot_of m.seg.object_id)
                        m.offset m.npages m.flags.read m.flags.write
                        m.flags.exec)
                    (Sys.as_get (ce (c, o))))))
    | O_as_map (r, va, sr, off, np) ->
        atomic (fun () ->
            Sys.as_map (ce r)
              {
                Sc.va;
                seg = ce sr;
                offset = off;
                npages = np;
                flags = { read = true; write = true; exec = false };
              };
            Ok_unit)
    | O_as_unmap (r, va) ->
        atomic (fun () ->
            Sys.as_unmap (ce r) va;
            Ok_unit)
    | O_thread_create (c, sp, csp, q) ->
        atomic (fun () ->
            created
              (Sys.thread_create ~container:(oid_of c) ~label:(lab sp)
                 ~clearance:(lab csp) ~quota:q ~name:"thr" (fun () -> ())))
    | O_gate_create (c, sp, csp, q, keep) ->
        atomic (fun () ->
            created
              (Sys.gate_create ~container:(oid_of c) ~label:(lab sp)
                 ~clearance:(lab csp) ~quota:q ~name:"gate"
                 (gate_entry ~stuck keep)))
    | O_gate_create_oneshot (c, sp, csp, q, keep) ->
        atomic (fun () ->
            created
              (Sys.gate_create ~one_shot:true ~container:(oid_of c)
                 ~label:(lab sp) ~clearance:(lab csp) ~quota:q ~name:"gate1"
                 (gate_entry ~stuck keep)))
    | O_gate_call (g, lsp, csp, vsp, r) ->
        atomic (fun () ->
            let gate = ce g in
            let label =
              match lsp with Some sp -> lab sp | None -> Sys.gate_floor gate
            in
            let clearance =
              match csp with Some sp -> lab sp | None -> Sys.self_clearance ()
            in
            Sys.gate_call ~gate ~label ~clearance ~verify:(lab vsp)
              ~return_container:(oid_of r)
              ~return_label:(Sys.self_label ())
              ~return_clearance:(Sys.self_clearance ()) ();
            Ok_unit)
    | O_taint_to_read (c, o) -> (
        let e = ce (c, o) in
        match (try Ok (Sys.obj_label e) with T.Kernel_error er -> Error er) with
        | Error er -> record (Err (eclass er))
        | Ok l ->
            record (Ok_label (canon_label !cats l));
            let l' = Label.taint_to_read ~thread:(Sys.self_label ()) ~obj:l in
            atomic (fun () ->
                Sys.self_set_label l';
                Ok_unit);
            atomic (fun () -> Ok_bytes (Sys.segment_read e ())))
    | O_futex_wake (r, off, n) ->
        atomic (fun () -> Ok_int (Int64.of_int (Sys.futex_wake (ce r) ~off ~count:n)))
    | O_sync_object (c, o) ->
        atomic (fun () ->
            Sys.sync_object (ce (c, o));
            Ok_unit)
  in
  do_op

(* Metrics window around one scheduler run; the delta is what the
   coverage signature buckets. *)
let metered f =
  (* The window reads the current scope, which on the pool is this fuzz
     cell's own, so concurrent cells can't bleed into the delta. *)
  Metrics.with_enabled true (fun () ->
      let before = Metrics.snapshot () in
      f ();
      Metrics.diff ~before ~after:(Metrics.snapshot ()))

let bucketed l = List.map (fun (s, n) -> (s, bucket n)) l

(* Which decisions the label cache serves ([label.elided]) rather than
   computes ([label.checks]) is a caching detail, not behaviour.
   Coverage signatures fold the split back together, so they count
   label decisions, not cache hits. *)
let normalize_mdiff l =
  let elided = ref 0 in
  let keep =
    List.filter
      (fun (n, v) ->
        if String.equal n "label.elided" then begin
          elided := v;
          false
        end
        else true)
      l
  in
  if !elided = 0 then keep
  else
    let merged = ref false in
    let l' =
      List.map
        (fun (n, v) ->
          if String.equal n "label.checks" then begin
            merged := true;
            (n, v + !elided)
          end
          else (n, v))
        keep
    in
    if !merged then l'
    else
      List.sort
        (fun (x, _) (y, _) -> String.compare x y)
        (("label.checks", !elided) :: l')

let cov_of ~k ~mdiff ~outs ~term =
  Hashtbl.hash
    ( bucketed (Profile.to_list (Kernel.profile k)),
      bucketed (normalize_mdiff mdiff),
      List.map out_tag outs,
      pp_term term )

let run_real ?weaken ops =
  let k = Kernel.create ?weaken () in
  let outs = ref [] in
  let slots = ref [ Kernel.root k ] in
  let cats : Category.t list ref = ref [] in
  let stuck = ref None in
  let crash = ref None in
  let completed = ref false in
  let do_op = mk_real_harness ~outs ~slots ~cats ~stuck in
  let driver () =
    (try List.iter do_op ops with
    | T.Kernel_error e -> outs := Err (eclass e) :: !outs
    | e -> crash := Some (Printexc.to_string e));
    completed := true
  in
  let tid = Kernel.spawn k ~name:"driver" driver in
  slots := !slots @ [ tid ];
  let mdiff =
    metered (fun () ->
        try Kernel.run k
        with e -> crash := Some ("kernel: " ^ Printexc.to_string e))
  in
  let term =
    match !crash with
    | Some m -> T_crash m
    | None -> (
        if !completed then T_done
        else
          match !stuck with
          | Some c -> T_stuck c
          | None -> (
              match Kernel.thread_state k tid with
              | None -> T_gone
              | Some _ -> T_crash "driver wedged"))
  in
  let outs = List.rev !outs in
  {
    rr_outs = outs;
    rr_term = term;
    rr_k = k;
    rr_slots = !slots;
    rr_cats = !cats;
    rr_cov = cov_of ~k ~mdiff ~outs ~term;
  }

(* ---------- final-state comparison ---------- *)

let model_view_str st slot_of oid =
  match Model.view st oid with
  | None -> "dead"
  | Some v ->
      let lbl l = pp_canon (canon_mlabel l) in
      Printf.sprintf
        "kind=%s label=%s q=%Ld u=%Ld fixed=%b immut=%b refs=%d meta=%S \
         descrip=%S seg=%s children=%s parent=%s clear=%s maps=%s"
        (Model.kind_to_string v.v_kind)
        (lbl v.v_label) v.v_quota v.v_usage v.v_fixed v.v_immut v.v_refs
        v.v_meta v.v_descrip
        (match v.v_seg with None -> "-" | Some s -> String.escaped s)
        (match v.v_children with
        | None -> "-"
        | Some cs ->
            String.concat ";"
              (List.sort compare
                 (List.map
                    (fun (o, k, d) ->
                      Printf.sprintf "(%d,%s,%S)" (slot_of o)
                        (Model.kind_to_string k) d)
                    cs)))
        (match v.v_parent with None -> "-" | Some p -> string_of_int (slot_of p))
        (match v.v_clear with None -> "-" | Some c -> lbl c)
        (match v.v_maps with
        | None -> "-"
        | Some ms ->
            String.concat ";"
              (List.map
                 (fun (m : Model.mapping) ->
                   Printf.sprintf "va=%Ld seg=(%d,%d) off=%d np=%d rwx=%b%b%b"
                     m.va
                     (slot_of m.seg.container)
                     (slot_of m.seg.object_id)
                     m.map_off m.npages m.mread m.mwrite m.mexec)
                 ms))

let real_view_str k cats slot_of oid =
  match Kernel.obj_kind k oid with
  | None -> "dead"
  | Some kd ->
      let lbl l = pp_canon (canon_label cats l) in
      let q, u = Option.value (Kernel.obj_quota k oid) ~default:(0L, 0L) in
      let fixed, immut = Option.value (Kernel.obj_flags k oid) ~default:(false, false) in
      Printf.sprintf
        "kind=%s label=%s q=%Ld u=%Ld fixed=%b immut=%b refs=%d meta=%S \
         descrip=%S seg=%s children=%s parent=%s clear=%s maps=%s"
        (T.kind_to_string kd)
        (lbl (Option.get (Kernel.obj_label k oid)))
        q u fixed immut
        (Option.value (Kernel.obj_refs k oid) ~default:0)
        (Option.value (Kernel.obj_metadata k oid) ~default:"")
        (Option.value (Kernel.obj_descrip k oid) ~default:"")
        (match Kernel.segment_data k oid with
        | None -> "-"
        | Some s -> String.escaped s)
        (match Kernel.container_children k oid with
        | None -> "-"
        | Some cs ->
            String.concat ";"
              (List.sort compare
                 (List.map
                    (fun (o, knd) ->
                      Printf.sprintf "(%d,%s,%S)" (slot_of o)
                        (T.kind_to_string knd)
                        (Option.value (Kernel.obj_descrip k o) ~default:"?"))
                    cs)))
        (match Kernel.container_parent_of k oid with
        | None -> "-"
        | Some p -> string_of_int (slot_of p))
        (match Kernel.thread_clearance k oid with None -> "-" | Some c -> lbl c)
        (match Kernel.as_mappings k oid with
        | None -> "-"
        | Some ms ->
            String.concat ";"
              (List.map
                 (fun (m : Sc.mapping) ->
                   Printf.sprintf "va=%Ld seg=(%d,%d) off=%d np=%d rwx=%b%b%b"
                     m.va
                     (slot_of m.seg.container)
                     (slot_of m.seg.object_id)
                     m.offset m.npages m.flags.read m.flags.write m.flags.exec)
                 ms))

let compare_runs (m : model_run) (r : real_run) =
  let rec outcomes i mo ro =
    match (mo, ro) with
    | [], [] -> None
    | m1 :: _, r1 :: _ when m1 <> r1 ->
        Some
          (Printf.sprintf "outcome %d: model=%s kernel=%s" i (pp_outcome m1)
             (pp_outcome r1))
    | _ :: mt, _ :: rt -> outcomes (i + 1) mt rt
    | m1 :: _, [] ->
        Some (Printf.sprintf "outcome %d: model=%s kernel=<none>" i (pp_outcome m1))
    | [], r1 :: _ ->
        Some (Printf.sprintf "outcome %d: model=<none> kernel=%s" i (pp_outcome r1))
  in
  match outcomes 0 m.mr_outs r.rr_outs with
  | Some d -> Some d
  | None ->
      if m.mr_term <> r.rr_term then
        Some
          (Printf.sprintf "termination: model=%s kernel=%s" (pp_term m.mr_term)
             (pp_term r.rr_term))
      else if List.length m.mr_slots <> List.length r.rr_slots then
        Some
          (Printf.sprintf "slot tables diverged: model=%d kernel=%d"
             (List.length m.mr_slots) (List.length r.rr_slots))
      else begin
        let mslot_of = slot_in m.mr_slots in
        let rslot_of = slot_in r.rr_slots in
        let rec slots i ms rs =
          match (ms, rs) with
          | [], [] -> None
          | moid :: mt, roid :: rt ->
              let mv = model_view_str m.mr_st mslot_of moid in
              let rv = real_view_str r.rr_k r.rr_cats rslot_of roid in
              if mv <> rv then
                Some
                  (Printf.sprintf "final state, slot %d:\n  model : %s\n  kernel: %s"
                     i mv rv)
              else slots (i + 1) mt rt
          | _ -> None
        in
        slots 0 m.mr_slots r.rr_slots
      end

let run_pair ?weaken trace =
  let m = run_model trace in
  let r = run_real ?weaken trace in
  (compare_runs m r, r.rr_cov)

let compare_traces ?weaken trace = fst (run_pair ?weaken trace)

(* ---------- fork/resume round trip ---------- *)

let fork_resume_divergence trace =
  let r = run_real trace in
  let views k =
    List.map (real_view_str k r.rr_cats (slot_in r.rr_slots)) r.rr_slots
  in
  List.combine (views r.rr_k) (views (Kernel.resume (Kernel.fork r.rr_k)))
  |> List.find_mapi (fun i (before, after) ->
         if String.equal before after then None
         else
           Some
             (Printf.sprintf
                "slot %d after fork/resume:\n  before: %s\n  after : %s" i
                before after))

(* ---------- generators ---------- *)

let g_slot = Gen.frequency [ (4, Gen.int_range 0 3); (1, Gen.int_range 0 9) ]
let g_cslot = Gen.frequency [ (5, Gen.return 0); (2, Gen.int_range 0 9) ]
let g_ref = Gen.pair g_cslot g_slot

let g_rank =
  Gen.frequency
    [
      (3, Gen.return 0);
      (1, Gen.return 1);
      (2, Gen.return 2);
      (3, Gen.return 3);
      (2, Gen.return 4);
      (1, Gen.return 5);
    ]

let g_lspec =
  Gen.map2
    (fun d ents -> { ls_def = d; ls_ents = ents })
    (Gen.choose [ 2; 2; 2; 2; 1; 3; 3; 4 ])
    (Gen.resize 2 (Gen.list (Gen.pair (Gen.int_range 0 3) g_rank)))

(* requested gate labels biased low: below the floor when the caller is
   tainted, which is exactly what the ⋆-floor check must reject *)
let g_lspec_low =
  Gen.map2
    (fun d ents -> { ls_def = d; ls_ents = ents })
    (Gen.choose [ 1; 1; 2; 2; 3 ])
    (Gen.resize 1 (Gen.list (Gen.pair (Gen.int_range 0 3) g_rank)))

let g_verify =
  Gen.frequency
    [ (4, Gen.return { ls_def = 4; ls_ents = [] }); (1, g_lspec) ]

let g_quota =
  Gen.choose
    [
      0L;
      512L;
      513L;
      600L;
      1024L;
      4096L;
      4608L;
      65536L;
      1048576L;
      Int64.max_int;
      Int64.sub Int64.max_int 1L;
      Int64.sub Int64.max_int 4096L;
    ]

let g_len =
  Gen.frequency
    [ (5, Gen.int_range 0 64); (1, Gen.return (-1)); (1, Gen.int_range 65 4096) ]

let g_off =
  Gen.frequency [ (5, Gen.int_range 0 32); (1, Gen.choose [ -1; -8; 100000 ]) ]

let g_str = Gen.resize 8 Gen.string

let g_meta =
  Gen.frequency [ (3, g_str); (1, Gen.return (String.make 70 'm')) ]

let g_nbytes =
  Gen.choose
    [
      0L;
      1L;
      512L;
      4096L;
      65536L;
      -512L;
      -1L;
      -65536L;
      Int64.max_int;
      Int64.min_int;
      Int64.sub Int64.max_int 100L;
    ]

let g_avoid =
  Gen.frequency
    [
      (6, Gen.return []);
      (1, Gen.return [ Model.Gate ]);
      (1, Gen.return [ Model.Segment; Model.Thread ]);
    ]

let ( let* ) = Gen.( let* )

let gen_op =
  Gen.frequency
    [
      (3, Gen.return O_cat_create);
      (1, Gen.return O_self_get_label);
      (1, Gen.return O_self_get_clearance);
      (3, Gen.map (fun sp -> O_self_set_label sp) g_lspec);
      (2, Gen.map (fun sp -> O_self_set_clearance sp) g_lspec);
      (2, Gen.map (fun (c, o) -> O_get_label (c, o)) g_ref);
      (1, Gen.map (fun (c, o) -> O_get_kind (c, o)) g_ref);
      (1, Gen.map (fun (c, o) -> O_get_descrip (c, o)) g_ref);
      (2, Gen.map (fun (c, o) -> O_get_quota (c, o)) g_ref);
      (1, Gen.map (fun (c, o) -> O_set_fixed_quota (c, o)) g_ref);
      ( 1,
        Gen.map
          (fun (c, o) -> O_set_immutable (c, o))
          (Gen.pair g_cslot (Gen.int_range 2 9)) );
      (1, Gen.map (fun (c, o) -> O_get_metadata (c, o)) g_ref);
      ( 1,
        let* (c, o) = g_ref in
        Gen.map (fun s -> O_set_metadata (c, o, s)) g_meta );
      (3, Gen.map (fun (c, o) -> O_unref (c, o)) g_ref);
      ( 2,
        let* (c, t) = Gen.pair g_cslot g_slot in
        Gen.map (fun n -> O_quota_move (c, t, n)) g_nbytes );
      ( 4,
        let* c = g_cslot in
        let* sp = g_lspec in
        let* q = g_quota in
        Gen.map (fun av -> O_container_create (c, sp, q, av)) g_avoid );
      (2, Gen.map (fun (c, o) -> O_container_list (c, o)) g_ref);
      (1, Gen.map (fun (c, o) -> O_container_get_parent (c, o)) g_ref);
      ( 1,
        let* d = g_cslot in
        Gen.map (fun tgt -> O_container_link (d, tgt)) g_ref );
      ( 5,
        let* c = g_cslot in
        let* sp = g_lspec in
        let* q = g_quota in
        Gen.map (fun len -> O_segment_create (c, sp, q, len)) g_len );
      ( 4,
        let* r = g_ref in
        let* off = g_off in
        Gen.map (fun len -> O_segment_read (r, off, len)) g_len );
      ( 3,
        let* r = g_ref in
        let* off = g_off in
        Gen.map (fun s -> O_segment_write (r, off, s)) g_str );
      ( 2,
        let* r = g_ref in
        Gen.map (fun len -> O_segment_resize (r, len)) g_len );
      (1, Gen.map (fun (c, o) -> O_segment_get_size (c, o)) g_ref);
      ( 1,
        let* src = g_ref in
        let* d = g_cslot in
        let* sp = g_lspec in
        Gen.map (fun q -> O_segment_copy (src, d, sp, q)) g_quota );
      ( 2,
        let* r = g_ref in
        let* off = g_off in
        Gen.map2
          (fun e d -> O_segment_cas (r, off, e, d))
          (Gen.choose [ 0L; 1L; 42L ])
          (Gen.choose [ 0L; 7L; -1L ]) );
      ( 1,
        let* c = g_cslot in
        let* sp = g_lspec in
        Gen.map (fun q -> O_as_create (c, sp, q)) g_quota );
      (1, Gen.map (fun (c, o) -> O_as_get (c, o)) g_ref);
      ( 1,
        let* r = g_ref in
        let* sr = g_ref in
        let* va = Gen.choose [ 0L; 4096L; 8192L ] in
        Gen.map2 (fun off np -> O_as_map (r, va, sr, off, np)) (Gen.int_range 0 4)
          (Gen.int_range 1 4) );
      ( 1,
        let* r = g_ref in
        Gen.map (fun va -> O_as_unmap (r, va)) (Gen.choose [ 0L; 4096L; 8192L ]) );
      ( 2,
        let* c = g_cslot in
        let* sp = g_lspec in
        let* csp = g_lspec in
        Gen.map (fun q -> O_thread_create (c, sp, csp, q)) g_quota );
      ( 3,
        let* c = g_cslot in
        let* sp = g_lspec in
        let* csp = g_lspec in
        let* q = g_quota in
        Gen.map (fun keep -> O_gate_create (c, sp, csp, q, keep)) Gen.bool );
      ( 4,
        let* g = g_ref in
        let* lsp =
          Gen.frequency
            [
              (2, Gen.return None);
              (3, Gen.map (fun sp -> Some sp) g_lspec_low);
            ]
        in
        let* csp =
          Gen.frequency
            [ (3, Gen.return None); (1, Gen.map (fun sp -> Some sp) g_lspec) ]
        in
        let* vsp = g_verify in
        Gen.map (fun r -> O_gate_call (g, lsp, csp, vsp, r)) g_cslot );
      (3, Gen.map (fun (c, o) -> O_taint_to_read (c, o)) g_ref);
      ( 1,
        let* r = g_ref in
        Gen.map2 (fun off n -> O_futex_wake (r, off, n)) (Gen.int_range 0 16)
          (Gen.int_range 0 3) );
      (1, Gen.map (fun (c, o) -> O_sync_object (c, o)) g_ref);
    ]

let gen_trace = Gen.list gen_op

let l1_spec = { ls_def = 2; ls_ents = [] }

let gen_quota_op =
  Gen.frequency
    [
      ( 4,
        let* c = g_cslot in
        let* q = g_quota in
        Gen.map (fun av -> O_container_create (c, l1_spec, q, av)) g_avoid );
      ( 4,
        let* c = g_cslot in
        let* q = g_quota in
        Gen.map (fun len -> O_segment_create (c, l1_spec, q, len)) g_len );
      ( 3,
        let* r = g_ref in
        Gen.map (fun len -> O_segment_resize (r, len)) g_len );
      ( 4,
        let* (c, t) = Gen.pair g_cslot g_slot in
        Gen.map (fun n -> O_quota_move (c, t, n)) g_nbytes );
      ( 2,
        let* d = g_cslot in
        Gen.map (fun tgt -> O_container_link (d, tgt)) g_ref );
      (2, Gen.map (fun (c, o) -> O_set_fixed_quota (c, o)) g_ref);
      (2, Gen.map (fun (c, o) -> O_unref (c, o)) g_ref);
      (2, Gen.map (fun (c, o) -> O_get_quota (c, o)) g_ref);
      (1, Gen.map (fun (c, o) -> O_container_list (c, o)) g_ref);
      ( 1,
        let* src = g_ref in
        let* d = g_cslot in
        Gen.map (fun q -> O_segment_copy (src, d, l1_spec, q)) g_quota );
    ]

let gen_quota_trace = Gen.list gen_quota_op

(* ---------- shrinking ---------- *)

let shrink ?weaken trace =
  let evals = ref 0 in
  let max_evals = 300 in
  let diverges t =
    !evals < max_evals
    && begin
         incr evals;
         compare_traces ?weaken t <> None
       end
  in
  let rec pass t chunk =
    if chunk < 1 then t
    else
      let n = List.length t in
      let rec try_at start =
        if start >= n then pass t (chunk / 2)
        else
          let cand =
            List.filteri (fun i _ -> i < start || i >= start + chunk) t
          in
          if List.length cand < n && diverges cand then pass cand chunk
          else try_at (start + chunk)
      in
      try_at 0
  in
  let n = List.length trace in
  if n = 0 then trace else pass trace (max 1 (n / 2))

(* ---------- coverage-guided fuzz loop ---------- *)

type fuzz_stats = {
  fs_runs : int;
  fs_corpus : int;
  fs_divergence : (op list * string) option;
  fs_seed : int64;
}

let take n l = List.filteri (fun i _ -> i < n) l
let drop n l = List.filteri (fun i _ -> i >= n) l

let mutate rng t =
  let n = List.length t in
  if n = 0 then Gen.generate gen_trace ~seed:(Rng.next64 rng) ~size:8
  else
    match Rng.int rng 4 with
    | 0 ->
        let a = Rng.int rng n in
        let len = 1 + Rng.int rng (max 1 (n - a)) in
        List.filteri (fun i _ -> i < a || i >= a + len) t
    | 1 ->
        let a = Rng.int rng n in
        let len = 1 + Rng.int rng (min 4 (n - a)) in
        take (a + len) t @ take len (drop a t) @ drop (a + len) t
    | 2 ->
        let arr = Array.of_list t in
        let a = Rng.int rng n and b = Rng.int rng n in
        let tmp = arr.(a) in
        arr.(a) <- arr.(b);
        arr.(b) <- tmp;
        Array.to_list arr
    | _ ->
        let fresh = Gen.generate gen_trace ~seed:(Rng.next64 rng) ~size:6 in
        let a = Rng.int rng (n + 1) in
        take a t @ fresh @ drop a t

(* The fuzz loop: each iteration either mutates a random corpus entry
   or generates a fresh trace, runs it on both sides, and admits it to
   the corpus when its coverage signature is new. The first divergence
   is shrunk and ends the loop. *)
let run_fuzz ?weaken ?runs ?max_size ?(seed = Check.seed ()) () =
  let runs =
    match runs with
    | Some r -> r
    | None -> if Check.full_mode () then 3200 else 400
  in
  let max_size = Option.value max_size ~default:30 in
  let rng = Rng.create (Int64.logxor seed 0x5EED_F00DL) in
  let corpus = ref [] in
  let seen = Hashtbl.create 64 in
  let result = ref None in
  let i = ref 0 in
  while !result = None && !i < runs do
    let trace =
      if !corpus <> [] && Rng.bool rng then
        let parent = List.nth !corpus (Rng.int rng (List.length !corpus)) in
        mutate rng parent
      else
        Gen.generate gen_trace ~seed:(Rng.next64 rng)
          ~size:(4 + Rng.int rng max_size)
    in
    (match run_pair ?weaken trace with
    | Some d, _ ->
        let t' = shrink ?weaken trace in
        let d' = Option.value (compare_traces ?weaken t') ~default:d in
        result := Some (t', d')
    | None, cov ->
        if not (Hashtbl.mem seen cov) then begin
          Hashtbl.add seen cov ();
          corpus := trace :: !corpus
        end);
    incr i
  done;
  {
    fs_runs = !i;
    fs_corpus = Hashtbl.length seen;
    fs_divergence = !result;
    fs_seed = seed;
  }

(* Independent fuzz passes with split seeds, one pool cell per pass —
   the embarrassingly parallel outer loop for multi-pass (nightly)
   fuzzing. Pass [p]'s stats are those of
   [run_fuzz ~seed:(split_seed seed p)] exactly, at every domain
   count. *)
let run_fuzz_many ?domains ?weaken ?runs ?max_size
    ?(seed = Check.seed ()) ~passes () =
  Par.run ?domains passes (fun p ->
      run_fuzz ?weaken ?runs ?max_size ~seed:(Par.split_seed seed p) ())
  |> Array.to_list

let report fs =
  match fs.fs_divergence with
  | None ->
      Printf.sprintf
        "conformance: %d traces, %d coverage signatures, no divergence \
         (HISTAR_CHECK_SEED=0x%Lx)"
        fs.fs_runs fs.fs_corpus fs.fs_seed
  | Some (t, d) ->
      Printf.sprintf
        "conformance DIVERGENCE after %d traces (%d signatures)\n\
         %s\n\
         minimal trace (%d ops):\n\
         %s\n\
         replay: HISTAR_CHECK_SEED=0x%Lx dune runtest"
        fs.fs_runs fs.fs_corpus d (List.length t) (pp_trace t) fs.fs_seed
