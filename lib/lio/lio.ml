module Sys = Histar_core.Sys
module Label = Histar_label.Label
module Level = Histar_label.Level
module Category = Histar_label.Category
open Histar_core.Types

exception Lio_error of string

let lio_errf fmt = Printf.ksprintf (fun s -> raise (Lio_error s)) fmt

(* ---------- planted leaks (tests only) ---------- *)

type weaken = Weaken_lio_catch | Weaken_toLabeled_result

let weaken_to_string = function
  | Weaken_lio_catch -> "Weaken_lio_catch"
  | Weaken_toLabeled_result -> "Weaken_toLabeled_result"

(* Domain-local: twin-pair check cells run concurrently on the lib/par
   pool, each planting (or clearing) its own leak without perturbing
   its siblings. A kernel run stays on the domain that started it, so
   the evaluator below always reads the switch its own cell set. *)
let weaken_key : weaken option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let weaken () = !(Domain.DLS.get weaken_key)
let set_weaken w = Domain.DLS.get weaken_key := w

(* ---------- context ---------- *)

type ctx = { scratches : (Label.t * oid) list }

let init ?(levels = []) ~container () =
  let all = Label.make Level.L1 :: levels in
  let scratches =
    List.mapi
      (fun i lbl ->
        if not (Label.is_object_label lbl) then
          lio_errf "init: scratch level %s is not an object label"
            (Label.to_string lbl);
        let o =
          Sys.container_create ~container ~label:lbl ~quota:1_048_576L
            (Printf.sprintf "lio scratch %d" i)
        in
        (lbl, o))
      all
  in
  { scratches }

(* Scope gates (and their return gates) go in the first scratch the
   thread can modify at its current label: a tainted thread is denied
   the low scratch by the kernel, so secret-dependent numbers of scope
   excursions never perturb low-visible containers. *)
let scratch_for ctx lt =
  match
    List.find_opt (fun (lbl, _) -> Label.can_modify ~thread:lt ~obj:lbl)
      ctx.scratches
  with
  | Some (_, o) -> o
  | None ->
      lio_errf "no scratch container modifiable at %s (extend init ~levels)"
        (Label.to_string lt)

(* Refs go in the lowest scratch that is at least as tainted as the
   ref itself, so observing a ref never requires reading a container
   above the ref's own label. *)
let scratch_for_object ctx l =
  match List.find_opt (fun (lbl, _) -> Label.leq l lbl) ctx.scratches with
  | Some (_, o) -> o
  | None ->
      lio_errf "no scratch container at or above %s (extend init ~levels)"
        (Label.to_string l)

(* ---------- the floating label ---------- *)

let current_label () = Sys.self_label ()

(* Pointwise ⊔ of the current label with [l], except that ⋆ entries
   are privilege, not taint: a plain ⊔ would let the *public* default
   level 1 clobber ownership (⋆ < 1 in the level order). Ownership
   survives joins at or below the public level; only an explicit taint
   above it (the secret actually flowing in) clobbers the ⋆ — that is
   the LIO discipline: reading your own secret still taints you. *)
let taint l =
  let cur = Sys.self_label () in
  let next =
    Category.Set.fold
      (fun c acc ->
        if Level.leq (Label.get l c) Level.L1 then Label.set acc c Level.Star
        else acc)
      (Label.owned cur) (Label.lub cur l)
  in
  if not (Label.equal next cur) then Sys.self_set_label next

(* ---------- labeled values ---------- *)

type 'a labeled = { lab : Label.t; payload : ('a, exn) Stdlib.result }

let check_between ~op l =
  let cur = Sys.self_label () in
  if not (Label.leq cur l) then
    lio_errf "%s: label %s is below the current label %s" op
      (Label.to_string l) (Label.to_string cur);
  let clear = Sys.self_clearance () in
  if not (Label.leq l clear) then
    lio_errf "%s: label %s exceeds the clearance %s" op (Label.to_string l)
      (Label.to_string clear)

let label l v =
  check_between ~op:"label" l;
  { lab = l; payload = Ok v }

let label_of lv = lv.lab

let unlabel lv =
  taint lv.lab;
  match lv.payload with Ok v -> v | Error e -> raise e

(* ---------- scoped excursions ---------- *)

(* Return from a scope excursion. This is Sys.gate_return with two
   deliberate differences: the return-gate label is already known
   (we minted the gate ourselves, at [pre_l]), and the requested
   clearance is the pre-scope clearance rather than the current one —
   to_labeled lowers the clearance for the duration of the block, and
   the plain gate_return would leave it lowered. Both are legal under
   the §3.5 checks because the return gate's own clearance is pre_c. *)
let scope_epilogue ~keep_acquired ~pre_l ~pre_c =
  let self = Sys.self_label () in
  let self_dropped =
    if keep_acquired then self
    else
      Category.Set.fold
        (fun c acc ->
          if Label.owns pre_l c then acc else Label.set acc c Level.L1)
        (Label.owned self) self
  in
  let lr =
    Label.lower_star (Label.lub (Label.raise_j self_dropped) (Label.raise_j pre_l))
  in
  match Sys.self_get_return_gate () with
  | None -> Sys.self_halt ()
  | Some rg -> Sys.gate_enter ~gate:rg ~label:lr ~clearance:pre_c ()

(* Run [f] inside a one-shot gate excursion with clearance [bound].
   The return gate is minted by gate_call at [pre_l] — including every
   ⋆ the caller holds — before privileges drop, so returning launders
   taint in caller-owned categories back to ⋆ (§3.5); taint in
   non-owned categories survives the ⊔ and sticks to the caller. *)
let scope ctx ~bound ~keep_acquired f =
  let pre_l = Sys.self_label () in
  let pre_c = Sys.self_clearance () in
  let scratch = scratch_for ctx pre_l in
  let cell = ref None in
  let gid =
    Sys.gate_create ~one_shot:true ~container:scratch ~label:pre_l
      ~clearance:pre_c ~quota:4096L ~name:"lio scope" (fun () ->
        (cell :=
           let out = try Ok (f ()) with e -> Error e in
           Some (out, Sys.self_label ()));
        scope_epilogue ~keep_acquired ~pre_l ~pre_c)
  in
  Sys.gate_call ~gate:(centry scratch gid) ~label:pre_l ~clearance:bound
    ~return_container:scratch ~return_label:pre_l ~return_clearance:pre_c ();
  match !cell with
  | Some (out, final) -> (out, final)
  | None -> raise (Lio_error "scope: excursion did not run")

let with_scope ctx f =
  scope ctx ~bound:(Sys.self_clearance ()) ~keep_acquired:true f

let to_labeled ctx l f =
  check_between ~op:"to_labeled" l;
  let weak = weaken () = Some Weaken_toLabeled_result in
  (* Lowering the clearance to [l] for the duration of the block makes
     the kernel itself refuse any taint beyond [l] inside it: the
     attempt raises Kernel_error at the offending unlabel, where it is
     captured like any other exception — at a label that, unlike the
     would-be taint, still flows to [l]. *)
  let bound = if weak then Sys.self_clearance () else l in
  let out, final = scope ctx ~bound ~keep_acquired:false f in
  if (not weak) && not (Label.leq final l) then
    lio_errf "to_labeled: block finished at %s, above its label %s"
      (Label.to_string final) (Label.to_string l);
  { lab = l; payload = out }

let catch ctx f h =
  let out, final =
    scope ctx ~bound:(Sys.self_clearance ()) ~keep_acquired:true f
  in
  (* The scope restored the label (and any dropped privileges); the
     caller is about to use the outcome unlabeled, so re-apply the
     block's final taint — on the exception path this is the Stefan et
     al. catch discipline: the handler runs at the throw-point label. *)
  match out with
  | Ok v ->
      taint final;
      v
  | Error e ->
      if weaken () <> Some Weaken_lio_catch then taint final;
      h e

(* ---------- labeled references ---------- *)

type lref = { r_label : Label.t; r_entry : centry }

let new_ref ctx ?(name = "lio ref") l v =
  check_between ~op:"new_ref" l;
  let scratch = scratch_for_object ctx l in
  let o =
    Sys.segment_create ~container:scratch ~label:l ~quota:4096L
      ~len:(String.length v) name
  in
  let r = { r_label = l; r_entry = centry scratch o } in
  if String.length v > 0 then Sys.segment_write r.r_entry v;
  r

let ref_entry r = r.r_entry

let read_ref r =
  taint r.r_label;
  Sys.segment_read r.r_entry ()

let write_ref r v =
  let cur = Sys.self_label () in
  if not (Label.leq cur r.r_label) then
    lio_errf "write_ref: current label %s does not flow to ref label %s"
      (Label.to_string cur)
      (Label.to_string r.r_label);
  if Sys.segment_size r.r_entry <> String.length v then
    Sys.segment_resize r.r_entry (String.length v);
  if String.length v > 0 then Sys.segment_write r.r_entry v
