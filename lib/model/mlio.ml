(* Reference semantics of the lib/lio floating-label layer, over the
   naive Mlabel algebra. Pure state transitions only — the kernel-side
   mechanics (one-shot gates, return-gate laundering) are what lib/lio
   implements; this module states what those mechanics must compute. *)

type st = { cur : Mlabel.t; clear : Mlabel.t }

let make ~cur ~clear = { cur; clear }
let cur st = st.cur
let clear st = st.clear

let equal a b = Mlabel.equal a.cur b.cur && Mlabel.equal a.clear b.clear

let to_string st =
  Printf.sprintf "cur=%s clear=%s" (Mlabel.to_string st.cur)
    (Mlabel.to_string st.clear)

(* The floating-label join: pointwise ⊔ except that ⋆ entries are
   privilege, not taint — they absorb joins at or below the public
   level 1 and are clobbered only by an explicit taint above it. *)
let taint_join cur l =
  List.fold_left
    (fun acc c ->
      if Mlabel.get l c <= Mlabel.l1 then Mlabel.set acc c Mlabel.star else acc)
    (Mlabel.lub cur l) (Mlabel.owned cur)

let taint st l =
  let next = taint_join st.cur l in
  if Mlabel.leq next st.clear then Ok { st with cur = next } else Error ()

let label_ok st l = Mlabel.leq st.cur l && Mlabel.leq l st.clear
let unlabel st l = taint st l

(* Scope entry: to_labeled additionally lowers the clearance to the
   block label, which is how the kernel itself ends up refusing any
   taint beyond it inside the block. *)
let enter_to_labeled st l =
  if label_ok st l then Ok { st with clear = l } else Error ()

let enter_catch st = st

(* Scope exit — the §3.5 return-gate transition lib/lio rides:
   lr = ((dropped cur)^J ⊔ pre^⋆→J)^⋆, so taint in categories the
   pre-scope label owned is laundered back to ⋆ while non-owned taint
   survives the ⊔. Unless [keep_acquired], ⋆s picked up inside the
   scope (ownership-granting gates) are dropped first. *)
let exit_scope ~pre ~keep_acquired st =
  let dropped =
    if keep_acquired then st.cur
    else
      List.fold_left
        (fun acc c ->
          if Mlabel.owns pre.cur c then acc else Mlabel.set acc c Mlabel.l1)
        st.cur (Mlabel.owned st.cur)
  in
  let lr =
    Mlabel.lower_star
      (Mlabel.lub (Mlabel.raise_j dropped) (Mlabel.raise_j pre.cur))
  in
  { cur = lr; clear = pre.clear }
