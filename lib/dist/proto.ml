(* Label translation and the remote-gate admission check.

   [to_wire] rewrites a local label into wire names — every category
   with a non-default level must already be exported or imported on
   this node, otherwise the label *cannot* be expressed on the wire
   and the message must not leave (the information-flow analogue of a
   dangling pointer: an unexported taint category has no cluster-wide
   meaning, so dropping the entry would silently declassify).

   [of_wire] rewrites an incoming wire label into local categories via
   a caller-supplied resolver (the {!Distd} conn thread, which creates
   a fresh local twin plus grant gate on first sight). Ownership (⋆)
   is honored only when [trusted] says the sending node may speak for
   that wire name; otherwise the entry is clamped to level 3 — the
   most pessimistic taint — so an untrusted relay can raise but never
   lower the secrecy of data it handles. J on the wire is likewise
   clamped: integrity assertions do not transfer between kernels.

   [admit] is the remote twin of the kernel/model gate-invocation
   check and mirrors [Model.check_gate_invoke] clause for clause,
   including the refusal strings, so the conformance suite can check
   that a remote call is refused exactly when the local model refuses
   the same invocation. *)

module Label = Histar_label.Label
module Level = Histar_label.Level
module Category = Histar_label.Category

let star_to_l3 l =
  Category.Set.fold
    (fun c acc -> Label.set acc c Level.L3)
    (Label.owned l) l

let cap ~label ~clearance = Label.lub clearance (star_to_l3 label)

let to_wire names l =
  let rec go acc = function
    | [] ->
        Ok
          {
            Wire.wl_entries = List.rev acc;
            wl_default = Level.to_rank (Label.default l);
          }
    | (c, lv) :: rest -> (
        match Names.find_local names c with
        | Some e -> go ((e.Names.e_wire, Level.to_rank lv) :: acc) rest
        | None ->
            Error
              (Fmt.str "category %s not exported" (Category.to_string c)))
  in
  go [] (Label.entries l)

let clamp_rank ~trusted rank =
  (* Untrusted ⋆, wire J, and out-of-range ranks all degrade to L3:
     taint is honored, privilege is not, garbage is pessimism. *)
  if rank < 0 || rank > Level.to_rank Level.J then Level.to_rank Level.L3
  else if rank = Level.to_rank Level.Star then
    if trusted then rank else Level.to_rank Level.L3
  else if rank = Level.to_rank Level.J then Level.to_rank Level.L3
  else rank

let of_wire ~resolve ~trusted (wl : Wire.wlabel) =
  let default =
    let d = clamp_rank ~trusted:false wl.wl_default in
    Level.of_rank d
  in
  List.fold_left
    (fun acc (w, rank) ->
      let c = resolve w in
      let lvl = Level.of_rank (clamp_rank ~trusted:(trusted w) rank) in
      Label.set acc c lvl)
    (Label.make default) wl.wl_entries

let admit ~lt ~ct ~lg ~gclear ~rl ~rc ~lv =
  if not (Label.leq lt gclear) then Error "gate: L_T not <= C_G"
  else if not (Label.leq lt lv) then Error "gate: L_T not <= L_V"
  else
    let floor =
      Label.lower_star (Label.lub (Label.raise_j lt) (Label.raise_j lg))
    in
    if not (Label.leq floor rl) then Error "gate: floor not <= L_R"
    else if not (Label.leq rl rc) then Error "gate: L_R not <= C_R"
    else if not (Label.leq rc (Label.lub ct gclear)) then
      Error "gate: C_R not <= C_T | C_G"
    else Ok ()
