(* Labels are hash-consed: every value of type [t] in the process is
   interned in a weak table, so structurally equal labels are the same
   heap object and [equal] is a pointer test. The algebra itself is
   pure and keeps no memo: the kernel's per-instance [Label_cache] is
   the one place decisions are cached. The [uid] is process-local and
   never serialized; [compare] stays structural so orderings are stable
   across runs. *)
type t = { uid : int; default : Level.t; entries : Level.t Category.Map.t }

let structural_equal a b =
  Level.equal a.default b.default && Category.Map.equal Level.equal a.entries b.entries

let structural_hash t =
  Category.Map.fold
    (fun c lv acc -> (Hashtbl.hash ((c :> int), Level.to_rank lv) + (acc * 65599)) land max_int)
    t.entries (Level.to_rank t.default)

module Intern = Weak.Make (struct
  type nonrec t = t

  let equal = structural_equal
  let hash = structural_hash
end)

let intern_tbl = Intern.create 1024
let next_uid = ref 0

(* Interning is process-global and domains intern concurrently (check
   cells run on the lib/par pool), so the weak table
   and the uid counter sit behind one mutex. Canonical pointers stay
   canonical across domains — two domains interning structurally equal
   labels get the same heap object — which is what keeps [equal]'s
   pointer test sound under parallelism. Uids are process-local and
   never serialized, so their (interleaving-dependent) numbering is
   invisible to every output. *)
let intern_mu = Mutex.create ()

(* The uid is only consumed when the candidate is actually inserted;
   re-interning an existing label allocates nothing persistent. *)
let intern ~default ~entries =
  Mutex.lock intern_mu;
  let candidate = { uid = !next_uid; default; entries } in
  let v = Intern.merge intern_tbl candidate in
  if v == candidate then incr next_uid;
  Mutex.unlock intern_mu;
  v

let id t = t.uid

let interned_count () =
  Mutex.lock intern_mu;
  let n = !next_uid in
  Mutex.unlock intern_mu;
  n

let make d =
  if Level.equal d Level.J then invalid_arg "Label.make: default level J";
  intern ~default:d ~entries:Category.Map.empty

let default t = t.default

let get t c =
  match Category.Map.find_opt c t.entries with
  | Some lv -> lv
  | None -> t.default

let set t c lv =
  let entries =
    if Level.equal lv t.default then Category.Map.remove c t.entries
    else Category.Map.add c lv t.entries
  in
  if entries == t.entries then t else intern ~default:t.default ~entries

let of_list entries d =
  let base = make d in
  (* Single sorted dedup pass: stable-sort by category so later entries
     for the same category stay behind earlier ones, keep the last of
     each run, drop default levels, intern the canonical map once. *)
  let sorted = List.stable_sort (fun (a, _) (b, _) -> Category.compare a b) entries in
  let rec keep_last = function
    | (c1, _) :: ((c2, _) :: _ as rest) when Category.equal c1 c2 -> keep_last rest
    | kept :: rest -> kept :: keep_last rest
    | [] -> []
  in
  let map =
    List.fold_left
      (fun m (c, lv) -> if Level.equal lv d then m else Category.Map.add c lv m)
      Category.Map.empty (keep_last sorted)
  in
  if Category.Map.is_empty map then base else intern ~default:d ~entries:map

let entries t = Category.Map.bindings t.entries

let ranked t =
  ( Category.Map.fold
      (fun c lv acc -> ((c :> int), Level.to_rank lv) :: acc)
      t.entries []
    |> List.sort compare,
    Level.to_rank t.default )

let categories t =
  Category.Map.fold (fun c _ acc -> Category.Set.add c acc) t.entries Category.Set.empty

(* Interning makes structural equality coincide with identity. *)
let equal a b = a == b

let compare a b =
  if a == b then 0
  else
    let c = Level.compare a.default b.default in
    if c <> 0 then c else Category.Map.compare Level.compare a.entries b.entries

(* Pointwise combination over the union of the two entry sets. *)
let merge_with f a b =
  let entries =
    Category.Map.merge
      (fun _c la lb ->
        let la = Option.value la ~default:a.default in
        let lb = Option.value lb ~default:b.default in
        Some (f la lb))
      a.entries b.entries
  in
  let d = f a.default b.default in
  (* Re-normalize: entries equal to the new default are dropped. *)
  let entries = Category.Map.filter (fun _ lv -> not (Level.equal lv d)) entries in
  intern ~default:d ~entries

let pointwise_forall f a b =
  f a.default b.default
  && Category.Map.for_all (fun c la -> f la (get b c)) a.entries
  && Category.Map.for_all
       (fun c lb -> f a.default lb || Category.Map.mem c a.entries)
       b.entries

let leq a b = a == b || pointwise_forall Level.leq a b

(* When one side dominates, the result is that input: no merge, no
   intern. *)
let lub a b = if leq b a then a else if leq a b then b else merge_with Level.max a b
let glb a b = if leq a b then a else if leq b a then b else merge_with Level.min a b

let map_levels f t =
  let d = f t.default in
  let entries = Category.Map.map f t.entries in
  let entries = Category.Map.filter (fun _ lv -> not (Level.equal lv d)) entries in
  intern ~default:d ~entries

let star_to_j = function Level.Star -> Level.J | lv -> lv
let j_to_star = function Level.J -> Level.Star | lv -> lv

let level_exists p t =
  p t.default || Category.Map.exists (fun _ lv -> p lv) t.entries

let has_star t = level_exists (Level.equal Level.Star) t
let has_j t = level_exists (Level.equal Level.J) t
let raise_j t = if has_star t then map_levels star_to_j t else t
let lower_star t = if has_j t then map_levels j_to_star t else t

let owns t c =
  match get t c with Level.Star | Level.J -> true | Level.L0 | Level.L1 | Level.L2 | Level.L3 -> false

let owned t =
  Category.Map.fold
    (fun c lv acc ->
      match lv with
      | Level.Star | Level.J -> Category.Set.add c acc
      | Level.L0 | Level.L1 | Level.L2 | Level.L3 -> acc)
    t.entries Category.Set.empty

(* [obj ⊑ thread^J], walked pointwise without building [thread^J]. *)
let can_observe ~thread ~obj =
  obj == thread || pointwise_forall (fun lo lt -> Level.leq lo (star_to_j lt)) obj thread

let can_modify ~thread ~obj = leq thread obj && can_observe ~thread ~obj
let can_flow ~src ~dst = leq src dst
let taint_to_read ~thread ~obj = lower_star (lub (raise_j thread) obj)
let is_storable t = not (has_j t)
let is_object_label t = not (has_star t) && not (has_j t)

let encode enc t =
  let module E = Histar_util.Codec.Enc in
  E.u8 enc (Level.to_rank t.default);
  E.u32 enc (Category.Map.cardinal t.entries);
  Category.Map.iter
    (fun c lv ->
      E.int enc (c :> int);
      E.u8 enc (Level.to_rank lv))
    t.entries

let decode dec =
  let module D = Histar_util.Codec.Dec in
  let d = Level.of_rank (D.u8 dec) in
  let n = D.u32 dec in
  let rec go acc i =
    if i = n then acc
    else
      let c = Category.of_int64 (D.i64 dec) in
      let lv = Level.of_rank (D.u8 dec) in
      let acc = if Level.equal lv d then Category.Map.remove c acc else Category.Map.add c lv acc in
      go acc (i + 1)
  in
  if Level.equal d Level.J then invalid_arg "Label.make: default level J";
  intern ~default:d ~entries:(go Category.Map.empty 0)

let pp fmt t =
  Format.fprintf fmt "{";
  List.iter
    (fun (c, lv) -> Format.fprintf fmt "%a %a, " Category.pp c Level.pp lv)
    (entries t);
  Format.fprintf fmt "%a}" Level.pp t.default

let to_string t = Format.asprintf "%a" pp t
