(* Reference label algebra: default rank + sorted (category, rank)
   exception list, every operator pointwise. Ranks 0..5 stand for
   ⋆ < 0 < 1 < 2 < 3 < J. Normal form: entries sorted by category,
   none equal to the default, each category at most once — so
   structural equality is extensional equality. *)

type t = { def : int; ents : (int * int) list }

let star = 0
let l0 = 1
let l1 = 2
let l2 = 3
let l3 = 4
let j = 5

let valid_rank r = r >= star && r <= j

let make d =
  if d = j || not (valid_rank d) then invalid_arg "Mlabel.make";
  { def = d; ents = [] }

let default t = t.def

let get t c =
  match List.assoc_opt c t.ents with Some r -> r | None -> t.def

let set t c r =
  if not (valid_rank r) then invalid_arg "Mlabel.set";
  let ents = List.filter (fun (c', _) -> not (Int.equal c c')) t.ents in
  let ents = if r = t.def then ents else (c, r) :: ents in
  { t with ents = List.sort (fun (a, _) (b, _) -> Int.compare a b) ents }

let of_entries entries d =
  List.fold_left (fun acc (c, r) -> set acc c r) (make d) entries

let entries t = t.ents
let equal a b = a.def = b.def && a.ents = b.ents
let compare = Stdlib.compare

(* Apply [f] at every category where either label has an entry, plus
   the defaults; renormalize against the new default. *)
let map2 f a b =
  let def = f a.def b.def in
  let rec go xs ys acc =
    match (xs, ys) with
    | [], [] -> List.rev acc
    | (c, r) :: xs', [] -> go xs' [] ((c, f r b.def) :: acc)
    | [], (c, r) :: ys' -> go [] ys' ((c, f a.def r) :: acc)
    | (cx, rx) :: xs', (cy, ry) :: ys' ->
        let cmp = Int.compare cx cy in
        if cmp < 0 then go xs' ys ((cx, f rx b.def) :: acc)
        else if cmp > 0 then go xs ys' ((cy, f a.def ry) :: acc)
        else go xs' ys' ((cx, f rx ry) :: acc)
  in
  let ents = List.filter (fun (_, r) -> r <> def) (go a.ents b.ents []) in
  { def; ents }

let check2 f a b =
  let rec go xs ys =
    match (xs, ys) with
    | [], [] -> true
    | (_, r) :: xs', [] -> f r b.def && go xs' []
    | [], (_, r) :: ys' -> f a.def r && go [] ys'
    | (cx, rx) :: xs', (cy, ry) :: ys' ->
        let cmp = Int.compare cx cy in
        if cmp < 0 then f rx b.def && go xs' ys
        else if cmp > 0 then f a.def ry && go xs ys'
        else f rx ry && go xs' ys'
  in
  f a.def b.def && go a.ents b.ents

let leq = check2 (fun x y -> x <= y)
let lub = map2 max
let glb = map2 min

let map_ranks f t =
  let def = f t.def in
  let ents =
    List.filter_map
      (fun (c, r) ->
        let r = f r in
        if r = def then None else Some (c, r))
      t.ents
  in
  { def; ents }

let raise_j = map_ranks (fun r -> if r = star then j else r)
let lower_star = map_ranks (fun r -> if r = j then star else r)

let owns t c =
  let r = get t c in
  r = star || r = j

let owned t =
  List.filter_map (fun (c, r) -> if r = star || r = j then Some c else None)
    t.ents

let has_star t = t.def = star || List.exists (fun (_, r) -> r = star) t.ents
let has_j t = t.def = j || List.exists (fun (_, r) -> r = j) t.ents
let is_storable t = not (has_j t)
let is_object_label t = not (has_star t) && not (has_j t)
let can_observe ~thread ~obj = leq obj (raise_j thread)
let can_modify ~thread ~obj = leq thread obj && leq obj (raise_j thread)
let can_flow ~src ~dst = leq src dst
let taint_to_read ~thread ~obj = lower_star (lub (raise_j thread) obj)

let rank_to_string r =
  if r = star then "*" else if r = j then "J" else string_of_int (r - 1)

let to_string t =
  let b = Buffer.create 32 in
  Buffer.add_char b '{';
  List.iter
    (fun (c, r) ->
      Buffer.add_string b (Printf.sprintf "c%d %s, " c (rank_to_string r)))
    t.ents;
  Buffer.add_string b (rank_to_string t.def);
  Buffer.add_char b '}';
  Buffer.contents b
