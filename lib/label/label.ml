(* A label is a default rank plus its non-default entries, interleaved
   in one int array [| c0; r0; c1; r1; ... |] sorted strictly by
   category, with no entry at the default rank. Ranks are
   [Level.to_rank] (⋆ < 0 < 1 < 2 < 3 < J as 0..5), so a level test is
   an int compare. Categories are stored unpacked: they span 61 bits,
   so a packed [(c lsl 3) lor rank] would overflow and misorder.

   Every constructor normalises, so structurally equal labels are
   extensionally equal, and [hash] is computed once from that normal
   form; it depends on nothing but the label, so it is the same in
   every run and on every domain. The algebra is pure and keeps no
   memo: the kernel's per-instance [Label_cache] is the one place
   decisions are cached. *)
type t = { default : int; hash : int; ents : int array }

let rank_j = 5

(* FNV-1a over the words of the normal form, folded so the low bits a
   hash table indexes by see the high ones. *)
let hash_of d ents =
  let h = ref (d + 1) in
  for i = 0 to Array.length ents - 1 do
    h := (!h lxor ents.(i)) * 0x100000001b3
  done;
  let h = !h in
  (h lxor (h lsr 31)) land max_int

let mk d ents = { default = d; hash = hash_of d ents; ents }

(* The one builder: [e] is interleaved and sorted strictly by category;
   its pairs at the default [d] are dropped, in place. *)
let compact d e =
  let n = ref 0 in
  for k = 0 to (Array.length e / 2) - 1 do
    if e.((2 * k) + 1) <> d then begin
      e.(!n) <- e.(2 * k);
      e.(!n + 1) <- e.((2 * k) + 1);
      n := !n + 2
    end
  done;
  mk d (if !n = Array.length e then e else Array.sub e 0 !n)

let pairs t = List.init (Array.length t.ents / 2) (fun k -> (t.ents.(2 * k), t.ents.((2 * k) + 1)))

let make d =
  if Level.equal d Level.J then invalid_arg "Label.make: default level J";
  mk (Level.to_rank d) [||]

let hash t = t.hash
let default t = Level.of_rank t.default

let rec rank_of (ents : int array) c d i =
  if i >= Array.length ents || ents.(i) > c then d
  else if ents.(i) = c then ents.(i + 1)
  else rank_of ents c d (i + 2)

let get t (c : Category.t) = Level.of_rank (rank_of t.ents (c :> int) t.default 0)

let set t (c : Category.t) lv =
  let c = (c :> int) and r = Level.to_rank lv and e = t.ents in
  let rec at i = if i < Array.length e && e.(i) < c then at (i + 2) else i in
  let i = at 0 in
  let j = if i < Array.length e && e.(i) = c then i + 2 else i in
  let unchanged = if j > i then e.(i + 1) = r else r = t.default in
  if unchanged then t
  else
    let mid = if r = t.default then [||] else [| c; r |] in
    mk t.default (Array.concat [ Array.sub e 0 i; mid; Array.sub e j (Array.length e - j) ])

(* Sort by category, keep the last entry per category. *)
let of_list entries d =
  let d = (make d).default (* raises on J *) in
  let sorted = List.stable_sort (fun (a, _) (b, _) -> Category.compare a b) entries in
  let rec keep_last = function
    | (c1, _) :: ((c2, _) :: _ as rest) when Category.equal c1 c2 -> keep_last rest
    | (c, lv) :: rest -> (c :> int) :: Level.to_rank lv :: keep_last rest
    | [] -> []
  in
  compact d (Array.of_list (keep_last sorted))

let entries t = List.map (fun (c, r) -> (Category.of_int c, Level.of_rank r)) (pairs t)
let ranked t = (pairs t, t.default)

(* Unchecked reads: [equal] compares the lengths first. *)
let rec same_below (ea : int array) (eb : int array) i =
  i = 0 || (Array.unsafe_get ea (i - 1) = Array.unsafe_get eb (i - 1) && same_below ea eb (i - 1))

let equal a b =
  a == b
  || a.hash = b.hash
     && a.default = b.default
     && Array.length a.ents = Array.length b.ents
     && same_below a.ents b.ents (Array.length a.ents)

(* [a(c) ⊑ b'(c)] for every category, in one merge walk, where [b'] is
   [b] or, with [jb], [b] with ⋆ read as J. Top-level and closure-free,
   so a decision allocates nothing. *)
let up jb r = if jb && r = 0 then rank_j else r

let rec walk jb ea da eb db i j =
  if i < Array.length ea then
    if j < Array.length eb then
      let ca = ea.(i) and cb = eb.(j) in
      if ca < cb then ea.(i + 1) <= db && walk jb ea da eb db (i + 2) j
      else if ca > cb then da <= up jb eb.(j + 1) && walk jb ea da eb db i (j + 2)
      else ea.(i + 1) <= up jb eb.(j + 1) && walk jb ea da eb db (i + 2) (j + 2)
    else ea.(i + 1) <= db && walk jb ea da eb db (i + 2) j
  else j >= Array.length eb || (da <= up jb eb.(j + 1) && walk jb ea da eb db i (j + 2))

let forall_leq jb a b =
  let db = up jb b.default in
  a.default <= db && walk jb a.ents a.default b.ents db 0 0

let leq a b = a == b || forall_leq false a b

(* Pointwise [f] over the union of the two entry sets. *)
let merge_with f a b =
  let ea = a.ents and eb = b.ents in
  let na = Array.length ea and nb = Array.length eb in
  let out = Array.make (na + nb) 0 in
  let rec go i j o =
    let put c r =
      out.(o) <- c;
      out.(o + 1) <- r
    in
    if i < na && (j >= nb || ea.(i) < eb.(j)) then begin
      put ea.(i) (f ea.(i + 1) b.default);
      go (i + 2) j (o + 2)
    end
    else if j < nb && (i >= na || eb.(j) < ea.(i)) then begin
      put eb.(j) (f a.default eb.(j + 1));
      go i (j + 2) (o + 2)
    end
    else if i < na then begin
      put ea.(i) (f ea.(i + 1) eb.(j + 1));
      go (i + 2) (j + 2) (o + 2)
    end
    else o
  in
  compact (f a.default b.default) (Array.sub out 0 (go 0 0 0))

(* When one side dominates, the result is that input: no merge. *)
let lub a b = if leq b a then a else if leq a b then b else merge_with Int.max a b
let glb a b = if leq a b then a else if leq b a then b else merge_with Int.min a b

let map_ranks f t =
  compact (f t.default) (Array.mapi (fun i w -> if i land 1 = 1 then f w else w) t.ents)

let rec has_rank r t k = k < Array.length t.ents && (t.ents.(k) = r || has_rank r t (k + 2))
let has_star t = t.default = 0 || has_rank 0 t 1
let has_j t = t.default = rank_j || has_rank rank_j t 1
let raise_j t = if has_star t then map_ranks (fun r -> if r = 0 then rank_j else r) t else t
let lower_star t = if has_j t then map_ranks (fun r -> if r = rank_j then 0 else r) t else t

let owns t c =
  match get t c with Level.Star | Level.J -> true | Level.L0 | Level.L1 | Level.L2 | Level.L3 -> false

let owned t =
  let s = ref Category.Set.empty in
  t.ents
  |> Array.iteri (fun i r ->
         if i land 1 = 1 && (r = 0 || r = rank_j) then
           s := Category.Set.add (Category.of_int t.ents.(i - 1)) !s);
  !s

(* [obj ⊑ thread^J], walked without building [thread^J]. *)
let can_observe ~thread ~obj = obj == thread || forall_leq true obj thread
let can_modify ~thread ~obj = leq thread obj && can_observe ~thread ~obj
let can_flow ~src ~dst = leq src dst
let taint_to_read ~thread ~obj = lower_star (lub (raise_j thread) obj)
let is_storable t = not (has_j t)
let is_object_label t = not (has_star t) && not (has_j t)

let encode enc t =
  let module E = Histar_util.Codec.Enc in
  E.u8 enc t.default;
  E.u32 enc (Array.length t.ents / 2);
  Array.iteri (fun i w -> if i land 1 = 0 then E.int enc w else E.u8 enc w) t.ents

(* The bytes are untrusted: entries may come unsorted, repeated or at
   the default, so they go through [of_list]'s normalisation (later
   entries win) rather than straight into the array. *)
let decode dec =
  let module D = Histar_util.Codec.Dec in
  let d = Level.of_rank (D.u8 dec) in
  let n = D.u32 dec in
  let rec go acc i =
    if i = n then List.rev acc
    else
      let c = Category.of_int64 (D.i64 dec) in
      let lv = Level.of_rank (D.u8 dec) in
      go ((c, lv) :: acc) (i + 1)
  in
  of_list (go [] 0) d

let pp fmt t =
  Format.fprintf fmt "{";
  List.iter
    (fun (c, lv) -> Format.fprintf fmt "%a %a, " Category.pp c Level.pp lv)
    (entries t);
  Format.fprintf fmt "%a}" Level.pp (default t)

let to_string t = Format.asprintf "%a" pp t
