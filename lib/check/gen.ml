module Rng = Histar_util.Rng

type 'a tree = Tree of 'a * 'a tree Seq.t

let tree_root (Tree (x, _)) = x

let rec tree_map f (Tree (x, cs)) = Tree (f x, Seq.map (tree_map f) cs)

(* Hedgehog-style monadic composition: shrink the outer value first
   (regenerating the inner tree for each candidate), then the inner. *)
let rec tree_bind (Tree (x, xs)) f =
  let (Tree (y, ys)) = f x in
  Tree (y, Seq.append (Seq.map (fun x' -> tree_bind x' f) xs) ys)

type 'a t = { run : int64 -> int -> 'a tree }

let run g ~seed ~size = g.run seed size
let generate g ~seed ~size = tree_root (g.run seed size)

let split2 seed =
  let r = Rng.create seed in
  let a = Rng.next64 r in
  let b = Rng.next64 r in
  (a, b)

let return x = { run = (fun _ _ -> Tree (x, Seq.empty)) }
let map f g = { run = (fun s n -> tree_map f (g.run s n)) }

let bind g f =
  {
    run =
      (fun seed size ->
        let s1, s2 = split2 seed in
        tree_bind (g.run s1 size) (fun a -> (f a).run s2 size));
  }

let ( let* ) = bind
let map2 f a b = bind a (fun x -> map (f x) b)
let pair a b = map2 (fun x y -> (x, y)) a b

let triple a b c =
  bind a (fun x -> map2 (fun y z -> (x, y, z)) b c)

let sized f = { run = (fun s n -> (f n).run s n) }
let resize n g = { run = (fun s _ -> g.run s n) }

(* ---------- integers ---------- *)

(* Halvings of [n] down to 1: the shrink candidates [x - h] then step
   from the destination (h = x - lo) back towards [x]. *)
let rec halves n : int Seq.t =
 fun () -> if n = 0 then Seq.Nil else Seq.Cons (n, halves (n / 2))

let rec int_tree ~lo x =
  let candidates = Seq.map (fun h -> x - h) (halves (x - lo)) in
  Tree (x, Seq.map (int_tree ~lo) candidates)

let int_range lo hi =
  if lo > hi then invalid_arg "Gen.int_range: empty range";
  {
    run =
      (fun seed _ ->
        let r = Rng.create seed in
        let x = lo + Rng.int r (hi - lo + 1) in
        int_tree ~lo x);
  }

let nat = sized (fun n -> int_range 0 (max 0 n))

let rec halves64 n : int64 Seq.t =
 fun () ->
  if Int64.equal n 0L then Seq.Nil else Seq.Cons (n, halves64 (Int64.div n 2L))

let rec int64_tree x =
  let candidates = Seq.map (fun h -> Int64.sub x h) (halves64 x) in
  Tree (x, Seq.map int64_tree candidates)

let int64 =
  {
    run =
      (fun seed _ ->
        let r = Rng.create seed in
        int64_tree (Rng.next64 r));
  }

let bool = map (fun i -> i = 1) (int_range 0 1)
let char = map Char.chr (int_range 0 255)
let byte = char

let choose xs =
  if xs = [] then invalid_arg "Gen.choose: empty list";
  map (List.nth xs) (int_range 0 (List.length xs - 1))

let oneof gs =
  if gs = [] then invalid_arg "Gen.oneof: empty list";
  bind (int_range 0 (List.length gs - 1)) (List.nth gs)

let frequency wgs =
  let total = List.fold_left (fun acc (w, _) -> acc + w) 0 wgs in
  if total <= 0 then invalid_arg "Gen.frequency: weights must be positive";
  bind (int_range 0 (total - 1)) (fun roll ->
      let rec pick roll = function
        | [] -> assert false
        | (w, g) :: rest -> if roll < w then g else pick (roll - w) rest
      in
      pick roll wgs)

(* ---------- lists ---------- *)

(* All ways of removing [k] consecutive elements (QuickCheck's removes). *)
let rec take k = function
  | x :: rest when k > 0 -> x :: take (k - 1) rest
  | _ -> []

let rec drop k = function
  | _ :: rest when k > 0 -> drop (k - 1) rest
  | xs -> xs

let rec removes k xs : 'a list Seq.t =
 fun () ->
  if k > List.length xs then Seq.Nil
  else
    let kept = take k xs and rest = drop k xs in
    Seq.Cons (rest, Seq.map (fun r -> kept @ r) (removes k rest))

(* Lists of trees with exactly one element replaced by one of its
   shrink candidates. *)
let rec elementwise = function
  | [] -> Seq.empty
  | (Tree (_, cs) as t) :: rest ->
      Seq.append
        (Seq.map (fun c -> c :: rest) cs)
        (Seq.map (fun rest' -> t :: rest') (elementwise rest))

let rec forest_tree (ts : 'a tree list) : 'a list tree =
  let drops =
    Seq.concat_map (fun k -> removes k ts) (halves (List.length ts))
  in
  Tree
    ( List.map tree_root ts,
      Seq.map forest_tree (Seq.append drops (elementwise ts)) )

let gen_trees r n g size =
  let rec go n acc =
    if n = 0 then List.rev acc
    else
      let s = Rng.next64 r in
      go (n - 1) (g.run s size :: acc)
  in
  go n []

let list g =
  sized (fun size ->
      {
        run =
          (fun seed _ ->
            let r = Rng.create seed in
            let n = Rng.int r (max 1 (size + 1)) in
            forest_tree (gen_trees r n g size));
      })

let list_len n g =
  {
    run =
      (fun seed size ->
        let r = Rng.create seed in
        let ts = gen_trees r n g size in
        let rec fixed ts =
          Tree (List.map tree_root ts, Seq.map fixed (elementwise ts))
        in
        fixed ts);
  }

let string_of cg =
  map
    (fun cs ->
      let b = Bytes.create (List.length cs) in
      List.iteri (Bytes.set b) cs;
      Bytes.to_string b)
    (list cg)

let string = string_of char
