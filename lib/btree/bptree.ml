module Codec = Histar_util.Codec
module Metrics = Histar_metrics.Metrics

(* Node traffic counters. [node_allocs] counts every node construction
   — the currency of path copying. A point update allocates one path
   (height nodes); a whole-tree copy is zero allocations because the
   root is shared. The structural-sharing property tests assert on
   exactly this counter. *)
let m_touches = Metrics.counter "btree.node_touches"
let m_splits = Metrics.counter "btree.splits"
let m_merges = Metrics.counter "btree.merges"
let m_allocs = Metrics.counter "btree.node_allocs"

(* Leaves hold the bindings; internal nodes hold separator keys.
   Separator semantics: keys >= keys.(i) live in children.(i+1).
   All arrays are immutable by convention — every update copies. *)
type 'a node =
  | Leaf of { keys : int array; vals : 'a array }
  | Internal of { keys : int array; children : 'a node array }

type 'a t = { order : int; root : 'a node; size : int }

let mk_leaf keys vals =
  Metrics.Counter.incr m_allocs;
  Leaf { keys; vals }

let mk_internal keys children =
  Metrics.Counter.incr m_allocs;
  Internal { keys; children }

let create ?(order = 16) () =
  if order < 4 then invalid_arg "Bptree.create: order must be >= 4";
  { order; root = mk_leaf [||] [||]; size = 0 }

(* occupancy bounds (non-root nodes) *)
let max_entries t = t.order
let min_entries t = t.order / 2
let max_children t = t.order
let min_children t = (t.order + 1) / 2

let cardinal t = t.size
let is_empty t = t.size = 0

(* ---------- array helpers (copy-on-write) ---------- *)

let array_insert a i x =
  let n = Array.length a in
  let b = Array.make (n + 1) x in
  Array.blit a 0 b 0 i;
  Array.blit a i b (i + 1) (n - i);
  b

let array_remove a i =
  Array.init (Array.length a - 1) (fun j -> if j < i then a.(j) else a.(j + 1))

let array_set a i x =
  let b = Array.copy a in
  b.(i) <- x;
  b

(* first index with a.(i) >= k *)
let lower_bound a k =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Int.compare a.(mid) k < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* first index with a.(i) > k *)
let upper_bound a k =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Int.compare a.(mid) k <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* ---------- lookups ---------- *)

let rec find_node node k =
  Metrics.Counter.incr m_touches;
  match node with
  | Leaf l ->
      let i = lower_bound l.keys k in
      if i < Array.length l.keys && Int.equal l.keys.(i) k then
        Some l.vals.(i)
      else None
  | Internal n -> find_node n.children.(upper_bound n.keys k) k

let find t k = find_node t.root k
let mem t k = Option.is_some (find t k)

let rec min_node = function
  | Leaf l ->
      if Array.length l.keys = 0 then None else Some (l.keys.(0), l.vals.(0))
  | Internal n -> min_node n.children.(0)

let rec max_node = function
  | Leaf l ->
      let n = Array.length l.keys in
      if n = 0 then None else Some (l.keys.(n - 1), l.vals.(n - 1))
  | Internal n -> max_node n.children.(Array.length n.children - 1)

let min_binding t = min_node t.root
let max_binding t = max_node t.root

(* Ordered queries descend to the one child that could contain the
   answer; on a miss the answer is the min (resp. max) of the adjacent
   sibling subtree, whose keys are all beyond the separator. *)

let rec geq_node node k =
  Metrics.Counter.incr m_touches;
  match node with
  | Leaf l ->
      let i = lower_bound l.keys k in
      if i < Array.length l.keys then Some (l.keys.(i), l.vals.(i)) else None
  | Internal n -> (
      let ci = upper_bound n.keys k in
      match geq_node n.children.(ci) k with
      | Some _ as r -> r
      | None ->
          if ci + 1 < Array.length n.children then min_node n.children.(ci + 1)
          else None)

let rec gt_node node k =
  Metrics.Counter.incr m_touches;
  match node with
  | Leaf l ->
      let i = upper_bound l.keys k in
      if i < Array.length l.keys then Some (l.keys.(i), l.vals.(i)) else None
  | Internal n -> (
      let ci = upper_bound n.keys k in
      match gt_node n.children.(ci) k with
      | Some _ as r -> r
      | None ->
          if ci + 1 < Array.length n.children then min_node n.children.(ci + 1)
          else None)

let rec leq_node node k =
  Metrics.Counter.incr m_touches;
  match node with
  | Leaf l ->
      let i = upper_bound l.keys k in
      if i > 0 then Some (l.keys.(i - 1), l.vals.(i - 1)) else None
  | Internal n -> (
      let ci = upper_bound n.keys k in
      match leq_node n.children.(ci) k with
      | Some _ as r -> r
      | None -> if ci > 0 then max_node n.children.(ci - 1) else None)

let rec lt_node node k =
  Metrics.Counter.incr m_touches;
  match node with
  | Leaf l ->
      let i = lower_bound l.keys k in
      if i > 0 then Some (l.keys.(i - 1), l.vals.(i - 1)) else None
  | Internal n -> (
      let ci = lower_bound n.keys k in
      match lt_node n.children.(ci) k with
      | Some _ as r -> r
      | None -> if ci > 0 then max_node n.children.(ci - 1) else None)

let find_geq t k = geq_node t.root k
let find_gt t k = gt_node t.root k
let find_leq t k = leq_node t.root k
let find_lt t k = lt_node t.root k

(* ---------- insert (path copying) ---------- *)

(* Returns the rebuilt node, whether a new key was added, and the
   (separator, right sibling) when the node split. *)
let rec insert_node t node k v =
  Metrics.Counter.incr m_touches;
  match node with
  | Leaf l ->
      let i = lower_bound l.keys k in
      if i < Array.length l.keys && Int.equal l.keys.(i) k then
        (mk_leaf l.keys (array_set l.vals i v), false, None)
      else
        let keys = array_insert l.keys i k in
        let vals = array_insert l.vals i v in
        let n = Array.length keys in
        if n <= max_entries t then (mk_leaf keys vals, true, None)
        else begin
          Metrics.Counter.incr m_splits;
          let mid = n / 2 in
          let left = mk_leaf (Array.sub keys 0 mid) (Array.sub vals 0 mid) in
          let rkeys = Array.sub keys mid (n - mid) in
          let rvals = Array.sub vals mid (n - mid) in
          (left, true, Some (rkeys.(0), mk_leaf rkeys rvals))
        end
  | Internal nd -> (
      let ci = upper_bound nd.keys k in
      let child, added, split = insert_node t nd.children.(ci) k v in
      match split with
      | None ->
          (mk_internal nd.keys (array_set nd.children ci child), added, None)
      | Some (sep, right) ->
          let keys = array_insert nd.keys ci sep in
          let children =
            array_insert (array_set nd.children ci child) (ci + 1) right
          in
          let nc = Array.length children in
          if nc <= max_children t then (mk_internal keys children, added, None)
          else begin
            Metrics.Counter.incr m_splits;
            let mid = nc / 2 in
            let up = keys.(mid - 1) in
            let left =
              mk_internal
                (Array.sub keys 0 (mid - 1))
                (Array.sub children 0 mid)
            in
            let right =
              mk_internal
                (Array.sub keys mid (Array.length keys - mid))
                (Array.sub children mid (nc - mid))
            in
            (left, added, Some (up, right))
          end)

let insert t k v =
  let node, added, split = insert_node t t.root k v in
  let root =
    match split with
    | None -> node
    | Some (sep, right) -> mk_internal [| sep |] [| node; right |]
  in
  { t with root; size = (t.size + if added then 1 else 0) }

(* ---------- remove (path copying with rebalancing) ---------- *)

let node_underfull t = function
  | Leaf l -> Array.length l.keys < min_entries t
  | Internal n -> Array.length n.children < min_children t

(* Rebuild a parent (given as its [pkeys]/[pchildren] arrays) with
   [child] substituted at index [ci], borrowing from or merging with a
   sibling when [child] is underfull. The parent's own fill is the
   caller's problem. *)
let fix_child t pkeys pchildren ci child =
  if not (node_underfull t child) then
    mk_internal pkeys (array_set pchildren ci child)
  else
    let nleft = if ci > 0 then Some pchildren.(ci - 1) else None in
    let nright =
      if ci + 1 < Array.length pchildren then Some pchildren.(ci + 1)
      else None
    in
    let rich = function
      | Some (Leaf l) -> Array.length l.keys > min_entries t
      | Some (Internal n) -> Array.length n.children > min_children t
      | None -> false
    in
    if rich nleft then begin
      (* borrow the left sibling's last entry/child *)
      match (Option.get nleft, child) with
      | Leaf ll, Leaf cl ->
          let n = Array.length ll.keys in
          let k = ll.keys.(n - 1) and v = ll.vals.(n - 1) in
          let left =
            mk_leaf (Array.sub ll.keys 0 (n - 1)) (Array.sub ll.vals 0 (n - 1))
          in
          let child =
            mk_leaf (array_insert cl.keys 0 k) (array_insert cl.vals 0 v)
          in
          mk_internal
            (array_set pkeys (ci - 1) k)
            (array_set (array_set pchildren (ci - 1) left) ci child)
      | Internal ln, Internal cn ->
          let nc = Array.length ln.children in
          let sep = pkeys.(ci - 1) in
          let left =
            mk_internal
              (Array.sub ln.keys 0 (Array.length ln.keys - 1))
              (Array.sub ln.children 0 (nc - 1))
          in
          let child =
            mk_internal
              (array_insert cn.keys 0 sep)
              (array_insert cn.children 0 ln.children.(nc - 1))
          in
          mk_internal
            (array_set pkeys (ci - 1) ln.keys.(Array.length ln.keys - 1))
            (array_set (array_set pchildren (ci - 1) left) ci child)
      | _ -> assert false
    end
    else if rich nright then begin
      (* borrow the right sibling's first entry/child *)
      match (child, Option.get nright) with
      | Leaf cl, Leaf rl ->
          let k = rl.keys.(0) and v = rl.vals.(0) in
          let child =
            mk_leaf
              (array_insert cl.keys (Array.length cl.keys) k)
              (array_insert cl.vals (Array.length cl.vals) v)
          in
          let right =
            mk_leaf (array_remove rl.keys 0) (array_remove rl.vals 0)
          in
          mk_internal
            (array_set pkeys ci rl.keys.(1))
            (array_set (array_set pchildren ci child) (ci + 1) right)
      | Internal cn, Internal rn ->
          let sep = pkeys.(ci) in
          let child =
            mk_internal
              (array_insert cn.keys (Array.length cn.keys) sep)
              (array_insert cn.children (Array.length cn.children)
                 rn.children.(0))
          in
          let right =
            mk_internal (array_remove rn.keys 0) (array_remove rn.children 0)
          in
          mk_internal
            (array_set pkeys ci rn.keys.(0))
            (array_set (array_set pchildren ci child) (ci + 1) right)
      | _ -> assert false
    end
    else begin
      Metrics.Counter.incr m_merges;
      (* merge with a sibling (prefer left), dropping one separator *)
      let li, merged =
        match nleft with
        | Some left ->
            ( ci - 1,
              match (left, child) with
              | Leaf ll, Leaf cl ->
                  mk_leaf
                    (Array.append ll.keys cl.keys)
                    (Array.append ll.vals cl.vals)
              | Internal ln, Internal cn ->
                  mk_internal
                    (Array.concat [ ln.keys; [| pkeys.(ci - 1) |]; cn.keys ])
                    (Array.append ln.children cn.children)
              | _ -> assert false )
        | None ->
            ( ci,
              match (child, Option.get nright) with
              | Leaf cl, Leaf rl ->
                  mk_leaf
                    (Array.append cl.keys rl.keys)
                    (Array.append cl.vals rl.vals)
              | Internal cn, Internal rn ->
                  mk_internal
                    (Array.concat [ cn.keys; [| pkeys.(ci) |]; rn.keys ])
                    (Array.append cn.children rn.children)
              | _ -> assert false )
      in
      let keys = array_remove pkeys li in
      let children = array_remove (array_set pchildren li merged) (li + 1) in
      mk_internal keys children
    end

(* Returns the rebuilt (possibly root-underfull) node, or None if the
   key was absent — in which case nothing was rebuilt. *)
let rec remove_node t node k =
  Metrics.Counter.incr m_touches;
  match node with
  | Leaf l ->
      let i = lower_bound l.keys k in
      if i < Array.length l.keys && Int.equal l.keys.(i) k then
        Some (mk_leaf (array_remove l.keys i) (array_remove l.vals i))
      else None
  | Internal nd -> (
      let ci = upper_bound nd.keys k in
      match remove_node t nd.children.(ci) k with
      | None -> None
      | Some child -> Some (fix_child t nd.keys nd.children ci child))

let remove t k =
  match remove_node t t.root k with
  | None -> None
  | Some root ->
      let root =
        match root with
        | Internal n when Array.length n.children = 1 -> n.children.(0)
        | _ -> root
      in
      Some { t with root; size = t.size - 1 }

(* ---------- traversal ---------- *)

let rec iter_node f = function
  | Leaf l -> Array.iteri (fun i k -> f k l.vals.(i)) l.keys
  | Internal n -> Array.iter (iter_node f) n.children

let iter f t = iter_node f t.root

let fold f init t =
  let acc = ref init in
  iter (fun k v -> acc := f !acc k v) t;
  !acc

let to_list t = List.rev (fold (fun acc k v -> (k, v) :: acc) [] t)

let rec height_node = function
  | Leaf _ -> 1
  | Internal n -> 1 + height_node n.children.(0)

let height t = height_node t.root

(* ---------- codec (format identical to the old mutable tree) ---------- *)

let encode e t =
  Codec.Enc.u32 e t.order;
  Codec.Enc.u32 e t.size;
  iter
    (fun k v ->
      Codec.Enc.int e k;
      Codec.Enc.int e v)
    t

let decode d =
  let order = Codec.Dec.u32 d in
  let size = Codec.Dec.u32 d in
  let t = ref (create ~order ()) in
  for _ = 1 to size do
    let k = Codec.Dec.int d in
    let v = Codec.Dec.int d in
    t := insert !t k v
  done;
  !t

(* ---------- invariants ---------- *)

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let depth = ref (-1) in
  let count = ref 0 in
  (* each subtree's keys must lie in [lo, hi) *)
  let rec go node ~lo ~hi ~is_root ~d =
    let bound_check k =
      (match lo with
      | Some b when Int.compare k b < 0 -> fail "Bptree: key below bound"
      | _ -> ());
      match hi with
      | Some b when Int.compare k b >= 0 -> fail "Bptree: key above bound"
      | _ -> ()
    in
    match node with
    | Leaf l ->
        let n = Array.length l.keys in
        if Array.length l.vals <> n then fail "Bptree: leaf keys/vals mismatch";
        if n > max_entries t then fail "Bptree: overfull leaf (%d)" n;
        if (not is_root) && n < min_entries t then
          fail "Bptree: underfull leaf (%d < %d)" n (min_entries t);
        if !depth = -1 then depth := d
        else if !depth <> d then fail "Bptree: leaves at different depths";
        count := !count + n;
        Array.iteri
          (fun i k ->
            if i > 0 && Int.compare l.keys.(i - 1) k >= 0 then
              fail "Bptree: leaf keys out of order";
            bound_check k)
          l.keys
    | Internal nd ->
        let nc = Array.length nd.children in
        if Array.length nd.keys <> nc - 1 then
          fail "Bptree: internal key/child count mismatch";
        if nc > max_children t then fail "Bptree: overfull internal (%d)" nc;
        if (not is_root) && nc < min_children t then
          fail "Bptree: underfull internal (%d < %d)" nc (min_children t);
        if is_root && nc < 2 then fail "Bptree: internal root with one child";
        Array.iteri
          (fun i k ->
            if i > 0 && Int.compare nd.keys.(i - 1) k >= 0 then
              fail "Bptree: separators out of order";
            bound_check k)
          nd.keys;
        Array.iteri
          (fun i c ->
            let lo' = if i = 0 then lo else Some nd.keys.(i - 1) in
            let hi' = if i = nc - 1 then hi else Some nd.keys.(i) in
            go c ~lo:lo' ~hi:hi' ~is_root:false ~d:(d + 1))
          nd.children
  in
  go t.root ~lo:None ~hi:None ~is_root:true ~d:0;
  if !count <> t.size then fail "Bptree: size %d but %d bindings" t.size !count
