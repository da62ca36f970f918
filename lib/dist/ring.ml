(* Consistent-hash placement ring for sharded services.

   Shards users (keyed by their login category's wire name) across D
   db nodes.  Placement is pure: the same (wire name, member set,
   vnode count) always maps to the same owner, on every node, with no
   coordination — the balancer and every app node compute routes
   locally and agree.

   The ring also carries the *handoff* state used during rebalance: a
   point (one vnode arc) can be marked draining while its records
   migrate from the old owner to the new one.  Routing a key whose
   owning arc is draining returns [`Handoff] — the caller must refuse
   admission (never mis-route) until [commit_handoff] lands.  This is
   the "refused during handoff" discipline: a request is either served
   by the node that provably owns the user's categories, or refused
   outright; it is never answered by a node whose export trust for
   those categories is in flux. *)

type point = {
  hash : int64;  (* position on the ring *)
  node : int;  (* owning member *)
  vidx : int;  (* vnode index within the member, for debug *)
  mutable draining : (int * int) option;
      (* (old_owner, new_owner) while a handoff is in flight *)
}

type t = { points : point array (* sorted by unsigned hash *) }

module Checksum = Histar_util.Checksum

let ucompare (a : int64) (b : int64) =
  (* unsigned 64-bit compare: flip the sign bit *)
  Int64.(compare (logxor a min_int) (logxor b min_int))

(* FNV-1a avalanches poorly on short, similar strings (consecutive
   user names differ in a couple of low bytes, and all of a node's
   vnode points share a prefix pattern), which degenerates the ring:
   every key lands on one member. The murmur3 finalizer scrambles the
   FNV output so positions spread uniformly. *)
let point_hash ~node ~vidx =
  Checksum.mix64 (Checksum.fnv64 (Printf.sprintf "ring:%d:%d" node vidx))

let key_hash key = Checksum.mix64 (Checksum.fnv64 ("key:" ^ key))

let create members =
  let members = List.sort_uniq compare members in
  let points =
    Array.of_list
      (List.concat_map
         (fun node ->
           List.init 16 (fun vidx ->
               { hash = point_hash ~node ~vidx; node; vidx; draining = None }))
         members)
  in
  Array.sort (fun a b -> ucompare a.hash b.hash) points;
  { points }

(* First point clockwise from [h] (binary search over the sorted
   array, wrapping past the top). *)
let successor t (h : int64) =
  let n = Array.length t.points in
  if n = 0 then None
  else
    let lo = ref 0 and hi = ref n in
    (* smallest index with points.(i).hash >= h *)
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if ucompare t.points.(mid).hash h < 0 then lo := mid + 1 else hi := mid
    done;
    Some t.points.(if !lo = n then 0 else !lo)

let owner t key =
  match successor t (key_hash key) with
  | None -> None
  | Some p -> Some p.node

let route t key =
  match successor t (key_hash key) with
  | None -> `No_members
  | Some p -> (
      match p.draining with
      | None -> `Node p.node
      | Some (old_owner, new_owner) -> `Handoff (old_owner, new_owner))

(* Handoff: mark every arc owned by [node] (or the single arc covering
   [key], when given) as draining toward [target].  Routing through a
   draining arc refuses; commit flips ownership and clears the mark. *)

let begin_handoff t ~key ~target =
  match successor t (key_hash key) with
  | None -> Error "ring: no members"
  | Some p ->
      if p.node = target then Error "ring: target already owns arc"
      else if p.draining <> None then Error "ring: arc already draining"
      else (
        p.draining <- Some (p.node, target);
        Ok ())

let commit_handoff t ~key =
  match successor t (key_hash key) with
  | None -> Error "ring: no members"
  | Some p -> (
      match p.draining with
      | None -> Error "ring: arc not draining"
      | Some (_old, new_owner) ->
          (* The arc's points array entry changes owner in place; the
             member set is unchanged (both nodes stay live). *)
          let q = { p with node = new_owner; draining = None } in
          let idx = ref (-1) in
          Array.iteri (fun i pt -> if pt == p then idx := i) t.points;
          t.points.(!idx) <- q;
          Ok new_owner)

let abort_handoff t ~key =
  match successor t (key_hash key) with
  | None -> Error "ring: no members"
  | Some p -> (
      match p.draining with
      | None -> Error "ring: arc not draining"
      | Some _ ->
          p.draining <- None;
          Ok ())
