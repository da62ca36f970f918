(* Consistent-hash placement ring with draining handoff arcs.

   Pure, coordination-free placement: every node computes the same
   key -> owner mapping from the same (member set, vnode count).
   During a rebalance the arc being migrated is marked *draining*:
   [route] returns [`Handoff] and the caller must refuse admission
   — never mis-route — until [commit_handoff].  *)

type t

val create : int list -> t
(** [create members] builds a ring of 16 points per member. *)

val owner : t -> string -> int option
(** Owning member of a key, ignoring handoff state. [None] iff the
    ring is empty. *)

val route : t -> string -> [ `Node of int | `Handoff of int * int | `No_members ]
(** Placement honoring handoff state: [`Handoff (old_owner, new_owner)]
    means the owning arc is draining and admission must be refused. *)

val begin_handoff : t -> key:string -> target:int -> (unit, string) result
(** Mark the arc covering [key] as draining toward [target]. *)

val commit_handoff : t -> key:string -> (int, string) result
(** Flip the draining arc's ownership to the handoff target and clear
    the mark; returns the new owner. *)

val abort_handoff : t -> key:string -> (unit, string) result
