(** Free disk-space management with two B+-trees, as in §4: one indexed
    by extent size (to find appropriately-sized extents) and one by
    location (to coalesce adjacent extents on free).

    The by-size tree packs [(size, start)] into its int key so that
    same-sized extents coexist; the by-location tree maps
    [start → size]. *)

type t

val create : unit -> t

val add_region : t -> start:int -> sectors:int -> unit
(** Declare an initial free region. *)

val alloc : t -> sectors:int -> int option
(** Best-fit allocation: the smallest free extent that fits. Returns
    the start sector, or [None] if no extent is large enough. *)

val free : t -> start:int -> sectors:int -> unit
(** Return an extent; coalesces with free neighbours. Freeing sectors
    that are already free is a fatal error. *)

val free_sectors : t -> int
(** Total free space. *)

val extent_count : t -> int
(** Number of (coalesced) free extents — a fragmentation measure. *)

val largest_extent : t -> int
(** Size of the largest free extent (0 if none). *)

val to_list : t -> (int * int) list
(** Free extents as [(start, sectors)] in increasing start order. Used
    by the store's fsck to prove free and allocated extents tile the
    data region. *)

val copy : t -> t
(** An independent copy — O(1), the persistent trees are shared
    structurally (used to encode "allocator as of the end of the
    checkpoint" while deferring frees for crash atomicity). *)

val check_invariants : t -> unit
(** Both trees describe the same extent set; no extent overlaps or abuts
    another (abutting extents must have been coalesced). *)

val encode : Histar_util.Codec.Enc.t -> t -> unit
val decode : Histar_util.Codec.Dec.t -> t
