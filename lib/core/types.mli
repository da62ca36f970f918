(** Common kernel types: object IDs, container entries, object kinds and
    error codes (§3). *)

type oid = int
(** Unique 61-bit object identifier, held as an immediate int. *)

val tls_oid : oid
(** The reserved object ID meaning "the current thread's thread-local
    segment" (§3.4). *)

val oid_of_int64 : int64 -> oid
(** The constructor for decoded bytes: range-checks the full 64-bit
    value, so no out-of-range field can alias a real oid. Accepts
    [\[0, 2^61)] and {!tls_oid}; raises [Invalid_argument] otherwise. *)

type centry = { container : oid; object_id : oid }
(** A container entry ⟨container ID, object ID⟩ — how almost every
    system call names an object (§3.2). Using one requires permission
    to read the container. *)

val centry : oid -> oid -> centry
val self_entry : oid -> centry
(** The special case of a container naming itself: ⟨D, D⟩. *)

type kind = Segment | Thread | Address_space | Gate | Container | Device

val kind_to_string : kind -> string
val kind_to_bit : kind -> int
(** Bit position in an [avoid_types] mask. *)

type error =
  | Label_check of string  (** an information-flow rule would be violated *)
  | Not_found_ of string  (** no such object, or not in that container *)
  | Invalid of string  (** malformed request *)
  | Quota of string  (** storage quota exhausted *)
  | Immutable of string  (** object is read-only *)
  | Avoid_type of string  (** container forbids objects of this kind *)

val error_to_string : error -> string

exception Kernel_error of error
(** Raised by the user-side syscall wrappers on a kernel error return. *)

type 'a result = ('a, error) Stdlib.result
