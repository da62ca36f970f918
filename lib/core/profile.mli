(** Kernel syscall profiler.

    Counts syscalls per request kind, one array slot each
    ({!Syscall.req_index}), and names the counts on output
    ({!Syscall.req_names}). Backs the paper's observations that
    fork/exec needs 317 syscalls on HiStar's low-level interface versus
    127 for spawn (§7.1). *)

type t

val create : unit -> t

val record : t -> int -> unit
(** [record t i] counts one syscall of index [i] ({!Syscall.req_index}). *)

val total : t -> int

val count : t -> string -> int
(** The count of the syscall with this name; 0 for a name no syscall
    has. *)

val to_list : t -> (string * int) list
(** The syscalls made at least once, with their names and counts.
    Canonical order: count descending, then name — deterministic for
    equal contents regardless of recording order. *)

val equal : t -> t -> bool
(** Same totals and per-syscall counts — the byte-identity check the
    elision differential uses. *)

val copy : t -> t
(** An independent profile with the same counts. *)

val reset : t -> unit

val pp : Format.formatter -> t -> unit
