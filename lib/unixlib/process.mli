(** Processes as a user-space convention (§5.2, Figure 6).

    Each process owns two fresh categories [pr] (secrecy) and [pw]
    (integrity). Its threads run at [{pr⋆, pw⋆, …, 1}]. The kernel
    objects are exactly the paper's: a process container labeled
    [{pw0, 1}] exposing the exit-status segment and signal gate; an
    internal container labeled [{pr3, pw0, 1}] holding the address
    space and the heap/stack segments; file-descriptor segments labeled
    [{fr3, fw0, 1}] with per-descriptor categories shared across
    processes that hold the descriptor open (§5.3).

    [spawn] starts a program directly; [fork_exec] emulates the
    Unix fork-then-exec sequence on the low-level interface, copying
    the parent's segments only for exec to discard them — the cause of
    the paper's 317-versus-127 syscall gap (§7.1). *)

module Label = Histar_label.Label
module Category = Histar_label.Category
open Histar_core.Types

type t
(** A process environment: the handle user code receives. *)

type handle
(** A parent's reference to a child (for wait/kill). *)

type user = {
  user_name : string;
  ur : Category.t;  (** read category *)
  uw : Category.t;  (** write category *)
}

val boot :
  fs:Fs.t -> container:oid -> ?user:user -> name:string -> unit -> t
(** Build the process structure for the calling thread (the init
    process). The caller's thread label gains the new pr/pw. *)

val name : t -> string
val fs : t -> Fs.t
val container : t -> oid
(** The process container. *)

val internal : t -> oid
val categories : t -> Category.t * Category.t
val output : t -> Buffer.t
(** Console output buffer (host-visible). *)

val printf : t -> ('a, Buffer.t, unit) format -> 'a

(** {1 Creating processes} *)

val spawn :
  t ->
  name:string ->
  ?user:user ->
  ?fds:int list ->
  ?extra_label:(Category.t * Histar_label.Level.t) list ->
  ?extra_clearance:(Category.t * Histar_label.Level.t) list ->
  ?untaint_exit:bool ->
  ?in_container:oid ->
  (t -> unit) ->
  handle
(** Start a program in a fresh process. [fds] are descriptors the
    child inherits (their categories are granted to the child's
    threads). [extra_label] adds taint or ownership the parent holds.
    [untaint_exit] (default true) installs the §5.8 exit untainting
    gate so a tainted child can still declassify its exit status; pass
    false for strong isolation (wrap does). *)

val fork_exec :
  t -> name:string -> ?text:string -> ?fds:int list -> (t -> unit) -> handle
(** The Unix-compatible path: build a copy of this process (copying
    heap, stack and descriptor segments), then exec [text] (a path to
    an executable file) in it, discarding the copies. Far more system
    calls than [spawn], as in the paper. *)

val wait : t -> handle -> int
(** Block until the child exits; returns its status and reaps it. *)

val exit : t -> int -> 'a
(** Terminate the calling process with a status. Never returns. *)

val kill : t -> handle -> int -> unit
(** Send a signal through the child's signal gate. *)

val on_signal : t -> int -> (int -> unit) -> unit
(** Install a handler (signal 9 is always fatal and cannot be
    caught). *)

val handle_container : handle -> oid

(** {1 File descriptors (§5.3)} *)

type fd = int

val open_file : t -> ?append:bool -> string -> fd
val create_file : t -> ?label:Label.t -> string -> fd
val read : t -> fd -> int -> string
(** [""] at end of file (for files) or end of stream (pipes). *)

val write : t -> fd -> string -> int
val seek : t -> fd -> int -> unit
val fd_pos : t -> fd -> int
val close : t -> fd -> unit
val pipe : t -> fd * fd
(** (read end, write end). *)

val fd_count : t -> int

val reserve : t -> int64 -> unit
(** Ensure the process container has this much spare quota, pulling
    from the enclosing container. *)
