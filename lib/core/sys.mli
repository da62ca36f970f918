(** User-side system call interface.

    Each function performs the {!Syscall.Syscall} effect and unwraps the
    kernel's response, raising {!Types.Kernel_error} on error returns.
    This is the API that the untrusted user-level library (histar_unix)
    and applications are written against — the analogue of the paper's
    syscall stubs. *)

module Label = Histar_label.Label
module Category = Histar_label.Category
open Types

(** {1 Categories and self} *)

val cat_create : unit -> Category.t
val self_id : unit -> oid
val self_label : unit -> Label.t
val self_clearance : unit -> Label.t
val self_set_label : Label.t -> unit
val self_set_clearance : Label.t -> unit
val self_set_as : centry -> unit
val self_get_as : unit -> centry option
val self_get_return_gate : unit -> centry option
val self_halt : unit -> 'a
(** Never returns. *)

val yield : unit -> unit

(** Advance virtual time by this many microseconds and reschedule.
    Fails with [Invalid] for a negative amount or one that would carry
    the clock past [max_int]. *)
val usleep : int -> unit

val sleep_until_ns : int -> unit
(** Block until virtual time reaches the deadline (ns). Unlike
    {!usleep} this parks the thread: when nothing else is runnable
    the scheduler advances the clock to the earliest parked deadline,
    so periodic work (retransmission timers) makes progress even when
    no other event would move time forward. Returns immediately if
    the deadline has already passed. *)

val wait_alert : unit -> int

(** {1 Generic object operations} *)

val obj_label : centry -> Label.t
val obj_kind : centry -> kind
val obj_descrip : centry -> string
val obj_quota : centry -> int64 * int64
val set_fixed_quota : centry -> unit
val set_immutable : centry -> unit
val get_metadata : centry -> string
val set_metadata : centry -> string -> unit
val unref : centry -> unit
val quota_move : container:oid -> target:oid -> nbytes:int64 -> unit

(** {1 Containers} *)

val container_create :
  ?avoid:kind list ->
  container:oid ->
  label:Label.t ->
  quota:int64 ->
  string ->
  oid

val container_list : centry -> (oid * kind * string) list
val container_parent : centry -> oid
val container_link : container:oid -> target:centry -> unit

(** {1 Segments} *)

val segment_create :
  container:oid -> label:Label.t -> quota:int64 -> ?len:int -> string -> oid

val segment_read : centry -> ?off:int -> ?len:int -> unit -> string
val segment_write : centry -> ?off:int -> string -> unit

val segment_word : centry -> off:int -> int64
(** The 8-byte little-endian word at [off]: one 8-byte {!segment_read}. *)

val set_segment_word : centry -> off:int -> int64 -> unit
(** Store a word at [off]: one 8-byte {!segment_write}. *)

val segment_resize : centry -> int -> unit
val segment_size : centry -> int

val segment_copy :
  src:centry -> container:oid -> label:Label.t -> quota:int64 -> string -> oid

val tls : centry
(** Container entry naming the current thread's local segment. *)

val tls_read : unit -> string
val tls_write : string -> unit
(** Resizes the TLS if needed, then writes at offset 0 (length-prefixed
    reads are the caller's concern). *)

(** {1 Address spaces} *)

val as_create : container:oid -> label:Label.t -> quota:int64 -> string -> oid
val as_get : centry -> Syscall.mapping list
val as_map : centry -> Syscall.mapping -> unit
val as_unmap : centry -> int64 -> unit

(** {1 Threads} *)

val thread_create :
  container:oid ->
  label:Label.t ->
  clearance:Label.t ->
  quota:int64 ->
  name:string ->
  (unit -> unit) ->
  oid

val thread_alert : centry -> int -> unit
val thread_get_label : centry -> Label.t

(** {1 Gates} *)

val gate_create :
  ?one_shot:bool ->
  container:oid ->
  label:Label.t ->
  clearance:Label.t ->
  quota:int64 ->
  name:string ->
  (unit -> unit) ->
  oid
(** [one_shot] (default [false]) makes the gate reap itself from its
    naming container after the first successful invocation, exactly
    like the return gates {!gate_call} mints. This is the primitive
    beneath scoped label excursions: lib/lio creates a one-shot gate
    per [to_labeled]/[catch] block so abandoned scopes cannot pile up
    in the scratch container. *)

val gate_enter :
  gate:centry ->
  label:Label.t ->
  clearance:Label.t ->
  ?verify:Label.t ->
  unit ->
  'a
(** One-way transfer; never returns. *)

val gate_call :
  gate:centry ->
  label:Label.t ->
  clearance:Label.t ->
  ?verify:Label.t ->
  return_container:oid ->
  return_label:Label.t ->
  return_clearance:Label.t ->
  unit ->
  unit
(** Full RPC-style invocation: creates a return gate capturing the
    current continuation, enters the service gate, and returns when the
    service enters the return gate. Arguments and results travel
    through the thread-local segment, as in §3.5. *)

val gate_return : ?keep:Category.t list -> unit -> 'a
(** Enter the current return gate, restoring the caller's privileges
    and dropping every category this entry owns that the return gate
    does not — except those in [keep], which are granted to the caller
    through the return (how §6.2's check gate hands login ownership of
    x). Halts if there is no return gate. Never returns. *)

val rpc_call : gate:centry -> return_container:oid -> string -> string
(** RPC-style gate-call marshalling: write the request to the
    thread-local segment, {!gate_call} the service at the caller's
    current label and clearance, and read the reply back from the TLS
    once the service returns. This is the transport beneath netd's
    socket API and lib/dist's remote-gate client. *)

val gate_floor : centry -> Label.t
(** The least label a thread can request when invoking the gate:
    [(L_T^J ⊔ L_G^J)^⋆]. Reading the gate's label requires read
    permission on its container. *)

(** {1 Futexes} *)

val futex_wait : centry -> off:int -> expected:int64 -> unit
val futex_wake : centry -> off:int -> count:int -> int

(** {1 Network devices} *)

val net_mac : centry -> string
val net_send : centry -> string -> unit
val net_recv : centry -> string

(** {1 Persistence and time} *)

val segment_cas : centry -> off:int -> expected:int64 -> desired:int64 -> bool
(** Atomic compare-and-swap on an 8-byte little-endian word. *)

val sync_object : centry -> unit
val sync_many : centry list -> unit

(** In-place flush of part of a segment to its home disk location.
    When the store cannot flush in place (no home image yet, a logged
    update still pending, or a size change), the whole segment goes to
    the log as with {!sync_object}. *)
val sync_range : centry -> off:int -> len:int -> unit
val sync_all : unit -> unit
val clock_ns : unit -> int
