(** netd: the user-level network daemon (§5.7).

    lwIP (here, {!Stack}) runs in a separate netd process that owns the
    network device's [nr]/[nw] categories and exposes a single service
    gate through which other processes perform socket operations. netd
    is mostly untrusted: it cannot bypass the [i] taint on data read
    from the network, so a compromised netd amounts to an eavesdropping
    or packet-tampering attacker, nothing more.

    Socket API semantics enforced by netd (mirroring what the kernel
    enforces on the raw device):
    - receiving network data requires the caller to be tainted [i2]
      (it must be able to observe the device);
    - sending requires the caller's label to flow to the device label,
      so e.g. VPN-tainted data cannot leave via the internet device.

    Blocking is implemented with a futex on a notify segment that the
    receive-pump thread bumps on every frame. A third netd thread —
    the retransmission pacemaker — parks on the stack's earliest RTO
    deadline via [Sys.sleep_until_ns], so retransmission makes
    progress even when the link drops every frame (the rx pump alone
    only ticks the stack on arrival). *)

type t

val start :
  Histar_core.Kernel.t ->
  hub:Hub.t ->
  container:Histar_core.Types.oid ->
  ip:Addr.ip ->
  mac:string ->
  ?taint:Histar_label.Category.t ->
  unit ->
  t
(** Create the device (labeled [{i2, 1}] when [taint] is given),
    attach it to the hub, and spawn the netd process. Must be called
    before [Kernel.run]. *)

val device : t -> Histar_core.Types.oid
val stack : t -> Stack.t
(** Host-side access for tests. *)

(** {1 Client-side wrappers}

    These run on the calling thread inside HiStar user code; each
    performs one gate call. Socket handles are small integers, valid
    per-netd. *)

module Client : sig
  type sock = int

  exception Netd_error of string

  val connect : t -> return_container:Histar_core.Types.oid -> Addr.t -> sock

  val connect_retry :
    ?attempts:int ->
    t ->
    return_container:Histar_core.Types.oid ->
    Addr.t ->
    sock
  (** Like {!connect}, but retries transport-level handshake failures
      (retransmission give-up over a lossy or flapping link) up to
      [attempts] times (default 3). Label denials are not retried. *)

  val listen : t -> return_container:Histar_core.Types.oid -> Addr.port -> unit

  val accept : t -> return_container:Histar_core.Types.oid -> Addr.port -> sock
  (** Blocks until a connection arrives. *)

  val send : t -> return_container:Histar_core.Types.oid -> sock -> string -> unit

  val recv : t -> return_container:Histar_core.Types.oid -> sock -> string option
  (** Blocks until data is available; [None] at end of stream. *)

  val close : t -> return_container:Histar_core.Types.oid -> sock -> unit
end
