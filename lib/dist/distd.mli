(** distd: per-node remote-gate daemon — netd-style service gates
    stretched across kernels, with labels carried on the wire.

    Each node runs a listener on its backbone netd; per-connection
    conn threads translate incoming labels ({!Proto.of_wire}), run
    the model's gate-invocation rule over them ({!Proto.admit}), and
    spawn a proxy thread at the translated label/clearance to run the
    registered service handler — the remote analogue of a gate-enter
    thread. Category ownership moves between threads of one node via
    persistent grant gates (the §6.2 check-gate idiom) and between
    nodes via reply grants claimed with {!claim_grants}.

    Refusal points, all counted in [net.dist_calls] /
    [net.dist_refused] (and per-node [net.dist_refused.n<id>]):
    caller egress (unexported taint cannot be expressed on the wire),
    admission ({!Proto.admit}), server reply-capacity (an answer the
    caller's advertised capacity cannot cover is dropped *before*
    serialization), and caller acceptance (reading the reply must not
    exceed the caller's clearance).

    Egress policy: the calling thread speaks TCP through netd itself,
    so its label must flow to the netd device — callers are clean or
    own their taint; anonymous taint stays on-node. *)

module Label = Histar_label.Label
module Category = Histar_label.Category

type t

type call_error =
  | Refused of string  (** information-flow refusal, either side *)
  | Remote of string  (** remote execution error *)
  | Transport of string  (** connect/stream failure (node down, lossy link) *)

(** Per-peer failure tracking with capped exponential backoff, driven
    entirely by virtual time (replayable).  Consecutive transport
    failures double the backoff window from [cooldown_ms] up to
    [cap_ms]; the first send after a window expires is a probe,
    counted in [net.dist_probes].  A permanently dead peer is probed
    ever more rarely instead of once per fixed cooldown forever. *)
module Peer_health : sig
  type t

  val create : ?cooldown_ms:int -> ?cap_ms:int -> unit -> t
  (** Defaults: [cooldown_ms] 40, [cap_ms] 640. *)

  val usable : t -> node:int -> now_ns:int -> [ `Yes | `Probe | `No ]
  (** [`Yes]: healthy. [`Probe]: backoff elapsed, this send is the
      probe (counted in [net.dist_probes]). [`No]: still backing off —
      do not send. *)

  val ok : t -> node:int -> unit
  (** Record a success: the peer is healthy again. *)

  val failed : t -> node:int -> now_ns:int -> unit
  (** Record a transport failure: doubles the backoff window. *)
end

val start :
  Histar_core.Kernel.t ->
  netd:Histar_net.Netd.t ->
  names:Names.t ->
  key:int64 ->
  container:Histar_core.Types.oid ->
  port:Histar_net.Addr.port ->
  peers:(int -> Histar_net.Addr.t) ->
  unit ->
  t
(** Spawn the node's listener. [key] is the shared cluster sealing
    key; [peers] maps node ids to backbone addresses. Must be called
    before the kernel runs. *)

val node_id : t -> int
val names : t -> Names.t

val register :
  t ->
  service:string ->
  label:Label.t ->
  clearance:Label.t ->
  (string -> string * Category.t list) ->
  unit
(** Register a service: the remote analogue of creating a service
    gate with label [label] (its ⋆s are granted to the proxy) and
    clearance [clearance] (callers above it are refused). The handler
    runs on the proxy thread and returns the reply payload plus
    categories to grant through the return (it must own them).

    Each [register] call bumps the node's service-table version,
    invalidating the per-connection admission memos: a long-lived peer
    connection re-runs the full translate+admit for each (caller,
    label, capacity, service) tuple after the table changes, and
    otherwise replays the cached admit — counted in
    [net.dist_admit_batched].  Refusals are never cached. *)

val export_owned : t -> ?trust:int list -> Category.t -> int64
(** Publish a locally-owned category cluster-wide: mint its wire
    name, register [trust]ed speaker nodes, and install the local
    grant gate. Must run on a thread owning the category. *)

val rebind_owned : t -> wire:int64 -> Category.t -> unit
(** Re-bind a persisted category to its pre-crash wire name on a
    recovered node and install a fresh grant gate. No wire name is
    minted — identity survives the crash, so remote twins and
    directory trust stay valid. Must run on a thread owning the
    category. *)

val claim_grants : t -> int64 list -> Category.t list
(** Claim grants carried by a reply: import each wire name and
    acquire ⋆ of its local twin (via grant gates). *)

val call :
  t ->
  node:int ->
  service:string ->
  string ->
  (string * int64 list, call_error) result
(** Invoke [service] on [node] at the calling thread's label and
    clearance. On [Ok], the caller's label has been raised as needed
    to read the reply (within its clearance) and the payload plus any
    granted wire names are returned. Runs on the calling thread (it
    performs the netd socket calls itself).

    Connections are pooled per peer: a completed exchange parks its
    socket for reuse by the next (possibly different) calling thread
    — reuses counted in [net.dist_conn_reused] — and a transport
    failure on a pooled socket is retried once on a fresh connection
    (the peer may have restarted since the socket was parked).

    A call whose frame would exceed {!Wire.max_frame_len} is refused
    ([Refused "dist: message too large"]) without being sent, and a
    reply that would is answered as [Remote "dist: reply too large"];
    neither closes the connection. *)

val pool_drop_all : t -> node:int -> unit
(** Close every pooled connection to [node] — call when the peer is
    known dead so later calls don't burn an RTO on a stale socket. *)
