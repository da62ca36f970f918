(** The simulated wire: a hub connecting endpoints by MAC address, with
    a bandwidth/latency model charged on the shared virtual clock and
    an optional deterministic fault plan (loss, corruption,
    duplication, reordering, jitter, link flaps).

    Substitutes for the paper's 100 Mbps Ethernet (§7.2). *)

type t

type endpoint = {
  ep_mac : string;
  ep_ip : Addr.ip;
  ep_deliver : string -> unit;  (** called with the encoded frame *)
}

val create :
  ?bandwidth_bps:float ->
  ?latency_us:float ->
  ?faults:Histar_faults.Faults.Net_faults.t ->
  clock:Histar_util.Sim_clock.t ->
  unit ->
  t
(** Defaults: 100 Mbps, 100 µs latency, no fault plan. *)

val set_faults : t -> Histar_faults.Faults.Net_faults.t option -> unit
(** Attach (or clear) a deterministic network-fault plan: per-frame
    loss, single-byte corruption (caught by the frame FCS at the
    receiver), duplication, bounded reordering, delay jitter, and
    time-based link flaps. *)

val set_link_faults :
  t ->
  mac:string ->
  (Histar_faults.Faults.Net_faults.t * (unit -> int)) option ->
  unit
(** Attach (or clear) a per-endpoint link-fault plan: only its flap
    windows are consulted, and every frame to or from the endpoint is
    lost while the link is down. The clock function supplies the
    virtual time the flap schedule is evaluated against (typically the
    observing node's kernel clock), so a "killed" node's down window is
    deterministic in that node's timeline. *)

val link_up : t -> string -> bool
(** Whether the endpoint's link is currently up ([true] when it has no
    link-fault plan). *)

val set_tap : t -> (string -> unit) option -> unit
(** Packet-capture hook: called with every injected frame exactly as
    it appears on the wire (before any loss/corruption decision) —
    what a passive eavesdropper on the shared segment would record. *)

val broadcast_mac : string
(** ["ff:ff:ff:ff:ff:ff"]. *)

val attach : t -> endpoint -> unit
val detach : t -> mac:string -> unit

val inject : t -> string -> unit
(** Put an encoded frame on the wire: charges transmission time, then
    delivers to the destination MAC (or everyone, for the broadcast MAC
    ["ff:ff:ff:ff:ff:ff"]). Unknown destinations are dropped.

    Inside {!deferred} the frame is parked instead, touching no hub
    state. *)

val deferred : (unit -> 'a) -> 'a
(** [deferred f] runs [f] with every [inject] (on any hub, from this
    domain) parked in one FIFO, then re-injects the parked frames,
    oldest first, through the normal wire path. Frames injected while
    the parked ones are delivered (a stack acking from its rx path) go
    straight to the wire. This is the BSP barrier of the cluster
    driver: nodes step one after another within a round, and the
    round's frames reach the wire in the order they were sent. If [f]
    raises, its frames are dropped. *)

val resolve : t -> Addr.ip -> string option
(** MAC for an attached IP (the stand-in for ARP); falls back to the
    default route when set. *)

val set_default_route : t -> mac:string -> unit
(** Deliver frames for unknown IPs to this endpoint (a gateway). *)

val flush_held : t -> unit
(** Deliver any frames still parked in the reordering queue. Tests
    call this when draining the wire so a held frame is not
    misread as a lost one. *)
