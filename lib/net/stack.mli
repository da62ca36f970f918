(** A small TCP/IP stack — the stand-in for lwIP (§5.7).

    The API is non-blocking and callback-free: callers feed incoming
    frames with {!input}, drive retransmission timers with {!tick}, and
    poll sockets. Blocking semantics are layered on top (netd uses the
    scheduler; tests and simulated internet hosts poll).

    TCP here is a compact but real protocol: three-way handshake,
    cumulative acknowledgements, a fixed receive window with MSS-sized
    segments, go-back-N retransmission with an adaptive RTO
    (RFC 6298-style SRTT/RTTVAR estimation on the virtual clock,
    exponential backoff, Karn's algorithm), and FIN teardown. After
    too many consecutive timeouts a connection gives up: it closes
    with {!error} set rather than retransmitting forever.
    Out-of-order segments are dropped and re-acked (the faulty hub
    can reorder and duplicate; retransmission recovers). *)

type t

val create :
  mac:string ->
  ip:Addr.ip ->
  send:(string -> unit) ->
  resolve:(Addr.ip -> string option) ->
  clock:Histar_util.Sim_clock.t ->
  unit ->
  t

val mac : t -> string
val ip : t -> Addr.ip

val input : t -> string -> unit
(** Process one received (encoded) frame. *)

val tick : t -> unit
(** Run timers: retransmit anything unacknowledged past its deadline. *)

(** {1 TCP} *)

type conn

type conn_state =
  | Syn_sent
  | Syn_received
  | Established
  | Fin_wait
  | Close_wait
  | Closed

val listen : t -> port:Addr.port -> unit
val unlisten : t -> port:Addr.port -> unit

val accept : t -> port:Addr.port -> conn option
(** Next fully-established connection on a listening port, if any. *)

val connect : t -> dst:Addr.t -> conn
val state : conn -> conn_state
val peer : conn -> Addr.t

val error : conn -> string option
(** Terminal failure reason, set when the connection gave up (e.g.
    exhausted retransmissions over a dead link). A conn with an error
    is [Closed]. *)

val send : conn -> string -> unit
(** Enqueue bytes on an established (or establishing) connection. *)

val recv : conn -> string
(** Drain whatever has arrived (possibly [""]). *)

val recv_len : conn -> int
(** Bytes arrived and not yet drained. *)

val recv_into : conn -> Bytes.t -> int -> unit
(** [recv_into c b off] drains all {!recv_len} bytes into [b] at [off]:
    the one copy a received byte makes on its way out of the stack.
    Received payloads wait as views into their frames, so nothing is
    copied before this. *)

val recv_eof : conn -> bool
(** The peer has sent FIN and all data has been drained. *)

val close : conn -> unit

(** {1 UDP} *)

val udp_bind : t -> port:Addr.port -> unit
val udp_send : t -> dst:Addr.t -> string -> unit
val udp_recv : t -> port:Addr.port -> (Addr.t * string) option

(** {1 Timer introspection}

    For blocking drivers (netd's timer thread) that must know whether
    anything is waiting on a retransmission deadline. *)

val needs_timer : t -> bool
(** Some connection has an armed RTO. *)

val next_timer_deadline : t -> int option
(** Earliest armed RTO deadline (virtual ns), if any. *)
