(** A two-port bridge between {!Hub}s: multi-hub IP routing for the
    simulated network. Attaches one port to each hub as its default
    route; frames for IPs the far hub owns are re-addressed to the
    owner's MAC and injected there. Broadcasts are not forwarded. *)

val connect :
  a:Hub.t ->
  a_ip:Addr.ip ->
  b:Hub.t ->
  b_ip:Addr.ip ->
  ?mac:string ->
  unit ->
  unit
(** Attach the bridge between [a] and [b], registering port IPs
    [a_ip]/[b_ip] and installing the ports as each hub's default
    route. Forwarded and unroutable frames count in
    [net.bridge_forwarded] / [net.bridge_no_route]. *)
