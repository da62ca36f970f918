(* A two-port store-and-forward bridge between hubs: the multi-hub
   routing piece of the simulated network. Each port attaches to one
   hub as that hub's default route, so frames for IPs the local hub
   does not know arrive here; if the far hub owns the destination IP
   the frame is re-addressed to the owner's MAC and injected there
   (charging the far wire's cost model), otherwise it is dropped as
   unroutable on the far side. Broadcast frames are not forwarded —
   each hub is its own broadcast domain. *)

module Metrics = Histar_metrics.Metrics

let m_forwarded = Metrics.counter "net.bridge_forwarded"
let m_unroutable = Metrics.counter "net.bridge_no_route"

let forward ~dst bytes =
  match Packet.frame_of_bytes bytes with
  | None -> ()
  | Some f ->
      if String.equal f.Packet.dst_mac Hub.broadcast_mac then ()
      else (
        match Hub.lookup dst f.Packet.ip.Packet.dst_ip with
        | Some mac ->
            Metrics.Counter.incr m_forwarded;
            Hub.inject dst
              (Packet.frame_to_bytes { f with Packet.dst_mac = mac })
        | None -> Metrics.Counter.incr m_unroutable)

let connect ~a ~a_ip ~b ~b_ip ?(mac = "bridge") () =
  let mac_a = mac ^ ":a" and mac_b = mac ^ ":b" in
  Hub.attach a
    {
      Hub.ep_mac = mac_a;
      ep_ip = a_ip;
      ep_deliver = (fun bytes -> forward ~dst:b bytes);
    };
  Hub.attach b
    {
      Hub.ep_mac = mac_b;
      ep_ip = b_ip;
      ep_deliver = (fun bytes -> forward ~dst:a bytes);
    };
  Hub.set_default_route a ~mac:mac_a;
  Hub.set_default_route b ~mac:mac_b
