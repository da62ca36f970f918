module Sys = Histar_core.Sys
module Kernel = Histar_core.Kernel
module Process = Histar_unix.Process
module Label = Histar_label.Label
module Level = Histar_label.Level
module Codec = Histar_util.Codec
module Netd = Histar_net.Netd
module Hub = Histar_net.Hub
module Addr = Histar_net.Addr
open Histar_core.Types

type t = {
  inet_netd : Netd.t;
  vpn_netd : Netd.t;
  tunneled : int ref;
}

let inet_netd t = t.inet_netd
let vpn_netd t = t.vpn_netd
let frames_tunneled t = !(t.tunneled)

(* "Encryption": xor with a keystream byte plus length framing. The
   point is taint bookkeeping, not cryptography. *)
let crypt s = String.map (fun c -> Char.chr (Char.code c lxor 0x5a)) s

let frame_out buf s =
  let e = Codec.Enc.create () in
  Codec.Enc.str e (crypt s);
  Buffer.add_string buf (Codec.Enc.to_string e)

(* Incremental parse of length-prefixed frames from a stream buffer. *)
let drain_frames buf =
  let data = Buffer.contents buf in
  let d = Codec.Dec.of_string data in
  let rec go acc =
    if Codec.Dec.remaining d < 4 then (List.rev acc, Codec.Dec.pos d)
    else
      let saved = Codec.Dec.pos d in
      let len = Codec.Dec.u32 d in
      if Codec.Dec.remaining d < len then (List.rev acc, saved)
      else go (crypt (Codec.Dec.raw d len) :: acc)
  in
  let frames, consumed = go [] in
  let rest = String.sub data consumed (String.length data - consumed) in
  Buffer.clear buf;
  Buffer.add_string buf rest;
  frames

let vpn_server_ip = "10.0.0.100"
let vpn_port = 1194
let corp_gateway_ip = "192.168.1.50"

let setup ~proc ~kernel ~inet_hub ~corp_hub ~i ~v =
  let clock = Kernel.clock kernel in
  let tunneled = ref 0 in
  (* --- the internet-facing netd --- *)
  let inet_netd =
    Netd.start kernel ~hub:inet_hub ~container:(Kernel.root kernel)
      ~ip:(Addr.ip_of_string "10.0.0.1") ~mac:"km-inet" ~taint:i ()
  in
  (* --- the tunnel hub and the VPN-side netd --- *)
  let tunnel_hub = Hub.create ~clock ~latency_us:10.0 () in
  let vpn_netd =
    Netd.start kernel ~hub:tunnel_hub ~container:(Kernel.root kernel)
      ~ip:(Addr.ip_of_string corp_gateway_ip) ~mac:"km-vpn" ~taint:v ()
  in
  (* the tun endpoint: frames for unknown (corporate) IPs leave the
     tunnel hub here and are queued for the VPN client to encrypt *)
  let outbox : string Queue.t = Queue.create () in
  let outbox_notify = ref None in
  Hub.attach tunnel_hub
    {
      Hub.ep_mac = "tun0";
      ep_ip = Addr.ip_of_string "192.168.1.254";
      ep_deliver =
        (fun frame ->
          Queue.push frame outbox;
          match !outbox_notify with
          | Some ce -> Kernel.host_wake_futex kernel ce.object_id ~off:0
          | None -> ());
    };
  Hub.set_default_route tunnel_hub ~mac:"tun0";
  (* --- the VPN server: a simulated host on both outside networks --- *)
  let server = Histar_net.Sim_host.create ~hub:inet_hub ~clock ~ip:vpn_server_ip ~mac:"vpnsrv" () in
  let client_conn = ref None in
  let inet_rx = Buffer.create 256 in
  (* server side: decrypt tunneled frames and route them onto the
     corporate LAN, rewriting the link-layer addresses like any
     gateway *)
  let route_to_corp frame_bytes =
    match Histar_net.Packet.frame_of_bytes frame_bytes with
    | None -> ()
    | Some f -> (
        match Hub.resolve corp_hub f.Histar_net.Packet.ip.Histar_net.Packet.dst_ip with
        | None -> ()
        | Some dst_mac ->
            incr tunneled;
            Hub.inject corp_hub
              (Histar_net.Packet.frame_to_bytes
                 { f with Histar_net.Packet.dst_mac; src_mac = "km-vpn" }))
  in
  Histar_net.Sim_host.serve server ~port:vpn_port
    ~on_data:(fun c data ->
      client_conn := Some c;
      Buffer.add_string inet_rx data;
      List.iter route_to_corp (drain_frames inet_rx))
    ~on_eof:(fun c -> Histar_net.Stack.close c);
  (* corp-side: the gateway claims the kernel's corp IP/MAC, relaying
     corp frames back through the tunnel *)
  Hub.attach corp_hub
    {
      Hub.ep_mac = "km-vpn";
      ep_ip = Addr.ip_of_string corp_gateway_ip;
      ep_deliver =
        (fun frame ->
          match !client_conn with
          | Some c ->
              incr tunneled;
              let b = Buffer.create 64 in
              frame_out b frame;
              Histar_net.Stack.send c (Buffer.contents b)
          | None -> ());
    };
  (* --- the VPN client process: the only owner of both i and v --- *)
  let _h =
    Process.spawn proc ~name:"openvpn"
      ~extra_label:[ (i, Level.Star); (v, Level.Star) ]
      ~extra_clearance:[ (i, Level.L3); (v, Level.L3) ]
      (fun client ->
        let scratch = Process.internal client in
        let notify_seg =
          Sys.segment_create ~container:(Process.container client)
            ~label:(Label.make Level.L1) ~quota:8704L ~len:8 "tun notify"
        in
        let notify = centry (Process.container client) notify_seg in
        outbox_notify := Some notify;
        let sock =
          Netd.Client.connect inet_netd ~return_container:scratch
            (Addr.v vpn_server_ip vpn_port)
        in
        (* downlink thread: decrypt server->client frames onto the
           tunnel device *)
        let _down =
          Sys.thread_create ~container:(Process.container client)
            ~label:(Sys.self_label ())
            ~clearance:(Sys.self_clearance ())
            ~quota:262_144L ~name:"openvpn-down"
            (fun () ->
              let rx = Buffer.create 256 in
              let rec loop () =
                match Netd.Client.recv inet_netd ~return_container:scratch sock with
                | Some data ->
                    Buffer.add_string rx data;
                    List.iter
                      (fun frame ->
                        incr tunneled;
                        Kernel.deliver_packet kernel (Netd.device vpn_netd)
                          frame)
                      (drain_frames rx);
                    loop ()
                | None -> ()
              in
              loop ())
        in
        (* uplink loop: encrypt tunnel-hub frames up to the server *)
        let pending () = not (Queue.is_empty outbox) in
        let rec uplink () =
          match Queue.take_opt outbox with
          | Some frame ->
              let b = Buffer.create 64 in
              frame_out b frame;
              incr tunneled;
              Netd.Client.send inet_netd ~return_container:scratch sock
                (Buffer.contents b);
              uplink ()
          | None ->
              Sys.wait_until notify pending;
              uplink ()
        in
        uplink ())
  in
  { inet_netd; vpn_netd; tunneled }
