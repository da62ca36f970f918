module Sim_clock = Histar_util.Sim_clock
module Metrics = Histar_metrics.Metrics
module Net_faults = Histar_faults.Faults.Net_faults

(* Wire-level traffic counters across every hub instance: the hub's
   only accounting. A caller that wants one hub's traffic reads their
   deltas in a metrics scope. [net.frames_lost] counts random loss,
   injected faults and link flaps; [net.frames_no_route] counts frames
   that decode to no attached destination (FCS failures after wire
   corruption included). *)
let m_frames_sent = Metrics.counter "net.frames_sent"
let m_frames_lost = Metrics.counter "net.frames_lost"
let m_frames_no_route = Metrics.counter "net.frames_no_route"
let m_frames_duplicated = Metrics.counter "net.frames_duplicated"
let m_frames_reordered = Metrics.counter "net.frames_reordered"
let m_bytes_sent = Metrics.counter "net.bytes_sent"

(* Byte accounting with a conservation identity: every transmission
   attempt (original inject, each duplicate delivery, each extra
   broadcast recipient) counts toward [net.bytes_tx], and is then
   accounted exactly once as received ([net.bytes_rx]), lost
   ([net.bytes_lost]) or unroutable ([net.bytes_no_route]), so

     bytes_tx = bytes_rx + bytes_lost + bytes_no_route

   holds whenever the reorder queue is drained ([flush_held]).
   [net.bytes_tx.<mac>] / [net.bytes_rx.<mac>] attribute the same
   streams to the sending and receiving hosts. *)
let m_bytes_tx = Metrics.counter "net.bytes_tx"
let m_bytes_rx = Metrics.counter "net.bytes_rx"
let m_bytes_lost = Metrics.counter "net.bytes_lost"
let m_bytes_no_route = Metrics.counter "net.bytes_no_route"

(* One table per direction, keyed by MAC: a counter's name is built
   only the first time its MAC is seen, not on every frame. *)
let tx_counters : (string, Metrics.Counter.t) Hashtbl.t = Hashtbl.create 16
let rx_counters : (string, Metrics.Counter.t) Hashtbl.t = Hashtbl.create 16

let host_counter counters ~dir mac =
  match Hashtbl.find_opt counters mac with
  | Some c -> c
  | None ->
      let c = Metrics.counter (Printf.sprintf "net.bytes_%s.%s" dir mac) in
      Hashtbl.replace counters mac c;
      c

type endpoint = {
  ep_mac : string;
  ep_ip : Addr.ip;
  ep_deliver : string -> unit;
}

(* A per-endpoint link-fault plan: consulted (as a flap window) for
   every frame to or from the endpoint. The clock is caller-supplied
   so a link can flap on a node's virtual time rather than the hub's
   wire time. *)
type link = { lk_faults : Net_faults.t; lk_clock : unit -> int }

type t = {
  clock : Sim_clock.t;
  bandwidth_bps : float;
  latency_us : float;
  endpoints : (string, endpoint) Hashtbl.t;
  by_ip : (Addr.ip, string) Hashtbl.t;
  links : (string, link) Hashtbl.t;
  mutable default_route : string option;  (** MAC for unknown IPs *)
  mutable faults : Net_faults.t option;
  mutable tap : (string -> unit) option;
      (** packet-capture hook: sees every injected frame *)
  mutable holdq : (int * Packet.frame option * string) list;
      (** reordering: frames held back (with their decoding), released
          after N later injects *)
}

let broadcast_mac = "ff:ff:ff:ff:ff:ff"

let create ?(bandwidth_bps = 100e6) ?(latency_us = 100.0) ?faults ~clock () =
  {
    clock;
    bandwidth_bps;
    latency_us;
    endpoints = Hashtbl.create 8;
    by_ip = Hashtbl.create 8;
    links = Hashtbl.create 8;
    default_route = None;
    faults;
    tap = None;
    holdq = [];
  }

let set_faults t f = t.faults <- f
let set_tap t f = t.tap <- f

let set_link_faults t ~mac plan =
  match plan with
  | Some (faults, clock) ->
      Hashtbl.replace t.links mac { lk_faults = faults; lk_clock = clock }
  | None -> Hashtbl.remove t.links mac

let link_up t mac =
  match Hashtbl.find_opt t.links mac with
  | None -> true
  | Some l -> Net_faults.link_up l.lk_faults ~now_ns:(l.lk_clock ())

let attach t ep =
  Hashtbl.replace t.endpoints ep.ep_mac ep;
  Hashtbl.replace t.by_ip ep.ep_ip ep.ep_mac

let detach t ~mac =
  match Hashtbl.find_opt t.endpoints mac with
  | Some ep ->
      Hashtbl.remove t.endpoints mac;
      Hashtbl.remove t.by_ip ep.ep_ip
  | None -> ()

let resolve t ip =
  match Hashtbl.find_opt t.by_ip ip with
  | Some mac -> Some mac
  | None -> t.default_route

let set_default_route t ~mac = t.default_route <- Some mac

let drop_lost ~nbytes =
  Metrics.Counter.incr m_frames_lost;
  Metrics.Counter.add m_bytes_lost nbytes

let drop_no_route ~nbytes =
  Metrics.Counter.incr m_frames_no_route;
  Metrics.Counter.add m_bytes_no_route nbytes

(* One transmission attempt entering the routing fabric. Called once
   per inject, and again for each duplicate delivery and each extra
   broadcast recipient, so the byte-conservation identity holds. *)
let account_tx ~src nbytes =
  Metrics.Counter.add m_bytes_tx nbytes;
  match src with
  | Some mac -> Metrics.Counter.add (host_counter tx_counters ~dir:"tx" mac) nbytes
  | None -> ()

let account_rx ~mac nbytes =
  Metrics.Counter.add m_bytes_rx nbytes;
  Metrics.Counter.add (host_counter rx_counters ~dir:"rx" mac) nbytes

let deliver ep bytes =
  account_rx ~mac:ep.ep_mac (String.length bytes);
  ep.ep_deliver bytes

(* Deliver to the destination endpoint(s), given the frame as
   [inject_now] decoded it. A frame that does not decode was corrupted
   in flight (or addressed nowhere) — the receiving NIC would never see
   a valid destination, so it is a no-route drop. A frame to or from a
   flapped-down link is lost. *)
let route t decoded bytes =
  let nbytes = String.length bytes in
  match decoded with
  | None -> drop_no_route ~nbytes
  | Some f ->
      if not (link_up t f.Packet.src_mac && link_up t f.Packet.dst_mac) then
        drop_lost ~nbytes
      else if String.equal f.Packet.dst_mac broadcast_mac then begin
        let recipients =
          Hashtbl.fold
            (fun mac ep acc ->
              if String.equal mac f.Packet.src_mac then acc else ep :: acc)
            t.endpoints []
          |> List.sort (fun a b -> String.compare a.ep_mac b.ep_mac)
        in
        match recipients with
        | [] -> drop_no_route ~nbytes
        | first :: rest ->
            deliver first bytes;
            List.iter
              (fun ep ->
                (* the hub repeats the frame out of each extra port *)
                account_tx ~src:(Some f.Packet.src_mac) nbytes;
                deliver ep bytes)
              rest
      end
      else (
        match Hashtbl.find_opt t.endpoints f.Packet.dst_mac with
        | Some ep -> deliver ep bytes
        | None -> drop_no_route ~nbytes)

(* Age the reorder queue by one inject and release frames whose hold
   expired. Collect first, then deliver: delivery can re-enter
   [inject] (a stack acking straight from its rx path), which ages
   the queue again — mutating while iterating would double-count. *)
let release_due t =
  let due, still =
    List.partition_map
      (fun (n, f, b) -> if n <= 1 then Left (f, b) else Right (n - 1, f, b))
      t.holdq
  in
  t.holdq <- still;
  List.iter (fun (f, b) -> route t f b) due

(* ---------- deferred injection ---------- *)

(* The cluster driver steps every node's kernel inside one [deferred]
   scope per BSP round. Hub state is shared by the nodes: [inject]
   advances the wire clock, consumes the loss RNG and delivers
   synchronously into the destination stack. So while the scope is
   open, [inject] only appends the raw frame (with its target hub) to
   the scope's FIFO and touches no hub state at all; the frames go on
   the wire when the scope closes, oldest first. The scope lives in a
   domain-local cell, so a check cell driving its own hubs on another
   pool domain is never caught by it. *)
let deferred_key : (t * string) list ref option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let inject_now t bytes =
  let nbytes = String.length bytes in
  (* Serialization (transmission) time is what occupies the wire and
     advances the shared clock; propagation latency overlaps with other
     traffic and is charged at a tenth to keep handshakes non-free
     without capping pipelined throughput below line rate. *)
  Sim_clock.advance_us t.clock
    ((t.latency_us /. 10.0)
    +. (float_of_int (nbytes * 8) /. t.bandwidth_bps *. 1e6));
  Metrics.Counter.incr m_frames_sent;
  Metrics.Counter.add m_bytes_sent nbytes;
  (* The tap is an eavesdropper on the shared wire: it sees every
     frame as injected, before any loss or corruption decision. *)
  (match t.tap with Some f -> f bytes | None -> ());
  let decoded = Packet.frame_of_bytes bytes in
  let src_mac =
    match decoded with Some f -> Some f.Packet.src_mac | None -> None
  in
  account_tx ~src:src_mac nbytes;
  (match t.faults with
  | None -> route t decoded bytes
  | Some nf -> (
      let v = Net_faults.on_frame nf ~now_ns:(Sim_clock.now t.clock) in
      match v.Net_faults.drop with
      | `Loss | `Flap -> drop_lost ~nbytes
      | `No ->
          let decoded, bytes =
            if v.Net_faults.corrupt then (
              let b = Bytes.of_string bytes in
              Net_faults.corrupt_bytes nf b;
              let bytes = Bytes.unsafe_to_string b in
              (Packet.frame_of_bytes bytes, bytes))
            else (decoded, bytes)
          in
          if v.Net_faults.jitter_ns > 0 then
            Sim_clock.advance t.clock v.Net_faults.jitter_ns;
          if v.Net_faults.hold > 0 then (
            Metrics.Counter.incr m_frames_reordered;
            t.holdq <- t.holdq @ [ (v.Net_faults.hold, decoded, bytes) ])
          else begin
            route t decoded bytes;
            if v.Net_faults.duplicate then begin
              Metrics.Counter.incr m_frames_duplicated;
              account_tx ~src:src_mac nbytes;
              route t decoded bytes
            end
          end));
  release_due t

let inject t bytes =
  match !(Domain.DLS.get deferred_key) with
  | Some parked -> parked := (t, bytes) :: !parked
  | None -> inject_now t bytes

(* The parked frames replay after the scope is closed, so re-entrant
   injects from rx paths (a stack acking straight out of [ep_deliver])
   hit the wire at once, exactly as in a plain sequential run. If [f]
   raises, its parked frames are dropped with it. *)
let deferred f =
  let cell = Domain.DLS.get deferred_key in
  let saved = !cell in
  let parked = ref [] in
  cell := Some parked;
  let v = Fun.protect ~finally:(fun () -> cell := saved) f in
  List.iter (fun (t, bytes) -> inject_now t bytes) (List.rev !parked);
  v

(* Deliver everything still held in the reorder queue (a drained wire
   at the end of a run); used by tests to avoid conflating a held
   frame with a lost one. *)
let flush_held t =
  let rec go () =
    match t.holdq with
    | [] -> ()
    | (_, f, b) :: rest ->
        t.holdq <- rest;
        route t f b;
        go ()
  in
  go ()
