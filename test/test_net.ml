module Clock = Histar_util.Sim_clock
module Kernel = Histar_core.Kernel
module Sys = Histar_core.Sys
open Histar_net
open Histar_label
open Histar_core.Types
module Check = Histar_check.Check
module Gen = Histar_check.Gen
module Metrics = Histar_metrics.Metrics

let l entries d = Label.of_list entries d

(* ---------- addr / packet ---------- *)

let test_addr_roundtrip () =
  let ip = Addr.ip_of_string "192.168.1.42" in
  Alcotest.(check string) "dotted quad" "192.168.1.42" (Addr.ip_to_string ip);
  Alcotest.(check bool) "equal" true
    (Addr.equal (Addr.v "10.0.0.1" 80) (Addr.v "10.0.0.1" 80));
  (try
     ignore (Addr.ip_of_string "300.1.1.1");
     Alcotest.fail "expected failure"
   with Invalid_argument _ -> ())

let test_packet_roundtrip () =
  let f =
    {
      Packet.src_mac = "m1";
      dst_mac = "m2";
      ip =
        {
          Packet.src_ip = 1;
          dst_ip = 2;
          proto =
            Packet.Tcp
              {
                Packet.src_port = 1000;
                dst_port = 80;
                seq = 7;
                ack_no = 9;
                flags = { Packet.no_flags with syn = true };
                window = 65535;
                payload = "payload";
              };
        };
    }
  in
  match Packet.frame_of_bytes (Packet.frame_to_bytes f) with
  | Some f' -> Alcotest.(check string) "same" (Packet.frame_to_bytes f) (Packet.frame_to_bytes f')
  | None -> Alcotest.fail "decode failed"

let test_packet_garbage () =
  Alcotest.(check bool) "garbage rejected" true
    (Packet.frame_of_bytes "not a frame" = None)

(* ---------- two standalone stacks over a hub ---------- *)

let mk_pair () =
  let clock = Clock.create () in
  let hub = Hub.create ~clock () in
  let a = Sim_host.create ~hub ~clock ~ip:"10.0.0.1" ~mac:"aa" () in
  let b = Sim_host.create ~hub ~clock ~ip:"10.0.0.2" ~mac:"bb" () in
  (clock, hub, a, b)

let drain conn =
  let buf = Buffer.create 64 in
  let rec go () =
    let d = Stack.recv conn in
    if String.length d > 0 then begin
      Buffer.add_string buf d;
      go ()
    end
  in
  go ();
  Buffer.contents buf

let test_tcp_connect_and_echo () =
  let _clock, _hub, a, b = mk_pair () in
  Sim_host.echo b ~port:7;
  let c = Stack.connect (Sim_host.stack a) ~dst:(Addr.v "10.0.0.2" 7) in
  (* handshake completes inline through the hub *)
  Alcotest.(check bool) "established" true (Stack.state c = Stack.Established);
  Stack.send c "hello over tcp";
  Alcotest.(check string) "echoed" "hello over tcp" (drain c);
  Stack.close c

let test_tcp_large_transfer () =
  let _clock, _hub, a, b = mk_pair () in
  let content = String.init 300_000 (fun i -> Char.chr (i land 0xff)) in
  Sim_host.serve_file b ~port:80 ~content;
  let c = Stack.connect (Sim_host.stack a) ~dst:(Addr.v "10.0.0.2" 80) in
  Stack.send c "GET /file";
  let buf = Buffer.create 1024 in
  let guard = ref 0 in
  while (not (Stack.recv_eof c)) && !guard < 1_000_000 do
    incr guard;
    Buffer.add_string buf (Stack.recv c)
  done;
  Alcotest.(check int) "full content" (String.length content)
    (Buffer.length buf);
  Alcotest.(check bool) "bytes identical" true
    (String.equal content (Buffer.contents buf))

let test_tcp_rst_on_closed_port () =
  let _clock, _hub, a, _b = mk_pair () in
  let c = Stack.connect (Sim_host.stack a) ~dst:(Addr.v "10.0.0.2" 9999) in
  Alcotest.(check bool) "reset" true (Stack.state c = Stack.Closed)

let test_tcp_loss_recovery () =
  let module Schedule = Histar_faults.Faults.Schedule in
  let clock = Clock.create () in
  let loss_only =
    Schedule.mk ~seed:42L
      ~net:
        {
          Schedule.loss_rate = 0.05;
          corrupt_rate = 0.0;
          duplicate_rate = 0.0;
          reorder_rate = 0.0;
          reorder_depth = 0;
          jitter_us = 0;
          flap_period_ms = 0;
          flap_down_ms = 0;
        }
      ()
  in
  let faults = Histar_faults.Faults.Net_faults.create loss_only in
  Metrics.with_enabled true @@ fun () ->
  let retx0 = Metrics.counter_value "net.segments_retransmitted" in
  let hub = Hub.create ?faults ~clock () in
  let a = Sim_host.create ~hub ~clock ~ip:"10.0.0.1" ~mac:"aa" () in
  let b = Sim_host.create ~hub ~clock ~ip:"10.0.0.2" ~mac:"bb" () in
  let content = String.init 50_000 (fun i -> Char.chr (i * 7 land 0xff)) in
  Sim_host.serve_file b ~port:80 ~content;
  let sa = Sim_host.stack a in
  let c = Stack.connect sa ~dst:(Addr.v "10.0.0.2" 80) in
  (* the SYN itself may be lost: drive timers until established *)
  let guard = ref 0 in
  while Stack.state c <> Stack.Established && !guard < 1000 do
    incr guard;
    Clock.advance clock 250_000_000;
    Stack.tick sa;
    Stack.tick (Sim_host.stack b)
  done;
  Alcotest.(check bool) "established despite loss" true
    (Stack.state c = Stack.Established);
  Stack.send c "GET /file";
  let buf = Buffer.create 1024 in
  let guard = ref 0 in
  while (not (Stack.recv_eof c)) && !guard < 20_000 do
    incr guard;
    Buffer.add_string buf (Stack.recv c);
    Clock.advance clock 50_000_000;
    Stack.tick sa;
    Stack.tick (Sim_host.stack b)
  done;
  Alcotest.(check bool) "retransmissions happened" true
    (Metrics.counter_value "net.segments_retransmitted" > retx0);
  Alcotest.(check bool) "content intact despite loss" true
    (String.equal content (Buffer.contents buf))

(* Satellite property: a byte stream pushed through a hub injecting
   loss + duplication + reordering (+ corruption, caught by the frame
   FCS) arrives exact and in-order, for several seeded schedules. Each
   schedule is deterministic, so a failing seed is a one-line replay. *)
let test_tcp_stream_exact_under_faulty_hub () =
  let module Schedule = Histar_faults.Faults.Schedule in
  List.iter
    (fun seed ->
      let clock = Clock.create () in
      let schedule =
        Schedule.mk ~seed
          ~net:
            {
              Schedule.default_net with
              Schedule.duplicate_rate = 0.04;
              reorder_rate = 0.08;
            }
          ()
      in
      let faults = Histar_faults.Faults.Net_faults.create schedule in
      Metrics.with_enabled true @@ fun () ->
      let lost0 = Metrics.counter_value "net.frames_lost" in
      let hub = Hub.create ?faults ~clock () in
      let a = Sim_host.create ~hub ~clock ~ip:"10.0.0.1" ~mac:"aa" () in
      let b = Sim_host.create ~hub ~clock ~ip:"10.0.0.2" ~mac:"bb" () in
      let content =
        Histar_util.Rng.bytes (Histar_util.Rng.create seed) 40_000
      in
      Sim_host.serve_file b ~port:80 ~content;
      let sa = Sim_host.stack a in
      let c = Stack.connect sa ~dst:(Addr.v "10.0.0.2" 80) in
      let guard = ref 0 in
      while Stack.state c <> Stack.Established && !guard < 1000 do
        incr guard;
        Clock.advance clock 250_000_000;
        Stack.tick sa;
        Stack.tick (Sim_host.stack b)
      done;
      Stack.send c "GET /file";
      let buf = Buffer.create 1024 in
      let guard = ref 0 in
      while (not (Stack.recv_eof c)) && !guard < 40_000 do
        incr guard;
        Buffer.add_string buf (Stack.recv c);
        Clock.advance clock 50_000_000;
        Stack.tick sa;
        Stack.tick (Sim_host.stack b);
        (* a held (reordered) frame must not be mistaken for a lost
           one when the wire drains *)
        Hub.flush_held hub
      done;
      let replay = Schedule.to_string schedule in
      Alcotest.(check bool)
        (Printf.sprintf "faults were injected (%s)" replay)
        true
        (Metrics.counter_value "net.frames_lost" > lost0);
      Alcotest.(check bool)
        (Printf.sprintf "stream exact and in-order (%s)" replay)
        true
        (String.equal content (Buffer.contents buf)))
    [ 0x5EED1L; 0x5EED2L; 0x5EED3L ]

let test_udp () =
  let _clock, _hub, a, b = mk_pair () in
  Stack.udp_bind (Sim_host.stack b) ~port:53;
  Stack.udp_send (Sim_host.stack a) ~dst:(Addr.v "10.0.0.2" 53) "query";
  match Stack.udp_recv (Sim_host.stack b) ~port:53 with
  | Some (from, payload) ->
      Alcotest.(check string) "payload" "query" payload;
      Alcotest.(check string) "source ip" "10.0.0.1" (Addr.ip_to_string from.Addr.ip)
  | None -> Alcotest.fail "no datagram"

let test_hub_bandwidth_model () =
  let clock = Clock.create () in
  let hub = Hub.create ~bandwidth_bps:100e6 ~latency_us:100.0 ~clock () in
  let _a = Sim_host.create ~hub ~clock ~ip:"10.0.0.1" ~mac:"aa" () in
  let b = Sim_host.create ~hub ~clock ~ip:"10.0.0.2" ~mac:"bb" () in
  (* ~10 MB transfer should take at least 0.8 virtual seconds at 100 Mbps *)
  let content = String.make 10_000_000 'x' in
  Sim_host.serve_file b ~port:80 ~content;
  let a2 = Sim_host.create ~hub ~clock ~ip:"10.0.0.3" ~mac:"cc" () in
  let c = Stack.connect (Sim_host.stack a2) ~dst:(Addr.v "10.0.0.2" 80) in
  Stack.send c "GET /";
  let guard = ref 0 in
  let total = ref 0 in
  while (not (Stack.recv_eof c)) && !guard < 100_000 do
    incr guard;
    total := !total + String.length (Stack.recv c)
  done;
  Alcotest.(check int) "all bytes" 10_000_000 !total;
  let secs = float_of_int (Clock.now clock) /. 1e9 in
  Alcotest.(check bool)
    (Printf.sprintf "took %.2fs (expect ~0.8s+)" secs)
    true
    (secs > 0.7 && secs < 5.0)

(* Deferred injection, the cluster's BSP barrier. Inside
   [Hub.deferred], frames sent on two hubs, interleaved, must touch no
   hub state: no tap sees them, [net.frames_sent] stays put and neither hub
   clock moves. When the scope closes they reach the wire in injection
   order across both hubs. A TCP SYN parked ahead of a datagram shows
   that re-entrant injects during the flush are not parked again: the
   SYN-ACK and ACK go straight to the wire, before the datagram. *)
let test_deferred_injection () =
  let clock1 = Clock.create () and clock2 = Clock.create () in
  let hub1 = Hub.create ~clock:clock1 () and hub2 = Hub.create ~clock:clock2 () in
  let a = Sim_host.create ~hub:hub1 ~clock:clock1 ~ip:"10.0.0.1" ~mac:"aa" () in
  let b = Sim_host.create ~hub:hub1 ~clock:clock1 ~ip:"10.0.0.2" ~mac:"bb" () in
  let c = Sim_host.create ~hub:hub2 ~clock:clock2 ~ip:"10.0.1.1" ~mac:"cc" () in
  let _d = Sim_host.create ~hub:hub2 ~clock:clock2 ~ip:"10.0.1.2" ~mac:"dd" () in
  Sim_host.echo b ~port:7;
  let seen = ref [] in
  let tap tag bytes =
    let what =
      match Packet.frame_of_bytes bytes with
      | Some { Packet.ip = { proto = Packet.Udp u; _ }; _ } -> u.Packet.upayload
      | Some { Packet.ip = { proto = Packet.Tcp t; _ }; _ } ->
          Printf.sprintf "tcp%s%s" (if t.flags.syn then " syn" else "")
            (if t.flags.ack then " ack" else "")
      | None -> "?"
    in
    seen := (tag ^ ":" ^ what) :: !seen
  in
  Hub.set_tap hub1 (Some (tap "h1"));
  Hub.set_tap hub2 (Some (tap "h2"));
  let udp host dst msg =
    Stack.udp_send (Sim_host.stack host) ~dst:(Addr.v dst 53) msg
  in
  let t1 = Clock.now clock1 and t2 = Clock.now clock2 in
  Metrics.with_enabled true @@ fun () ->
  let sent0 = Metrics.counter_value "net.frames_sent" in
  let conn =
    Hub.deferred (fun () ->
        udp a "10.0.0.2" "1";
        udp c "10.0.1.2" "2";
        udp a "10.0.0.2" "3";
        let conn = Stack.connect (Sim_host.stack a) ~dst:(Addr.v "10.0.0.2" 7) in
        udp c "10.0.1.2" "4";
        Alcotest.(check (list string)) "no tap sees a parked frame" [] !seen;
        Alcotest.(check int) "frames_sent unmoved" sent0
          (Metrics.counter_value "net.frames_sent");
        Alcotest.(check (pair int int)) "hub clocks unmoved" (t1, t2)
          (Clock.now clock1, Clock.now clock2);
        Alcotest.(check bool) "handshake still pending" true
          (Stack.state conn = Stack.Syn_sent);
        conn)
  in
  Alcotest.(check (list string))
    "injection order, re-entrant replies straight to the wire"
    [ "h1:1"; "h2:2"; "h1:3"; "h1:tcp syn"; "h1:tcp syn ack"; "h1:tcp ack"; "h2:4" ]
    (List.rev !seen);
  Alcotest.(check bool) "handshake completed in the flush" true
    (Stack.state conn = Stack.Established)

(* Satellite: byte-conservation identity. Every frame copy the hub
   accepts is charged to [net.bytes_tx] (per delivered copy) and then
   accounted exactly once as received, lost, or unroutable, so after
   the wire drains:

     bytes_tx = bytes_rx + bytes_lost + bytes_no_route

   Checked on a clean hub and on a faulty one (loss + duplication +
   reordering), where the per-host [net.bytes_tx.<mac>] split must
   also sum to the global counter. Counters are registry-global, so
   the test snapshots before/after and compares deltas. *)
let test_byte_conservation () =
  let module Metrics = Histar_metrics.Metrics in
  let module Schedule = Histar_faults.Faults.Schedule in
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled was) @@ fun () ->
  let cv = Metrics.counter_value in
  let run ~tag ~faults () =
    let tx0 = cv "net.bytes_tx"
    and rx0 = cv "net.bytes_rx"
    and lost0 = cv "net.bytes_lost"
    and nr0 = cv "net.bytes_no_route"
    and haa0 = cv "net.bytes_tx.aa"
    and hbb0 = cv "net.bytes_tx.bb" in
    let clock = Clock.create () in
    let hub = Hub.create ?faults ~clock () in
    let a = Sim_host.create ~hub ~clock ~ip:"10.0.0.1" ~mac:"aa" () in
    let b = Sim_host.create ~hub ~clock ~ip:"10.0.0.2" ~mac:"bb" () in
    let content = Histar_util.Rng.bytes (Histar_util.Rng.create 77L) 30_000 in
    Sim_host.serve_file b ~port:80 ~content;
    let sa = Sim_host.stack a in
    let c = Stack.connect sa ~dst:(Addr.v "10.0.0.2" 80) in
    let guard = ref 0 in
    while Stack.state c <> Stack.Established && !guard < 1000 do
      incr guard;
      Clock.advance clock 250_000_000;
      Stack.tick sa;
      Stack.tick (Sim_host.stack b)
    done;
    Stack.send c "GET /file";
    let buf = Buffer.create 1024 in
    let guard = ref 0 in
    while (not (Stack.recv_eof c)) && !guard < 40_000 do
      incr guard;
      Buffer.add_string buf (Stack.recv c);
      Clock.advance clock 50_000_000;
      Stack.tick sa;
      Stack.tick (Sim_host.stack b);
      Hub.flush_held hub
    done;
    (* a frame held for reordering that never drained would look like
       a conservation violation; force the wire empty first *)
    Hub.flush_held hub;
    Alcotest.(check bool)
      (tag ^ ": stream intact") true
      (String.equal content (Buffer.contents buf));
    let tx = cv "net.bytes_tx" - tx0
    and rx = cv "net.bytes_rx" - rx0
    and lost = cv "net.bytes_lost" - lost0
    and nr = cv "net.bytes_no_route" - nr0
    and haa = cv "net.bytes_tx.aa" - haa0
    and hbb = cv "net.bytes_tx.bb" - hbb0 in
    Alcotest.(check bool) (tag ^ ": traffic flowed") true (tx > 0);
    Alcotest.(check int) (tag ^ ": tx = rx + lost + no_route") tx
      (rx + lost + nr);
    Alcotest.(check int) (tag ^ ": per-host tx sums to global") tx (haa + hbb)
  in
  run ~tag:"clean" ~faults:None ();
  let schedule =
    Schedule.mk ~seed:0xC0DEL
      ~net:
        {
          Schedule.default_net with
          Schedule.duplicate_rate = 0.04;
          reorder_rate = 0.08;
        }
      ()
  in
  let faults = Histar_faults.Faults.Net_faults.create schedule in
  run ~tag:"faulty" ~faults ();
  (* the faulty run must actually have exercised the loss path, or
     the identity was only tested in its degenerate form *)
  Alcotest.(check bool) "faulty run lost bytes" true (cv "net.bytes_lost" > 0)

(* ---------- transmit path: wire identity, allocation ---------- *)

(* A transfer made of twelve sends of irregular sizes drawn from the
   check seed. The receiver takes its frames only a few at a time, so
   the sender's window fills and later sends append to a half-drained
   queue; the first ones even land before the handshake completes.
   Returns the fnv64 digest of every frame the tap saw, the final
   virtual ns, and the segments both stacks sent and retransmitted. *)
let wire_transfer ~faults =
  Metrics.with_enabled true @@ fun () ->
  let before = Metrics.snapshot () in
  let clock = Clock.create () in
  let hub = Hub.create ?faults ~clock () in
  let wire = Buffer.create 4096 in
  Hub.set_tap hub (Some (Buffer.add_string wire));
  let a = Sim_host.create ~hub ~clock ~ip:"10.0.0.1" ~mac:"aa" () in
  let sa = Sim_host.stack a in
  let b_ip = Addr.ip_of_string "10.0.0.2" in
  let sb =
    Stack.create ~mac:"bb" ~ip:b_ip ~send:(Hub.inject hub)
      ~resolve:(Hub.resolve hub) ~clock ()
  in
  (* frames for the receiver wait here until [deliver] hands them over *)
  let pending = Queue.create () in
  Hub.attach hub
    { Hub.ep_mac = "bb"; ep_ip = b_ip; ep_deliver = (fun f -> Queue.push f pending) };
  Stack.listen sb ~port:80;
  let server = ref None in
  let got = Buffer.create 4096 in
  let deliver n =
    for _ = 1 to n do
      Option.iter (Stack.input sb) (Queue.take_opt pending)
    done;
    if !server = None then server := Stack.accept sb ~port:80;
    match !server with
    | Some s ->
        Buffer.add_string got (Stack.recv s);
        if Stack.recv_eof s then Stack.close s
    | None -> ()
  in
  (* hand over everything pending; on a quiet wire, run the timers *)
  let drive_until stop =
    let guard = ref 0 in
    while (not (stop ())) && !guard < 20_000 do
      incr guard;
      if Queue.is_empty pending then begin
        Clock.advance clock 50_000_000;
        Stack.tick sa;
        Stack.tick sb;
        Hub.flush_held hub
      end;
      deliver (Queue.length pending)
    done
  in
  let rng = Histar_util.Rng.create (Check.seed ()) in
  let c = Stack.connect sa ~dst:(Addr.v "10.0.0.2" 80) in
  let sent = Buffer.create 4096 in
  for _ = 1 to 12 do
    let n = 1 + Histar_util.Rng.int rng 30_000 in
    let data = Histar_util.Rng.bytes rng n in
    Buffer.add_string sent data;
    Stack.send c data;
    deliver (Histar_util.Rng.int rng 12)
  done;
  drive_until (fun () -> Stack.state c <> Stack.Syn_sent);
  Stack.close c;
  drive_until (fun () ->
      Stack.state c = Stack.Closed && Buffer.length got = Buffer.length sent);
  Alcotest.(check bool) "stream exact" true
    (String.equal (Buffer.contents sent) (Buffer.contents got));
  let delta = Metrics.diff ~before ~after:(Metrics.snapshot ()) in
  ( Histar_util.Checksum.fnv64 (Buffer.contents wire),
    Clock.now clock,
    Metrics.value_in delta "net.segments_sent",
    Metrics.value_in delta "net.segments_retransmitted" )

(* Every frame on the wire, the virtual time and the segment counts are
   pinned to what the copying transmit path produced, over a clean hub
   and over one that loses, corrupts, duplicates and reorders. Pinned
   at the default check seed only; another seed checks the stream. *)
let test_wire_byte_identity () =
  let module Schedule = Histar_faults.Faults.Schedule in
  let run tag ~faults (digest, ns, sent, retx) =
    let d, n, s, r = wire_transfer ~faults in
    if Int64.equal (Check.seed ()) Check.default_seed then begin
      Alcotest.(check string) (tag ^ ": wire digest") digest
        (Printf.sprintf "%016Lx" d);
      Alcotest.(check int) (tag ^ ": virtual ns") ns n;
      Alcotest.(check int) (tag ^ ": segments sent") sent s;
      Alcotest.(check int) (tag ^ ": segments retransmitted") retx r
    end
  in
  run "clean" ~faults:None ("080a0421f0dcb125", 21_468_880, 309, 0);
  let schedule = Schedule.mk ~seed:0x1D3A7L ~net:Schedule.default_net () in
  run "lossy"
    ~faults:(Histar_faults.Faults.Net_faults.create schedule)
    ("5b93df9584cbd632", 62_788_369_360, 1105, 412)

(* Words allocated by one transfer of [n] bytes through [Sim_host]. *)
let transfer_alloc_words n =
  let _clock, _hub, a, b = mk_pair () in
  let content = String.make n 'x' in
  Sim_host.serve_file b ~port:80 ~content;
  let words () =
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let w0 = words () in
  let c = Stack.connect (Sim_host.stack a) ~dst:(Addr.v "10.0.0.2" 80) in
  Stack.send c "GET /";
  let total = ref 0 in
  let guard = ref 0 in
  while (not (Stack.recv_eof c)) && !guard < 100_000 do
    incr guard;
    total := !total + String.length (Stack.recv c)
  done;
  let w1 = words () in
  Alcotest.(check int) "all bytes" n !total;
  w1 -. w0

(* Doubling a transfer must about double what it allocates: allocation
   counts are deterministic where wall time is not, and a transmit
   path that re-copies its queue per segment allocates ~4x. *)
let test_tx_alloc_linear () =
  let small = transfer_alloc_words 1_250_000 in
  let large = transfer_alloc_words 2_500_000 in
  let ratio = large /. small in
  Alcotest.(check bool)
    (Printf.sprintf "1.25 MB -> 2.5 MB allocates %.2fx (%.0f -> %.0f words)"
       ratio small large)
    true (ratio <= 2.3)

(* Valid frames: numeric fields over their full width, strings and
   payloads up to the size bound. *)
let gen_frame =
  let open Gen in
  let u16 = int_range 0 0xFFFF and u32 = int_range 0 0xFFFF_FFFF in
  let* src_mac = string in
  let* dst_mac = string in
  let* src_ip = u32 in
  let* dst_ip = u32 in
  let* tcp = bool in
  let* payload = string in
  if tcp then
    let* src_port = u16 in
    let* dst_port = u16 in
    let* seq = u32 in
    let* ack_no = u32 in
    let* bits = int_range 0 15 in
    let* window = u32 in
    let flags =
      {
        Packet.syn = bits land 1 <> 0;
        ack = bits land 2 <> 0;
        fin = bits land 4 <> 0;
        rst = bits land 8 <> 0;
      }
    in
    return
      {
        Packet.src_mac;
        dst_mac;
        ip =
          {
            Packet.src_ip;
            dst_ip;
            proto =
              Packet.Tcp
                { Packet.src_port; dst_port; seq; ack_no; flags; window; payload };
          };
      }
  else
    let* usrc_port = u16 in
    let* udst_port = u16 in
    return
      {
        Packet.src_mac;
        dst_mac;
        ip =
          {
            Packet.src_ip;
            dst_ip;
            proto = Packet.Udp { Packet.usrc_port; udst_port; upayload = payload };
          };
      }

(* Every valid frame, payloads up to 200 bytes, is accepted and
   re-encodes to the same bytes. *)
let prop_frame_roundtrip =
  Check.test_case ~count:300 ~max_size:200 "frame codec round-trip" gen_frame
    (fun f ->
      let wire = Packet.frame_to_bytes f in
      match Packet.frame_of_bytes wire with
      | Some f' ->
          Check.ensure ~msg:"re-encodes differently"
            (String.equal (Packet.frame_to_bytes f') wire)
      | None -> failwith "valid frame rejected")

(* The bounded frame decoder is total: on arbitrary bytes and on
   mutations of valid frames — most of them resealed with a valid FCS,
   so the body decoder really runs — it returns [None] or [Some] and
   never raises, and whatever it accepts re-encodes to the same bytes.
   A payload length stretched into the FCS trailer must be rejected. *)
let payload_of f =
  match f.Packet.ip.Packet.proto with
  | Packet.Tcp t -> t.Packet.payload
  | Packet.Udp u -> u.Packet.upayload

(* [body] followed by its FCS *)
let reseal body =
  let fcs = Bytes.create 8 in
  Bytes.set_int64_le fcs 0 (Histar_util.Checksum.fnv64 body);
  body ^ Bytes.to_string fcs

(* (what was done, the bytes, whether they must be rejected) *)
let gen_wire_case =
  let open Gen in
  let* f = gen_frame in
  let wire = Packet.frame_to_bytes f in
  let body = String.sub wire 0 (String.length wire - 8) in
  let nb = String.length body in
  let* pos = int_range 0 1_000_000 in
  let* byte = int_range 1 255 in
  let* k = int_range 1 8 in
  let* tail = string in
  let flip s i =
    String.mapi
      (fun j c -> if j = i then Char.chr (Char.code c lxor byte) else c)
      s
  in
  choose
    [
      ("random bytes", tail, false);
      ("valid frame", wire, false);
      ("resealed body byte flip", reseal (flip body (pos mod nb)), false);
      ("resealed truncated body", reseal (String.sub body 0 (pos mod nb)), false);
      ("resealed body plus tail", reseal (body ^ tail), tail <> "");
      ("unsealed byte flip", flip wire (pos mod String.length wire), true);
      ("truncated frame", String.sub wire 0 (pos mod String.length wire), false);
      (let len_at = nb - String.length (payload_of f) - 4 in
       let b = Bytes.of_string body in
       Bytes.set_int32_le b len_at
         (Int32.of_int (String.length (payload_of f) + k));
       ( Printf.sprintf "payload length +%d into the FCS, resealed" k,
         reseal (Bytes.to_string b),
         true ));
    ]

let test_decoder_total =
  Check.test_case ~count:2000 ~max_size:64
    ~print:(fun (what, s, _) ->
      Printf.sprintf "%s: %S" what s)
    "bounded frame decoder is total" gen_wire_case
    (fun (what, s, must_reject) ->
      match Packet.frame_of_bytes s with
      | None -> ()
      | Some f ->
          Check.ensure ~msg:(what ^ ": accepted") (not must_reject);
          Check.ensure ~msg:(what ^ ": accepted frame re-encodes differently")
            (String.equal (Packet.frame_to_bytes f) s))

(* ---------- netd inside HiStar ---------- *)

let test_netd_end_to_end () =
  let k = Kernel.create () in
  let clock = Kernel.clock k in
  let hub = Hub.create ~clock () in
  let root = Kernel.root k in
  let server = Sim_host.create ~hub ~clock ~ip:"10.0.0.2" ~mac:"bb" () in
  Sim_host.serve_file server ~port:80 ~content:"the quick brown fox";
  let netd =
    Netd.start k ~hub ~container:root ~ip:(Addr.ip_of_string "10.0.0.1")
      ~mac:"aa" ()
  in
  let got = ref "" in
  let _client =
    Kernel.spawn k ~name:"wget" (fun () ->
        let sock =
          Netd.Client.connect netd ~return_container:root (Addr.v "10.0.0.2" 80)
        in
        Netd.Client.send netd ~return_container:root sock "GET /";
        let buf = Buffer.create 64 in
        let rec go () =
          match Netd.Client.recv netd ~return_container:root sock with
          | Some d ->
              Buffer.add_string buf d;
              go ()
          | None -> ()
        in
        go ();
        Netd.Client.close netd ~return_container:root sock;
        got := Buffer.contents buf)
  in
  Kernel.run k;
  Alcotest.(check string) "downloaded through netd" "the quick brown fox" !got

let test_netd_taint_blocks_vpn_data () =
  (* A thread tainted in a foreign category v must not be able to send
     through the internet netd: the kernel stops it at netd's tainted
     request segment, and netd's own check reports a label error. *)
  let k = Kernel.create () in
  let clock = Kernel.clock k in
  let hub = Hub.create ~clock () in
  let root = Kernel.root k in
  let attacker_box = Sim_host.create ~hub ~clock ~ip:"10.9.9.9" ~mac:"ee" () in
  Sim_host.sink attacker_box ~port:6666;
  let refused = ref false in
  let _init =
    Kernel.spawn k ~name:"init" (fun () ->
        let i = Sys.cat_create () in
        let netd =
          Netd.start k ~hub ~container:root ~ip:(Addr.ip_of_string "10.0.0.1")
            ~mac:"aa" ~taint:i ()
        in
        let v = Sys.cat_create () in
        (* scratch container writable once tainted v2+i2 *)
        let scratch =
          Sys.container_create ~container:root
            ~label:(l [ (v, Level.L2); (i, Level.L2) ] Level.L1)
            ~quota:262_144L "scratch"
        in
        let _leaker =
          Sys.thread_create ~container:root
            ~label:(l [ (v, Level.L2); (i, Level.L2) ] Level.L1)
            ~clearance:(l [ (v, Level.L2); (i, Level.L2) ] Level.L2)
            ~quota:65536L ~name:"leaker"
            (fun () ->
              match
                Netd.Client.connect netd ~return_container:scratch
                  (Addr.v "10.9.9.9" 6666)
              with
              | _ -> ()
              | exception Netd.Client.Netd_error _ -> refused := true
              | exception Kernel_error _ -> refused := true)
        in
        ())
  in
  Kernel.run k;
  Alcotest.(check bool) "vpn-tainted send refused" true !refused;
  Alcotest.(check string) "nothing reached the attacker" ""
    (Sim_host.sink_data attacker_box)

let test_netd_tainted_client_can_browse () =
  (* the legitimate pattern of Figure 11: a browser tainted {i2} *)
  let k = Kernel.create () in
  let clock = Kernel.clock k in
  let hub = Hub.create ~clock () in
  let root = Kernel.root k in
  let server = Sim_host.create ~hub ~clock ~ip:"10.0.0.2" ~mac:"bb" () in
  Sim_host.serve_file server ~port:80 ~content:"<html>hi</html>";
  let got = ref "" in
  let _init =
    Kernel.spawn k ~name:"init" (fun () ->
        let i = Sys.cat_create () in
        let netd =
          Netd.start k ~hub ~container:root ~ip:(Addr.ip_of_string "10.0.0.1")
            ~mac:"aa" ~taint:i ()
        in
        let scratch =
          Sys.container_create ~container:root
            ~label:(l [ (i, Level.L2) ] Level.L1)
            ~quota:262_144L "browser scratch"
        in
        let _browser =
          Sys.thread_create ~container:root
            ~label:(l [ (i, Level.L2) ] Level.L1)
            ~clearance:(l [ (i, Level.L2) ] Level.L2)
            ~quota:65536L ~name:"browser"
            (fun () ->
              let sock =
                Netd.Client.connect netd ~return_container:scratch
                  (Addr.v "10.0.0.2" 80)
              in
              Netd.Client.send netd ~return_container:scratch sock "GET /";
              let buf = Buffer.create 64 in
              let rec go () =
                match Netd.Client.recv netd ~return_container:scratch sock with
                | Some d ->
                    Buffer.add_string buf d;
                    go ()
                | None -> ()
              in
              go ();
              got := Buffer.contents buf)
        in
        ())
  in
  Kernel.run k;
  Alcotest.(check string) "browser downloaded" "<html>hi</html>" !got

(* Satellite: one netd multiplexing many concurrent clients. Each
   client thread gate-calls the same netd, opens its own socket to an
   echo server, pushes a distinct multi-segment payload and reads the
   echo back. Per-socket stream integrity means nobody sees a byte of
   anyone else's stream, in any interleaving of the borrowed gate
   threads and the shared worker. *)
let test_netd_many_clients () =
  let n = 8 in
  let k = Kernel.create () in
  let clock = Kernel.clock k in
  let hub = Hub.create ~clock () in
  let root = Kernel.root k in
  let server = Sim_host.create ~hub ~clock ~ip:"10.0.0.2" ~mac:"bb" () in
  Sim_host.echo server ~port:7;
  let netd =
    Netd.start k ~hub ~container:root ~ip:(Addr.ip_of_string "10.0.0.1")
      ~mac:"aa" ()
  in
  let results = Array.make n "" in
  let payload i =
    (* distinct per-client pattern, long enough to span segments *)
    String.init 5_000 (fun j -> Char.chr (((i * 131) + (j * 7)) land 0xff))
  in
  for i = 0 to n - 1 do
    ignore
      (Kernel.spawn k
         ~name:(Printf.sprintf "client-%d" i)
         (fun () ->
           let sock =
             Netd.Client.connect netd ~return_container:root
               (Addr.v "10.0.0.2" 7)
           in
           let want = payload i in
           Netd.Client.send netd ~return_container:root sock want;
           let buf = Buffer.create (String.length want) in
           let rec go () =
             if Buffer.length buf < String.length want then
               match Netd.Client.recv netd ~return_container:root sock with
               | Some d ->
                   Buffer.add_string buf d;
                   go ()
               | None -> ()
           in
           go ();
           Netd.Client.close netd ~return_container:root sock;
           results.(i) <- Buffer.contents buf))
  done;
  Kernel.run k;
  for i = 0 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "client %d echo intact" i)
      true
      (String.equal (payload i) results.(i))
  done

let () =
  Alcotest.run "histar_net"
    [
      ( "packets",
        [
          Alcotest.test_case "addr" `Quick test_addr_roundtrip;
          Alcotest.test_case "frame round-trip" `Quick test_packet_roundtrip;
          Alcotest.test_case "garbage" `Quick test_packet_garbage;
          prop_frame_roundtrip;
          test_decoder_total;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "connect+echo" `Quick test_tcp_connect_and_echo;
          Alcotest.test_case "large transfer" `Quick test_tcp_large_transfer;
          Alcotest.test_case "rst on closed port" `Quick
            test_tcp_rst_on_closed_port;
          Alcotest.test_case "loss recovery" `Quick test_tcp_loss_recovery;
          Alcotest.test_case "stream exact under faulty hub" `Quick
            test_tcp_stream_exact_under_faulty_hub;
          Alcotest.test_case "udp" `Quick test_udp;
          Alcotest.test_case "bandwidth model" `Quick test_hub_bandwidth_model;
          Alcotest.test_case "byte conservation" `Quick test_byte_conservation;
          Alcotest.test_case "deferred injection" `Quick test_deferred_injection;
          Alcotest.test_case "wire byte-identity" `Quick
            test_wire_byte_identity;
          Alcotest.test_case "transmit allocation linear" `Quick
            test_tx_alloc_linear;
        ] );
      ( "netd",
        [
          Alcotest.test_case "end to end" `Quick test_netd_end_to_end;
          Alcotest.test_case "vpn taint blocked" `Quick
            test_netd_taint_blocks_vpn_data;
          Alcotest.test_case "tainted browser works" `Quick
            test_netd_tainted_client_can_browse;
          Alcotest.test_case "many concurrent clients" `Quick
            test_netd_many_clients;
        ] );
    ]
