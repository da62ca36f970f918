module Sim_clock = Histar_util.Sim_clock
module Metrics = Histar_metrics.Metrics
open Packet

(* Transport counters next to the hub's wire counters: the stack's only
   accounting. A caller that wants one stack's segments reads their
   deltas in a metrics scope. *)
let m_segments_sent = Metrics.counter "net.segments_sent"
let m_segments_retransmitted = Metrics.counter "net.segments_retransmitted"
let m_rto_timeouts = Metrics.counter "net.rto_timeouts"
let m_rto_giveups = Metrics.counter "net.rto_giveups"
let m_fcs_drops = Metrics.counter "net.frames_fcs_dropped"

let mss = 1460
let window_bytes = 65_535

(* RFC 6298-style retransmission timing on the virtual clock. *)
let rto_initial_ns = 200_000_000 (* before the first RTT sample *)
let rto_min_ns = 50_000_000
let rto_max_ns = 10_000_000_000
let max_retries = 8 (* consecutive timeouts before giving up *)
let max_syn_retries = 5

(* [rto_deadline] of a connection with no RTO armed *)
let disarmed = max_int

type conn_state =
  | Syn_sent
  | Syn_received
  | Established
  | Fin_wait
  | Close_wait
  | Closed

type conn = {
  stack : t;
  local_port : Addr.port;
  remote : Addr.t;
  mutable cstate : conn_state;
  mutable snd_nxt : int;  (** next sequence number to send *)
  mutable snd_una : int;  (** oldest unacknowledged *)
  mutable rcv_nxt : int;
  txq : string Queue.t;  (** bytes not yet segmented, as appended *)
  mutable txq_head : int;  (** bytes of [txq]'s front already segmented *)
  mutable txq_bytes : int;  (** bytes in [txq] not yet segmented *)
  inflight : (int * string) Queue.t;
      (** (seq, payload), oldest first; contiguous in seq *)
  mutable inflight_bytes : int;  (** sum of the [inflight] payloads *)
  rxq : Buffer.t;
  mutable fin_received : bool;
  mutable fin_sent : bool;
  mutable rto_deadline : int;
  (* adaptive RTO state (RFC 6298): smoothed RTT / variance in ns;
     srtt = 0 means no sample yet *)
  mutable srtt_ns : int;
  mutable rttvar_ns : int;
  mutable cur_rto_ns : int;
  mutable retries : int;  (** consecutive timeouts since last forward ack *)
  (* Karn's algorithm: time one span at a time, and only if it was
     never retransmitted. rtt_seq is the ack number that completes the
     timed span; -1 = nothing being timed. *)
  mutable rtt_seq : int;
  mutable rtt_sent_at : int;
  mutable error : string option;
      (** terminal failure (e.g. retransmission give-up) *)
}

and t = {
  smac : string;
  sip : Addr.ip;
  send_frame : string -> unit;
  resolve : Addr.ip -> string option;
  clock : Sim_clock.t;
  conns : (int * Addr.ip * Addr.port, conn) Hashtbl.t;
      (** keyed by (local port, remote ip, remote port) *)
  listeners : (Addr.port, conn Queue.t) Hashtbl.t;
  udp_ports : (Addr.port, (Addr.t * string) Queue.t) Hashtbl.t;
  mutable next_port : int;
}

let create ~mac ~ip ~send ~resolve ~clock () =
  {
    smac = mac;
    sip = ip;
    send_frame = send;
    resolve;
    clock;
    conns = Hashtbl.create 16;
    listeners = Hashtbl.create 8;
    udp_ports = Hashtbl.create 8;
    next_port = 32_768;
  }

let mac t = t.smac
let ip t = t.sip

let conn_key c = (c.local_port, c.remote.Addr.ip, c.remote.Addr.port)

let emit_tcp t ~dst_ip ~tcp =
  match t.resolve dst_ip with
  | None -> () (* unreachable host: silently dropped, like a dead ARP *)
  | Some dst_mac ->
      Metrics.Counter.incr m_segments_sent;
      t.send_frame
        (frame_to_bytes
           {
             src_mac = t.smac;
             dst_mac;
             ip = { src_ip = t.sip; dst_ip; proto = Tcp tcp };
           })

let give_up c reason =
  c.error <- Some reason;
  c.cstate <- Closed;
  c.rto_deadline <- disarmed;
  Metrics.Counter.incr m_rto_giveups;
  Hashtbl.remove c.stack.conns (conn_key c)

let send_seg c ?(payload = "") ?(flags = no_flags) ~seq () =
  (* A destination with no hub endpoint is a powered-off machine on
     the local segment: fail the connection synchronously (the ICMP
     host-unreachable a LAN would deliver) rather than burning a full
     retransmission-give-up sequence. A *lossy or flapping* link
     keeps its endpoint attached, so loss recovery still goes through
     the RTO path. *)
  if c.stack.resolve c.remote.Addr.ip = None && c.cstate <> Closed then
    give_up c "no route to host"
  else
    emit_tcp c.stack ~dst_ip:c.remote.Addr.ip
      ~tcp:
        {
          src_port = c.local_port;
          dst_port = c.remote.Addr.port;
          seq;
          ack_no = c.rcv_nxt;
          flags;
          window = window_bytes;
          payload;
        }

let send_ack c = send_seg c ~flags:{ no_flags with ack = true } ~seq:c.snd_nxt ()

let arm_rto c =
  c.rto_deadline <- Sim_clock.now c.stack.clock + c.cur_rto_ns

(* Fold an RTT sample into the estimator and recompute the RTO.
   First sample: srtt = R, rttvar = R/2. After: rttvar = 3/4 rttvar +
   1/4 |srtt - R|; srtt = 7/8 srtt + 1/8 R; rto = srtt + 4 rttvar,
   clamped to [rto_min, rto_max]. *)
let update_rtt c r =
  if c.srtt_ns = 0 then begin
    c.srtt_ns <- r;
    c.rttvar_ns <- r / 2
  end
  else begin
    let diff = abs (c.srtt_ns - r) in
    c.rttvar_ns <- (3 * c.rttvar_ns / 4) + (diff / 4);
    c.srtt_ns <- (7 * c.srtt_ns / 8) + (r / 8)
  end;
  let rto = c.srtt_ns + (4 * c.rttvar_ns) in
  c.cur_rto_ns <- Int.max rto_min_ns (Int.min rto_max_ns rto)

(* Begin timing the span that the next cumulative ack >= [upto]
   completes, unless a span is already being timed. *)
let maybe_time_span c ~upto =
  if c.rtt_seq < 0 then begin
    c.rtt_seq <- upto;
    c.rtt_sent_at <- Sim_clock.now c.stack.clock
  end

(* Remove the next [n] unsent bytes from the tx queue, copying only
   those bytes. *)
let take_tx c n =
  c.txq_bytes <- c.txq_bytes - n;
  let seg = Bytes.create n in
  let filled = ref 0 in
  while !filled < n do
    let chunk = Queue.peek c.txq in
    let k = min (n - !filled) (String.length chunk - c.txq_head) in
    Bytes.blit_string chunk c.txq_head seg !filled k;
    filled := !filled + k;
    if c.txq_head + k = String.length chunk then begin
      ignore (Queue.pop c.txq);
      c.txq_head <- 0
    end
    else c.txq_head <- c.txq_head + k
  done;
  Bytes.unsafe_to_string seg

(* Segment pending bytes from the tx queue into the window. Fin_wait
   still drains: close() with queued data must deliver it all before
   the FIN goes out. All state is updated before each segment is
   sent: the peer's ack can re-enter [pump] from inside [send_seg]. *)
let pump c =
  match c.cstate with
  | Established | Close_wait | Fin_wait ->
      let progress = ref false in
      while c.txq_bytes > 0 && c.inflight_bytes + mss <= window_bytes do
        let take = min mss c.txq_bytes in
        let payload = take_tx c take in
        let seq = c.snd_nxt in
        c.snd_nxt <- c.snd_nxt + take;
        Queue.push (seq, payload) c.inflight;
        c.inflight_bytes <- c.inflight_bytes + take;
        maybe_time_span c ~upto:(seq + take);
        send_seg c ~payload ~flags:{ no_flags with ack = true } ~seq ();
        progress := true
      done;
      if !progress then arm_rto c
  | Syn_sent | Syn_received | Closed -> ()

let maybe_send_fin c =
  if
    (not c.fin_sent)
    && c.txq_bytes = 0
    && Queue.is_empty c.inflight
    && (c.cstate = Fin_wait || (c.cstate = Close_wait && c.fin_received))
  then begin
    c.fin_sent <- true;
    let seq = c.snd_nxt in
    c.snd_nxt <- c.snd_nxt + 1;
    send_seg c ~flags:{ no_flags with fin = true; ack = true } ~seq ();
    arm_rto c
  end

let mk_conn stack ~local_port ~remote ~cstate ~isn ~rcv_nxt =
  {
    stack;
    local_port;
    remote;
    cstate;
    snd_nxt = isn;
    snd_una = isn;
    rcv_nxt;
    txq = Queue.create ();
    txq_head = 0;
    txq_bytes = 0;
    inflight = Queue.create ();
    inflight_bytes = 0;
    rxq = Buffer.create 256;
    fin_received = false;
    fin_sent = false;
    rto_deadline = disarmed;
    srtt_ns = 0;
    rttvar_ns = 0;
    cur_rto_ns = rto_initial_ns;
    retries = 0;
    rtt_seq = -1;
    rtt_sent_at = 0;
    error = None;
  }

(* ----- public TCP API ----- *)

let listen t ~port =
  if not (Hashtbl.mem t.listeners port) then
    Hashtbl.replace t.listeners port (Queue.create ())

let unlisten t ~port = Hashtbl.remove t.listeners port

let accept t ~port =
  match Hashtbl.find_opt t.listeners port with
  | None -> None
  | Some q -> Queue.take_opt q

let fresh_port t =
  let p = t.next_port in
  t.next_port <- t.next_port + 1;
  p

let connect t ~dst =
  let local_port = fresh_port t in
  let isn = 1000 in
  let c = mk_conn t ~local_port ~remote:dst ~cstate:Syn_sent ~isn ~rcv_nxt:0 in
  Hashtbl.replace t.conns (conn_key c) c;
  send_seg c ~flags:{ no_flags with syn = true } ~seq:isn ();
  c.snd_nxt <- isn + 1;
  arm_rto c;
  c

let state c = c.cstate
let peer c = c.remote
let error c = c.error

let send c data =
  (match c.cstate with
  | Closed | Fin_wait -> invalid_arg "Stack.send: connection closing"
  | Syn_sent | Syn_received | Established | Close_wait -> ());
  if data <> "" then begin
    Queue.push data c.txq;
    c.txq_bytes <- c.txq_bytes + String.length data
  end;
  pump c

let recv c =
  let data = Buffer.contents c.rxq in
  Buffer.clear c.rxq;
  data

let recv_eof c = c.fin_received && Buffer.length c.rxq = 0

let close c =
  match c.cstate with
  | Closed -> ()
  | Syn_sent | Syn_received ->
      c.cstate <- Closed;
      Hashtbl.remove c.stack.conns (conn_key c)
  | Established ->
      c.cstate <- Fin_wait;
      maybe_send_fin c
  | Close_wait ->
      maybe_send_fin c
  | Fin_wait -> ()

(* ----- input processing ----- *)

let handle_ack c ack_no =
  if ack_no > c.snd_una then begin
    (* forward progress: reset the consecutive-timeout budget, and
       take an RTT sample if the timed span completed (Karn: the span
       is abandoned on any timeout, so a sample here is clean) *)
    c.retries <- 0;
    if c.rtt_seq >= 0 && ack_no >= c.rtt_seq then begin
      update_rtt c (Sim_clock.now c.stack.clock - c.rtt_sent_at);
      c.rtt_seq <- -1
    end;
    c.snd_una <- ack_no;
    (* the acked entries are a prefix: the queue is in seq order *)
    let rec drop_acked () =
      match Queue.peek_opt c.inflight with
      | Some (seq, p) when seq + String.length p <= ack_no ->
          ignore (Queue.pop c.inflight);
          c.inflight_bytes <- c.inflight_bytes - String.length p;
          drop_acked ()
      | Some _ | None -> ()
    in
    drop_acked ();
    if Queue.is_empty c.inflight then c.rto_deadline <- disarmed
    else arm_rto c;
    pump c;
    maybe_send_fin c;
    (* If both sides have finished, reap. *)
    if
      c.fin_sent && c.fin_received
      && Queue.is_empty c.inflight
      && ack_no >= c.snd_nxt
    then begin
      c.cstate <- Closed;
      Hashtbl.remove c.stack.conns (conn_key c)
    end
  end

let handle_tcp t ~src_ip (seg : tcp) =
  let key = (seg.dst_port, src_ip, seg.src_port) in
  match Hashtbl.find_opt t.conns key with
  | Some c -> (
      if seg.flags.rst then begin
        c.cstate <- Closed;
        Hashtbl.remove t.conns key
      end
      else
        match c.cstate with
        | Syn_sent when seg.flags.syn && seg.flags.ack ->
            c.rcv_nxt <- seg.seq + 1;
            c.cstate <- Established;
            c.rto_deadline <- disarmed;
            send_ack c;
            pump c
        | Syn_received when seg.flags.ack ->
            c.cstate <- Established;
            c.rto_deadline <- disarmed;
            (match Hashtbl.find_opt t.listeners c.local_port with
            | Some q -> Queue.push c q
            | None -> ());
            handle_ack c seg.ack_no
        | Established | Fin_wait | Close_wait | Syn_sent | Syn_received -> (
            if seg.flags.ack then handle_ack c seg.ack_no;
            (* in-order data *)
            if String.length seg.payload > 0 then
              if seg.seq = c.rcv_nxt then begin
                Buffer.add_string c.rxq seg.payload;
                c.rcv_nxt <- c.rcv_nxt + String.length seg.payload;
                send_ack c
              end
              else send_ack c (* dup or out-of-order: re-ack *);
            if seg.flags.fin && seg.seq = c.rcv_nxt then begin
              c.rcv_nxt <- c.rcv_nxt + 1;
              c.fin_received <- true;
              (match c.cstate with
              | Established -> c.cstate <- Close_wait
              | Fin_wait | Close_wait | Syn_sent | Syn_received | Closed -> ());
              send_ack c;
              maybe_send_fin c;
              if
                c.fin_sent
                && Queue.is_empty c.inflight
                && c.snd_una >= c.snd_nxt
              then begin
                c.cstate <- Closed;
                Hashtbl.remove t.conns (conn_key c)
              end
            end)
        | Closed -> ())
  | None ->
      if seg.flags.syn && not seg.flags.ack then (
        (* new connection attempt *)
        match Hashtbl.find_opt t.listeners seg.dst_port with
        | Some _q ->
            let remote = { Addr.ip = src_ip; port = seg.src_port } in
            let c =
              mk_conn t ~local_port:seg.dst_port ~remote ~cstate:Syn_received
                ~isn:2000 ~rcv_nxt:(seg.seq + 1)
            in
            Hashtbl.replace t.conns (conn_key c) c;
            send_seg c ~flags:{ no_flags with syn = true; ack = true } ~seq:2000
              ();
            c.snd_nxt <- 2001;
            c.snd_una <- 2000;
            arm_rto c
        | None ->
            (* closed port: RST *)
            emit_tcp t ~dst_ip:src_ip
              ~tcp:
                {
                  src_port = seg.dst_port;
                  dst_port = seg.src_port;
                  seq = 0;
                  ack_no = seg.seq + 1;
                  flags = { no_flags with rst = true; ack = true };
                  window = 0;
                  payload = "";
                })

let input t bytes =
  match frame_of_bytes bytes with
  | None ->
      (* truncated or failed the FCS: corrupted in flight, drop at the
         NIC and let retransmission recover *)
      Metrics.Counter.incr m_fcs_drops
  | Some f ->
      if f.ip.dst_ip = t.sip then (
        match f.ip.proto with
        | Tcp seg -> handle_tcp t ~src_ip:f.ip.src_ip seg
        | Udp u -> (
            match Hashtbl.find_opt t.udp_ports u.udst_port with
            | Some q ->
                Queue.push
                  ({ Addr.ip = f.ip.src_ip; port = u.usrc_port }, u.upayload)
                  q
            | None -> ()))

let count_retx () = Metrics.Counter.incr m_segments_retransmitted

let handle_timeout c =
  Metrics.Counter.incr m_rto_timeouts;
  c.retries <- c.retries + 1;
  (* Karn: the timed span was (about to be) retransmitted — its
     eventual ack must not feed the estimator. *)
  c.rtt_seq <- -1;
  let limit =
    match c.cstate with
    | Syn_sent | Syn_received -> max_syn_retries
    | Established | Fin_wait | Close_wait | Closed -> max_retries
  in
  if c.retries > limit then
    give_up c
      (Printf.sprintf "retransmission timeout (%d consecutive losses)"
         c.retries)
  else begin
    (* exponential backoff, then go-back-N on what is outstanding *)
    c.cur_rto_ns <- Int.min rto_max_ns (2 * c.cur_rto_ns);
    (match c.cstate with
    | Syn_sent ->
        count_retx ();
        send_seg c ~flags:{ no_flags with syn = true } ~seq:c.snd_una ()
    | Syn_received ->
        count_retx ();
        send_seg c
          ~flags:{ no_flags with syn = true; ack = true }
          ~seq:c.snd_una ()
    | Established | Fin_wait | Close_wait ->
        (* go-back-N over a snapshot: a retransmitted segment can be
           acked re-entrantly, popping entries and pumping new ones *)
        List.iter
          (fun (seq, payload) ->
            count_retx ();
            send_seg c ~payload ~flags:{ no_flags with ack = true } ~seq ())
          (List.of_seq (Queue.to_seq c.inflight));
        if c.fin_sent && Queue.is_empty c.inflight then begin
          count_retx ();
          send_seg c
            ~flags:{ no_flags with fin = true; ack = true }
            ~seq:(c.snd_nxt - 1) ()
        end
    | Closed -> ());
    arm_rto c
  end

let tick t =
  let now = Sim_clock.now t.clock in
  (* Collect first: handling a timeout can re-enter this stack (a
     retransmitted frame can trigger a synchronous ack from the peer)
     and close/remove connections, which must not race the
     iteration. Sort for a deterministic processing order. *)
  let expired =
    Hashtbl.fold
      (fun _ c acc -> if now >= c.rto_deadline then c :: acc else acc)
      t.conns []
    |> List.sort (fun a b -> compare (conn_key a) (conn_key b))
  in
  List.iter
    (fun c ->
      (* re-check: an earlier expiry's effects may have acked or
         closed this connection already *)
      if c.cstate <> Closed && now >= c.rto_deadline then
        handle_timeout c)
    expired

(* ----- timer introspection (for blocking drivers like netd) ----- *)

let needs_timer t =
  Hashtbl.fold
    (fun _ c acc -> acc || c.rto_deadline <> disarmed)
    t.conns false

let next_timer_deadline t =
  Hashtbl.fold
    (fun _ c acc ->
      if c.rto_deadline = disarmed then acc
      else
        match acc with
        | None -> Some c.rto_deadline
        | Some d -> Some (Int.min d c.rto_deadline))
    t.conns None

(* ----- UDP ----- *)

let udp_bind t ~port =
  if not (Hashtbl.mem t.udp_ports port) then
    Hashtbl.replace t.udp_ports port (Queue.create ())

let udp_send t ~dst payload =
  match t.resolve dst.Addr.ip with
  | None -> ()
  | Some dst_mac ->
      let usrc = fresh_port t in
      t.send_frame
        (frame_to_bytes
           {
             src_mac = t.smac;
             dst_mac;
             ip =
               {
                 src_ip = t.sip;
                 dst_ip = dst.Addr.ip;
                 proto = Udp { usrc_port = usrc; udst_port = dst.Addr.port; upayload = payload };
               };
           })

let udp_recv t ~port =
  match Hashtbl.find_opt t.udp_ports port with
  | None -> None
  | Some q -> Queue.take_opt q
