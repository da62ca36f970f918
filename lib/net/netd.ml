module Kernel = Histar_core.Kernel
module Sys = Histar_core.Sys
module Types = Histar_core.Types
module Label = Histar_label.Label
module Level = Histar_label.Level
module Codec = Histar_util.Codec
open Types

(* Worker-queue entries are plain OCaml values: the queue models netd's
   internal shared memory, which the kernel does not interpret. *)
type work =
  | W_connect of Addr.t * int  (* destination, socket id *)
  | W_listen of Addr.port
  | W_send of int * string
  | W_close of int

type shared = {
  stack_cell : Stack.t option ref;
  socks : (int, Stack.conn) Hashtbl.t;
  workq : work Queue.t;
  mutable next_sock : int;
  gate_cell : centry option ref;
  notify_cell : centry option ref;  (** bumped by rx pump on every frame *)
  req_cell : centry option ref;  (** bumped by clients to wake the worker *)
}

type t = {
  shared : shared;
  dev : oid;
  container : oid;
}

let device t = t.dev

let stack t =
  match !(t.shared.stack_cell) with
  | Some s -> s
  | None -> invalid_arg "Netd.stack: netd not initialized yet"

(* ---- futex helpers over a one-word segment ---- *)

let word_bump ce =
  Sys.set_segment_word ce ~off:0 (Int64.add (Sys.segment_word ce ~off:0) 1L);
  ignore (Sys.futex_wake ce ~off:0 ~count:max_int)

(* Wait until [pred ()] becomes true, sleeping on the notify futex in
   between. Spurious wakes are fine; we always re-check. *)
let wait_on ce pred =
  let rec loop () =
    if pred () then ()
    else begin
      let gen = Sys.segment_word ce ~off:0 in
      if pred () then ()
      else begin
        Sys.futex_wait ce ~off:0 ~expected:gen;
        loop ()
      end
    end
  in
  loop ()

(* ---- request wire format (travels via the thread-local segment) ---- *)

type request =
  | R_connect of Addr.t
  | R_listen of Addr.port
  | R_accept of Addr.port
  | R_send of int * string
  | R_recv of int
  | R_close of int

type reply = Rp_ok | Rp_sock of int | Rp_data of string | Rp_eof | Rp_err of string

let encode_request r =
  let e = Codec.Enc.create () in
  (match r with
  | R_connect a ->
      Codec.Enc.u8 e 1;
      Codec.Enc.u32 e a.Addr.ip;
      Codec.Enc.u16 e a.Addr.port
  | R_listen p ->
      Codec.Enc.u8 e 2;
      Codec.Enc.u16 e p
  | R_accept p ->
      Codec.Enc.u8 e 3;
      Codec.Enc.u16 e p
  | R_send (s, data) ->
      Codec.Enc.u8 e 4;
      Codec.Enc.u32 e s;
      Codec.Enc.str e data
  | R_recv s ->
      Codec.Enc.u8 e 5;
      Codec.Enc.u32 e s
  | R_close s ->
      Codec.Enc.u8 e 6;
      Codec.Enc.u32 e s);
  Codec.Enc.to_string e

let decode_request s =
  let d = Codec.Dec.of_string s in
  match Codec.Dec.u8 d with
  | 1 ->
      let ip = Codec.Dec.u32 d in
      let port = Codec.Dec.u16 d in
      R_connect { Addr.ip; port }
  | 2 -> R_listen (Codec.Dec.u16 d)
  | 3 -> R_accept (Codec.Dec.u16 d)
  | 4 ->
      let s' = Codec.Dec.u32 d in
      let data = Codec.Dec.str d in
      R_send (s', data)
  | 5 -> R_recv (Codec.Dec.u32 d)
  | 6 -> R_close (Codec.Dec.u32 d)
  | _ -> failwith "netd: bad request"

let encode_reply r =
  let e = Codec.Enc.create () in
  (match r with
  | Rp_ok -> Codec.Enc.u8 e 0
  | Rp_sock s ->
      Codec.Enc.u8 e 1;
      Codec.Enc.u32 e s
  | Rp_data d ->
      Codec.Enc.u8 e 2;
      Codec.Enc.str e d
  | Rp_eof -> Codec.Enc.u8 e 3
  | Rp_err m ->
      Codec.Enc.u8 e 4;
      Codec.Enc.str e m);
  Codec.Enc.to_string e

let decode_reply s =
  let d = Codec.Dec.of_string s in
  match Codec.Dec.u8 d with
  | 0 -> Rp_ok
  | 1 -> Rp_sock (Codec.Dec.u32 d)
  | 2 -> Rp_data (Codec.Dec.str d)
  | 3 -> Rp_eof
  | 4 -> Rp_err (Codec.Dec.str d)
  | _ -> failwith "netd: bad reply"

(* ---- the service-gate entry (runs on the calling thread) ---- *)

let taint_ok ~dir self dev_label =
  match dir with
  | `Recv -> Label.can_observe ~thread:self ~obj:dev_label
  | `Send -> Label.can_flow ~src:(Label.lower_star self) ~dst:dev_label

let service_entry shared dev_label () =
  let notify = Option.get !(shared.notify_cell) in
  let req_seg = Option.get !(shared.req_cell) in
  let self = Sys.self_label () in
  let dispatch () =
    match decode_request (Sys.tls_read ()) with
    | R_connect dst ->
        if not (taint_ok ~dir:`Send self dev_label) then
          Rp_err "label: cannot send to this network"
        else begin
          let sock = shared.next_sock in
          shared.next_sock <- sock + 1;
          Queue.push (W_connect (dst, sock)) shared.workq;
          word_bump req_seg;
          (* wait for the worker to create the connection, then for the
             handshake to finish *)
          wait_on notify (fun () -> Hashtbl.mem shared.socks sock);
          let conn = Hashtbl.find shared.socks sock in
          wait_on notify (fun () ->
              match Stack.state conn with
              | Established | Closed | Close_wait | Fin_wait -> true
              | Syn_sent | Syn_received -> false);
          match Stack.state conn with
          | Established -> Rp_sock sock
          | _ ->
              (* the handshake gave up (retransmission exhaustion over
                 a dead link) or was refused; reap the socket and say
                 why so callers can retry at request level *)
              Hashtbl.remove shared.socks sock;
              Rp_err
                (match Stack.error conn with
                | Some reason -> "connect failed: " ^ reason
                | None -> "connect failed")
        end
    | R_listen port ->
        Queue.push (W_listen port) shared.workq;
        word_bump req_seg;
        Rp_ok
    | R_accept port ->
        if not (taint_ok ~dir:`Recv self dev_label) then
          Rp_err "label: must carry the network taint to receive"
        else begin
          let stack = Option.get !(shared.stack_cell) in
          let got = ref None in
          wait_on notify (fun () ->
              match Stack.accept stack ~port with
              | Some c ->
                  got := Some c;
                  true
              | None -> false);
          let conn = Option.get !got in
          let sock = shared.next_sock in
          shared.next_sock <- sock + 1;
          Hashtbl.replace shared.socks sock conn;
          Rp_sock sock
        end
    | R_send (sock, data) -> (
        if not (taint_ok ~dir:`Send self dev_label) then
          Rp_err "label: cannot send to this network"
        else
          match Hashtbl.find_opt shared.socks sock with
          | None -> Rp_err "bad socket"
          | Some conn ->
              if Stack.state conn = Closed then
                Rp_err
                  (match Stack.error conn with
                  | Some reason -> "send failed: " ^ reason
                  | None -> "send failed: connection closed")
              else begin
                Queue.push (W_send (sock, data)) shared.workq;
                word_bump req_seg;
                Rp_ok
              end)
    | R_recv sock -> (
        if not (taint_ok ~dir:`Recv self dev_label) then
          Rp_err "label: must carry the network taint to receive"
        else
          match Hashtbl.find_opt shared.socks sock with
          | None -> Rp_err "bad socket"
          | Some conn ->
              let data = ref "" in
              (* a connection that died (give-up or reset) is a
                 terminal condition too — without it a flapping link
                 would wedge this thread forever *)
              wait_on notify (fun () ->
                  data := Stack.recv conn;
                  String.length !data > 0
                  || Stack.recv_eof conn
                  || Stack.state conn = Closed);
              if String.length !data > 0 then Rp_data !data
              else if Stack.recv_eof conn then Rp_eof
              else
                Rp_err
                  (match Stack.error conn with
                  | Some reason -> "recv failed: " ^ reason
                  | None -> "recv failed: connection closed"))
    | R_close sock -> (
        match Hashtbl.find_opt shared.socks sock with
        | None -> Rp_err "bad socket"
        | Some _ ->
            Queue.push (W_close sock) shared.workq;
            word_bump req_seg;
            Rp_ok)
    | exception Histar_util.Codec.Truncated -> Rp_err "malformed request"
    | exception Failure m -> Rp_err m
  in
  (* Any label denial inside the dispatch (e.g. an untainted sender
     touching the tainted request segment) surfaces as a clean error
     reply rather than killing the borrowed thread. *)
  let reply =
    try dispatch () with Kernel_error e -> Rp_err (error_to_string e)
  in
  Sys.tls_write (encode_reply reply);
  Sys.gate_return ()

(* ---- netd process threads ---- *)

let worker_loop shared dev_ce req_seg notify () =
  let stack = Option.get !(shared.stack_cell) in
  ignore dev_ce;
  let process work =
    (match work with
    | W_connect (dst, sock) ->
        let conn = Stack.connect stack ~dst in
        Hashtbl.replace shared.socks sock conn
    | W_listen port -> Stack.listen stack ~port
    | W_send (sock, data) -> (
        match Hashtbl.find_opt shared.socks sock with
        | Some conn -> ( try Stack.send conn data with Invalid_argument _ -> ())
        | None -> ())
    | W_close sock -> (
        match Hashtbl.find_opt shared.socks sock with
        | Some conn ->
            Stack.close conn;
            Hashtbl.remove shared.socks sock
        | None -> ()));
    word_bump notify
  in
  let rec loop () =
    (match Queue.take_opt shared.workq with
    | Some w -> process w
    | None ->
        let gen = Sys.segment_word req_seg ~off:0 in
        if Queue.is_empty shared.workq then
          Sys.futex_wait req_seg ~off:0 ~expected:gen);
    loop ()
  in
  loop ()

let rx_loop shared dev_ce notify () =
  let stack = Option.get !(shared.stack_cell) in
  let rec loop () =
    let frame = Sys.net_recv dev_ce in
    Stack.input stack frame;
    Stack.tick stack;
    word_bump notify;
    loop ()
  in
  loop ()

(* Retransmission pacemaker. The rx pump only ticks the stack when a
   frame arrives, so a link that drops everything (a flap window)
   would leave armed RTOs unserviced forever: the rx thread blocks in
   net_recv and nothing retransmits. This thread parks on the
   earliest RTO deadline; the scheduler's idle-clock advance fires it
   even when no traffic flows. It gates on [Stack.needs_timer] — not
   on open connections — so an established-but-idle socket does not
   keep the kernel spinning: with no armed RTO it blocks on the
   notify futex (bumped by the worker and rx pump whenever something
   might have armed one) and the system can go quiescent. *)
let timer_loop shared notify () =
  let stack = Option.get !(shared.stack_cell) in
  let rec loop () =
    (if Stack.needs_timer stack then begin
       let deadline =
         match Stack.next_timer_deadline stack with
         | Some d -> d
         | None -> Sys.clock_ns () + 50_000_000
       in
       Sys.sleep_until_ns deadline;
       Stack.tick stack;
       word_bump notify
     end
     else begin
       let gen = Sys.segment_word notify ~off:0 in
       if not (Stack.needs_timer stack) then
         Sys.futex_wait notify ~off:0 ~expected:gen
     end);
    loop ()
  in
  loop ()

let start k ~hub ~container ~ip ~mac ?taint () =
  let dev_label =
    match taint with
    | Some i -> Label.of_list [ (i, Level.L2) ] Level.L1
    | None -> Label.make Level.L1
  in
  let dev =
    Kernel.attach_netdev k ~container ~label:dev_label ~mac
      ~transmit:(fun frame -> Hub.inject hub frame)
  in
  Hub.attach hub
    {
      Hub.ep_mac = mac;
      ep_ip = ip;
      ep_deliver = (fun frame -> Kernel.deliver_packet k dev frame);
    };
  let shared =
    {
      stack_cell = ref None;
      socks = Hashtbl.create 16;
      workq = Queue.create ();
      next_sock = 1;
      gate_cell = ref None;
      notify_cell = ref None;
      req_cell = ref None;
    }
  in
  let resolve ipaddr = Hub.resolve hub ipaddr in
  let dev_ce = centry container dev in
  (* init thread: build segments and the gate at {dev_label}, publish,
     taint itself to the device level, then become the worker. *)
  let init () =
    let stack =
      Stack.create ~mac ~ip
        ~send:(fun frame -> Sys.net_send dev_ce frame)
        ~resolve ~clock:(Kernel.clock k) ()
    in
    shared.stack_cell := Some stack;
    let seg_label = dev_label in
    let notify_oid =
      Sys.segment_create ~container ~label:seg_label ~quota:8704L ~len:8
        "netd notify"
    in
    let req_oid =
      Sys.segment_create ~container ~label:seg_label ~quota:8704L ~len:8
        "netd reqs"
    in
    let notify = centry container notify_oid in
    let req_seg = centry container req_oid in
    shared.notify_cell := Some notify;
    shared.req_cell := Some req_seg;
    let gate_oid =
      Sys.gate_create ~container ~label:(Label.make Level.L1)
        ~clearance:(Label.make Level.L2) ~quota:4096L ~name:"netd service"
        (service_entry shared dev_label)
    in
    shared.gate_cell := Some (centry container gate_oid);
    (* spawn the rx pump and the retransmission pacemaker, also at
       the device taint *)
    let _rx =
      Sys.thread_create ~container ~label:dev_label
        ~clearance:(Label.make Level.L2) ~quota:131_072L ~name:"netd-rx"
        (rx_loop shared dev_ce notify)
    in
    let _timer =
      Sys.thread_create ~container ~label:dev_label
        ~clearance:(Label.make Level.L2) ~quota:131_072L ~name:"netd-timer"
        (timer_loop shared notify)
    in
    (* become the worker, tainted to the device level *)
    Sys.self_set_label dev_label;
    worker_loop shared dev_ce req_seg notify ()
  in
  let _tid = Kernel.spawn k ~container ~name:"netd" init in
  { shared; dev; container }

(* ---- client wrappers ---- *)

module Client = struct
  type sock = int

  exception Netd_error of string

  (* netd publishes its gate from its init thread; early callers spin. *)
  let rec await_gate t =
    match !(t.shared.gate_cell) with
    | Some g -> g
    | None ->
        Sys.yield ();
        await_gate t

  let call t ~return_container req =
    let gate = await_gate t in
    decode_reply (Sys.rpc_call ~gate ~return_container (encode_request req))

  let connect t ~return_container dst =
    match call t ~return_container (R_connect dst) with
    | Rp_sock s -> s
    | Rp_err m -> raise (Netd_error m)
    | _ -> raise (Netd_error "unexpected reply")

  (* Request-level retry: only transport-level connect failures (the
     handshake gave up over a lossy/flapping link) are retried. Label
     denials are policy, not weather — they propagate immediately. *)
  let is_transient m =
    let p = "connect failed" in
    String.length m >= String.length p && String.sub m 0 (String.length p) = p

  let rec connect_retry ?(attempts = 3) t ~return_container dst =
    match call t ~return_container (R_connect dst) with
    | Rp_sock s -> s
    | Rp_err m when attempts > 1 && is_transient m ->
        connect_retry ~attempts:(attempts - 1) t ~return_container dst
    | Rp_err m -> raise (Netd_error m)
    | _ -> raise (Netd_error "unexpected reply")

  let listen t ~return_container port =
    match call t ~return_container (R_listen port) with
    | Rp_ok -> ()
    | Rp_err m -> raise (Netd_error m)
    | _ -> raise (Netd_error "unexpected reply")

  let accept t ~return_container port =
    match call t ~return_container (R_accept port) with
    | Rp_sock s -> s
    | Rp_err m -> raise (Netd_error m)
    | _ -> raise (Netd_error "unexpected reply")

  let send t ~return_container sock data =
    match call t ~return_container (R_send (sock, data)) with
    | Rp_ok -> ()
    | Rp_err m -> raise (Netd_error m)
    | _ -> raise (Netd_error "unexpected reply")

  let recv t ~return_container sock =
    match call t ~return_container (R_recv sock) with
    | Rp_data d -> Some d
    | Rp_eof -> None
    | Rp_err m -> raise (Netd_error m)
    | _ -> raise (Netd_error "unexpected reply")

  let close t ~return_container sock =
    match call t ~return_container (R_close sock) with
    | Rp_ok -> ()
    | Rp_err m -> raise (Netd_error m)
    | _ -> raise (Netd_error "unexpected reply")
end
