(* distd: the per-node remote-gate daemon.

   Architecture (netd-style, §5.7 generalized across kernels): each
   node runs a listener thread that accepts backbone TCP connections
   through its local netd and spawns one conn thread per peer
   connection. A conn thread deframes and unseals Call messages,
   translates the caller's label and capacity into local categories
   ({!Proto.of_wire}, importing unknown wire names on first sight),
   runs the admission check ({!Proto.admit} — the model's gate rule
   over translated labels), and only then spawns a *proxy thread* at
   the translated label/clearance to run the service handler. The
   proxy stands in for the remote caller exactly the way a gate-enter
   thread stands in for a local one: same floor, same clearance cap.

   Ownership plumbing: a conn thread that imports a wire name creates
   the local twin with [cat_create] (gaining its ⋆) and immediately
   publishes a persistent *grant gate* whose entry does [gate_return
   ~keep:[c]] — the §6.2 check-gate idiom — so any later thread on
   the node can re-acquire ⋆c by gate-calling it. Conn threads use
   those gates to collect the ⋆s a proxy label needs, spawn the proxy
   (thread_create requires the spawner to own every ⋆ it passes
   down), then drop back to their clean label. The proxy's result
   comes back through a host-side cell the conn thread poll-parks on
   ([sleep_until_ns] in 50µs steps): a futex would need the untainted
   conn thread to observe tainted proxy state, which is exactly what
   the label algebra forbids — polling virtual time leaks nothing.

   Refusals: information flow is enforced at four points, all counted
   in [net.dist_refused] (and per-node [net.dist_refused.n<id>]):
   - egress: a caller whose label carries unexported categories
     cannot express itself on the wire (translate failure);
   - admission: {!Proto.admit} refuses the call like a local gate;
   - reply capacity: the server drops a reply whose label (sans ⋆)
     would not be ⊑ the caller's advertised capacity — the answer is
     never serialized, so refused data never crosses the wire;
   - acceptance: the caller re-checks the translated reply label
     against its own clearance before raising its label to read.

   Callers must be clean or own their taint: the calling thread talks
   TCP through netd itself, so its label must flow to the netd device
   label. That is this module's documented egress policy — a tainted
   caller that owns its taint (⋆) passes; anonymous taint must stay
   on-node (it could not come back past acceptance anyway). *)

module Label = Histar_label.Label
module Level = Histar_label.Level
module Category = Histar_label.Category
module Metrics = Histar_metrics.Metrics
module Kernel = Histar_core.Kernel
module Sys = Histar_core.Sys
module Types = Histar_core.Types
module Netd = Histar_net.Netd
module Addr = Histar_net.Addr
module Seal = Histar_crypto.Seal

let m_calls = Metrics.counter "net.dist_calls"
let m_refused = Metrics.counter "net.dist_refused"
let m_served = Metrics.counter "net.dist_served"
let m_probes = Metrics.counter "net.dist_probes"
let m_batched = Metrics.counter "net.dist_admit_batched"
let m_conn_reused = Metrics.counter "net.dist_conn_reused"

(* --- dist-plane constants ---

   A call makes one connect attempt before it gives up with Transport:
   fail fast, the balancer handles failover. A peer that failed is
   backed off for 40 ms at first, doubling up to a 640 ms cap (5
   doublings). *)
let connect_attempts = 1
let default_cooldown_ms = 40
let default_retry_cap_ms = 640

(* --- peer health ---

   Per-peer failure tracking with capped exponential backoff.  PR 5's
   balancer used a fixed-period cooldown: a dead node was re-probed
   every cooldown forever, so a permanently dead shard cost one full
   RTO give-up per period for the rest of the run.  Here consecutive
   failures double the backoff up to [default_retry_cap_ms]; the
   first send after a backoff window expires is a *probe*, counted in
   [net.dist_probes].  A probe that succeeds resets the peer to
   healthy; one that fails doubles the window again.  All state is
   driven by virtual time, so failover schedules replay exactly. *)
module Peer_health = struct
  type peer = { mutable fails : int; mutable down_until_ns : int }
  type t = { peers : (int, peer) Hashtbl.t; cooldown_ns : int; cap_ns : int }

  let create ?cooldown_ms ?cap_ms () =
    let cd = Option.value cooldown_ms ~default:default_cooldown_ms in
    let cap = Option.value cap_ms ~default:default_retry_cap_ms in
    {
      peers = Hashtbl.create 8;
      cooldown_ns = max 1 cd * 1_000_000;
      cap_ns = max 1 cap * 1_000_000;
    }

  let peer t node =
    match Hashtbl.find_opt t.peers node with
    | Some p -> p
    | None ->
        let p = { fails = 0; down_until_ns = 0 } in
        Hashtbl.replace t.peers node p;
        p

  (* May we send to [node] now?  [`Yes] — healthy.  [`Probe] — the
     backoff window elapsed; this send is the probe (counted).
     [`No] — still inside the backoff window. *)
  let usable t ~node ~now_ns =
    let p = peer t node in
    if p.fails = 0 then `Yes
    else if now_ns >= p.down_until_ns then (
      Metrics.Counter.incr m_probes;
      `Probe)
    else `No

  let ok t ~node =
    let p = peer t node in
    p.fails <- 0;
    p.down_until_ns <- 0

  let failed t ~node ~now_ns =
    let p = peer t node in
    p.fails <- p.fails + 1;
    (* cooldown * 2^(fails-1), capped; shift saturates via the cap *)
    let backoff =
      let b = t.cooldown_ns lsl min 20 (p.fails - 1) in
      if b > t.cap_ns || b <= 0 then t.cap_ns else b
    in
    p.down_until_ns <- now_ns + backoff
end

type service = {
  sv_label : Label.t;
  sv_clear : Label.t;
  sv_handler : string -> string * Category.t list;
}

type t = {
  node_id : int;
  k : Kernel.t;
  netd : Netd.t;
  names : Names.t;
  seal : Seal.t;
  container : Types.oid;
  port : Addr.port;
  peers : int -> Addr.t;
  services : (string, service) Hashtbl.t;
  mutable svc_version : int;
      (* bumped on every [register]; invalidates per-conn admission
         memos built against the old service table *)
  pool : (int, Netd.Client.sock) Hashtbl.t;
      (* idle pooled connections per peer node ([Hashtbl.add]
         multi-binding: concurrent callers each pop their own) *)
  mutable nonce_seq : int;
  m_node_refused : Metrics.Counter.t;
}

type call_error =
  | Refused of string  (** information-flow refusal, either side *)
  | Remote of string  (** remote execution error *)
  | Transport of string  (** connect/stream failure (node down, lossy link) *)

let l1 = Label.make Level.L1
let l2 = Label.make Level.L2
let l3 = Label.make Level.L3

let node_id t = t.node_id
let names t = t.names

let refuse t reason =
  Metrics.Counter.incr m_refused;
  Metrics.Counter.incr t.m_node_refused;
  Error (Refused reason)

let mint_nonce t =
  let seq = t.nonce_seq in
  t.nonce_seq <- seq + 1;
  Int64.logor (Int64.shift_left (Int64.of_int t.node_id) 40) (Int64.of_int seq)

(* --- grant gates --- *)

(* Publish a persistent gate granting ⋆[cat]; the calling thread must
   own [cat]. Entry label {cat⋆, 1}: invoking it taints nobody, and
   the ⋆ in the gate label puts cat⋆ inside the entry floor so the
   entry thread owns it and may [keep] it through the return. *)
let make_grant_gate t cat =
  let gid =
    Sys.gate_create ~container:t.container
      ~label:(Label.of_list [ (cat, Level.Star) ] Level.L1)
      ~clearance:l2 ~quota:4096L
      ~name:(Fmt.str "dist-grant-%s" (Category.to_string cat))
      (fun () -> Sys.gate_return ~keep:[ cat ] ())
  in
  Types.centry t.container gid

(* Import a wire name: return the local twin, creating it (and its
   grant gate) on first sight. Runs on conn threads and on callers
   translating replies; [cat_create] leaves the creating thread
   owning the twin, which is what lets it publish the grant gate. *)
let import t w =
  match Names.find_wire t.names w with
  | Some e -> e
  | None ->
      let cat = Sys.cat_create () in
      let e = Names.record t.names ~wire:w ~cat () in
      Names.set_grant e (make_grant_gate t cat);
      (* The importer mints the twin but must not keep the ⋆
         cat_create gave it: the wire name belongs to a remote owner,
         and keeping it would silently absorb incoming taint.
         Ownership on this node is only ever obtained by claiming
         through the grant gate. *)
      Sys.self_set_label (Label.set (Sys.self_label ()) cat Level.L1);
      e

(* Acquire ⋆ of every category [l] owns that the calling thread does
   not, via the grant gates. Growth only: the thread keeps its other
   privileges (gate_call requests our current label plus the ⋆). *)
let acquire_stars t l =
  Category.Set.iter
    (fun c ->
      if not (Label.owns (Sys.self_label ()) c) then
        match Names.find_local t.names c with
        | Some { Names.e_grant = Some gate; _ } ->
            Sys.gate_call ~gate
              ~label:(Label.set (Sys.self_label ()) c Level.Star)
              ~clearance:(Sys.self_clearance ())
              ~return_container:t.container
              ~return_label:(Sys.self_label ())
              ~return_clearance:(Sys.self_clearance ())
              ()
        | Some { Names.e_grant = None; _ } | None ->
            failwith
              (Fmt.str "dist: no grant route for category %s"
                 (Category.to_string c)))
    (Label.owned l)

(* Export a locally-owned category (grant gate + wire name + trust
   list). Must run on a thread that owns [cat]. *)
let export_owned t ?(trust = []) cat =
  let e = Names.export t.names ~trust cat in
  (match e.Names.e_grant with
  | Some _ -> ()
  | None -> Names.set_grant e (make_grant_gate t cat));
  e.Names.e_wire

(* Re-bind a persisted category to its original wire name after a
   node recovers from its store: record the binding and install a
   fresh grant gate (persisted gate entries die with serialization).
   Unlike [export_owned] no wire name is minted — the wire identity
   survives the crash, so importers on other nodes keep their twins
   and the directory's trust entries stay valid. Must run on a thread
   owning [cat]. *)
let rebind_owned t ~wire cat =
  let e =
    match Names.find_wire t.names wire with
    | Some e -> e
    | None -> Names.record t.names ~wire ~cat ()
  in
  match e.Names.e_grant with
  | Some _ -> ()
  | None -> Names.set_grant e (make_grant_gate t cat)

(* Claim grants carried by a reply: import each wire name and acquire
   its ⋆ (first importer owns the twin outright). *)
let claim_grants t wires =
  List.map
    (fun w ->
      let e = import t w in
      let c = e.Names.e_cat in
      if not (Label.owns (Sys.self_label ()) c) then
        acquire_stars t (Label.of_list [ (c, Level.Star) ] Level.L1);
      c)
    wires

(* --- server side --- *)

let register t ~service ~label ~clearance handler =
  t.svc_version <- t.svc_version + 1;
  Hashtbl.replace t.services service
    { sv_label = label; sv_clear = clearance; sv_handler = handler }

(* Poll-park until the proxy posts its result. A futex would require
   the clean conn thread to observe tainted proxy writes; virtual
   time is label-free. *)
let rec await_cell cell =
  match !cell with
  | Some r -> r
  | None ->
      Sys.sleep_until_ns (Sys.clock_ns () + 50_000);
      await_cell cell

(* Admission phase: translate the caller's wire label and capacity
   into local categories and run the §3.5 check.  Pure given the
   names/trust state, so it is memoizable per connection (below) —
   trust only ever grows, and growth only *adds* ⋆ to the translated
   label, so a cached admit is never more permissive than a fresh
   one.  Refusals are never cached: a caller refused during a handoff
   window must be admitted on the next request after commit. *)
let admit_call t call (sv : service) =
  let from = call.Wire.c_from in
  let resolve w = (import t w).Names.e_cat in
  let lt =
    Proto.of_wire ~resolve
      ~trusted:(fun w -> Names.trusted_for t.names ~wire:w ~node:from)
      call.Wire.c_label
  in
  (* Capacity entries assert no privilege; clamp any ⋆/J outright. *)
  let ct = Proto.of_wire ~resolve ~trusted:(fun _ -> false) call.Wire.c_clear in
  (* The proxy runs at the caller's translated label raised by the
     service's ⋆s — the gate floor — with the caller's capacity. *)
  let rl =
    Category.Set.fold
      (fun c acc -> Label.set acc c Level.Star)
      (Label.owned sv.sv_label) lt
  in
  let rc = ct in
  match
    Proto.admit ~lt ~ct ~lg:sv.sv_label ~gclear:sv.sv_clear ~rl ~rc ~lv:l3
  with
  | Error reason -> Error reason
  | Ok () -> Ok (lt, ct, rl, rc)

(* A reply with no label and no grants: every refusal and error. *)
let bare_reply r_status r_payload =
  {
    Wire.r_status;
    r_label = { wl_entries = []; wl_default = 1 };
    r_grants = [];
    r_payload;
  }

(* Execution phase: spawn the proxy at the admitted floor and police
   the reply. *)
let run_admitted t call (sv : service) ~ct ~rl ~rc =
  (
      let clean = Sys.self_label () in
      acquire_stars t rl;
      let cell = ref None in
      let _proxy =
        Sys.thread_create ~container:t.container ~label:rl ~clearance:rc
          ~quota:262144L
          ~name:(Fmt.str "dist-proxy-%s" call.Wire.c_service)
          (fun () ->
            let res =
              match sv.sv_handler call.Wire.c_args with
              | payload, grants ->
                  let self = Sys.self_label () in
                  if List.for_all (Label.owns self) grants then
                    `Done (self, payload, grants)
                  else `Err "dist: service granted an unowned category"
              | exception Types.Kernel_error e -> `Err (Types.error_to_string e)
              | exception Failure m -> `Err m
            in
            cell := Some res)
      in
      Sys.self_set_label clean;
      match await_cell cell with
      | `Err m ->
          bare_reply S_error m
      | `Done (rlabel, payload, grants) -> (
          (* Server-side refusal: the reply label, stripped of the
             proxy's privileges, must fit the caller's capacity —
             otherwise the answer is dropped before serialization.
             Plain taint is already capped by rc (kernel clearance
             rule), so what this actually guards is ⋆-derived
             exposure: a service owning categories the caller could
             never read (pessimistically, nobody may honor our ⋆ on
             the far side). *)
          if not (Label.leq (Proto.star_to_l3 rlabel) ct) then (
            ignore (refuse t "dist: reply label exceeds caller capacity"
                    : (_, call_error) result);
            bare_reply S_refused "reply label exceeds caller capacity")
          else
            match Proto.to_wire t.names rlabel with
            | Error m ->
                ignore (refuse t ("dist: reply carries unexported taint: " ^ m)
                        : (_, call_error) result);
                bare_reply S_refused "reply carries unexported taint"
            | Ok wl ->
                let r_grants =
                  List.map
                    (fun c ->
                      match Names.find_local t.names c with
                      | Some e -> e.Names.e_wire
                      | None ->
                          (* Handler-owned but never exported: mint now
                             so the grant is claimable cluster-wide.
                             The conn thread does not own c, but the
                             wire name itself is public metadata. *)
                          (Names.export t.names c).Names.e_wire)
                    grants
                in
                Metrics.Counter.incr m_served;
                { Wire.r_status = S_ok; r_label = wl; r_grants;
                  r_payload = payload }))

(* Per-connection admission memo.  On a long-lived peer connection
   the same (caller, label, capacity, service) tuple recurs on every
   request, so the admission outcome — wire translation plus the full
   §3.5 check — runs once per connection instead of once per request;
   replays are counted in [net.dist_admit_batched].  Entries carry
   the service-table version: re-registering a service (recovery,
   rebalance import) invalidates every memo built against the old
   table.  Only admits are memoized — a refusal (e.g. during a
   handoff window) must be recomputed so the caller is admitted again
   the moment the handoff commits. *)
type memo_key = string * int * Wire.wlabel * Wire.wlabel

let memo_key (call : Wire.call) : memo_key =
  (call.Wire.c_service, call.Wire.c_from, call.Wire.c_label, call.Wire.c_clear)

let handle_call ?memo t call =
  match Hashtbl.find_opt t.services call.Wire.c_service with
  | None ->
      bare_reply S_error ("no such service: " ^ call.Wire.c_service)
  | Some sv -> (
      let cached =
        match memo with
        | None -> None
        | Some tbl -> (
            match Hashtbl.find_opt tbl (memo_key call) with
            | Some (ver, ct, rl, rc) when ver = t.svc_version ->
                Some (ct, rl, rc)
            | Some _ | None -> None)
      in
      match cached with
      | Some (ct, rl, rc) ->
          Metrics.Counter.incr m_batched;
          run_admitted t call sv ~ct ~rl ~rc
      | None -> (
          match admit_call t call sv with
          | Error reason ->
              ignore (refuse t reason : (_, call_error) result);
              bare_reply S_refused reason
          | Ok (_lt, ct, rl, rc) ->
              (match memo with
              | Some tbl ->
                  Hashtbl.replace tbl (memo_key call)
                    (t.svc_version, ct, rl, rc)
              | None -> ());
              run_admitted t call sv ~ct ~rl ~rc))

(* Read the next frame off [sock] through [r], receiving until one
   is whole: [`Closed] when the peer closes first, [`Bad_frame] when
   the stream is not frames. *)
let recv_frame t rc sock r =
  let rec go () =
    match Wire.deframe r with
    | Wire.Frame (nonce, body) -> `Frame (nonce, body)
    | Wire.Bad_length _ -> `Bad_frame
    | Wire.Partial -> (
        match Netd.Client.recv t.netd ~return_container:rc sock with
        | Some data ->
            Wire.feed r data;
            go ()
        | None -> `Closed)
  in
  go ()

let conn_loop t sock () =
  let rc = t.container in
  let r = Wire.reader () in
  let memo : (memo_key, int * Label.t * Label.t * Label.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let rec serve () =
    match recv_frame t rc sock r with
    | `Frame (nonce, body) ->
        let reply =
          match Wire.unseal_msg t.seal ~nonce body with
          | Some (Wire.Call call) -> (
              try handle_call ~memo t call
              with e -> bare_reply S_error (Printexc.to_string e))
          | Some (Wire.Reply _) -> bare_reply S_error "unexpected reply"
          | None ->
              ignore (refuse t "dist: unsealable frame"
                      : (_, call_error) result);
              bare_reply S_error "unsealable frame"
        in
        (* Reply under the complemented nonce: request and reply
           must not share a keystream. A reply its caller would refuse
           as too long becomes an error, so the caller keeps the
           connection and does not take this node for dead. *)
        let seal m =
          Wire.seal_msg t.seal ~nonce:(Int64.lognot nonce) (Wire.Reply m)
        in
        let frame = seal reply in
        Netd.Client.send t.netd ~return_container:rc sock
          (if Wire.oversized frame then
             seal (bare_reply S_error "dist: reply too large")
           else frame);
        serve ()
    | `Bad_frame ->
        ignore (refuse t "dist: bad frame length" : (_, call_error) result);
        Netd.Client.close t.netd ~return_container:rc sock
    | `Closed -> Netd.Client.close t.netd ~return_container:rc sock
  in
  try serve () with Netd.Client.Netd_error _ -> ()

let listener t () =
  let rc = t.container in
  Netd.Client.listen t.netd ~return_container:rc t.port;
  let n = ref 0 in
  while true do
    let sock = Netd.Client.accept t.netd ~return_container:rc t.port in
    incr n;
    ignore
      (Sys.thread_create ~container:t.container ~label:l1 ~clearance:l3
         ~quota:262144L
         ~name:(Fmt.str "dist-conn-%d" !n)
         (conn_loop t sock))
  done

let start k ~netd ~names ~key ~container ~port ~peers () =
  let node = Names.node_id names in
  let t =
    {
      node_id = node;
      k;
      netd;
      names;
      seal = Seal.create ~key;
      container;
      port;
      peers;
      services = Hashtbl.create 8;
      svc_version = 0;
      pool = Hashtbl.create 8;
      nonce_seq = 0;
      m_node_refused = Metrics.counter (Fmt.str "net.dist_refused.n%d" node);
    }
  in
  ignore
    (Kernel.spawn k ~label:l1 ~clearance:l3 ~container
       ~name:(Fmt.str "distd%d" node)
       (listener t));
  t

(* --- client side --- *)

(* Connection pooling: idle peer connections are parked in [t.pool]
   and reused by later calls ([Hashtbl.add] multi-binding — two
   concurrent callers to the same node each pop a distinct socket, so
   frames never interleave on one stream).  A pooled socket can be
   stale (the peer crashed and restarted since it was parked): a
   transport failure on a *pooled* socket is retried once on a fresh
   connection before the error is surfaced.  The PR-5 close-before-
   taint discipline becomes park-before-taint: returning a socket to
   the pool is host-side bookkeeping, no netd traffic, so it is safe
   after the final netd interaction and before the label raise. *)
let pool_take t ~node =
  match Hashtbl.find_opt t.pool node with
  | Some sock ->
      Hashtbl.remove t.pool node;
      Metrics.Counter.incr m_conn_reused;
      Some sock
  | None -> None

let pool_put t ~node sock = Hashtbl.add t.pool node sock

let pool_drop_all t ~node =
  let rec go () =
    match Hashtbl.find_opt t.pool node with
    | Some sock ->
        Hashtbl.remove t.pool node;
        (try Netd.Client.close t.netd ~return_container:t.container sock
         with Netd.Client.Netd_error _ -> ());
        go ()
    | None -> ()
  in
  go ()

let call t ~node ~service args =
  Metrics.Counter.incr m_calls;
  let rc = t.container in
  let lt = Sys.self_label () in
  let capacity = Proto.cap ~label:lt ~clearance:(Sys.self_clearance ()) in
  match Proto.to_wire t.names lt with
  | Error m -> refuse t ("dist: egress: " ^ m)
  | Ok wl -> (
      let attempt sock =
        (* One request/reply exchange over [sock].  [`Transport] means
           the stream died (retryable on a fresh conn when the socket
           was pooled); any other outcome is final. *)
        let drop r =
          (try Netd.Client.close t.netd ~return_container:rc sock
           with Netd.Client.Netd_error _ -> ());
          r
        in
        let park r =
          pool_put t ~node sock;
          r
        in
        match Proto.to_wire t.names capacity with
        | Error m ->
            (* Socket unused — park it for the next caller. *)
            `Final (park (refuse t ("dist: egress capacity: " ^ m)))
        | Ok wc -> (
            try
              let nonce = mint_nonce t in
              let frame =
                Wire.seal_msg t.seal ~nonce
                  (Wire.Call
                     {
                       c_service = service;
                       c_from = t.node_id;
                       c_label = wl;
                       c_clear = wc;
                       c_args = args;
                     })
              in
              (* The peer would drop the stream on a frame this long:
                 refuse it here, with the socket unused, so the call
                 is not taken for a dead node. *)
              if Wire.oversized frame then
                `Final (park (refuse t "dist: message too large"))
              else (
                Netd.Client.send t.netd ~return_container:rc sock frame;
                match recv_frame t rc sock (Wire.reader ()) with
                | `Closed -> `Transport "connection closed"
                | `Bad_frame ->
                    `Final (drop (refuse t "dist: unsealable reply"))
                | `Frame (rnonce, body) -> (
                    match Wire.unseal_msg t.seal ~nonce:rnonce body with
                    | None | Some (Wire.Call _) ->
                        `Final (drop (refuse t "dist: unsealable reply"))
                    | Some (Wire.Reply r) -> (
                        match r.Wire.r_status with
                        | Wire.S_refused ->
                            `Final (park (refuse t r.Wire.r_payload))
                        | Wire.S_error ->
                            `Final (park (Error (Remote r.Wire.r_payload)))
                        | Wire.S_ok ->
                            let resolve w = (import t w).Names.e_cat in
                            let rlabel =
                              Proto.of_wire ~resolve
                                ~trusted:(fun w ->
                                  Names.trusted_for t.names ~wire:w ~node)
                                r.Wire.r_label
                            in
                            (* Acceptance: raising our label to read the
                               reply must stay within our clearance. *)
                            let needed =
                              Label.taint_to_read ~thread:(Sys.self_label ())
                                ~obj:rlabel
                            in
                            if not (Label.leq needed (Sys.self_clearance ()))
                            then
                              `Final
                                (park
                                   (refuse t
                                      "dist: reply exceeds caller clearance"))
                            else (
                              (* Park while still clean: once tainted, this
                                 thread may no longer speak to netd (egress
                                 policy), so the label raise must be the
                                 last thing done. *)
                              let r =
                                park (Ok (r.Wire.r_payload, r.Wire.r_grants))
                              in
                              Sys.self_set_label needed;
                              `Final r))))
            with Netd.Client.Netd_error m -> `Transport m)
      in
      let fresh () =
        match
          Netd.Client.connect_retry ~attempts:connect_attempts t.netd
            ~return_container:rc (t.peers node)
        with
        | exception Netd.Client.Netd_error m -> Error (Transport m)
        | sock -> (
            match attempt sock with
            | `Final r -> r
            | `Transport m ->
                (try Netd.Client.close t.netd ~return_container:rc sock
                 with Netd.Client.Netd_error _ -> ());
                Error (Transport m))
      in
      match pool_take t ~node with
      | None -> fresh ()
      | Some sock -> (
          match attempt sock with
          | `Final r -> r
          | `Transport _ ->
              (* Stale pooled conn (peer restarted since it was
                 parked): drop every pooled conn to this peer and
                 retry once on a fresh connection. *)
              (try Netd.Client.close t.netd ~return_container:rc sock
               with Netd.Client.Netd_error _ -> ());
              pool_drop_all t ~node;
              fresh ()))
