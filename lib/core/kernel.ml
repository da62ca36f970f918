module Label = Histar_label.Label
module Level = Histar_label.Level
module Category = Histar_label.Category
module Category_gen = Histar_crypto.Category_gen
module Store = Histar_store.Store
module Sim_clock = Histar_util.Sim_clock
module Codec = Histar_util.Codec
open Types
open Syscall
module Metrics = Histar_metrics.Metrics

(* Syscall dispatch counters: total traps, total virtual-time latency
   (trap cost + handler work, including any disk time the handler
   charges), and how many syscalls failed a label check. *)
let m_syscalls = Metrics.counter "kernel.syscalls"
let m_syscall_ns_sum = Metrics.counter "kernel.syscall_ns_sum"
let m_label_errors = Metrics.counter "kernel.syscall_label_errors"

let infinite_quota = Int64.max_int
let base_overhead = 512L
(* kernel-meta record key in the store; outside the 61-bit oid space *)
let meta_oid = -2

(* ---------- scheduler plumbing ---------- *)

type run_state =
  | Finished
  | Crashed of exn
  | Syscalled of req * kont

and kont = (resp, run_state) Effect.Deep.continuation

(* What a thread runs when next scheduled. [Nothing] rather than an
   option, so a resume costs one block, not two. *)
type runnable = Nothing | Start of (unit -> unit) | Resume of kont * resp

type wait_reason =
  | W_futex of oid * int
  | W_net of oid
  | W_alert
  | W_timer of int  (** virtual-ns deadline *)

(* ---------- kernel objects ---------- *)

(* The kernel's oid-keyed tables: the object table, each container's
   children and the futex queues. Oids are block-cipher output (§3) and
   futex keys mix an oid linearly, so the key's own low bits are already
   evenly spread and serve as the hash; this keeps [caml_hash] and
   polymorphic compare off the syscall path. *)
module Oid_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

(* A FIFO of thread ids in a growable int ring: the run queue, each
   futex queue and each device's waiters. Pushing and popping neither
   allocate nor store a pointer, so scheduling adds no entry to the
   minor GC's remembered set. *)
module Tidq = struct
  type t = { mutable buf : int array; mutable head : int; mutable len : int }

  let create () = { buf = Array.make 4 0; head = 0; len = 0 }
  let is_empty q = q.len = 0
  let length q = q.len

  let push q tid =
    let cap = Array.length q.buf in
    if q.len = cap then begin
      q.buf <-
        Array.init (2 * cap) (fun i ->
            if i < cap then q.buf.((q.head + i) mod cap) else 0);
      q.head <- 0
    end;
    q.buf.((q.head + q.len) mod Array.length q.buf) <- tid;
    q.len <- q.len + 1

  let pop q =
    if q.len = 0 then raise Queue.Empty;
    let tid = q.buf.(q.head) in
    q.head <- (q.head + 1) mod Array.length q.buf;
    q.len <- q.len - 1;
    tid
end

type segment = { mutable data : Bytes.t }

type container = {
  children : kind Oid_tbl.t;
  avoid : int;
  mutable parent : oid;
}

type thread = {
  mutable tclear : Label.t;
  tls : oid;
  mutable tas : centry option;
  mutable tstate : [ `Ready | `Running | `Blocked of wait_reason | `Halted ];
  mutable next_run : runnable;
  mutable parked : kont option;
  alerts : int Queue.t;
  mutable return_gate : centry option;
}

type gate_entry =
  | Entry_fn of (unit -> unit)
  | Entry_resume of (kont * centry option) option ref
      (** one-shot return gate: the caller's continuation plus the
          return-gate pointer to restore (so nested gate calls do not
          clobber the outer one) *)
  | Entry_dead  (** recovered from disk: code is gone *)

type gate = { gclear : Label.t; gentry : gate_entry; gonce : bool }
(* [gonce] marks a one-shot service gate: reaped from its naming
   container after the first successful invocation, exactly like the
   return gates [gate_call] mints — the kernel primitive beneath scoped
   label excursions (lib/lio's [to_labeled]/[catch]). *)
type address_space = { mutable mappings : mapping list }

type device = {
  mac : string;
  rx : string Queue.t;
  waiters : Tidq.t;  (** threads that blocked in [net_recv], FIFO *)
  mutable transmit : string -> unit;
}

type body =
  | Seg of segment
  | Con of container
  | Thr of thread
  | Gat of gate
  | Asp of address_space
  | Dev of device

type obj = {
  id : oid;
  kind : kind;
  mutable label : Label.t;  (** mutable for threads only *)
  descrip : string;
  mutable quota : int64;
  mutable usage : int64;
  mutable fixed_quota : bool;
  mutable immut : bool;
  mutable metadata : string;
  mutable refs : int;
  body : body;
}

type trace_event = {
  ev_thread : oid;
  ev_thread_label : Label.t;
  ev_op : string;
  ev_obj : oid;
  ev_obj_label : Label.t;
  ev_dir : [ `Observe | `Modify ];
}

(* Deliberate, test-only weakenings of single label checks. The
   conformance fuzzer (lib/check/conformance.ml) must detect each one as
   a divergence from the reference model within its bounded budget —
   a mutation-killing self-test that the differential oracle actually
   has teeth. Never set outside tests. *)
type weaken =
  | Weaken_segment_read_taint  (** skip the observe check on segment_read *)
  | Weaken_gate_star_grant  (** skip the ⋆-floor check on gate invocation *)
  | Weaken_unref_check  (** skip the modify check on unref *)

(* Timer sleepers ordered by (deadline, tid): the wake order when
   several deadlines tie. *)
module Timers = Set.Make (struct
  type t = int * oid

  let compare (d, tid) (d', tid') =
    match Int.compare d d' with 0 -> Int.compare tid tid' | c -> c
end)

type t = {
  clock : Sim_clock.t;
  store : Store.t option;
  objects : obj Oid_tbl.t;
  oidgen : Category_gen.t;
  catgen : Category_gen.t;
  runq : Tidq.t;
  futexq : Tidq.t Oid_tbl.t;
  mutable timers : Timers.t;
  label_cache : Label_cache.t;
  profile : Profile.t;
  mutable current : oid;
  mutable root : oid;
  mutable trace : (trace_event -> unit) option;
  syscall_cost_ns : int;
  tier_ns : int array;
      (** the three syscall cost tiers (data access, trap, creation) *)
  weaken : weaken option;
  key : int64;
}

let clock t = t.clock
let root t = t.root
let profile t = t.profile
let set_trace t f = t.trace <- f

(* ---------- object table ---------- *)

let find_obj k oid = Oid_tbl.find_opt k.objects oid

(* A container's children in ascending oid order, never the table's. *)
let sorted_children c =
  Oid_tbl.fold (fun oid kind acc -> (oid, kind) :: acc) c.children []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* The running thread's object, found without an option: it always
   exists while one of its syscalls is being handled. *)
let cur_obj k = Oid_tbl.find k.objects k.current

let cur_thread k =
  match cur_obj k with
  | { body = Thr th; _ } as o -> (o, th)
  | _ -> assert false

let emit_trace k ~op ~obj ~dir =
  match k.trace with
  | None -> ()
  | Some f ->
      let o, _ = cur_thread k in
      f
        {
          ev_thread = k.current;
          ev_thread_label = o.label;
          ev_op = op;
          ev_obj = obj.id;
          ev_obj_label = obj.label;
          ev_dir = dir;
        }

(* ---------- result helpers ---------- *)

let ( let* ) = Result.bind
let errf kind fmt = Printf.ksprintf (fun s -> Error (kind s)) fmt
let label_errf fmt = errf (fun s -> Label_check s) fmt
let not_found_f fmt = errf (fun s -> Not_found_ s) fmt
let invalid_f fmt = errf (fun s -> Invalid s) fmt
let quota_f fmt = errf (fun s -> Quota s) fmt

(* ---------- label checks ---------- *)

let cur_label k = (cur_obj k).label
let cur_clearance k = (snd (cur_thread k)).tclear

let check_observe k ~op obj =
  let lt = cur_label k in
  if Label_cache.observe k.label_cache ~thread:lt ~obj:obj.label then begin
    emit_trace k ~op ~obj ~dir:`Observe;
    Ok ()
  end
  else
    label_errf "%s: cannot observe %s (L_O=%s not ⊑ L_T^J, L_T=%s)" op
      obj.descrip (Label.to_string obj.label) (Label.to_string lt)

let check_modify k ~op obj =
  let lt = cur_label k in
  if obj.immut then Error (Immutable (op ^ ": object is immutable"))
  else if Label_cache.modify k.label_cache ~thread:lt ~obj:obj.label then begin
    emit_trace k ~op ~obj ~dir:`Modify;
    Ok ()
  end
  else
    label_errf "%s: cannot modify %s (need L_T ⊑ L_O ⊑ L_T^J; L_T=%s, L_O=%s)"
      op obj.descrip (Label.to_string lt) (Label.to_string obj.label)

(* Resolve a container entry: read permission on the container, then the
   link must exist (⟨D,D⟩ names the container itself). *)
let resolve k ~op (ce : centry) =
  match Oid_tbl.find k.objects ce.container with
  | exception Not_found -> not_found_f "%s: no container %d" op ce.container
  | d -> (
      match d.body with
      | Con c -> (
          match check_observe k ~op d with
          | Error e -> Error e
          | Ok () -> (
              if ce.object_id = ce.container then Ok d
              else if Oid_tbl.mem c.children ce.object_id then
                match Oid_tbl.find k.objects ce.object_id with
                | o -> Ok o
                | exception Not_found ->
                    not_found_f "%s: dangling link %d" op ce.object_id
              else
                not_found_f "%s: %d not in container %d" op ce.object_id
                  ce.container))
      | Seg _ | Thr _ | Gat _ | Asp _ | Dev _ ->
          invalid_f "%s: %d is not a container" op ce.container)

(* Resolve a segment entry, then check [dir] access to it. The reserved
   thread-local oid names the caller's own segment and is exempt from
   both steps. *)
let resolve_segment k ~op ~dir (ce : centry) =
  if ce.object_id = tls_oid then
    match (cur_obj k).body with
    | Thr th -> Ok (Oid_tbl.find k.objects th.tls)
    | Seg _ | Con _ | Gat _ | Asp _ | Dev _ -> assert false
  else
    match resolve k ~op ce with
    | Error e -> Error e
    | Ok o as r -> (
        match o.body with
        | Seg _ -> (
            let checked =
              match dir with
              | `Observe -> check_observe k ~op o
              | `Modify -> check_modify k ~op o
              | `Unchecked -> Ok ()
            in
            match checked with Error e -> Error e | Ok () -> r)
        | Con _ | Thr _ | Gat _ | Asp _ | Dev _ ->
            invalid_f "%s: %d is not a segment" op ce.object_id)

let as_container ~op o =
  match o.body with
  | Con c -> Ok c
  | Seg _ | Thr _ | Gat _ | Asp _ | Dev _ ->
      invalid_f "%s: %d is not a container" op o.id

(* ---------- quotas ---------- *)

let usage_of_body = function
  | Seg s -> Int64.add base_overhead (Int64.of_int (Bytes.length s.data))
  | Con _ | Thr _ | Gat _ | Asp _ | Dev _ -> base_overhead

let quota_avail o =
  if Int64.equal o.quota infinite_quota then Int64.max_int
  else Int64.sub o.quota o.usage

(* Saturating add: usage bookkeeping must never wrap, even in
   infinite-quota containers fed near-max_int object quotas. *)
let sat_add a b =
  let s = Int64.add a b in
  if Int64.compare b 0L > 0 && Int64.compare s a < 0 then Int64.max_int else s

(* Charge [amount] to container [d]; fails if it would exceed d's quota.
   The comparison is overflow-free: [usage + amount > quota] wraps for
   near-max_int amounts (letting a finite container over-commit), so we
   compare against the remaining headroom instead, relying on the
   invariant 0 ≤ usage ≤ quota for finite-quota containers. *)
let charge ~op d amount =
  if Int64.equal d.quota infinite_quota then begin
    d.usage <- sat_add d.usage amount;
    Ok ()
  end
  else if Int64.compare amount (Int64.sub d.quota d.usage) > 0 then
    quota_f "%s: container %s over quota" op d.descrip
  else begin
    d.usage <- Int64.add d.usage amount;
    Ok ()
  end

let uncharge d amount = d.usage <- Int64.sub d.usage amount

(* ---------- persistence mirroring ---------- *)

let store_delete k oid =
  match k.store with Some s -> Store.delete s ~oid | None -> ()

(* Everything before a segment's data bytes (for the other kinds, the
   whole encoding). A segment's payload is this prefix followed by its
   data, which lets [Sync_range] hand the store the two parts. *)
let encode_prefix e o =
  Codec.Enc.u8 e (kind_to_bit o.kind);
  Codec.Enc.int e o.id;
  Label.encode e o.label;
  Codec.Enc.str e o.descrip;
  Codec.Enc.i64 e o.quota;
  Codec.Enc.i64 e o.usage;
  Codec.Enc.bool e o.fixed_quota;
  Codec.Enc.bool e o.immut;
  Codec.Enc.str e o.metadata;
  Codec.Enc.u32 e o.refs;
  match o.body with
  | Seg s -> Codec.Enc.u32 e (Bytes.length s.data)
  | Con c ->
      Codec.Enc.u32 e c.avoid;
      Codec.Enc.int e c.parent;
      Codec.Enc.u32 e (Oid_tbl.length c.children);
      Oid_tbl.iter
        (fun oid kind ->
          Codec.Enc.int e oid;
          Codec.Enc.u8 e (kind_to_bit kind))
        c.children
  | Thr th ->
      Label.encode e th.tclear;
      Codec.Enc.int e th.tls
  | Gat g ->
      Label.encode e g.gclear;
      Codec.Enc.bool e g.gonce
  | Asp a ->
      Codec.Enc.list e
        (fun e m ->
          Codec.Enc.i64 e m.va;
          Codec.Enc.int e m.seg.container;
          Codec.Enc.int e m.seg.object_id;
          Codec.Enc.int e m.offset;
          Codec.Enc.int e m.npages;
          Codec.Enc.bool e m.flags.read;
          Codec.Enc.bool e m.flags.write;
          Codec.Enc.bool e m.flags.exec)
        a.mappings
  | Dev d -> Codec.Enc.str e d.mac

let encode_obj o =
  let e = Codec.Enc.create () in
  encode_prefix e o;
  (match o.body with
  | Seg s -> Codec.Enc.raw e (Bytes.unsafe_to_string s.data)
  | Con _ | Thr _ | Gat _ | Asp _ | Dev _ -> ());
  Codec.Enc.to_string e

(* Stage [o] in the store, telling it where a segment's data starts so
   a later [Sync_range] can rewrite just the dirtied sectors. *)
let store_put s o =
  let payload = encode_obj o in
  let prefix_len =
    match o.body with
    | Seg sg -> Some (String.length payload - Bytes.length sg.data)
    | Con _ | Thr _ | Gat _ | Asp _ | Dev _ -> None
  in
  Store.put s ~oid:o.id ?prefix_len payload

let kind_of_bit = function
  | 0 -> Segment
  | 1 -> Thread
  | 2 -> Address_space
  | 3 -> Gate
  | 4 -> Container
  | 5 -> Device
  | n -> invalid_arg (Printf.sprintf "kind_of_bit %d" n)

let decode_oid d = oid_of_int64 (Codec.Dec.i64 d)

let decode_obj payload =
  let d = Codec.Dec.of_string payload in
  let kind = kind_of_bit (Codec.Dec.u8 d) in
  let id = decode_oid d in
  let label = Label.decode d in
  let descrip = Codec.Dec.str d in
  let quota = Codec.Dec.i64 d in
  let usage = Codec.Dec.i64 d in
  let fixed_quota = Codec.Dec.bool d in
  let immut = Codec.Dec.bool d in
  let metadata = Codec.Dec.str d in
  let refs = Codec.Dec.u32 d in
  let body =
    match kind with
    | Segment -> Seg { data = Bytes.of_string (Codec.Dec.str d) }
    | Container ->
        let avoid = Codec.Dec.u32 d in
        let parent = decode_oid d in
        let n = Codec.Dec.u32 d in
        let children = Oid_tbl.create (max 4 n) in
        for _ = 1 to n do
          let oid = decode_oid d in
          let kind = kind_of_bit (Codec.Dec.u8 d) in
          Oid_tbl.replace children oid kind
        done;
        Con { children; avoid; parent }
    | Thread ->
        let tclear = Label.decode d in
        let tls = decode_oid d in
        Thr
          {
            tclear;
            tls;
            tas = None;
            tstate = `Halted;
            next_run = Nothing;
            parked = None;
            alerts = Queue.create ();
            return_gate = None;
          }
    | Gate ->
        let gclear = Label.decode d in
        let gonce = Codec.Dec.bool d in
        Gat { gclear; gentry = Entry_dead; gonce }
    | Address_space ->
        let mappings =
          Codec.Dec.list d (fun d ->
              let va = Codec.Dec.i64 d in
              let c = decode_oid d in
              let o = decode_oid d in
              let offset = Codec.Dec.int d in
              let npages = Codec.Dec.int d in
              let read = Codec.Dec.bool d in
              let write = Codec.Dec.bool d in
              let exec = Codec.Dec.bool d in
              { va; seg = centry c o; offset; npages; flags = { read; write; exec } })
        in
        Asp { mappings }
    | Device ->
        Dev
          {
            mac = Codec.Dec.str d;
            rx = Queue.create ();
            waiters = Tidq.create ();
            transmit = ignore;
          }
  in
  { id; kind; label; descrip; quota; usage; fixed_quota; immut; metadata; refs; body }

(* ---------- allocation / deallocation ---------- *)

(* Skip oids already in use: after a crash the generator counter is
   restored from the last durable metadata record, so it may replay
   values already handed out to objects that reached the disk through a
   later sync barrier. *)
let next_oid k =
  let rec fresh () =
    let oid = Category_gen.next k.oidgen in
    if Oid_tbl.mem k.objects oid then fresh () else oid
  in
  fresh ()

let rec destroy k o =
  Oid_tbl.remove k.objects o.id;
  store_delete k o.id;
  match o.body with
  | Con c ->
      Oid_tbl.iter
        (fun child_oid _ ->
          match find_obj k child_oid with
          | Some child ->
              child.refs <- child.refs - 1;
              if child.refs <= 0 then destroy k child
          | None -> ())
        c.children;
      Oid_tbl.reset c.children
  | Thr th -> begin
      th.tstate <- `Halted;
      th.next_run <- Nothing;
      th.parked <- None;
      match find_obj k th.tls with
      | Some tls -> destroy k tls
      | None -> ()
    end
  | Gat _ | Seg _ | Asp _ | Dev _ -> ()

let unlink k d_obj c child_oid =
  match Oid_tbl.find_opt c.children child_oid with
  | None -> ()
  | Some _ ->
      Oid_tbl.remove c.children child_oid;
      (match find_obj k child_oid with
      | Some child ->
          uncharge d_obj child.quota;
          child.refs <- child.refs - 1;
          if child.refs <= 0 then destroy k child
      | None -> ())

(* Creation common path: label validity, container write check,
   avoid-types, label range, quota charge. *)
let create_object k ~(spec : create_spec) ~kind ~clearance_check ~body =
  let lt = cur_label k in
  let ct = cur_clearance k in
  let* () =
    if not (Label.is_storable spec.label) then
      invalid_f "create %s: label contains J" (kind_to_string kind)
    else
      match kind with
      | Thread | Gate -> Ok ()
      | Segment | Address_space | Container | Device ->
          if Label.is_object_label spec.label then Ok ()
          else invalid_f "create %s: only threads and gates may own (⋆)"
              (kind_to_string kind)
  in
  let* d_obj =
    match find_obj k spec.container with
    | Some o -> Ok o
    | None -> not_found_f "create: no container %d" spec.container
  in
  let* c = as_container ~op:"create" d_obj in
  let* () = check_modify k ~op:"create(container)" d_obj in
  let* () =
    if c.avoid land (1 lsl kind_to_bit kind) <> 0 then
      Error (Avoid_type (kind_to_string kind ^ " forbidden in this container"))
    else Ok ()
  in
  let* () =
    (* L_T ⊑ L ⊑ C_T (for threads/gates, clearance_check refines this) *)
    if not (Label.leq lt spec.label) then
      label_errf "create: L_T=%s not ⊑ L=%s" (Label.to_string lt)
        (Label.to_string spec.label)
    else if not clearance_check && not (Label.leq spec.label ct) then
      label_errf "create: L=%s not ⊑ C_T=%s" (Label.to_string spec.label)
        (Label.to_string ct)
    else Ok ()
  in
  let initial_usage = usage_of_body body in
  let* () =
    if Int64.compare spec.quota initial_usage < 0 then
      quota_f "create: quota %Ld below initial usage %Ld" spec.quota
        initial_usage
    else Ok ()
  in
  let* () = charge ~op:"create" d_obj spec.quota in
  let id = next_oid k in
  let o =
    {
      id;
      kind;
      label = spec.label;
      descrip = spec.descrip;
      quota = spec.quota;
      usage = initial_usage;
      fixed_quota = false;
      immut = false;
      metadata = "";
      refs = 1;
      body;
    }
  in
  Oid_tbl.replace k.objects id o;
  Oid_tbl.replace c.children id kind;
  Ok o

(* ---------- scheduler ---------- *)

let enqueue k tid = Tidq.push k.runq tid

let wake k tid resp =
  match find_obj k tid with
  | Some { body = Thr th; _ } -> (
      match (th.tstate, th.parked) with
      | `Blocked _, Some kont ->
          th.parked <- None;
          th.tstate <- `Ready;
          th.next_run <- Resume (kont, resp);
          enqueue k tid
      | _ -> ())
  | Some _ | None -> ()

(* futex queues live on the segment objects via a per-kernel side
   table, keyed by (segment oid, offset). The key wraps modulo 2^63;
   [futexq] is only probed by key and never iterated, so neither the
   wrap nor the table's order is observable. *)
let futex_key seg_oid offset = (seg_oid * 1_000_003) + offset

let futex_queue k key =
  match Oid_tbl.find k.futexq key with
  | q -> q
  | exception Not_found ->
      let q = Tidq.create () in
      Oid_tbl.replace k.futexq key q;
      q

(* Blocked-thread index: a thread that blocks on a deadline enters
   [k.timers], one that blocks in [net_recv] enters its device's
   [waiters]. As with the futex queues, entries are validated when
   they are peeked, so wake, halt and destroy leave the index alone:
   an entry whose thread no longer waits for that reason is dropped
   when it surfaces. *)
let index_blocked k tid = function
  | W_timer d -> k.timers <- Timers.add (d, tid) k.timers
  | W_net dev -> (
      match find_obj k dev with
      | Some { body = Dev d; _ } -> Tidq.push d.waiters tid
      | Some _ | None -> ())
  | W_futex _ | W_alert -> ()

(* The earliest live timer entry, dropping stale ones on the way. *)
let rec next_timer k =
  match Timers.min_elt_opt k.timers with
  | None -> None
  | Some ((d, tid) as e) -> (
      match find_obj k tid with
      | Some { body = Thr { tstate = `Blocked (W_timer d'); _ }; _ }
        when d = d' ->
          Some e
      | Some _ | None ->
          k.timers <- Timers.remove e k.timers;
          next_timer k)

(* ---------- syscall implementation ---------- *)

let meta_record k =
  let e = Codec.Enc.create () in
  Codec.Enc.int e k.root;
  Codec.Enc.i64 e (Category_gen.counter k.oidgen);
  Codec.Enc.i64 e (Category_gen.counter k.catgen);
  Codec.Enc.i64 e k.key;
  Codec.Enc.to_string e

(* Whole-system snapshot: serialize every object plus the kernel
   metadata record (root, generators) so that recovery can rebuild. *)
let do_checkpoint k =
  match k.store with
  | None -> ()
  | Some s ->
      Oid_tbl.iter (fun _ o -> store_put s o) k.objects;
      Store.put s ~oid:meta_oid (meta_record k);
      Store.checkpoint s

type action =
  | A_resp of resp
  | A_block of wait_reason
  | A_jump of (unit -> unit)
  | A_resume of kont * resp
  | A_halt

let ok_resp r = Ok (A_resp r)

(* Shared blocks for the constant replies, so they allocate nothing. *)
let ok_unit = ok_resp R_unit
let ok_true = ok_resp (R_ok true)
let ok_false = ok_resp (R_ok false)

let segment_read_impl k (ce : centry) off len =
  let dir =
    match k.weaken with
    | Some Weaken_segment_read_taint -> `Unchecked
    | Some (Weaken_gate_star_grant | Weaken_unref_check) | None -> `Observe
  in
  match resolve_segment k ~op:"segment_read" ~dir ce with
  | Error e -> Error e
  | Ok { body = Seg s; _ } ->
      let n = Bytes.length s.data in
      let len = if len < 0 then n - off else len in
      if off < 0 || len < 0 || off + len > n then
        invalid_f "segment_read: range [%d,%d) outside length %d" off (off + len) n
      else ok_resp (R_bytes (Bytes.sub_string s.data off len))
  | Ok _ -> assert false

let segment_write_impl k (ce : centry) off data =
  match resolve_segment k ~op:"segment_write" ~dir:`Modify ce with
  | Error e -> Error e
  | Ok { body = Seg s; _ } ->
      let n = Bytes.length s.data in
      if off < 0 || off + String.length data > n then
        invalid_f "segment_write: range [%d,%d) outside length %d" off
          (off + String.length data) n
      else begin
        Bytes.blit_string data 0 s.data off (String.length data);
        ok_unit
      end
  | Ok _ -> assert false

let segment_resize_impl k (ce : centry) len =
  let* o = resolve_segment k ~op:"segment_resize" ~dir:`Modify ce in
  match o.body with
  | Seg s ->
      if len < 0 then invalid_f "segment_resize: negative length"
      else begin
        let new_usage = Int64.add base_overhead (Int64.of_int len) in
        if
          (not (Int64.equal o.quota infinite_quota))
          && Int64.compare new_usage o.quota > 0
        then quota_f "segment_resize: length %d exceeds quota %Ld" len o.quota
        else begin
          let old = s.data in
          let fresh = Bytes.make len '\000' in
          Bytes.blit old 0 fresh 0 (min (Bytes.length old) len);
          s.data <- fresh;
          o.usage <- new_usage;
          ok_unit
        end
      end
  | Con _ | Thr _ | Gat _ | Asp _ | Dev _ -> assert false

let mk_tls k =
  let id = next_oid k in
  (* one page initially, like the paper, but with headroom to grow:
     gate arguments and RPC replies travel through this segment *)
  let o =
    {
      id;
      kind = Segment;
      label = Label.make Level.L1;
      descrip = "thread-local segment";
      quota = Int64.add base_overhead 2_097_152L;
      usage = Int64.add base_overhead 4096L;
      fixed_quota = true;
      immut = false;
      metadata = "";
      refs = 1;
      body = Seg { data = Bytes.make 4096 '\000' };
    }
  in
  Oid_tbl.replace k.objects id o;
  id

let thread_create_impl k ~(spec : create_spec) ~clearance ~entry =
  let lt = cur_label k in
  let ct = cur_clearance k in
  (* L_T ⊑ L_T' ⊑ C_T' ⊑ C_T *)
  let* () =
    if
      Label.leq lt spec.label
      && Label.leq spec.label clearance
      && Label.leq clearance ct
    then Ok ()
    else
      label_errf "thread_create: need L_T ⊑ L' ⊑ C' ⊑ C_T (L'=%s C'=%s)"
        (Label.to_string spec.label)
        (Label.to_string clearance)
  in
  let tls = mk_tls k in
  let body =
    Thr
      {
        tclear = clearance;
        tls;
        tas = None;
        tstate = `Ready;
        next_run = Start entry;
        parked = None;
        alerts = Queue.create ();
        return_gate = None;
      }
  in
  let* o = create_object k ~spec ~kind:Thread ~clearance_check:true ~body in
  enqueue k o.id;
  ok_resp (R_oid o.id)

let gate_create_impl k ~(spec : create_spec) ~clearance ~entry ~one_shot =
  let lt = cur_label k in
  let ct = cur_clearance k in
  (* §3.5 states L_T ⊑ L_G ⊑ C_G ⊑ C_T, but the paper's own examples
     violate the literal rule: the §5.6 signal gate breaks L_G ⊑ C_G,
     and the §6.2 check gate ({ur⋆,uw⋆,x⋆,pir3,1}, invocable by
     pir3-tainted login) needs both a label and a clearance above the
     creator's clearance in pir. We therefore require only
     L_T ⊑ L_G (privilege grants bounded by the creator; taint in a
     gate label merely taints enterers and a gate stores no observable
     data) and C_G ⊑ C_T ⊔ L_T^J ⊔ L_G (clearance raised only in
     categories the creator owns or the gate label already taints).
     This admits every configuration in the paper. See DESIGN.md. *)
  let* () =
    let bound = Label.lub (Label.lub ct (Label.raise_j lt)) spec.label in
    if not (Label.leq clearance bound) then
      label_errf "gate_create: C_G=%s not ⊑ C_T ⊔ L_T^J ⊔ L_G"
        (Label.to_string clearance)
    else Ok ()
  in
  let body = Gat { gclear = clearance; gentry = entry; gonce = one_shot } in
  let* o = create_object k ~spec ~kind:Gate ~clearance_check:true ~body in
  ok_resp (R_oid o.id)

(* A one-shot service gate reaps itself on first successful invocation,
   sharing the return-gate discipline: unlink from the naming container
   so repeated scoped excursions do not exhaust its quota. *)
let reap_one_shot k (gate : centry) gate_obj g =
  if g.gonce then
    match find_obj k gate.container with
    | Some ({ body = Con c; _ } as d_obj) -> unlink k d_obj c gate_obj.id
    | Some _ | None -> ()

(* Gate invocation checks (§3.5):
   L_T ⊑ C_G,  L_T ⊑ L_V,  (L_T^J ⊔ L_G^J)^⋆ ⊑ L_R ⊑ C_R ⊑ (C_T ⊔ C_G). *)
let check_gate_invoke k gate_obj g ~requested_label ~requested_clearance
    ~verify_label =
  let lt = cur_label k in
  let ct = cur_clearance k in
  let lg = gate_obj.label in
  let result =
    if not (Label.leq lt g.gclear) then
      label_errf "gate: L_T=%s not ⊑ C_G=%s" (Label.to_string lt)
        (Label.to_string g.gclear)
    else if not (Label.leq lt verify_label) then
      label_errf "gate: L_T not ⊑ L_V=%s" (Label.to_string verify_label)
    else
      let floor = Label.lower_star (Label.lub (Label.raise_j lt) (Label.raise_j lg)) in
      let floor_checked =
        match k.weaken with
        | Some Weaken_gate_star_grant -> false
        | Some (Weaken_segment_read_taint | Weaken_unref_check) | None -> true
      in
      if floor_checked && not (Label.leq floor requested_label) then
        label_errf "gate: floor %s not ⊑ L_R=%s" (Label.to_string floor)
          (Label.to_string requested_label)
      else if not (Label.leq requested_label requested_clearance) then
        label_errf "gate: L_R not ⊑ C_R"
      else if not (Label.leq requested_clearance (Label.lub ct g.gclear)) then
        label_errf "gate: C_R=%s not ⊑ C_T ⊔ C_G"
          (Label.to_string requested_clearance)
      else Ok ()
  in
  Label_cache.count_uncached_check ~allowed:(Result.is_ok result);
  result

let resolve_gate k ~op ce =
  let* o = resolve k ~op ce in
  match o.body with
  | Gat g -> Ok (o, g)
  | Seg _ | Con _ | Thr _ | Asp _ | Dev _ ->
      invalid_f "%s: %d is not a gate" op ce.object_id

let gate_enter_impl k ~gate ~requested_label ~requested_clearance ~verify_label
    =
  let* gate_obj, g = resolve_gate k ~op:"gate_enter" gate in
  let* () =
    check_gate_invoke k gate_obj g ~requested_label ~requested_clearance
      ~verify_label
  in
  let o, th = cur_thread k in
  o.label <- requested_label;
  th.tclear <- requested_clearance;
  match g.gentry with
  | Entry_fn f ->
      reap_one_shot k gate gate_obj g;
      Ok (A_jump f)
  | Entry_resume slot -> (
      match !slot with
      | Some (kont, prev_return_gate) ->
          slot := None;
          th.return_gate <- prev_return_gate;
          (* a return gate is one-shot: reap it so long RPC sequences
             do not exhaust the session container's quota *)
          (match find_obj k gate.container with
          | Some ({ body = Con c; _ } as d_obj) ->
              unlink k d_obj c gate_obj.id
          | Some _ | None -> ());
          Ok (A_resume (kont, R_unit))
      | None -> invalid_f "gate_enter: return gate already used")
  | Entry_dead -> invalid_f "gate_enter: gate has no runnable entry (recovered)"

let gate_call_impl k kont ~gate ~requested_label ~requested_clearance
    ~verify_label ~(return_spec : create_spec) ~return_clearance =
  let* gate_obj, g = resolve_gate k ~op:"gate_call" gate in
  let* () =
    check_gate_invoke k gate_obj g ~requested_label ~requested_clearance
      ~verify_label
  in
  (* Create the return gate *before* dropping privileges: its label is
     the caller's current label (regaining it on return), per §5.5. *)
  let _, th0 = cur_thread k in
  let slot = ref (Some (kont, th0.return_gate)) in
  let lt = cur_label k in
  let ct = cur_clearance k in
  let* () =
    if not (Label.leq return_spec.label ct) then
      label_errf "gate_call: return gate label not ⊑ C_T"
    else if not (Label.leq return_clearance (Label.lub ct (Label.raise_j lt)))
    then label_errf "gate_call: return clearance not ⊑ C_T ⊔ L_T^J"
    else Ok ()
  in
  let* ret_obj =
    create_object k ~spec:return_spec ~kind:Gate ~clearance_check:true
      ~body:
        (Gat { gclear = return_clearance; gentry = Entry_resume slot; gonce = false })
  in
  let o, th = cur_thread k in
  th.return_gate <- Some (centry return_spec.container ret_obj.id);
  o.label <- requested_label;
  th.tclear <- requested_clearance;
  match g.gentry with
  | Entry_fn f ->
      reap_one_shot k gate gate_obj g;
      Ok (A_jump f)
  | Entry_resume _ | Entry_dead ->
      invalid_f "gate_call: target must be a service gate"

let quota_move_impl k ~container ~target ~nbytes =
  let* d_obj =
    match find_obj k container with
    | Some o -> Ok o
    | None -> not_found_f "quota_move: no container %d" container
  in
  let* c = as_container ~op:"quota_move" d_obj in
  let* () = check_modify k ~op:"quota_move(container)" d_obj in
  let* o =
    if Oid_tbl.mem c.children target then
      match find_obj k target with
      | Some o -> Ok o
      | None -> not_found_f "quota_move: dangling %d" target
    else not_found_f "quota_move: %d not in container %d" target container
  in
  let lt = cur_label k in
  let ct = cur_clearance k in
  (* L_T ⊑ L_O ⊑ C_T, plus L_O ⊑ L_T^J when n < 0 because failure
     conveys information about O back to T (§3.3). *)
  let* () =
    if Label.leq lt o.label && Label.leq o.label ct then Ok ()
    else label_errf "quota_move: need L_T ⊑ L_O ⊑ C_T"
  in
  let* () =
    if Int64.compare nbytes 0L < 0 then
      if not (Label.can_observe ~thread:lt ~obj:o.label) then
        label_errf "quota_move: shrinking requires L_O ⊑ L_T^J"
      else if Int64.compare (quota_avail o) (Int64.neg nbytes) < 0 then
        quota_f "quota_move: object has fewer than %Ld spare bytes"
          (Int64.neg nbytes)
      else Ok ()
    else Ok ()
  in
  let* () =
    if o.fixed_quota then Error (Immutable "quota_move: fixed-quota object")
    else Ok ()
  in
  (* Overflow guard: moving bytes out of an infinite-quota container
     (where [charge] always succeeds) must not wrap the target's quota. *)
  let* () =
    if
      Int64.compare nbytes 0L > 0
      && Int64.compare nbytes (Int64.sub Int64.max_int o.quota) > 0
    then quota_f "quota_move: target quota would overflow"
    else Ok ()
  in
  let* () = charge ~op:"quota_move" d_obj nbytes in
  o.quota <- Int64.add o.quota nbytes;
  ok_unit

let unref_impl k (ce : centry) =
  let* d_obj =
    match find_obj k ce.container with
    | Some o -> Ok o
    | None -> not_found_f "unref: no container %d" ce.container
  in
  let* c = as_container ~op:"unref" d_obj in
  let* () =
    match k.weaken with
    | Some Weaken_unref_check -> Ok ()
    | Some (Weaken_segment_read_taint | Weaken_gate_star_grant) | None ->
        check_modify k ~op:"unref(container)" d_obj
  in
  if ce.object_id = ce.container then
    invalid_f "unref: container cannot unlink itself"
  else if Oid_tbl.mem c.children ce.object_id then begin
    unlink k d_obj c ce.object_id;
    ok_unit
  end
  else not_found_f "unref: %d not in container %d" ce.object_id ce.container

let container_link_impl k ~container ~target =
  (* Hard link: write the destination container, clearance covers the
     object's label (L_S ⊑ C_T), and the object's quota must be fixed. *)
  let* o = resolve k ~op:"container_link" target in
  let* d_obj =
    match find_obj k container with
    | Some d -> Ok d
    | None -> not_found_f "container_link: no container %d" container
  in
  let* c = as_container ~op:"container_link" d_obj in
  let* () = check_modify k ~op:"container_link(container)" d_obj in
  let ct = cur_clearance k in
  let* () =
    if Label.leq o.label ct then Ok ()
    else label_errf "container_link: L_S=%s not ⊑ C_T" (Label.to_string o.label)
  in
  let* () =
    match o.body with
    | Con _ -> invalid_f "container_link: containers have a single parent"
    | Seg _ | Thr _ | Gat _ | Asp _ | Dev _ -> Ok ()
  in
  let* () =
    if o.fixed_quota then Ok ()
    else invalid_f "container_link: object quota not fixed"
  in
  if Oid_tbl.mem c.children o.id then invalid_f "container_link: already linked"
  else
    (* double-charging (§3.3): the full quota counts in every container *)
    let* () = charge ~op:"container_link" d_obj o.quota in
    Oid_tbl.replace c.children o.id o.kind;
    o.refs <- o.refs + 1;
    ok_unit

let thread_alert_impl k (ce : centry) alert =
  let* o = resolve k ~op:"thread_alert" ce in
  match o.body with
  | Thr target ->
      let lt = cur_label k in
      (* write T's address space, and observe T (§3.4) *)
      let* () =
        if Label.can_observe ~thread:lt ~obj:o.label then Ok ()
        else label_errf "thread_alert: cannot observe target thread"
      in
      let* () =
        match target.tas with
        | None -> invalid_f "thread_alert: target has no address space"
        | Some as_ce -> (
            match find_obj k as_ce.object_id with
            | Some as_obj -> check_modify k ~op:"thread_alert(as)" as_obj
            | None -> not_found_f "thread_alert: dangling address space")
      in
      Queue.push alert target.alerts;
      (match target.tstate with
      | `Blocked W_alert -> wake k o.id (R_alert (Queue.pop target.alerts))
      | `Ready | `Running | `Blocked _ | `Halted -> ());
      ok_unit
  | Seg _ | Con _ | Gat _ | Asp _ | Dev _ ->
      invalid_f "thread_alert: %d is not a thread" ce.object_id

let resolve_device k ~op (ce : centry) =
  let* o = resolve k ~op ce in
  match o.body with
  | Dev d -> Ok (o, d)
  | Seg _ | Con _ | Thr _ | Gat _ | Asp _ ->
      invalid_f "%s: %d is not a device" op ce.object_id

let handle_syscall k kont req : action =
  let result =
    match req with
    | Cat_create ->
        let c = Category.of_int (Category_gen.next k.catgen) in
        let o, th = cur_thread k in
        o.label <- Label.set o.label c Level.Star;
        th.tclear <- Label.set th.tclear c Level.L3;
        ok_resp (R_cat c)
    | Self_get_id -> ok_resp (R_oid k.current)
    | Self_get_label -> ok_resp (R_label (cur_label k))
    | Self_get_clearance -> ok_resp (R_label (cur_clearance k))
    | Self_set_label l ->
        let o, th = cur_thread k in
        if Label.leq o.label l && Label.leq l th.tclear then begin
          o.label <- l;
          ok_unit
        end
        else
          label_errf "self_set_label: need L_T ⊑ L ⊑ C_T (L=%s)"
            (Label.to_string l)
    | Self_set_clearance c ->
        let o, th = cur_thread k in
        let bound = Label.lub th.tclear (Label.raise_j o.label) in
        if Label.leq o.label c && Label.leq c bound then begin
          th.tclear <- c;
          ok_unit
        end
        else label_errf "self_set_clearance: need L_T ⊑ C ⊑ C_T ⊔ L_T^J"
    | Self_set_as ce ->
        let* o = resolve k ~op:"self_set_as" ce in
        let* () =
          match o.body with
          | Asp _ -> Ok ()
          | Seg _ | Con _ | Thr _ | Gat _ | Dev _ ->
              invalid_f "self_set_as: not an address space"
        in
        let* () = check_observe k ~op:"self_set_as" o in
        let _, th = cur_thread k in
        th.tas <- Some ce;
        ok_unit
    | Self_get_as ->
        let _, th = cur_thread k in
        ok_resp (R_centry_opt th.tas)
    | Self_get_return_gate ->
        let _, th = cur_thread k in
        ok_resp (R_centry_opt th.return_gate)
    | Self_halt -> Ok A_halt
    | Self_yield -> ok_unit
    | Self_usleep us ->
        if us < 0 then invalid_f "self_usleep: negative"
        else if us > (max_int - Sim_clock.now k.clock) / 1000 then
          invalid_f "self_usleep: past the end of virtual time"
        else begin
          Sim_clock.advance k.clock (us * 1000);
          ok_unit
        end
    | Self_sleep_until deadline ->
        if deadline <= Sim_clock.now k.clock then
          ok_unit
        else Ok (A_block (W_timer deadline))
    | Self_wait_alert ->
        let _, th = cur_thread k in
        if Queue.is_empty th.alerts then Ok (A_block W_alert)
        else ok_resp (R_alert (Queue.pop th.alerts))
    | Obj_get_label ce ->
        let* o = resolve k ~op:"obj_get_label" ce in
        let* () =
          match o.body with
          | Thr _ ->
              (* thread labels are mutable: require L_T'^J ⊑ L_T^J *)
              let lt = cur_label k in
              if
                Label.leq (Label.raise_j o.label) (Label.raise_j lt)
              then Ok ()
              else label_errf "obj_get_label: thread label not readable"
          | Seg _ | Con _ | Gat _ | Asp _ | Dev _ -> Ok ()
        in
        ok_resp (R_label o.label)
    | Obj_get_kind ce ->
        let* o = resolve k ~op:"obj_get_kind" ce in
        ok_resp (R_kind o.kind)
    | Obj_get_descrip ce ->
        let* o = resolve k ~op:"obj_get_descrip" ce in
        ok_resp (R_bytes o.descrip)
    | Obj_get_quota ce ->
        let* o = resolve k ~op:"obj_get_quota" ce in
        let* () = check_observe k ~op:"obj_get_quota" o in
        ok_resp (R_quota (o.quota, o.usage))
    | Obj_set_fixed_quota ce ->
        let* o = resolve k ~op:"obj_set_fixed_quota" ce in
        let* () = check_modify k ~op:"obj_set_fixed_quota" o in
        o.fixed_quota <- true;
        ok_unit
    | Obj_set_immutable ce ->
        let* o = resolve k ~op:"obj_set_immutable" ce in
        let* () = check_modify k ~op:"obj_set_immutable" o in
        o.immut <- true;
        ok_unit
    | Obj_get_metadata ce ->
        let* o = resolve k ~op:"obj_get_metadata" ce in
        let* () = check_observe k ~op:"obj_get_metadata" o in
        ok_resp (R_bytes o.metadata)
    | Obj_set_metadata (ce, md) ->
        let* o = resolve k ~op:"obj_set_metadata" ce in
        let* () = check_modify k ~op:"obj_set_metadata" o in
        if String.length md > 64 then invalid_f "obj_set_metadata: > 64 bytes"
        else begin
          o.metadata <- md;
          ok_unit
        end
    | Unref ce -> unref_impl k ce
    | Quota_move { container; target; nbytes } ->
        quota_move_impl k ~container ~target ~nbytes
    | Container_create (spec, avoid) ->
        let* parent_avoid =
          match find_obj k spec.container with
          | Some { body = Con c; _ } -> Ok c.avoid
          | Some _ -> invalid_f "container_create: parent not a container"
          | None -> not_found_f "container_create: no container %d" spec.container
        in
        (* avoid_types is inherited: descendants can only add bits *)
        let body =
          Con
            {
              children = Oid_tbl.create 8;
              avoid = avoid lor parent_avoid;
              parent = spec.container;
            }
        in
        let* o = create_object k ~spec ~kind:Container ~clearance_check:false ~body in
        ok_resp (R_oid o.id)
    | Container_list ce ->
        let* o = resolve k ~op:"container_list" ce in
        let* c = as_container ~op:"container_list" o in
        let entries =
          List.map
            (fun (oid, kind) ->
              let descrip =
                match find_obj k oid with Some ob -> ob.descrip | None -> "?"
              in
              (oid, kind, descrip))
            (sorted_children c)
        in
        ok_resp (R_entries entries)
    | Container_get_parent ce ->
        let* o = resolve k ~op:"container_get_parent" ce in
        let* c = as_container ~op:"container_get_parent" o in
        ok_resp (R_oid c.parent)
    | Container_link { container; target } ->
        container_link_impl k ~container ~target
    | Segment_create (spec, len) ->
        if len < 0 then invalid_f "segment_create: negative length"
        else
          let body = Seg { data = Bytes.make len '\000' } in
          let* o = create_object k ~spec ~kind:Segment ~clearance_check:false ~body in
          ok_resp (R_oid o.id)
    | Segment_read (ce, off, len) -> segment_read_impl k ce off len
    | Segment_write (ce, off, data) -> segment_write_impl k ce off data
    | Segment_resize (ce, len) -> segment_resize_impl k ce len
    | Segment_get_size ce -> (
        match resolve_segment k ~op:"segment_get_size" ~dir:`Observe ce with
        | Error e -> Error e
        | Ok { body = Seg s; _ } -> ok_resp (R_int (Bytes.length s.data))
        | Ok _ -> assert false)
    | Segment_copy (src, spec) ->
        let* o = resolve_segment k ~op:"segment_copy" ~dir:`Observe src in
        (match o.body with
        | Seg s ->
            let body = Seg { data = Bytes.copy s.data } in
            let* o' = create_object k ~spec ~kind:Segment ~clearance_check:false ~body in
            ok_resp (R_oid o'.id)
        | Con _ | Thr _ | Gat _ | Asp _ | Dev _ -> assert false)
    | As_create spec ->
        let body = Asp { mappings = [] } in
        let* o = create_object k ~spec ~kind:Address_space ~clearance_check:false ~body in
        ok_resp (R_oid o.id)
    | As_get ce ->
        let* o = resolve k ~op:"as_get" ce in
        let* () = check_observe k ~op:"as_get" o in
        (match o.body with
        | Asp a -> ok_resp (R_mappings a.mappings)
        | Seg _ | Con _ | Thr _ | Gat _ | Dev _ -> invalid_f "as_get: not an AS")
    | As_map (ce, m) ->
        let* o = resolve k ~op:"as_map" ce in
        let* () = check_modify k ~op:"as_map" o in
        (match o.body with
        | Asp a ->
            a.mappings <- m :: List.filter (fun m' -> m'.va <> m.va) a.mappings;
            ok_unit
        | Seg _ | Con _ | Thr _ | Gat _ | Dev _ -> invalid_f "as_map: not an AS")
    | As_unmap (ce, va) ->
        let* o = resolve k ~op:"as_unmap" ce in
        let* () = check_modify k ~op:"as_unmap" o in
        (match o.body with
        | Asp a ->
            a.mappings <- List.filter (fun m -> m.va <> va) a.mappings;
            ok_unit
        | Seg _ | Con _ | Thr _ | Gat _ | Dev _ -> invalid_f "as_unmap: not an AS")
    | Thread_create { spec; clearance; entry } ->
        thread_create_impl k ~spec ~clearance ~entry
    | Thread_alert (ce, alert) -> thread_alert_impl k ce alert
    | Thread_get_label ce ->
        let* o = resolve k ~op:"thread_get_label" ce in
        (match o.body with
        | Thr _ ->
            let lt = cur_label k in
            if Label.leq (Label.raise_j o.label) (Label.raise_j lt) then
              ok_resp (R_label o.label)
            else label_errf "thread_get_label: not readable"
        | Seg _ | Con _ | Gat _ | Asp _ | Dev _ ->
            invalid_f "thread_get_label: not a thread")
    | Gate_create { spec; clearance; entry; one_shot } ->
        gate_create_impl k ~spec ~clearance ~entry:(Entry_fn entry) ~one_shot
    | Gate_enter { gate; requested_label; requested_clearance; verify_label } ->
        gate_enter_impl k ~gate ~requested_label ~requested_clearance
          ~verify_label
    | Gate_call
        {
          gate;
          requested_label;
          requested_clearance;
          verify_label;
          return_spec;
          return_clearance;
        } ->
        gate_call_impl k kont ~gate ~requested_label ~requested_clearance
          ~verify_label ~return_spec ~return_clearance
    | Futex_wait (ce, off, expected) -> (
        match resolve_segment k ~op:"futex_wait" ~dir:`Observe ce with
        | Error e -> Error e
        | Ok ({ body = Seg s; _ } as o) ->
            if off < 0 || off + 8 > Bytes.length s.data then
              invalid_f "futex_wait: offset out of range"
            else if Int64.equal (Bytes.get_int64_le s.data off) expected then begin
              Tidq.push (futex_queue k (futex_key o.id off)) k.current;
              Ok (A_block (W_futex (o.id, off)))
            end
            else ok_false
        | Ok _ -> assert false)
    | Futex_wake (ce, off, count) -> (
        (* waking is a write: it conveys information to the waiters, so
           it demands modify permission like any store to the word *)
        match resolve_segment k ~op:"futex_wake" ~dir:`Modify ce with
        | Error e -> Error e
        | Ok o ->
            let q = futex_queue k (futex_key o.id off) in
            let woken = ref 0 in
            while !woken < count && not (Tidq.is_empty q) do
              let tid = Tidq.pop q in
              match Oid_tbl.find k.objects tid with
              | { body = Thr { tstate = `Blocked (W_futex _); _ }; _ } ->
                  wake k tid (R_ok true);
                  incr woken
              | _ | (exception Not_found) -> ()
            done;
            ok_resp (R_int !woken))
    | Net_get_mac ce ->
        let* o, d = resolve_device k ~op:"net_get_mac" ce in
        let* () = check_observe k ~op:"net_get_mac" o in
        ok_resp (R_bytes d.mac)
    | Net_send (ce, frame) ->
        let* o, d = resolve_device k ~op:"net_send" ce in
        let* () = check_modify k ~op:"net_send" o in
        d.transmit frame;
        ok_unit
    | Net_recv ce ->
        let* o, d = resolve_device k ~op:"net_recv" ce in
        let* () = check_observe k ~op:"net_recv" o in
        if Queue.is_empty d.rx then Ok (A_block (W_net o.id))
        else ok_resp (R_bytes (Queue.pop d.rx))
    | Segment_cas (ce, off, expected, desired) -> (
        match resolve_segment k ~op:"segment_cas" ~dir:`Modify ce with
        | Error e -> Error e
        | Ok { body = Seg s; _ } ->
            if off < 0 || off + 8 > Bytes.length s.data then
              invalid_f "segment_cas: offset out of range"
            else if Int64.equal (Bytes.get_int64_le s.data off) expected then begin
              Bytes.set_int64_le s.data off desired;
              ok_true
            end
            else ok_false
        | Ok _ -> assert false)
    | Sync_object ce ->
        let* o = resolve k ~op:"sync_object" ce in
        (match k.store with
        | None -> ok_unit
        | Some s ->
            (* The metadata record rides along so the id/category
               counters are durable whenever a freshly allocated object
               is: otherwise recovery would restore an older counter and
               re-issue this object's id to something else. *)
            store_put s o;
            Store.put s ~oid:meta_oid (meta_record k);
            Store.sync_oids s ~oids:[ o.id; meta_oid ];
            ok_unit)
    | Sync_many ces ->
        let* objs =
          List.fold_left
            (fun acc ce ->
              let* acc = acc in
              let* o = resolve k ~op:"sync_many" ce in
              Ok (o :: acc))
            (Ok []) ces
        in
        (match k.store with
        | None -> ok_unit
        | Some s ->
            List.iter (store_put s) objs;
            Store.put s ~oid:meta_oid (meta_record k);
            Store.sync_oids s ~oids:(List.map (fun o -> o.id) objs @ [ meta_oid ]);
            ok_unit)
    | Sync_range (ce, off, len) ->
        let* o = resolve_segment k ~op:"sync_range" ~dir:`Unchecked ce in
        (match (k.store, o.body) with
        | None, _ -> ok_unit
        | Some s, Seg sg ->
            let e = Codec.Enc.create () in
            encode_prefix e o;
            let prefix = Codec.Enc.to_string e in
            (* The in-place path implies the object has a checkpointed
               home location, so the counters already cover its id; only
               the log fallback can make a new object durable and must
               carry the metadata record with it. *)
            if not (Store.sync_range s ~oid:o.id ~prefix ~data:sg.data ~off ~len)
            then begin
              store_put s o;
              Store.sync_oid s ~oid:o.id;
              Store.put s ~oid:meta_oid (meta_record k);
              Store.sync_oid s ~oid:meta_oid
            end;
            ok_unit
        | Some _, (Con _ | Thr _ | Gat _ | Asp _ | Dev _) -> assert false)
    | Sync_all ->
        do_checkpoint k;
        ok_unit
    | Clock_read -> ok_resp (R_clock (Sim_clock.now k.clock))
  in
  match result with Ok action -> action | Error e -> A_resp (R_err e)

(* ---------- thread execution ---------- *)

(* A thread's handler suspends it at each syscall. The function the
   effect branch returns is built once per thread, not once per
   syscall: it reads the request from [pending], which the branch has
   just set. [pending] is not cleared afterwards; it only holds the
   thread's latest request. *)
let start_body body =
  let pending = ref Self_yield in
  let suspend = Some (fun kont -> Syscalled (!pending, kont)) in
  Effect.Deep.match_with body ()
    {
      retc = (fun () -> Finished);
      exnc = (fun e -> Crashed e);
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, run_state) Effect.Deep.continuation -> run_state) option ->
          match eff with
          | Syscall req ->
              pending := req;
              suspend
          | _ -> None);
    }

let halt_thread k tid =
  match find_obj k tid with
  | Some ({ body = Thr th; _ } as _o) ->
      th.tstate <- `Halted;
      th.next_run <- Nothing;
      th.parked <- None
  | Some _ | None -> ()

let rec run_state_loop k tid rs =
  match rs with
  | Finished -> halt_thread k tid
  | Crashed exn ->
      halt_thread k tid;
      Logs.warn (fun m ->
          m "thread %d crashed: %s" tid (Printexc.to_string exn))
  | Syscalled (req, kont) -> (
      Profile.record k.profile (req_index req);
      (* Three cost tiers: segment data access models a memory-mapped
         load/store through the page tables (the paper's fault path is
         only taken on first touch); object creation models allocation,
         label manipulation and page zeroing; everything else is a
         plain trap. *)
      let tier =
        match req with
        | Segment_read _ | Segment_write _ | Segment_cas _
        | Segment_get_size _ ->
            0
        | Segment_create _ | Segment_copy _ | Container_create _
        | Thread_create _ | Gate_create _ | As_create _ | Gate_call _ ->
            2
        | _ -> 1
      in
      let t0 = Sim_clock.now k.clock in
      Sim_clock.advance k.clock k.tier_ns.(tier);
      let action = handle_syscall k kont req in
      Metrics.Counter.incr m_syscalls;
      Metrics.Counter.add m_syscall_ns_sum (Sim_clock.now k.clock - t0);
      (match action with
      | A_resp (R_err (Label_check _)) -> Metrics.Counter.incr m_label_errors
      | _ -> ());
      match Oid_tbl.find k.objects tid with
      | exception Not_found -> () (* thread was destroyed by its own syscall *)
      | { body = Thr th; _ } -> (
          match action with
          | A_resp resp ->
              th.tstate <- `Ready;
              th.next_run <- Resume (kont, resp);
              enqueue k tid
          | A_block reason ->
              th.tstate <- `Blocked reason;
              th.parked <- Some kont;
              index_blocked k tid reason
          | A_jump f ->
              (* control transfer through a gate: the old continuation
                 is abandoned, like loading a new PC *)
              th.tstate <- `Ready;
              th.next_run <- Start f;
              enqueue k tid
          | A_resume (saved, resp) ->
              th.tstate <- `Ready;
              th.next_run <- Resume (saved, resp);
              enqueue k tid
          | A_halt -> halt_thread k tid)
      | _ -> assert false)

and run_slice k tid =
  match Oid_tbl.find k.objects tid with
  | { body = Thr th; _ } -> (
      match (th.tstate, th.next_run) with
      | `Ready, ((Start _ | Resume _) as runnable) ->
          (* [next_run] keeps the value just taken: [tstate] says whether
             it is pending, and every move to [`Ready] sets a fresh one.
             Overwriting a young value later costs nothing, where
             writing [Nothing] here would put the field in the minor
             GC's remembered set again on every syscall. *)
          th.tstate <- `Running;
          k.current <- tid;
          let rs =
            match runnable with
            | Start f -> start_body f
            | Resume (kont, resp) -> Effect.Deep.continue kont resp
            | Nothing -> assert false
          in
          run_state_loop k tid rs
      | _ -> ())
  | _ | (exception Not_found) -> ()

(* When nothing is runnable but a thread is parked on a timer
   deadline, play idle clock: jump virtual time forward to the
   earliest deadline and wake that sleeper. This is what lets a
   retransmission timer fire over a fully flapped link (no inbound
   frames to drive progress) without busy-spinning the run queue.
   Equal deadlines wake in tid order ([Timers]). *)
let fire_next_timer k =
  match next_timer k with
  | None -> false
  | Some ((d, tid) as e) ->
      k.timers <- Timers.remove e k.timers;
      let now = Sim_clock.now k.clock in
      if d > now then Sim_clock.advance k.clock (d - now);
      wake k tid R_unit;
      true

(* Earliest parked timer deadline, for multi-kernel drivers that must
   decide which host's idle clock to advance next (lib/dist's cluster
   driver). [None] when no thread is parked on a timer. *)
let next_timer_ns k = Option.map fst (next_timer k)

let step k =
  if Tidq.is_empty k.runq then fire_next_timer k
  else begin
    run_slice k (Tidq.pop k.runq);
    true
  end

let run k = while step k do () done

(* ---------- counting / introspection ---------- *)

let runnable_count k = Tidq.length k.runq

let object_count k = Oid_tbl.length k.objects

let obj_label k oid = Option.map (fun o -> o.label) (find_obj k oid)
let obj_kind k oid = Option.map (fun o -> o.kind) (find_obj k oid)
let obj_quota k oid = Option.map (fun o -> (o.quota, o.usage)) (find_obj k oid)

let container_children k oid =
  match find_obj k oid with
  | Some { body = Con c; _ } -> Some (sorted_children c)
  | Some _ | None -> None

let segment_data k oid =
  match find_obj k oid with
  | Some { body = Seg s; _ } -> Some (Bytes.to_string s.data)
  | Some _ | None -> None

let thread_state k oid =
  match find_obj k oid with
  | Some { body = Thr th; _ } ->
      Some
        (match th.tstate with
        | `Ready -> `Ready
        | `Running -> `Running
        | `Blocked _ -> `Blocked
        | `Halted -> `Halted)
  | Some _ | None -> None

let thread_label k oid =
  match find_obj k oid with
  | Some { body = Thr _; label; _ } -> Some label
  | Some _ | None -> None

(* Read-only state-observation API for the conformance fuzzer: enough of
   an object's externally-specified state (label, quota accounting, link
   structure, flags) to compare a kernel run against the reference model
   in lib/model. Host/test interface — not subject to label checks. *)

let obj_refs k oid = Option.map (fun o -> o.refs) (find_obj k oid)

let obj_flags k oid =
  Option.map (fun o -> (o.fixed_quota, o.immut)) (find_obj k oid)

let obj_metadata k oid = Option.map (fun o -> o.metadata) (find_obj k oid)
let obj_descrip k oid = Option.map (fun o -> o.descrip) (find_obj k oid)

let thread_clearance k oid =
  match find_obj k oid with
  | Some { body = Thr th; _ } -> Some th.tclear
  | Some _ | None -> None

let as_mappings k oid =
  match find_obj k oid with
  | Some { body = Asp a; _ } -> Some a.mappings
  | Some _ | None -> None

let container_parent_of k oid =
  match find_obj k oid with
  | Some { body = Con c; _ } -> Some c.parent
  | Some _ | None -> None

(* ---------- construction ---------- *)

(* The one place a kernel record is built. [create] starts both
   generators at zero; [recover] and [resume] restore their counters. *)
let make ~clock ?store ~key ~oid_counter ~cat_counter ~root
    ?(label_cache = Label_cache.create ()) ?(profile = Profile.create ())
    ?(syscall_cost_ns = 500) ?weaken () =
  {
    clock;
    store;
    objects = Oid_tbl.create 256;
    oidgen = Category_gen.restore ~key ~counter:oid_counter;
    catgen = Category_gen.restore ~key:(Int64.lognot key) ~counter:cat_counter;
    runq = Tidq.create ();
    futexq = Oid_tbl.create 64;
    timers = Timers.empty;
    label_cache;
    profile;
    current = 0;
    root;
    trace = None;
    syscall_cost_ns;
    tier_ns = [| syscall_cost_ns / 4; syscall_cost_ns; syscall_cost_ns * 30 |];
    weaken;
    key;
  }

let create ?(seed = 0x4853_7461_7221L) ?clock ?store ?syscall_cost_ns ?weaken
    () =
  let clock = match clock with Some c -> c | None -> Sim_clock.create () in
  let k =
    make ~clock ?store ~key:seed ~oid_counter:0L ~cat_counter:0L ~root:0
      ?syscall_cost_ns ?weaken ()
  in
  let root_id = next_oid k in
  let root_obj =
    {
      id = root_id;
      kind = Container;
      label = Label.make Level.L1;
      descrip = "root container";
      quota = infinite_quota;
      usage = base_overhead;
      fixed_quota = true;
      immut = false;
      metadata = "";
      refs = 1;
      body = Con { children = Oid_tbl.create 32; avoid = 0; parent = root_id };
    }
  in
  Oid_tbl.replace k.objects root_id root_obj;
  k.root <- root_id;
  k

let spawn k ?label ?clearance ?container ~name entry =
  let label = Option.value label ~default:(Label.make Level.L1) in
  let clearance = Option.value clearance ~default:(Label.make Level.L2) in
  let container = Option.value container ~default:k.root in
  let tls = mk_tls k in
  let id = next_oid k in
  let o =
    {
      id;
      kind = Thread;
      label;
      descrip = name;
      quota = 65_536L;
      usage = base_overhead;
      fixed_quota = false;
      immut = false;
      metadata = "";
      refs = 1;
      body =
        Thr
          {
            tclear = clearance;
            tls;
            tas = None;
            tstate = `Ready;
            next_run = Start entry;
            parked = None;
            alerts = Queue.create ();
            return_gate = None;
          };
    }
  in
  Oid_tbl.replace k.objects id o;
  (match find_obj k container with
  | Some ({ body = Con c; _ } as d) ->
      Oid_tbl.replace c.children id Thread;
      d.usage <- Int64.add d.usage o.quota
  | Some _ | None -> invalid_arg "Kernel.spawn: bad container");
  enqueue k id;
  id

(* ---------- devices ---------- *)

let attach_netdev k ~container ~label ~mac ~transmit =
  let id = next_oid k in
  let o =
    {
      id;
      kind = Device;
      label;
      descrip = "netdev " ^ mac;
      quota = 65_536L;
      usage = base_overhead;
      fixed_quota = true;
      immut = false;
      metadata = "";
      refs = 1;
      body =
        Dev { mac; rx = Queue.create (); waiters = Tidq.create (); transmit };
    }
  in
  Oid_tbl.replace k.objects id o;
  (match find_obj k container with
  | Some ({ body = Con c; _ } as d) ->
      Oid_tbl.replace c.children id Device;
      d.usage <- Int64.add d.usage o.quota
  | Some _ | None -> invalid_arg "Kernel.attach_netdev: bad container");
  id

let deliver_packet k dev_oid frame =
  match find_obj k dev_oid with
  | Some { body = Dev d; _ } -> (
      Queue.push frame d.rx;
      (* hand queued frames to this device's waiters in blocking order *)
      while not (Queue.is_empty d.rx || Tidq.is_empty d.waiters) do
        let tid = Tidq.pop d.waiters in
        match find_obj k tid with
        | Some { body = Thr { tstate = `Blocked (W_net oid); _ }; _ }
          when oid = dev_oid ->
            wake k tid (R_bytes (Queue.pop d.rx))
        | Some _ | None -> ()
      done)
  | Some _ | None -> invalid_arg "Kernel.deliver_packet: no such device"

(* Host-side wake of futex waiters on a segment word (used by device
   glue that runs outside any thread, e.g. the VPN tunnel endpoint).
   Does not write the word; lost wakeups cannot occur because host code
   only runs between thread slices. *)
let host_wake_futex k oid ~off =
  let q = futex_queue k (futex_key oid off) in
  while not (Tidq.is_empty q) do
    let tid = Tidq.pop q in
    match find_obj k tid with
    | Some { body = Thr th; _ } -> (
        match th.tstate with
        | `Blocked (W_futex _) -> wake k tid (R_ok true)
        | `Ready | `Running | `Blocked _ | `Halted -> ())
    | Some _ | None -> ()
  done

(* ---------- persistence ---------- *)

let checkpoint k = do_checkpoint k

let recover ~store =
  let meta =
    match Store.get store ~oid:meta_oid with
    | Some m -> m
    | None -> invalid_arg "Kernel.recover: no kernel metadata in store"
  in
  let d = Codec.Dec.of_string meta in
  let root = decode_oid d in
  let oid_counter = Codec.Dec.i64 d in
  let cat_counter = Codec.Dec.i64 d in
  let key = Codec.Dec.i64 d in
  let k =
    make ~clock:(Sim_clock.create ()) ~store ~key ~oid_counter ~cat_counter
      ~root ()
  in
  Store.iter_oids store (fun oid ->
      if oid <> meta_oid then
        match Store.get store ~oid with
        | Some payload ->
            let o = decode_obj payload in
            (* Re-declare each segment's layout, as [store_put] does, so
               [Sync_range] can flush in place right after recovery. *)
            (match o.body with
            | Seg sg ->
                Store.set_prefix_len store ~oid
                  (String.length payload - Bytes.length sg.data)
            | Con _ | Thr _ | Gat _ | Asp _ | Dev _ -> ());
            Oid_tbl.replace k.objects oid o
        | None -> ());
  k

(* ---------- branchable kernel states ---------- *)

(* A handle is a whole-kernel version: every live object's encoding,
   sorted by oid, plus the scalar machine state. Continuations are not
   serializable (the same departure from the paper as [recover]), so a
   resumed branch comes back with all threads halted and code-carrying
   gates dead; harnesses re-arm threads with [restart_thread]. *)
type handle = {
  h_objects : (oid * string) array;
  h_root : oid;
  h_oid_counter : int64;
  h_cat_counter : int64;
  h_key : int64;
  h_now_ns : int;
  h_syscall_cost_ns : int;
  h_weaken : weaken option;
  h_label_cache : Label_cache.t;
  h_profile : Profile.t;
}

let fork k =
  let objects =
    Array.of_seq
      (Seq.map (fun (oid, o) -> (oid, encode_obj o)) (Oid_tbl.to_seq k.objects))
  in
  Array.sort (fun (a, _) (b, _) -> Int.compare a b) objects;
  {
    h_objects = objects;
    h_root = k.root;
    h_oid_counter = Category_gen.counter k.oidgen;
    h_cat_counter = Category_gen.counter k.catgen;
    h_key = k.key;
    h_now_ns = Sim_clock.now k.clock;
    h_syscall_cost_ns = k.syscall_cost_ns;
    h_weaken = k.weaken;
    h_label_cache = Label_cache.copy k.label_cache;
    h_profile = Profile.copy k.profile;
  }

(* Decoding in oid order fills the tables in the same order on every
   resume of a handle. *)
let resume h =
  let clock = Sim_clock.create () in
  Sim_clock.advance clock h.h_now_ns;
  let k =
    make ~clock ~key:h.h_key ~oid_counter:h.h_oid_counter
      ~cat_counter:h.h_cat_counter ~root:h.h_root
      ~label_cache:(Label_cache.copy h.h_label_cache)
      ~profile:(Profile.copy h.h_profile) ~syscall_cost_ns:h.h_syscall_cost_ns
      ?weaken:h.h_weaken ()
  in
  Array.iter
    (fun (oid, enc) -> Oid_tbl.replace k.objects oid (decode_obj enc))
    h.h_objects;
  k

let handle_object_count h = Array.length h.h_objects

(* Restart a thread that decoded as halted: same oid, same TLS, fresh
   entry body. Consumes no generator state, so a restarted branch stays
   oid-for-oid aligned with one that never stopped. *)
let restart_thread k tid entry =
  match find_obj k tid with
  | Some { body = Thr th; _ } ->
      th.tstate <- `Ready;
      th.next_run <- Start entry;
      th.parked <- None;
      enqueue k tid
  | Some _ | None -> invalid_arg "Kernel.restart_thread: no such thread"
