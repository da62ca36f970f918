(* One pass of a workload: set-up, then [n] measured ops, each timed on
   the host's monotonic clock. The meter also takes the GC and (when
   traced) the metrics-registry and syscall-profile deltas over the
   measured phase, so every count is a pure function of the seed. *)

module Metrics = Histar_metrics.Metrics
module Profile = Histar_core.Profile
module Kernel = Histar_core.Kernel
module Label = Histar_label.Label

(* Permitted label decisions: (thread label, object label, observe?),
   newest first. *)
type probe = { mutable events : (Label.t * Label.t * bool) list; mutable count : int }

let probe_cap = 400_000

type t = {
  n : int;
  traced : bool;
  probe : probe option;  (** label decisions captured on this pass *)
  t_rep : int;  (** host ns when the pass began *)
  op_ns : int array;
  mutable failed : int;
  mutable t0 : int;
  mutable t1 : int;
  mutable virtual_ns : int64;
  mutable elapsed : unit -> int64;
  mutable gc0 : Gc.stat;
  mutable gc1 : Gc.stat;
  mutable m0 : Metrics.snapshot;
  mutable m1 : Metrics.snapshot;
  mutable profiles : unit -> Profile.t list;
  mutable prof0 : Profile.t list;
  mutable syscalls : (string * int) list;
  mutable label_entries : int;
  mutable extra : (string * float) list;
      (** workload-side per-layer figures (traced passes) *)
}

let create ~n ~traced ~probe =
  let gc = Gc.quick_stat () in
  {
    n;
    traced;
    probe =
      (if probe then Some { events = []; count = 0 } else None);
    t_rep = Stats.now_ns ();
    op_ns = Array.make n 0;
    failed = 0;
    t0 = 0;
    t1 = 0;
    virtual_ns = 0L;
    elapsed = (fun () -> 0L);
    gc0 = gc;
    gc1 = gc;
    m0 = [];
    m1 = [];
    profiles = (fun () -> []);
    prof0 = [];
    syscalls = [];
    label_entries = 0;
    extra = [];
  }

(* Capture permitted label decisions through [Kernel.set_trace]. *)
let attach_probe m kernels =
  match m.probe with
  | None -> ()
  | Some p ->
      let record (ev : Kernel.trace_event) =
        if p.count < probe_cap then begin
          p.events <- (ev.ev_thread_label, ev.ev_obj_label, ev.ev_dir = `Observe) :: p.events;
          p.count <- p.count + 1
        end
      in
      List.iter (fun k -> Kernel.set_trace k (Some record)) kernels

let detach_probe m kernels =
  if m.probe <> None then List.iter (fun k -> Kernel.set_trace k None) kernels

(* [elapsed] reads the virtual time since the phase began; [profiles]
   lists the syscall profiles of every kernel involved. *)
let begin_phase m ~elapsed ~profiles =
  m.elapsed <- elapsed;
  m.profiles <- profiles;
  if m.traced then begin
    m.prof0 <- List.map Profile.copy (profiles ());
    m.m0 <- Metrics.snapshot ()
  end;
  m.gc0 <- Gc.quick_stat ();
  m.t0 <- Stats.now_ns ();
  Tracer.sampling := m.traced

let end_phase m =
  Tracer.sampling := false;
  m.t1 <- Stats.now_ns ();
  m.gc1 <- Gc.quick_stat ();
  m.virtual_ns <- m.elapsed ();
  Tracer.cur_op := -1;
  if m.traced then begin
    m.m1 <- Metrics.snapshot ();
    let counts = Hashtbl.create 32 in
    let add sign p =
      List.iter
        (fun (name, c) ->
          let v = Option.value (Hashtbl.find_opt counts name) ~default:0 in
          Hashtbl.replace counts name (v + (sign * c)))
        (Profile.to_list p)
    in
    List.iter (add 1) (m.profiles ());
    List.iter (add (-1)) m.prof0;
    m.syscalls <-
      Hashtbl.fold (fun k v acc -> if v > 0 then (k, v) :: acc else acc) counts []
      |> List.sort (fun (a, x) (b, y) -> if x <> y then compare y x else compare a b)
  end

(* Time [f], the library calls of op [i]; [check] then verifies the
   result outside the timed region. An exception or a failed check
   counts the op as failed and never aborts the pass. *)
let op m i f check =
  Tracer.cur_op := i;
  let s = Tracer.enter Tracer.op_sid in
  let t0 = Stats.now_ns () in
  let r = try Some (f ()) with _ -> None in
  m.op_ns.(i) <- Stats.now_ns () - t0;
  Tracer.exit s;
  (match r with
  | Some r when (try check r with _ -> false) -> ()
  | Some _ | None -> m.failed <- m.failed + 1);
  Tracer.poll_gc ()

(* A whole-pass check (e.g. fsck at the end): one more failure if it
   does not hold. *)
let check_pass m f =
  if not (try f () with _ -> false) then m.failed <- m.failed + 1

let counter m name = Metrics.value_in m.m1 name - Metrics.value_in m.m0 name
let setup_ns m = m.t0 - m.t_rep
let wall_ns m = m.t1 - m.t0
let alloc_words m =
  let open Gc in
  m.gc1.minor_words +. m.gc1.major_words -. m.gc1.promoted_words
  -. (m.gc0.minor_words +. m.gc0.major_words -. m.gc0.promoted_words)

let major_words m = m.gc1.Gc.major_words -. m.gc0.Gc.major_words
