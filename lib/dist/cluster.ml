(* Deterministic multi-kernel driver.

   Each node is an independent Kernel.t with its own virtual clock;
   client machines outside any kernel are bare {!Stack}s with a
   shared edge clock. The driver round-robins runnable kernels in
   registration order with a bounded slice each, and only when *every*
   kernel is idle fires exactly one timer: the one with the smallest
   *relative* wait (deadline minus its own host's now). Comparing
   relative waits is what keeps independently-drifting clocks fair —
   an absolute-deadline comparison would starve whichever node's
   clock happens to run ahead. Ties break by registration order, so a
   run is a pure function of the seeds.

   [Kernel.step] on an idle kernel fires that kernel's own earliest
   deadline; host stacks get their clock advanced to the deadline and
   a [Stack.tick]. The [until] predicate is evaluated every round and
   doubles as the caller's pump (client state machines poll inside
   it), mirroring how bench/runner drives wget against a kernel. *)

module Kernel = Histar_core.Kernel
module Sim_clock = Histar_util.Sim_clock
module Stack = Histar_net.Stack
module Hub = Histar_net.Hub

type host = { h_stack : Stack.t; h_clock : Sim_clock.t }

type t = {
  mutable kernels : Kernel.t list;  (* registration order *)
  mutable hosts : host list;
  mutable clocks : Sim_clock.t list;
      (* every distinct clock of [kernels] and [hosts], kept current by
         the add/remove functions so drive rounds need not rebuild it *)
  mutable on_tick : (int -> unit) option;
      (* driver hook, called with global virtual now once per drive
         round — the crash-plan pump (kill/restart at virtual times) *)
}

let create () = { kernels = []; hosts = []; clocks = []; on_tick = None }

(* Deduplicated physically: kernel-less client hosts typically share
   one edge clock. *)
let refresh_clocks t =
  t.clocks <-
    List.fold_left
      (fun acc c -> if List.memq c acc then acc else c :: acc)
      []
      (List.map Kernel.clock t.kernels @ List.map (fun h -> h.h_clock) t.hosts)

let add_kernel t k =
  t.kernels <- t.kernels @ [ k ];
  refresh_clocks t

(* Remove a node from scheduling (node crash): its threads stop
   running and its timers stop being considered, exactly as if the
   machine lost power — volatile state is simply never consulted
   again.  Removal is by physical identity; re-adding a recovered
   kernel appends it at the end of registration order, which is part
   of the deterministic schedule and must match across double runs. *)
let remove_kernel t k =
  t.kernels <- List.filter (fun k' -> k' != k) t.kernels;
  refresh_clocks t

let set_on_tick t f = t.on_tick <- f

let add_host t ~stack ~clock =
  t.hosts <- t.hosts @ [ { h_stack = stack; h_clock = clock } ];
  refresh_clocks t

let remove_host t stack =
  t.hosts <- List.filter (fun h -> h.h_stack != stack) t.hosts;
  refresh_clocks t

let kernels t = t.kernels
let host_count t = List.length t.hosts

(* Advance every clock in the cluster to [tgt] (none moves back). *)
let advance_all t tgt =
  List.iter
    (fun c ->
      let d = tgt - Sim_clock.now c in
      if d > 0 then Sim_clock.advance c d)
    t.clocks

(* Global virtual now: the maximum over every clock in the cluster.
   This is the time axis crash schedules are written against. *)
let global_now_ns t =
  List.fold_left (fun m c -> Int.max m (Sim_clock.now c)) 0 t.clocks

(* Jointly advance every clock to the global maximum — the same
   synchronization a timer firing performs, available to hosts that
   want a clean time baseline after un-driven work (e.g. measuring
   from after provisioning rather than across it). *)
let sync_clocks t = advance_all t (global_now_ns t)

(* One scheduling decision when everyone is idle: the pending timer
   with the least relative wait fires, and — crucially — *every*
   clock in the cluster is synchronized to the global maximum plus
   that wait. Virtual time is global: without the joint advance, a
   node with a periodic housekeeping timer (netd re-arms every 50ms)
   would keep presenting a smaller relative wait than a peer's
   pending 200ms RTO forever, and the RTO would never fire — a
   cross-node timeout livelock. Synchronizing to the maximum (rather
   than adding an equal delta everywhere) also absorbs the drift that
   per-syscall costs introduce: a busy node's clock runs ahead of an
   idle one's between timer rounds, and an idle node that keeps
   timing out against its own lagging clock would otherwise see
   cross-node deadlines recede indefinitely. Timers left overdue by
   the jump fire on later rounds with wait 0. *)
let fire_next_timer t =
  let best = ref None in
  let consider wait target =
    match !best with
    | Some (w, _) when w <= wait -> ()
    | Some _ | None -> best := Some (wait, target)
  in
  List.iter
    (fun k ->
      match Kernel.next_timer_ns k with
      | Some d ->
          consider (Int.max 0 (d - Sim_clock.now (Kernel.clock k))) (`Kernel k)
      | None -> ())
    t.kernels;
  List.iter
    (fun h ->
      match Stack.next_timer_deadline h.h_stack with
      | Some d ->
          consider (Int.max 0 (d - Sim_clock.now h.h_clock)) (`Host h)
      | None -> ())
    t.hosts;
  match !best with
  | None -> false
  | Some (w, target) ->
      advance_all t (global_now_ns t + w);
      (match target with
      | `Kernel k -> ignore (Kernel.step k : bool)
      | `Host h -> Stack.tick h.h_stack);
      true

(* Run every kernel to quiescence without firing any timer: boot
   threads (netd init, service registration, listeners parking in
   accept) complete before any cross-node traffic is attempted, so
   no SYN can race a listener that has not yet registered its port. *)
let settle ?(max_rounds = 64) t =
  let rec go n =
    if n > 0 && List.exists (fun k -> Kernel.runnable_count k > 0) t.kernels
    then begin
      List.iter
        (fun k ->
          while Kernel.runnable_count k > 0 do
            ignore (Kernel.step k : bool)
          done)
        t.kernels;
      go (n - 1)
    end
  in
  go max_rounds

(* One bulk-synchronous step: every kernel, in registration order,
   runs up to [slice] steps inside one deferred-injection scope. When
   the scope closes, the round's frames go on the wire in the order
   they were sent, so no kernel sees a peer's frame before the barrier
   and the wire schedule is a pure function of registration order. *)
let step_round ~slice t =
  Hub.deferred (fun () ->
      List.iter
        (fun k ->
          let budget = ref slice in
          while Kernel.runnable_count k > 0 && !budget > 0 do
            ignore (Kernel.step k : bool);
            decr budget
          done)
        t.kernels)

let drive ?(slice = 20_000) ?(max_rounds = 200_000) t ~until () =
  let rec round n =
    (match t.on_tick with Some f -> f (global_now_ns t) | None -> ());
    if until () then true
    else if n <= 0 then false
    else begin
      step_round ~slice t;
      if List.exists (fun k -> Kernel.runnable_count k > 0) t.kernels then
        round (n - 1)
      else if until () then true
      else if fire_next_timer t then round (n - 1)
      else until ()
    end
  in
  round max_rounds
