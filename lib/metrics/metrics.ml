(* A zero-dependency metrics registry: monotonic counters, named and
   registered process-wide so instrumentation points anywhere in the
   tree report into one place. A counter is the only metric kind and
   the only way the library counts an event: a latency is a counter of
   its summed nanoseconds ([kernel.syscall_ns_sum]) next to the counter
   of its events ([kernel.syscalls]), and a caller that wants one
   instance's work reads counter deltas in a scope.

   Values live in a *scope*: an explicit record holding an [on] flag
   (off by default) and one slot per registered counter. Each domain
   has a current scope, reached through one [Domain.DLS] key, and every
   increment, read, reset and flag toggle acts on that scope alone. A
   disabled instrumentation point costs one domain-local load and one
   branch, which is what lets the hot paths (syscall dispatch, sector
   writes) stay instrumented permanently. The benchmark runner enables
   its scope, snapshots it around each workload, and records the
   deltas.

   Nothing merges behind a reader's back. lib/par runs each parallel
   task in a fresh scope ({!fresh_scope}, {!with_scope}) and, after the
   join, folds the task scopes into the submitter's with {!absorb}.
   Sums commute, so a window around a parallel run reads exactly what
   the sequential run produces. *)

(* Guards registration; never held while user code runs. *)
let mu = Mutex.create ()

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

(* ---------- scopes ---------- *)

type counter = { c_name : string; c_idx : int  (** slot in a scope *) }

type scope = {
  mutable on : bool;
  mutable counts : int array;  (** by [c_idx]; grown on first touch *)
}

let new_scope on = { on; counts = [||] }
let key = Domain.DLS.new_key (fun () -> new_scope false)

let enabled () = (Domain.DLS.get key).on
let set_enabled b = (Domain.DLS.get key).on <- b

let with_enabled b f =
  let s = Domain.DLS.get key in
  let saved = s.on in
  s.on <- b;
  Fun.protect ~finally:(fun () -> s.on <- saved) f

let n_counters = ref 0

(* Grow [s] past slot [i] to cover every counter registered so far, so
   a scope grows once per registration burst, not once per counter. *)
let bump s i n =
  if i >= Array.length s.counts then begin
    let len = max (i + 1) (locked (fun () -> !n_counters)) in
    s.counts <- Array.append s.counts (Array.make (len - Array.length s.counts) 0)
  end;
  s.counts.(i) <- s.counts.(i) + n

(* A scope for a parallel task: empty, with the current scope's flag. *)
let fresh_scope () = new_scope (enabled ())

let with_scope s f =
  let saved = Domain.DLS.get key in
  Domain.DLS.set key s;
  Fun.protect ~finally:(fun () -> Domain.DLS.set key saved) f

(* Fold [src] into the current scope slot by slot. Addition commutes,
   so the result is independent of how the work was split. *)
let absorb src = Array.iteri (bump (Domain.DLS.get key)) src.counts

(* ---------- registry ---------- *)

let registry : (string, counter) Hashtbl.t = Hashtbl.create 64

let counter name =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some c -> c
      | None ->
          let c = { c_name = name; c_idx = !n_counters } in
          incr n_counters;
          Hashtbl.add registry name c;
          c)

module Counter = struct
  type t = counter

  let incr c =
    let s = Domain.DLS.get key in
    if s.on then bump s c.c_idx 1

  let add c n =
    if n < 0 then invalid_arg "Metrics.Counter.add: negative increment";
    let s = Domain.DLS.get key in
    if s.on then bump s c.c_idx n

  let value c =
    let a = (Domain.DLS.get key).counts in
    if c.c_idx < Array.length a then a.(c.c_idx) else 0
end

(* ---------- snapshots ---------- *)

(* Every registered counter's value in the current scope, sorted by
   name for deterministic output. *)
type snapshot = (string * int) list

let snapshot () : snapshot =
  locked (fun () -> Hashtbl.fold (fun _ c acc -> c :: acc) registry [])
  |> List.map (fun c -> (c.c_name, Counter.value c))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Per-name [after - before]; names absent from [before] count from 0,
   zero deltas are dropped. *)
let diff ~(before : snapshot) ~(after : snapshot) : snapshot =
  let base = Hashtbl.create 64 in
  List.iter (fun (name, v) -> Hashtbl.replace base name v) before;
  List.filter_map
    (fun (name, v) ->
      let v0 = Option.value (Hashtbl.find_opt base name) ~default:0 in
      if v = v0 then None else Some (name, v - v0))
    after

let value_in (s : snapshot) name =
  Option.value (List.assoc_opt name s) ~default:0

let counter_value name =
  match locked (fun () -> Hashtbl.find_opt registry name) with
  | Some c -> Counter.value c
  | None -> 0

(* Zero the current scope (its flag stays). *)
let reset () = (Domain.DLS.get key).counts <- [||]
