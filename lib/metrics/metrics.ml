(* A zero-dependency metrics registry: monotonic counters and
   fixed-bucket latency histograms, named and registered process-wide
   so instrumentation points anywhere in the tree report into one
   place.

   Values live in a *scope*: an explicit record holding an [on] flag
   (off by default), one slot per registered counter and one lazily
   created cell per touched histogram. Each domain has a current scope,
   reached through one [Domain.DLS] key, and every increment, read,
   reset and flag toggle acts on that scope alone. A disabled
   instrumentation point costs one domain-local load and one branch,
   which is what lets the hot paths (syscall dispatch, sector writes)
   stay instrumented permanently. The benchmark runner enables its
   scope, snapshots it around each workload, and records the deltas.

   Nothing merges behind a reader's back. lib/par runs each parallel
   task in a fresh scope ({!fresh_scope}, {!with_scope}) and, after the
   join, folds the task scopes into the submitter's with {!absorb}:
   sums for counters and bucket counts, min of mins and max of maxes
   for histogram extremes. All of these commute, so a window around a
   parallel run reads exactly what the sequential run produces. *)

(* Guards registration; never held while user code runs. *)
let mu = Mutex.create ()

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

(* ---------- metric handles ---------- *)

type counter = { c_name : string; c_idx : int  (** slot in a scope *) }

type histogram = {
  h_name : string;
  bounds : int array;
      (** strictly increasing inclusive upper bounds; observations above
          the last bound land in an implicit overflow bucket *)
  h_idx : int;  (** cell in a scope *)
}

type metric = Counter of counter | Histogram of histogram

let metric_name = function Counter c -> c.c_name | Histogram h -> h.h_name

(* ---------- scopes ---------- *)

type hcell = {
  hs_counts : int array;  (** length = Array.length bounds + 1 *)
  mutable hs_count : int;
  mutable hs_sum : int;
  mutable hs_min : int;
  mutable hs_max : int;
}

type scope = {
  mutable on : bool;
  mutable counts : int array;  (** by [c_idx]; grown on first touch *)
  mutable cells : hcell option array;  (** by [h_idx]; grown on first touch *)
}

let new_scope on = { on; counts = [||]; cells = [||] }
let key = Domain.DLS.new_key (fun () -> new_scope false)

let enabled () = (Domain.DLS.get key).on
let set_enabled b = (Domain.DLS.get key).on <- b

let with_enabled b f =
  let s = Domain.DLS.get key in
  let saved = s.on in
  s.on <- b;
  Fun.protect ~finally:(fun () -> s.on <- saved) f

let n_counters = ref 0
let n_histograms = ref 0

(* [a] extended past index [i] to cover every metric registered so far,
   so a scope grows once per registration burst, not once per metric. *)
let cover a i registered fill =
  let n = max (i + 1) (locked (fun () -> !registered)) in
  Array.append a (Array.make (n - Array.length a) fill)

let bump s i n =
  if i >= Array.length s.counts then s.counts <- cover s.counts i n_counters 0;
  s.counts.(i) <- s.counts.(i) + n

let fresh_cell nbuckets =
  {
    hs_counts = Array.make nbuckets 0;
    hs_count = 0;
    hs_sum = 0;
    hs_min = max_int;
    hs_max = min_int;
  }

let cell s i nbuckets =
  if i >= Array.length s.cells then s.cells <- cover s.cells i n_histograms None;
  match s.cells.(i) with
  | Some c -> c
  | None ->
      let c = fresh_cell nbuckets in
      s.cells.(i) <- Some c;
      c

let cell_of s h = cell s h.h_idx (Array.length h.bounds + 1)

(* A scope for a parallel task: empty, with the current scope's flag. *)
let fresh_scope () = new_scope (enabled ())

let with_scope s f =
  let saved = Domain.DLS.get key in
  Domain.DLS.set key s;
  Fun.protect ~finally:(fun () -> Domain.DLS.set key saved) f

(* Fold [src] into the current scope: bucket-wise and total sums, min
   of mins, max of maxes — commutative and associative, so the result
   is independent of how the work was split. *)
let absorb src =
  let dst = Domain.DLS.get key in
  Array.iteri (bump dst) src.counts;
  Array.iteri
    (fun i -> function
      | None -> ()
      | Some c ->
          let acc = cell dst i (Array.length c.hs_counts) in
          Array.iteri (fun b n -> acc.hs_counts.(b) <- acc.hs_counts.(b) + n) c.hs_counts;
          acc.hs_count <- acc.hs_count + c.hs_count;
          acc.hs_sum <- acc.hs_sum + c.hs_sum;
          if c.hs_min < acc.hs_min then acc.hs_min <- c.hs_min;
          if c.hs_max > acc.hs_max then acc.hs_max <- c.hs_max)
    src.cells

(* ---------- registry ---------- *)

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

let register name make =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> m
      | None ->
          let m = make () in
          Hashtbl.add registry name m;
          m)

let kind_mismatch name want =
  invalid_arg
    (Printf.sprintf "Metrics: %s is already registered with a different kind (wanted %s)"
       name want)

let next r =
  let i = !r in
  r := i + 1;
  i

let counter name =
  match
    register name (fun () -> Counter { c_name = name; c_idx = next n_counters })
  with
  | Counter c -> c
  | Histogram _ -> kind_mismatch name "counter"

(* Latency buckets in nanoseconds: sub-microsecond syscall dispatch up
   through multi-second checkpoints. *)
let default_bounds =
  [|
    250; 500; 1_000; 2_500; 5_000; 10_000; 25_000; 50_000; 100_000; 250_000;
    500_000; 1_000_000; 2_500_000; 5_000_000; 10_000_000; 50_000_000;
    100_000_000; 500_000_000; 1_000_000_000; 10_000_000_000;
  |]

let check_bounds bounds =
  if Array.length bounds = 0 then invalid_arg "Metrics: empty histogram bounds";
  for i = 1 to Array.length bounds - 1 do
    if bounds.(i) <= bounds.(i - 1) then
      invalid_arg "Metrics: histogram bounds must be strictly increasing"
  done

let histogram ?(bounds = default_bounds) name =
  check_bounds bounds;
  match
    register name (fun () ->
        Histogram
          { h_name = name; bounds = Array.copy bounds; h_idx = next n_histograms })
  with
  | Histogram h -> h
  | Counter _ -> kind_mismatch name "histogram"

(* ---------- counters ---------- *)

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

(* ---------- histograms ---------- *)

module Histogram = struct
  type t = histogram

  (* First bucket whose upper bound covers [v]; the overflow bucket is
     index [Array.length bounds]. *)
  let bucket_of_value h v =
    let lo = ref 0 and hi = ref (Array.length h.bounds) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if v <= h.bounds.(mid) then hi := mid else lo := mid + 1
    done;
    !lo

  (* Inclusive bounds of bucket [i]: (lower, Some upper), or (lower,
     None) for the overflow bucket. *)
  let bucket_bounds h i =
    let lower = if i = 0 then min_int else h.bounds.(i - 1) + 1 in
    let upper = if i < Array.length h.bounds then Some h.bounds.(i) else None in
    (lower, upper)

  let observe h v =
    let s = Domain.DLS.get key in
    if s.on then begin
      let c = cell_of s h in
      let b = bucket_of_value h v in
      c.hs_counts.(b) <- c.hs_counts.(b) + 1;
      c.hs_count <- c.hs_count + 1;
      c.hs_sum <- c.hs_sum + v;
      if v < c.hs_min then c.hs_min <- v;
      if v > c.hs_max then c.hs_max <- v
    end

  let current h = cell_of (Domain.DLS.get key) h
  let count h = (current h).hs_count
  let sum h = (current h).hs_sum
  let bucket_counts h = Array.copy (current h).hs_counts

  let min_value h =
    let c = current h in
    if c.hs_count = 0 then None else Some c.hs_min

  let max_value h =
    let c = current h in
    if c.hs_count = 0 then None else Some c.hs_max

  (* Quantile estimate: the value at rank ceil(q * count). The reported
     value is the containing bucket's upper bound clamped to the
     observed maximum, which keeps estimates inside the bucket that
     holds the rank and makes q -> quantile monotone. *)
  let quantile h q =
    let s = current h in
    if s.hs_count = 0 then None
    else begin
      if not (q > 0.0 && q <= 1.0) then
        invalid_arg "Metrics.Histogram.quantile: q must be in (0, 1]";
      let rank =
        let r = int_of_float (ceil (q *. float_of_int s.hs_count)) in
        if r < 1 then 1 else if r > s.hs_count then s.hs_count else r
      in
      let b = ref 0 and cum = ref s.hs_counts.(0) in
      while !cum < rank do
        incr b;
        cum := !cum + s.hs_counts.(!b)
      done;
      let upper =
        if !b < Array.length h.bounds then h.bounds.(!b) else s.hs_max
      in
      Some (if upper > s.hs_max then s.hs_max else upper)
    end

  let p50 h = quantile h 0.50
  let p95 h = quantile h 0.95
  let p99 h = quantile h 0.99
end

(* ---------- snapshots ---------- *)

(* Scalar view of the current scope: counters by value, histograms
   flattened to _count / _sum so workload deltas can carry them
   uniformly. Sorted by name for deterministic output. *)
type snapshot = (string * int) list

let metrics () = locked (fun () -> Hashtbl.fold (fun _ m acc -> m :: acc) registry [])

let snapshot () : snapshot =
  List.fold_left
    (fun acc m ->
      match m with
      | Counter c -> (c.c_name, Counter.value c) :: acc
      | Histogram h ->
          (h.h_name ^ "_count", Histogram.count h)
          :: (h.h_name ^ "_sum", Histogram.sum h)
          :: acc)
    [] (metrics ())
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

let find name = locked (fun () -> Hashtbl.find_opt registry name)

let counter_value name =
  match find name with
  | Some (Counter c) -> Counter.value c
  | Some (Histogram _) | None -> 0

(* Zero the current scope (its flag stays). *)
let reset () =
  let s = Domain.DLS.get key in
  s.counts <- [||];
  s.cells <- [||]

(* ---------- rendering ---------- *)

let to_json () =
  let field_of = function
    | Counter c ->
        (c.c_name, Json.Obj [ ("type", Json.Str "counter"); ("value", Json.Int (Counter.value c)) ])
    | Histogram h ->
        let q name v = (name, match v with None -> Json.Null | Some x -> Json.Int x) in
        ( h.h_name,
          Json.Obj
            [
              ("type", Json.Str "histogram");
              ("count", Json.Int (Histogram.count h));
              ("sum", Json.Int (Histogram.sum h));
              q "min" (Histogram.min_value h);
              q "max" (Histogram.max_value h);
              q "p50" (Histogram.p50 h);
              q "p95" (Histogram.p95 h);
              q "p99" (Histogram.p99 h);
            ] )
  in
  let by_name a b = String.compare (metric_name a) (metric_name b) in
  Json.Obj (List.map field_of (List.sort by_name (metrics ())))
