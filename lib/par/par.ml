(* Deterministic multi-domain runtime.

   The whole reproduction rests on replayable executions — every check
   harness and the cluster driver are pure functions of their seeds —
   so parallelism has to be observationally invisible: a run at
   HISTAR_DOMAINS=8 must produce byte-identical output to the same run
   at HISTAR_DOMAINS=1. Two rules make that hold:

   - Ordered join. Tasks are submitted with stable indices and results
     are merged in submission order, never completion order. Workers
     pull indices from a shared atomic counter (so completion order is
     scheduling-dependent), but each result lands in its own slot of a
     preallocated array and the caller only looks at the array after
     every task has finished. Exceptions are joined the same way: the
     lowest-index failure is re-raised, which is exactly the failure a
     sequential left-to-right loop would have surfaced first.

   - Task scopes. Each pool task runs in a fresh metrics scope that
     copies the submitter's enabled flag, and sees [in_task ()] = true,
     so any nested [run] executes inline on the task's own domain and
     in its scope. After the join the task scopes fold into the
     submitter's scope in index order ({!Histar_metrics.Metrics.absorb}),
     so a metrics window around a [run] reads the same totals at every
     domain count.

   Scheduling-independent inputs come from {!split_seed}: each cell
   derives its RNG from its submission index, never from which domain
   or in which order it actually ran.

   The pool is a single process-global set of worker domains, created
   lazily and reused for every batch. *)

module Metrics = Histar_metrics.Metrics

let max_workers = 15

let env_domains =
  match Stdlib.Sys.getenv_opt "HISTAR_DOMAINS" with
  | None | Some "" -> 1
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> min n (max_workers + 1)
      | Some _ | None ->
          invalid_arg (Printf.sprintf "HISTAR_DOMAINS: cannot parse %S" s))

let current = Atomic.make env_domains

let domains () = Atomic.get current

let set_domains n =
  if n < 1 then invalid_arg "Par.set_domains: need >= 1";
  Atomic.set current (min n (max_workers + 1))

(* ---------- splittable seeds ---------- *)

(* splitmix64 finalizer: full-avalanche mix so adjacent indices give
   statistically independent streams. *)
let mix64 z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split_seed seed i =
  mix64 (Int64.add seed (Int64.mul (Int64.of_int (i + 1)) 0x9E3779B97F4A7C15L))

(* ---------- sealed-task flag ---------- *)

let in_task_key = Domain.DLS.new_key (fun () -> ref false)
let in_task () = !(Domain.DLS.get in_task_key)

let sealed f =
  let cell = Domain.DLS.get in_task_key in
  let saved = !cell in
  cell := true;
  Fun.protect ~finally:(fun () -> cell := saved) f

(* ---------- worker pool ---------- *)

type batch = { b_run : int -> unit; b_n : int; b_next : int Atomic.t; b_done : int Atomic.t }

type pool = {
  mu : Mutex.t;
  work_cv : Condition.t;
  done_cv : Condition.t;
  mutable seq : int;  (* bumped per batch so sleeping workers can tell old from new *)
  mutable job : batch option;
  mutable shutdown : bool;
  mutable workers : unit Domain.t list;
}

let pool =
  {
    mu = Mutex.create ();
    work_cv = Condition.create ();
    done_cv = Condition.create ();
    seq = 0;
    job = None;
    shutdown = false;
    workers = [];
  }

(* Claim-and-run until the batch is drained. [b_run] never raises (the
   submitter wraps the user task); the finishing increment of [b_done]
   is the publication point for that task's result slot. *)
let drain b =
  let rec go () =
    let i = Atomic.fetch_and_add b.b_next 1 in
    if i < b.b_n then begin
      b.b_run i;
      if Atomic.fetch_and_add b.b_done 1 = b.b_n - 1 then begin
        Mutex.lock pool.mu;
        Condition.broadcast pool.done_cv;
        Mutex.unlock pool.mu
      end;
      go ()
    end
  in
  go ()

let rec worker_loop last =
  Mutex.lock pool.mu;
  while pool.seq = last && not pool.shutdown do
    Condition.wait pool.work_cv pool.mu
  done;
  if pool.shutdown then Mutex.unlock pool.mu
  else begin
    let seq = pool.seq in
    let b = pool.job in
    Mutex.unlock pool.mu;
    (match b with Some b -> drain b | None -> ());
    worker_loop seq
  end

let ensure_workers n =
  let n = min n max_workers in
  Mutex.lock pool.mu;
  let have = List.length pool.workers in
  let missing = n - have in
  if missing > 0 && not pool.shutdown then begin
    let seq = pool.seq in
    for _ = 1 to missing do
      pool.workers <- Domain.spawn (fun () -> worker_loop seq) :: pool.workers
    done
  end;
  Mutex.unlock pool.mu

let () =
  at_exit (fun () ->
      Mutex.lock pool.mu;
      pool.shutdown <- true;
      Condition.broadcast pool.work_cv;
      let ws = pool.workers in
      pool.workers <- [];
      Mutex.unlock pool.mu;
      List.iter Domain.join ws)

let submit_and_join b =
  Mutex.lock pool.mu;
  pool.seq <- pool.seq + 1;
  pool.job <- Some b;
  Condition.broadcast pool.work_cv;
  Mutex.unlock pool.mu;
  (* The submitter is a worker too. *)
  drain b;
  Mutex.lock pool.mu;
  while Atomic.get b.b_done < b.b_n do
    Condition.wait pool.done_cv pool.mu
  done;
  pool.job <- None;
  Mutex.unlock pool.mu

(* ---------- ordered join ---------- *)

(* Strict left-to-right sequential evaluation ([Array.init] order is
   unspecified): the reference schedule every parallel run must
   match. *)
let run_seq n f =
  let results = Array.make n None in
  for i = 0 to n - 1 do
    results.(i) <- Some (f i)
  done;
  Array.map Option.get results

let run ?domains:darg n f =
  let d = match darg with Some d -> d | None -> domains () in
  if n <= 0 then [||]
  else if d <= 1 || n = 1 || in_task () then run_seq n f
  else begin
    let results = Array.make n None in
    let errors = Array.make n None in
    let scopes = Array.init n (fun _ -> Metrics.fresh_scope ()) in
    let b_run i =
      match Metrics.with_scope scopes.(i) (fun () -> sealed (fun () -> f i)) with
      | v -> results.(i) <- Some v
      | exception e -> errors.(i) <- Some e
    in
    ensure_workers (min d n - 1);
    submit_and_join
      { b_run; b_n = n; b_next = Atomic.make 0; b_done = Atomic.make 0 };
    Array.iter Metrics.absorb scopes;
    (* Lowest-index failure first: the same exception a sequential
       left-to-right loop would have raised. *)
    Array.iter (function Some e -> raise e | None -> ()) errors;
    Array.map Option.get results
  end
