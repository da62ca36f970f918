module Disk = Histar_disk.Disk
module Metrics = Histar_metrics.Metrics
module Par = Histar_par.Par

(* Sweep cells actually checked (one per crash index), so sweep
   throughput can be watched. *)
let m_cells = Metrics.counter "crash_sweep.cells"

type mode = [ `Fork | `Replay ]

type instance = {
  disk : Disk.t;
  run : unit -> unit;
  check : crashed:bool -> Disk.t -> unit;
  snapshot : unit -> unit -> unit;
}

type t = { name : string; mk : int64 -> instance }

type report = {
  workload : string;
  total_writes : int;
  points : int;
  wall_seconds : float;
}

let cells_per_sec r =
  if r.wall_seconds <= 0.0 then infinity
  else float_of_int r.points /. r.wall_seconds

let pp_report fmt r =
  Format.fprintf fmt "%s: %d crash points over %d media writes" r.workload
    r.points r.total_writes

let replay_filter name =
  match Stdlib.Sys.getenv_opt "HISTAR_CHECK_WORKLOAD" with
  | Some w when w <> "" && w <> name -> `Skip
  | _ -> (
      match Stdlib.Sys.getenv_opt "HISTAR_CHECK_CRASH_INDEX" with
      | Some s when s <> "" -> (
          match int_of_string_opt s with
          | Some i -> `Only i
          | None ->
              invalid_arg ("HISTAR_CHECK_CRASH_INDEX: cannot parse " ^ s))
      | _ -> `All)

(* Evenly-strided sample of [n] indices from [0, total), endpoints
   included. *)
let strided ~total ~n =
  if total <= n then List.init total Fun.id
  else
    List.init n (fun i -> i * (total - 1) / (n - 1))
    |> List.sort_uniq Int.compare

(* Sweep cells and the replay oracle raise the same replayable
   falsification, so a failure reproduces with the single-index env
   knobs. *)
let falsify w ~seed ~total i e =
  raise
    (Check.Falsified
       (Printf.sprintf
          "crash sweep '%s': invariant violation at crash index %d of %d \
           (seed 0x%LX)\n\
           cause: %s\n\
           replay: HISTAR_CHECK_SEED=0x%LX HISTAR_CHECK_WORKLOAD=%s \
           HISTAR_CHECK_CRASH_INDEX=%d dune runtest"
          w.name i total seed
          (match e with Failure m -> m | e -> Printexc.to_string e)
          seed w.name i))

(* The replay oracle's media: a fresh instance re-runs the whole
   workload with a crash scheduled after [i] media writes. *)
let replay_crash w ~seed i =
  let inst = w.mk seed in
  Disk.set_crash_after_writes inst.disk i;
  (match inst.run () with () -> () | exception Disk.Crashed -> ());
  let crashed = Disk.crashed inst.disk in
  let disk = if crashed then Disk.reopen_after_crash inst.disk else inst.disk in
  (inst, crashed, disk)

let replay_cell w ~seed ~total i =
  let inst, crashed, disk = replay_crash w ~seed i in
  try inst.check ~crashed disk with e -> falsify w ~seed ~total i e

(* Sweep cell: the state at crash index [i] was captured during the
   single clean run (an O(1) media snapshot plus the workload's own
   model capture); branch a disk off it and check. *)
let fork_one w inst ~seed ~total snaps i =
  if i < 0 || i >= Array.length snaps then
    invalid_arg
      (Printf.sprintf "crash sweep '%s': crash index %d out of [0, %d)" w.name
         i (Array.length snaps));
  let media, restore_model = snaps.(i) in
  restore_model ();
  let disk = Disk.restore media ~clock:(Histar_util.Sim_clock.create ()) in
  Metrics.Counter.incr m_cells;
  try inst.check ~crashed:true disk with e -> falsify w ~seed ~total i e

(* A clean run that captures, before every media sector write, the
   media snapshot and a model-state restore thunk. Returns the
   instance, the captures (index [i] = state a crash at write [i]
   leaves), and the total write count. The clean run is checked too. *)
let clean_run_with_captures w ~seed =
  let inst = w.mk seed in
  let snaps = ref [] in
  let capture () = snaps := (Disk.snapshot inst.disk, inst.snapshot ()) :: !snaps in
  Disk.set_pre_write_hook inst.disk (Some capture);
  inst.run ();
  Disk.set_pre_write_hook inst.disk None;
  let total = Disk.media_writes inst.disk in
  inst.check ~crashed:false inst.disk;
  let snaps = Array.of_list (List.rev !snaps) in
  assert (Array.length snaps = total);
  (inst, snaps, total)

(* Run [f] with the current metrics scope switched off, so the
   redundant per-chunk clean runs of a parallel fork sweep contribute
   nothing — the totals folded into the caller's scope stay
   byte-identical to the single-domain sweep. *)
let metrics_quiet f = Metrics.with_enabled false f

(* Contiguous split of [arr] into at most [d] nonempty chunks. Order is
   preserved, so the lowest falsifying index always lives in the
   lowest-numbered falsifying chunk — [Par.run]'s lowest-task-index
   re-raise therefore reproduces the sequential first failure. *)
let chunks_of d arr =
  let m = Array.length arr in
  let d = max 1 (min d m) in
  List.init d (fun k -> Array.sub arr (k * m / d) (((k + 1) * m / d) - (k * m / d)))
  |> List.filter (fun c -> Array.length c > 0)
  |> Array.of_list

let sweep ?domains ?seed:seed_arg ?(max_points = 64) ?full w =
  let seed = match seed_arg with Some s -> s | None -> Check.seed () in
  let full = match full with Some f -> f | None -> Check.full_mode () in
  let t0 = Stdlib.Sys.time () in
  let inst, snaps, total = clean_run_with_captures w ~seed in
  let indices =
    match replay_filter w.name with
    | `Skip -> [||]
    | `Only i -> [| i |]
    | `All ->
        Array.of_list
          (if full then List.init total Fun.id
           else strided ~total ~n:max_points)
  in
  (* Cells share an instance ([restore_model] mutates it), so
     parallelism is per contiguous chunk: chunk 0 reuses the clean run
     above, every other chunk deterministically rebuilds its own
     captures — silently, metrics-wise. *)
  let d =
    if Par.in_task () then 1
    else match domains with Some d -> d | None -> Par.domains ()
  in
  let chunks = chunks_of d indices in
  ignore
    (Par.run ?domains (Array.length chunks) (fun k ->
         let inst, snaps =
           if k = 0 then (inst, snaps)
           else
             let inst, snaps, _ =
               metrics_quiet (fun () -> clean_run_with_captures w ~seed)
             in
             (inst, snaps)
         in
         Array.iter (fork_one w inst ~seed ~total snaps) chunks.(k))
      : unit array);
  {
    workload = w.name;
    total_writes = total;
    points = Array.length indices;
    wall_seconds = Stdlib.Sys.time () -. t0;
  }

(* One cell's *recovery* work, metered: produce the crashed media at
   [index] by the given mode, then run the workload check with the
   metrics registry enabled only around it. Both modes must yield
   byte-identical metric diffs — the fork-vs-replay equivalence the
   tests pin down. *)
let recovery_metrics w ~seed ~index ~mode =
  let check inst ~crashed disk =
    (* The window reads the current scope, which on the pool is this
       task's own, so other tasks' work never shows in it. *)
    let before = Metrics.snapshot () in
    Metrics.with_enabled true (fun () -> inst.check ~crashed disk);
    Metrics.diff ~before ~after:(Metrics.snapshot ())
  in
  match mode with
  | `Replay ->
      let inst, crashed, disk = replay_crash w ~seed index in
      if not crashed then
        invalid_arg
          (Printf.sprintf "crash sweep '%s': index %d never reached" w.name
             index);
      check inst ~crashed disk
  | `Fork ->
      let inst, snaps, total = clean_run_with_captures w ~seed in
      if index < 0 || index >= total then
        invalid_arg
          (Printf.sprintf "crash sweep '%s': index %d out of [0, %d)" w.name
             index total);
      let media, restore_model = snaps.(index) in
      restore_model ();
      let disk = Disk.restore media ~clock:(Histar_util.Sim_clock.create ()) in
      check inst ~crashed:true disk
