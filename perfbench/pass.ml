(* One pass in a forked child process. The library keeps process-global
   state between passes (interned labels, registries, heap that a full
   major collection does not return), so passes run in one process
   drift as the run goes on, and the drift depends on how many passes
   the host's speed allowed. Forking every pass from the same parent
   state makes pass k identical to pass 1: counts repeat exactly and
   only host time varies. The child reports a plain summary back over
   a pipe and appends its spans to the span file itself. *)

module Metrics = Histar_metrics.Metrics
module Label = Histar_label.Label
module Label_cache = Histar_core.Label_cache

type summary = {
  n : int;
  traced : bool;
  failed : int;
  ops_per_s : float;
  p50_us : float;
  tail_us : float;
  tail_pct : float;
  setup_s : float;
  wall_ns : int;
  virtual_ns : int64;
  alloc_words : float;
  major_words : float;
  top_heap_words : int;
  minor_gcs : int;
  major_gcs : int;
  counters : (string * int) list;  (** registry deltas (traced) *)
  syscalls : (string * int) list;  (** syscall profile deltas (traced) *)
  label_entries : int;
  extra : (string * float) list;
  algebra_ns : float;
  cache_ns : float;
  span_calls : int array;  (** per span id, measured phase *)
  span_self_ns : int array;
  span_alloc : float array;
  span_setup_ns : int array;  (** set-up spans, total duration *)
  samples : int array;  (** per ledger layer *)
  pauses : int array;  (** GC pause durations inside the measured phase *)
  lost_events : int;
}

let tail_beyond = 10

(* Replay the captured decisions through the §2 algebra and through a
   fresh label cache; ns per decision, median of five replays. *)
let label_probe (m : Meter.t) =
  match m.probe with
  | None -> (0.0, 0.0)
  | Some p when p.count = 0 -> (0.0, 0.0)
  | Some p ->
      let events = Array.of_list (List.rev p.events) in
      let time decide =
        Stats.median_f
          (Array.init 5 (fun _ ->
               let t0 = Stats.now_ns () in
               decide ();
               float_of_int (Stats.now_ns () - t0) /. float_of_int p.count))
      in
      Metrics.with_enabled false (fun () ->
          let algebra =
            time (fun () ->
                Array.iter
                  (fun (thread, obj, observe) ->
                    ignore
                      (Sys.opaque_identity
                         (if observe then Label.can_observe ~thread ~obj
                          else Label.can_modify ~thread ~obj)))
                  events)
          in
          let cache =
            time (fun () ->
                let c = Label_cache.create () in
                Array.iter
                  (fun (thread, obj, observe) ->
                    ignore
                      (Sys.opaque_identity
                         (if observe then Label_cache.observe c ~thread ~obj
                          else Label_cache.modify c ~thread ~obj)))
                  events)
          in
          (algebra, cache))

(* Self time and self allocation per span name over the measured phase;
   set-up spans (op index -1) by total duration. *)
let span_totals () =
  let b = Tracer.buf in
  let child_ns = Array.make b.n 0 and child_alloc = Array.make b.n 0.0 in
  for i = 0 to b.n - 1 do
    let p = b.parent.(i) in
    if p >= 0 then begin
      child_ns.(p) <- child_ns.(p) + (b.stop.(i) - b.start.(i));
      child_alloc.(p) <- child_alloc.(p) +. b.alloc.(i)
    end
  done;
  let nn = Array.length !Tracer.name_of in
  let calls = Array.make nn 0
  and self = Array.make nn 0
  and alloc = Array.make nn 0.0
  and setup = Array.make nn 0 in
  for i = 0 to b.n - 1 do
    let s = b.sid.(i) and dur = b.stop.(i) - b.start.(i) in
    if b.op.(i) >= 0 then begin
      calls.(s) <- calls.(s) + 1;
      self.(s) <- self.(s) + dur - child_ns.(i);
      alloc.(s) <- alloc.(s) +. b.alloc.(i) -. child_alloc.(i)
    end
    else setup.(s) <- setup.(s) + dur
  done;
  (calls, self, alloc, setup)

let summarize (m : Meter.t) =
  let srt = Stats.sorted m.op_ns in
  let tail, tail_pct = Stats.tail_sorted ~beyond:tail_beyond srt in
  let algebra_ns, cache_ns = label_probe m in
  let calls, self, alloc, setup = span_totals () in
  let counters =
    if m.traced then
      List.map (fun (k, _) -> (k, Meter.counter m k)) m.m1
      |> List.filter (fun (_, v) -> v <> 0)
    else []
  in
  {
    n = m.n;
    traced = m.traced;
    failed = m.failed;
    ops_per_s = float_of_int m.n /. (float_of_int (Meter.wall_ns m) /. 1e9);
    p50_us = float_of_int (Stats.quantile_sorted srt 0.5) /. 1e3;
    tail_us = float_of_int tail /. 1e3;
    tail_pct;
    setup_s = float_of_int (Meter.setup_ns m) /. 1e9;
    wall_ns = Meter.wall_ns m;
    virtual_ns = m.virtual_ns;
    alloc_words = Meter.alloc_words m;
    major_words = Meter.major_words m;
    top_heap_words = m.gc1.Gc.top_heap_words;
    minor_gcs = m.gc1.Gc.minor_collections - m.gc0.Gc.minor_collections;
    major_gcs = m.gc1.Gc.major_collections - m.gc0.Gc.major_collections;
    counters;
    syscalls = m.syscalls;
    label_entries = m.label_entries;
    extra = m.extra;
    algebra_ns;
    cache_ns;
    span_calls = calls;
    span_self_ns = self;
    span_alloc = alloc;
    span_setup_ns = setup;
    samples = Array.copy Tracer.samples;
    pauses = Array.of_list (Tracer.pauses_within m.t0 m.t1);
    lost_events = !Tracer.lost;
  }

(* The child's side: run the pass, traced or not, and summarize it. *)
let measure (w : Workloads.workload) ~seed ~traced ~probe ~span_file =
  let m = Meter.create ~n:w.ops ~traced ~probe in
  if traced then begin
    Tracer.on := true;
    Metrics.set_enabled true;
    Tracer.start_gc_events ();
    Tracer.start_sampler ()
  end;
  w.run ~seed m;
  if traced then begin
    Tracer.stop_sampler ();
    Tracer.poll_gc ();
    Tracer.on := false;
    Metrics.set_enabled false;
    Tracer.append_spans ~path:span_file ~workload:w.name
  end;
  summarize m

(* A pass whose child died without reporting: every op failed. *)
let lost_pass (w : Workloads.workload) ~traced =
  {
    n = w.ops; traced; failed = w.ops; ops_per_s = 0.0; p50_us = 0.0; tail_us = 0.0;
    tail_pct = 0.0; setup_s = 0.0; wall_ns = 0; virtual_ns = 0L; alloc_words = 0.0;
    major_words = 0.0; top_heap_words = 0; minor_gcs = 0; major_gcs = 0; counters = [];
    syscalls = []; label_entries = 0; extra = []; algebra_ns = 0.0; cache_ns = 0.0;
    span_calls = [||]; span_self_ns = [||]; span_alloc = [||]; span_setup_ns = [||];
    samples = Array.make (Array.length Tracer.layers) 0; pauses = [||]; lost_events = 0;
  }

let run (w : Workloads.workload) ~seed ~traced ~probe ~span_file =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let code =
        match measure w ~seed ~traced ~probe ~span_file with
        | s ->
            let oc = Unix.out_channel_of_descr wr in
            Marshal.to_channel oc (s : summary) [];
            close_out oc;
            0
        | exception e ->
            Printf.eprintf "perfbench: %s pass failed: %s\n%!" w.name
              (Printexc.to_string e);
            1
      in
      exit code
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let s = try Some (Marshal.from_channel ic : summary) with End_of_file -> None in
      close_in ic;
      let _, status = Unix.waitpid [] pid in
      (match (s, status) with
      | Some s, Unix.WEXITED 0 -> s
      | _ -> lost_pass w ~traced)
