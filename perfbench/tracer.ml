(* The traced run's instruments: spans around the benchmark's calls into
   each layer, a SIGPROF call-stack sampler that charges CPU time to the
   library directory the innermost repo frame belongs to, and GC pauses
   read back from [Runtime_events]. Everything is kept in memory and
   written out when the pass ends. With [on] false every entry point is
   one branch, so the measured run pays nothing for it. *)

let on = ref false

(* ---------- spans ---------- *)

let names : (string, int) Hashtbl.t = Hashtbl.create 16
let name_of = ref [||]

let intern name =
  match Hashtbl.find_opt names name with
  | Some i -> i
  | None ->
      let i = Hashtbl.length names in
      Hashtbl.add names name i;
      name_of := Array.append !name_of [| name |];
      i

let span_name i = !name_of.(i)

type spans = {
  mutable n : int;
  mutable sid : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable op : int array;
  mutable alloc : float array;
}

let cap = 2_000_000
let buf = { n = 0; sid = [||]; start = [||]; stop = [||]; parent = [||]; op = [||]; alloc = [||] }
let open_stack = Array.make 64 (-1)
let depth = ref 0
let cur_op = ref (-1)

let grow b =
  let len = max 1024 (2 * Array.length b.sid) in
  let ext a fill =
    let a' = Array.make len fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  in
  b.sid <- ext b.sid 0;
  b.start <- ext b.start 0;
  b.stop <- ext b.stop 0;
  b.parent <- ext b.parent (-1);
  b.op <- ext b.op (-1);
  b.alloc <- ext b.alloc 0.0

let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let enter sid =
  if !on && buf.n < cap && !depth < Array.length open_stack then begin
    if buf.n = Array.length buf.sid then grow buf;
    let i = buf.n in
    buf.n <- i + 1;
    buf.sid.(i) <- sid;
    buf.parent.(i) <- (if !depth > 0 then open_stack.(!depth - 1) else -1);
    buf.op.(i) <- !cur_op;
    open_stack.(!depth) <- i;
    incr depth;
    buf.alloc.(i) <- allocated ();
    buf.start.(i) <- Stats.now_ns ();
    i
  end
  else -1

let exit i =
  if i >= 0 then begin
    buf.stop.(i) <- Stats.now_ns ();
    buf.alloc.(i) <- allocated () -. buf.alloc.(i);
    decr depth
  end

let span sid f =
  let s = enter sid in
  Fun.protect ~finally:(fun () -> exit s) f

(* ---------- call-stack sampler ---------- *)

(* The layers of the ledger, named after the library directories. Frames
   in the standard library, lib/util and the block cipher are charged to
   the first repo frame further out, so a Hashtbl lookup inside the label
   memo counts as label time, and the cipher as kernel time when it
   mints category names and as dist time when it seals wire names. *)
let layers =
  [| "label"; "kernel"; "unixlib"; "store"; "wal"; "btree"; "disk"; "net";
     "dist"; "metrics"; "bench"; "other" |]

let layer_index name =
  let rec go i = if layers.(i) = name then i else go (i + 1) in
  go 0

let other = layer_index "other"

let classify_file f =
  let rules =
    [
      ("lib/core/label_cache", "label"); ("lib/label/", "label");
      ("lib/core/", "kernel"); ("lib/unixlib/", "unixlib");
      ("lib/store/", "store"); ("lib/wal/", "wal"); ("lib/btree/", "btree");
      ("lib/disk/", "disk"); ("lib/net/", "net"); ("lib/dist/", "dist");
      ("lib/crypto/category_gen", "kernel"); ("lib/crypto/", "dist");
      ("lib/par/", "dist");
      ("lib/apps/webcluster", "dist"); ("lib/metrics/", "metrics");
      ("perfbench/", "bench");
    ]
  in
  (* The sampler's own frames sit on top of every sample. *)
  if f = "perfbench/tracer.ml" || f = "lib/crypto/block_cipher.ml" then None
  else
    (* Slot file names are relative to the workspace root. *)
    match List.find_opt (fun (prefix, _) -> String.starts_with ~prefix f) rules with
    | Some (_, l) -> Some (layer_index l)
    | None -> None

(* Classification per raw frame, cached: the frame's inlined slots are
   scanned innermost first. *)
let frame_cache : (Printexc.raw_backtrace_entry, int) Hashtbl.t =
  Hashtbl.create 1024

let classify_entry e =
  match Hashtbl.find_opt frame_cache e with
  | Some l -> l
  | None ->
      let l =
        match Printexc.backtrace_slots_of_raw_entry e with
        | None -> -1
        | Some slots ->
            Array.fold_left
              (fun acc s ->
                if acc >= 0 then acc
                else
                  match Printexc.Slot.location s with
                  | None -> -1
                  | Some loc -> (
                      match classify_file loc.Printexc.filename with
                      | Some l -> l
                      | None -> -1))
              (-1) slots
      in
      Hashtbl.add frame_cache e l;
      l

let samples = Array.make (Array.length layers) 0
let sampling = ref false

let sample () =
  let es = Printexc.raw_backtrace_entries (Printexc.get_callstack 64) in
  let rec go i =
    if i >= Array.length es then other
    else
      let l = classify_entry es.(i) in
      if l >= 0 then l else go (i + 1)
  in
  let l = go 0 in
  samples.(l) <- samples.(l) + 1

(* The kernel rounds the interval up to its scheduler tick (4 ms on a
   250 Hz kernel); the sample count says what was achieved. *)
let sample_period_s = 0.001

let start_sampler () =
  Stdlib.Sys.set_signal Stdlib.Sys.sigprof
    (Stdlib.Sys.Signal_handle (fun _ -> if !sampling then sample ()));
  ignore
    (Unix.setitimer Unix.ITIMER_PROF
       { Unix.it_interval = sample_period_s; it_value = sample_period_s })

let stop_sampler () =
  ignore
    (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.0; it_value = 0.0 });
  Stdlib.Sys.set_signal Stdlib.Sys.sigprof Stdlib.Sys.Signal_ignore

(* ---------- GC pauses ---------- *)

(* A pause runs from the runtime entering one of these phases at depth
   zero to it leaving the last of them; nested phases merge. *)
let pause_phase = function
  | Runtime_events.EV_MINOR | EV_MAJOR_SLICE | EV_MAJOR | EV_STW_LEADER
  | EV_STW_HANDLER | EV_EXPLICIT_GC_MINOR | EV_EXPLICIT_GC_MAJOR
  | EV_EXPLICIT_GC_FULL_MAJOR | EV_EXPLICIT_GC_COMPACT
  | EV_EXPLICIT_GC_MAJOR_SLICE ->
      true
  | _ -> false

let pauses = ref []  (* (start ns, duration ns), newest first *)
let gc_depth = ref 0
let gc_begin = ref 0
let lost = ref 0
let cursor = ref None

let callbacks =
  lazy
    (Runtime_events.Callbacks.create
       ~runtime_begin:(fun _ ts ph ->
         if pause_phase ph then begin
           if !gc_depth = 0 then
             gc_begin := Int64.to_int (Runtime_events.Timestamp.to_int64 ts);
           incr gc_depth
         end)
       ~runtime_end:(fun _ ts ph ->
         if pause_phase ph && !gc_depth > 0 then begin
           decr gc_depth;
           if !gc_depth = 0 then begin
             let t1 = Int64.to_int (Runtime_events.Timestamp.to_int64 ts) in
             pauses := (!gc_begin, t1 - !gc_begin) :: !pauses
           end
         end)
       ~lost_events:(fun _ n -> lost := !lost + n)
       ())

let start_gc_events () =
  Runtime_events.start ();
  cursor := Some (Runtime_events.create_cursor None)

let poll_gc () =
  if !on then
    match !cursor with
    | Some c -> ignore (Runtime_events.read_poll c (Lazy.force callbacks) None)
    | None -> ()

(* Durations of the pauses that fall inside [t0, t1]. *)
let pauses_within t0 t1 =
  List.filter_map (fun (s, d) -> if s >= t0 && s + d <= t1 then Some d else None) !pauses

(* ---------- operations ---------- *)

let op_sid = intern "op"

(* ---------- output ---------- *)

let span_header = "name\tstart_ns\tend_ns\tparent\tworkload\top\talloc_words\n"

(* Append this process's spans; [parent] indexes rows of the same
   process, which writes one contiguous block. *)
let append_spans ~path ~workload =
  let oc = open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      for i = 0 to buf.n - 1 do
        Printf.fprintf oc "%s\t%d\t%d\t%d\t%s\t%d\t%.0f\n"
          (span_name buf.sid.(i)) buf.start.(i) buf.stop.(i) buf.parent.(i)
          workload buf.op.(i) buf.alloc.(i)
      done)
