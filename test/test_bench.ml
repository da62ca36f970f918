(* Tier-1 coverage for the deterministic benchmark runner: every §7
   workload runs at smoke size, the emitted trajectory is
   schema-valid, bit-identical across runs and job counts (modulo
   wall_ms), and equal to the committed BENCH_baseline.json. *)

module Runner = Histar_bench.Runner
module F12_micro = Histar_bench.F12_micro
module F12_lfs = Histar_bench.F12_lfs
module F13_apps = Histar_bench.F13_apps
module Metrics = Histar_metrics.Metrics
module Json = Histar_metrics.Json
module Par = Histar_par.Par
module Kernel = Histar_core.Kernel
module Sys_h = Histar_core.Sys

(* Each workload at minimal size, individually, so a trap names the
   workload that caused it. *)
let test_workloads_smoke () =
  List.iter
    (fun (name, _descr, f) ->
      Metrics.set_enabled true;
      Metrics.reset ();
      Fun.protect
        ~finally:(fun () -> Metrics.set_enabled false)
        (fun () ->
          match f Runner.Smoke with
          | ns ->
              if ns < 0 then
                Alcotest.failf "workload %s: negative virtual time" name
          | exception e ->
              Alcotest.failf "workload %s failed: %s" name
                (Printexc.to_string e)))
    Runner.workloads

(* One smoke run shared by the tests that only read the trajectory. *)
let smoke = lazy (Runner.run_suite ~size:Runner.Smoke ())

let test_suite_validates () =
  let json = Lazy.force smoke in
  (match Runner.validate json with
  | Ok () -> ()
  | Error e -> Alcotest.failf "generated trajectory fails schema: %s" e);
  (* the spine counters must be present for every workload, and the
     suite must cover every registered workload *)
  match Json.member "workloads" json with
  | Some (Json.List ws) ->
      Alcotest.(check int)
        "all workloads present"
        (List.length Runner.workload_names)
        (List.length ws);
      List.iter
        (fun w ->
          let counters = Option.get (Json.member "counters" w) in
          List.iter
            (fun k ->
              match Json.member k counters with
              | Some (Json.Int v) when v >= 0 -> ()
              | _ -> Alcotest.failf "missing required counter %s" k)
            Runner.required_counters)
        ws
  | _ -> Alcotest.fail "missing workloads array"

let test_validate_rejects_tampering () =
  let json = Lazy.force smoke in
  let expect_error mutate what =
    match Runner.validate (mutate json) with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "validate accepted %s" what
  in
  let replace k v = function
    | Json.Obj fields ->
        Json.Obj (List.map (fun (k', v') -> if k' = k then (k, v) else (k', v')) fields)
    | j -> j
  in
  expect_error (replace "schema_version" (Json.Int 999)) "bad schema_version";
  expect_error (replace "suite" (Json.Str "other")) "bad suite name";
  expect_error (replace "size" (Json.Str "huge")) "bad size";
  expect_error (replace "workloads" (Json.List [])) "empty workloads";
  (* drop a required counter from the first workload *)
  expect_error
    (fun j ->
      match Json.member "workloads" j with
      | Some (Json.List (w :: rest)) ->
          let w' =
            match w with
            | Json.Obj fields ->
                Json.Obj
                  (List.map
                     (fun (k, v) ->
                       if k = "counters" then
                         match v with
                         | Json.Obj cs ->
                             ( k,
                               Json.Obj
                                 (List.filter
                                    (fun (ck, _) -> ck <> "kernel.syscalls")
                                    cs) )
                         | _ -> (k, v)
                       else (k, v))
                     fields)
            | _ -> w
          in
          replace "workloads" (Json.List (w' :: rest)) j
      | _ -> j)
    "missing required counter"

(* The label-cache acceptance bar from the IPC workload: repeat
   (thread, object) decisions hit the kernel's cache, so full lattice
   comparisons stay well below one per syscall and the elided counter
   is hot. *)
let test_ipc_elision_ratio () =
  let _, _, f =
    List.find (fun (n, _, _) -> n = "ipc-pingpong") Runner.workloads
  in
  Metrics.set_enabled true;
  Metrics.reset ();
  Fun.protect
    ~finally:(fun () -> Metrics.set_enabled false)
    (fun () ->
      ignore (f Runner.Smoke);
      let checks = Metrics.counter_value "label.checks" in
      let elided = Metrics.counter_value "label.elided" in
      let syscalls = Metrics.counter_value "kernel.syscalls" in
      Alcotest.(check bool)
        "elision fired on the gate IPC path" true (elided > 0);
      let ratio = float_of_int checks /. float_of_int syscalls in
      if ratio >= 1.2 then
        Alcotest.failf
          "full label checks per syscall regressed: checks=%d syscalls=%d \
           (%.3f per syscall, elided=%d)"
          checks syscalls ratio elided)

let test_suite_deterministic () =
  let j1 = Lazy.force smoke in
  let j2 = Runner.run_suite ~size:Runner.Smoke () in
  Alcotest.(check string)
    "trajectories identical modulo wall_ms"
    (Json.to_string (Runner.strip_wall j1))
    (Json.to_string (Runner.strip_wall j2))

(* No workload consults the lib/par pool: the trajectory (minus
   wall_ms) run with 4 pool domains configured must be byte-identical
   to the one run with the default. *)
let test_suite_domains_identical () =
  let run () =
    Json.to_string (Runner.strip_wall (Runner.run_suite ~size:Runner.Smoke ()))
  in
  let ref_j = run () in
  let saved = Par.domains () in
  Par.set_domains 4;
  let wide = Fun.protect ~finally:(fun () -> Par.set_domains saved) run in
  Alcotest.(check string) "trajectory identical at 4 domains" ref_j wide

(* Pin the comparison contract itself: wall_ms is present in the raw
   trajectory (it is informational) and completely absent once
   [strip_wall] normalizes it — wall-clock can never leak into a
   baseline diff. *)
let test_wall_ms_excluded () =
  let json = Lazy.force smoke in
  let contains ~needle haystack =
    let n = String.length needle and h = String.length haystack in
    let rec go i =
      i + n <= h && (String.sub haystack i n = needle || go (i + 1))
    in
    n = 0 || go 0
  in
  Alcotest.(check bool)
    "raw trajectory carries wall_ms" true
    (contains ~needle:"wall_ms" (Json.to_string json));
  Alcotest.(check bool)
    "stripped trajectory has no wall_ms" false
    (contains ~needle:"wall_ms" (Json.to_string (Runner.strip_wall json)))

(* ---------- the committed baseline ---------- *)

(* [dune runtest] runs this from _build/default/test, where the stanza's
   deps put the baseline one level up; [dune exec] runs it from the
   repo root. *)
let baseline_path =
  if Sys.file_exists "../BENCH_baseline.json" then "../BENCH_baseline.json"
  else "BENCH_baseline.json"

let committed = lazy (Runner.read_file baseline_path)

let workloads json =
  match Json.member "workloads" json with
  | Some (Json.List ws) -> ws
  | _ -> Alcotest.fail "missing workloads array"

let name_of w =
  match Json.member "name" w with Some (Json.Str n) -> n | _ -> "?"

(* The committed baseline is the simulated behaviour to keep: every
   counter and virtual_ns of a fresh smoke run must equal it. A change
   that moves one on purpose regenerates the file with
   [main.exe --smoke] and says why. *)
let test_matches_baseline () =
  let fresh = Runner.strip_wall (Lazy.force smoke) in
  let base = Runner.strip_wall (Lazy.force committed) in
  let differing =
    List.filter_map
      (fun w ->
        let n = name_of w in
        match List.find_opt (fun b -> name_of b = n) (workloads base) with
        | Some b when Json.to_string b = Json.to_string w -> None
        | Some _ | None -> Some n)
      (workloads fresh)
  in
  if differing <> [] then
    Alcotest.failf "smoke trajectory differs from %s in: %s" baseline_path
      (String.concat ", " differing);
  Alcotest.(check string)
    "smoke trajectory equals the committed baseline" (Json.to_string base)
    (Json.to_string fresh)

let test_baseline_validates () =
  match Runner.validate (Lazy.force committed) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s fails schema: %s" baseline_path e

(* Adding app nodes must shorten the makespan. The 16-node cell runs a
   different mix (zipfian over 8 users, concurrency 16), so it is only
   held to stay under the 8-node cell. *)
let test_cluster_scaling () =
  let makespan nodes =
    let name = Printf.sprintf "dist-cluster-%d" nodes in
    match
      List.find_opt (fun w -> name_of w = name) (workloads (Lazy.force committed))
    with
    | Some w -> (
        match Json.member "virtual_ns" w with
        | Some (Json.Int ns) -> ns
        | _ -> Alcotest.failf "%s: no virtual_ns" name)
    | None -> Alcotest.failf "%s missing from %s" name baseline_path
  in
  let rec decreasing = function
    | a :: (b :: _ as rest) ->
        if makespan a <= makespan b then
          Alcotest.failf "dist-cluster-%d (%d ns) not slower than -%d (%d ns)"
            a (makespan a) b (makespan b);
        decreasing rest
    | [ _ ] | [] -> ()
  in
  decreasing [ 1; 2; 4; 8; 16 ]

(* ---------- the §7 figures ---------- *)

(* The §7.1 table through the shared workloads at the figure's sizes:
   syscalls per IPC round trip and per /bin/true cycle, as
   [main.exe f12-ipc] prints them. Exact totals, so a single extra
   syscall anywhere in a measured phase fails. *)
let test_syscall_table () =
  let { F12_micro.rtts; iters } = F12_micro.sizes in
  let ipc = Runner.ipc_pingpong ~rtts in
  let cycle use_spawn = Runner.proc_cycle ~use_spawn ~iters in
  let fork_exec = cycle false and spawn = cycle true in
  Alcotest.(check int) "46 syscalls per IPC RTT" (46 * rtts) ipc.syscalls;
  Alcotest.(check int) "74 syscalls per fork/exec cycle" (74 * iters)
    fork_exec.syscalls;
  Alcotest.(check int) "38 syscalls per spawn cycle" (38 * iters)
    spawn.syscalls

(* Every figure's table once at tiny sizes, so the figure code itself
   stays exercised. *)
let test_figures_tiny () =
  F12_micro.run { F12_micro.rtts = 20; iters = 2 };
  F12_lfs.run { F12_lfs.files = 5; large_mb = 1; rand_writes = 5 };
  F13_apps.run
    { F13_apps.build_files = 1; wget_bytes = 64 * 1024; scan_bytes = 64 * 1024 }

(* ---------- instrumentation ---------- *)

let syscall_microbench n =
  let k = Kernel.create () in
  let _tid =
    Kernel.spawn k ~name:"spin" (fun () ->
        for _ = 1 to n do
          Sys_h.yield ()
        done)
  in
  Kernel.run k

(* With the registry enabled, the instrumented syscall path must
   actually report: syscall count and summed latency. *)
let test_instrumentation_reports () =
  Metrics.set_enabled true;
  Metrics.reset ();
  Fun.protect
    ~finally:(fun () -> Metrics.set_enabled false)
    (fun () ->
      syscall_microbench 100;
      let syscalls = Metrics.counter_value "kernel.syscalls" in
      Alcotest.(check bool)
        "kernel.syscalls counted" true (syscalls >= 100);
      Alcotest.(check bool)
        "kernel.syscall_ns_sum counted" true
        (Metrics.counter_value "kernel.syscall_ns_sum" > 0))

let () =
  Alcotest.run "histar_bench"
    [
      ( "overhead",
        [
          Alcotest.test_case "instrumented path reports" `Quick
            test_instrumentation_reports;
        ] );
      ( "runner",
        [
          Alcotest.test_case "all workloads run at smoke size" `Quick
            test_workloads_smoke;
          Alcotest.test_case "trajectory is schema-valid" `Quick
            test_suite_validates;
          Alcotest.test_case "validation rejects tampering" `Quick
            test_validate_rejects_tampering;
          Alcotest.test_case "trajectory is deterministic" `Quick
            test_suite_deterministic;
          Alcotest.test_case "trajectory identical across domains" `Quick
            test_suite_domains_identical;
          Alcotest.test_case "wall_ms excluded from comparisons" `Quick
            test_wall_ms_excluded;
          Alcotest.test_case "gate IPC elision ratio" `Quick
            test_ipc_elision_ratio;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "smoke run equals BENCH_baseline.json" `Quick
            test_matches_baseline;
          Alcotest.test_case "committed baseline is schema-valid" `Quick
            test_baseline_validates;
          Alcotest.test_case "cluster makespan falls 1>2>4>8>16 nodes" `Quick
            test_cluster_scaling;
        ] );
      ( "figures",
        [
          Alcotest.test_case "§7.1 syscall table at figure sizes" `Quick
            test_syscall_table;
          Alcotest.test_case "every figure runs at tiny sizes" `Quick
            test_figures_tiny;
        ] );
    ]
