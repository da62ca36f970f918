(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (§7) on the simulated substrate, plus the code
   inventory and the §1 attack matrix. The figures' HiStar side runs
   the Runner workloads that the --smoke/--bench trajectory runs, at
   the figure's counts. See DESIGN.md for the experiment index and
   EXPERIMENTS.md for recorded paper-vs-measured results.

   Usage:
     main.exe                     run everything (human-readable tables)
     main.exe f12-ipc f13-wget    run selected experiments
     main.exe --quick             each figure at its small sizes
     main.exe --smoke             deterministic runner, minimal sizes,
                                  writes BENCH_baseline.json
     main.exe --bench             deterministic runner, full sizes
     main.exe --out FILE          output path for --smoke/--bench
     main.exe --validate-bench F  validate a BENCH_*.json against the
                                  schema; exit nonzero on mismatch *)

open Histar_bench

(* Each experiment takes [quick], which picks the small sizes of the
   figures that have them. *)
let experiments =
  [
    ("f12-ipc", "IPC / fork / exec / spawn microbenchmarks",
     fun _ -> F12_micro.run F12_micro.sizes);
    ("f12-lfs", "LFS small- and large-file benchmarks",
     fun quick -> F12_lfs.run (if quick then F12_lfs.quick else F12_lfs.full));
    ("f13-apps", "kernel build, wget, ClamAV",
     fun quick -> F13_apps.run (if quick then F13_apps.quick else F13_apps.full));
    ("t-codesize", "code-size inventory (§4.1)", fun _ -> Tables.codesize ());
    ("ablation", "design-choice ablations (log batching, label cache, barrier)",
     fun _ -> Ablation.run ());
    ("sec-attacks", "§1 leak-vector matrix vs Unix", fun _ -> Tables.attacks ());
  ]

let aliases =
  [
    ("f12-forkexec", "f12-ipc");
    ("f12-spawn", "f12-ipc");
    ("t-syscalls", "f12-ipc");
    ("f12-lfs-small", "f12-lfs");
    ("f12-lfs-large", "f12-lfs");
    ("f13-build", "f13-apps");
    ("f13-wget", "f13-apps");
    ("f13-clamav", "f13-apps");
  ]

let usage () =
  print_endline
    "usage: main.exe [--quick] [experiment ...]\n\
    \       main.exe --smoke | --bench [--out FILE]\n\
    \       main.exe --validate-bench FILE";
  print_endline "experiments:";
  List.iter (fun (n, d, _) -> Printf.printf "  %-14s %s\n" n d) experiments;
  List.iter (fun (a, t) -> Printf.printf "  %-14s alias for %s\n" a t) aliases

let default_out = "BENCH_baseline.json"

(* Run the deterministic runner; a workload that traps names itself on
   stderr and fails the process. *)
let run_bench ~size ~out =
  match Runner.run_suite ~size () with
  | json ->
      (match Runner.validate json with
      | Ok () -> ()
      | Error e ->
          Printf.eprintf "bench: generated trajectory is schema-invalid: %s\n" e;
          exit 1);
      Runner.write_file ~path:out json;
      Printf.printf "wrote %s (%s sizes, %d workloads)\n" out
        (Runner.size_to_string size)
        (List.length Runner.workload_names)
  | exception Runner.Workload_failed (name, e) ->
      Printf.eprintf "bench: workload %s failed: %s\n" name
        (Printexc.to_string e);
      exit 1

let validate_bench path =
  match Runner.read_file path with
  | exception Sys_error e ->
      Printf.eprintf "bench: cannot read %s: %s\n" path e;
      exit 1
  | exception Histar_metrics.Json.Parse_error e ->
      Printf.eprintf "bench: %s is not JSON: %s\n" path e;
      exit 1
  | json -> (
      match Runner.validate json with
      | Ok () -> Printf.printf "%s: schema ok\n" path
      | Error e ->
          Printf.eprintf "bench: %s fails schema: %s\n" path e;
          exit 1)

let rec parse_out = function
  | "--out" :: path :: _ -> Some path
  | _ :: rest -> parse_out rest
  | [] -> None

let () =
  let args = List.tl (Array.to_list Stdlib.Sys.argv) in
  let out = Option.value (parse_out args) ~default:default_out in
  match args with
  | _ when List.mem "--help" args -> usage ()
  | _ when List.mem "--smoke" args -> run_bench ~size:Runner.Smoke ~out
  | _ when List.mem "--bench" args -> run_bench ~size:Runner.Full ~out
  | "--validate-bench" :: path :: _ -> validate_bench path
  | _ ->
      let quick = List.mem "--quick" args in
      let selected =
        List.filter_map
          (fun a ->
            if String.length a >= 2 && String.sub a 0 2 = "--" then None
            else
              match List.assoc_opt a aliases with
              | Some t -> Some t
              | None ->
                  if List.exists (fun (n, _, _) -> n = a) experiments then
                    Some a
                  else begin
                    Printf.eprintf "unknown experiment: %s\n" a;
                    usage ();
                    exit 1
                  end)
          args
        |> List.sort_uniq compare
      in
      let to_run =
        if selected = [] then List.map (fun (n, _, _) -> n) experiments
        else selected
      in
      print_endline
        "HiStar reproduction benchmarks — times are simulated (virtual-clock)";
      print_endline
        "unless marked otherwise; see EXPERIMENTS.md for methodology.";
      List.iter
        (fun name ->
          let _, _, f = List.find (fun (n, _, _) -> n = name) experiments in
          f quick)
        to_run
