(* The `histar` command-line tool: boot a simulated HiStar machine and
   poke at it.

     dune exec bin/histar.exe -- info
     dune exec bin/histar.exe -- smoke
     dune exec bin/histar.exe -- ls [--depth N]

   `smoke` boots a full machine — store, kernel, Unix library, netd,
   authentication — and exercises one path through each subsystem.
   `ls` boots a machine with a small world and prints the container
   hierarchy with labels, the way an administrator would inspect it. *)

module Kernel = Histar_core.Kernel
module Sys_ = Histar_core.Sys
open Histar_core.Types
open Histar_unix
open Histar_label

let l1 = Label.make Level.L1

let show_info () =
  print_endline "HiStar (OSDI 2006) reproduction in OCaml";
  print_endline "";
  print_endline "kernel object types : segment, thread, address space, gate,";
  print_endline "                      container, device";
  print_endline "taint levels        : * < 0 < 1 < 2 < 3  (J in checks only)";
  print_endline "category space      : 61-bit names from a Feistel cipher";
  print_endline "store               : single-level, 3 B+-trees, WAL, snapshots";
  print_endline "user level          : fs, processes, pipes, signals, netd,";
  print_endline "                      authentication, wrap/scanner, VPN";
  print_endline "";
  print_endline "see DESIGN.md for the full inventory and EXPERIMENTS.md for";
  print_endline "the paper-vs-measured results.";
  0

let smoke () =
  let clock = Histar_util.Sim_clock.create () in
  let disk = Histar_disk.Disk.create ~clock () in
  let store = Histar_store.Store.format ~disk () in
  let kernel = Kernel.create ~clock ~store () in
  let ok = ref [] in
  let pass name = ok := (name, true) :: !ok in
  let fail name = ok := (name, false) :: !ok in
  let check name b = if b then pass name else fail name in
  let _init =
    Kernel.spawn kernel ~name:"init" (fun () ->
        let fs = Fs.format_root ~container:(Kernel.root kernel) ~label:l1 in
        let proc = Process.boot ~fs ~container:(Kernel.root kernel) ~name:"init" () in
        (* file system *)
        ignore (Fs.mkdir fs "/tmp");
        Fs.write_file fs "/tmp/hello" "world";
        check "fs read/write" (Fs.read_file fs "/tmp/hello" = "world");
        (* labels *)
        let c = Sys_.cat_create () in
        ignore
          (Fs.create fs
             ~label:(Label.of_list [ (c, Level.L3) ] Level.L1)
             "/tmp/secret");
        let child =
          Process.spawn proc ~name:"probe" (fun p ->
              (match Fs.read_file (Process.fs p) "/tmp/secret" with
              | _ -> Process.exit p 1
              | exception Kernel_error _ -> Process.exit p 0))
        in
        check "label enforcement" (Process.wait proc child = 0);
        (* processes and pipes *)
        let r, w = Process.pipe proc in
        let h =
          Process.spawn proc ~name:"producer" ~fds:[ w ] (fun p ->
              ignore (Process.write p w "ping");
              Process.close p w)
        in
        let got = Process.read proc r 8 in
        ignore (Process.wait proc h);
        check "pipes across processes" (got = "ping");
        (* authentication *)
        let log = Histar_auth.Logd.start proc in
        let dir = Histar_auth.Dird.start proc in
        let bob = Users.create_user ~fs ~name:"bob" in
        let _authd =
          Histar_auth.Authd.start proc ~user:bob ~password:"pw" ~log ~dir ()
        in
        let h =
          Process.spawn proc ~name:"sshd" (fun p ->
              match
                Histar_auth.Login.login ~proc:p ~dir ~username:"bob"
                  ~password:"pw"
              with
              | Histar_auth.Login.Granted _ -> Process.exit p 0
              | _ -> Process.exit p 1)
        in
        check "authentication" (Process.wait proc h = 0);
        (* persistence *)
        Sys_.sync_all ();
        pass "checkpoint")
  in
  Kernel.run kernel;
  let recovered =
    match Kernel.recover ~store with
    | k' -> Kernel.object_count k' > 0
    | exception _ -> false
  in
  check "recovery" recovered;
  let results = List.rev !ok in
  List.iter
    (fun (name, b) -> Printf.printf "%-26s %s\n" name (if b then "ok" else "FAILED"))
    results;
  if List.for_all snd results then begin
    print_endline "smoke test passed";
    0
  end
  else begin
    print_endline "smoke test FAILED";
    1
  end

let ls depth =
  let kernel = Kernel.create () in
  let _init =
    Kernel.spawn kernel ~name:"init" (fun () ->
        let fs = Fs.format_root ~container:(Kernel.root kernel) ~label:l1 in
        let proc = Process.boot ~fs ~container:(Kernel.root kernel) ~name:"init" () in
        ignore (Fs.mkdir fs "/tmp");
        Fs.write_file fs "/tmp/example" "data";
        let bob = Users.create_user ~fs ~name:"bob" in
        Fs.write_file fs "/home/bob/private" "secret";
        ignore bob;
        ignore proc)
  in
  Kernel.run kernel;
  let rec show oid indent d =
    if d >= 0 then begin
      let label =
        match Kernel.obj_label kernel oid with
        | Some lbl -> Label.to_string lbl
        | None -> "?"
      in
      let kind =
        match Kernel.obj_kind kernel oid with
        | Some k -> kind_to_string k
        | None -> "?"
      in
      Printf.printf "%s%-14s %-20d %s\n" indent kind oid label;
      match Kernel.container_children kernel oid with
      | Some kids when d > 0 ->
          List.iter (fun (k, _) -> show k (indent ^ "  ") (d - 1)) kids
      | Some _ | None -> ()
    end
  in
  show (Kernel.root kernel) "" depth;
  0

open Cmdliner

let info_cmd =
  Cmd.v (Cmd.info "info" ~doc:"Describe the system") Term.(const show_info $ const ())

let smoke_cmd =
  Cmd.v
    (Cmd.info "smoke" ~doc:"Boot a machine and exercise every subsystem")
    Term.(const smoke $ const ())

let ls_cmd =
  let depth =
    Arg.(value & opt int 3 & info [ "depth" ] ~doc:"Recursion depth")
  in
  Cmd.v
    (Cmd.info "ls" ~doc:"Print the container hierarchy with labels")
    Term.(const ls $ depth)

let () =
  let doc = "a HiStar (OSDI 2006) machine in simulation" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "histar" ~doc) [ info_cmd; smoke_cmd; ls_cmd ]))
