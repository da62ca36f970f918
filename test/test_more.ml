(* Deeper edge cases across the stack: kernel corner cases, FS
   semantics, pipe blocking, whole-world persistence, stack teardown. *)

module Kernel = Histar_core.Kernel
module Sys = Histar_core.Sys
module Store = Histar_store.Store
module Disk = Histar_disk.Disk
module Clock = Histar_util.Sim_clock
open Histar_core.Types
open Histar_unix
open Histar_label
module Check = Histar_check.Check
module Gen = Histar_check.Gen

let l entries d = Label.of_list entries d
let l1 = Label.make Level.L1
let l2 = Label.make Level.L2

let in_kernel f =
  let k = Kernel.create () in
  let result = ref None in
  let failure = ref None in
  let _tid =
    Kernel.spawn k ~name:"t" (fun () ->
        match f k (Kernel.root k) with
        | v -> result := Some v
        | exception e -> failure := Some (Printexc.to_string e))
  in
  Kernel.run k;
  match (!result, !failure) with
  | Some v, _ -> v
  | None, Some m -> Alcotest.fail ("crashed: " ^ m)
  | None, None -> Alcotest.fail "did not complete"

let in_unix f =
  in_kernel (fun k root ->
      let fs = Fs.format_root ~container:root ~label:l1 in
      let proc = Process.boot ~fs ~container:root ~name:"init" () in
      f k fs proc)

let expect_error f =
  match f () with
  | _ -> Alcotest.fail "expected kernel error"
  | exception Kernel_error _ -> ()

(* ---------- kernel corner cases ---------- *)

let test_metadata_limit () =
  in_kernel (fun _ root ->
      let seg = Sys.segment_create ~container:root ~label:l1 ~quota:8192L "s" in
      Sys.set_metadata (centry root seg) (String.make 64 'm');
      Alcotest.(check string) "64 bytes ok" (String.make 64 'm')
        (Sys.get_metadata (centry root seg));
      expect_error (fun () ->
          Sys.set_metadata (centry root seg) (String.make 65 'm')))

let test_quota_observation_needs_read () =
  in_kernel (fun _ root ->
      let c = Sys.cat_create () in
      let seg =
        Sys.segment_create ~container:root
          ~label:(l [ (c, Level.L3) ] Level.L1)
          ~quota:8192L "secret"
      in
      let denied = ref false in
      let _t =
        Sys.thread_create ~container:root ~label:l1 ~clearance:l2
          ~quota:65_536L ~name:"probe" (fun () ->
            match Sys.obj_quota (centry root seg) with
            | _ -> ()
            | exception Kernel_error (Label_check _) -> denied := true)
      in
      let tries = ref 0 in
      while (not !denied) && !tries < 1000 do
        incr tries;
        Sys.yield ()
      done;
      Alcotest.(check bool) "quota is information too" true !denied)

let test_hard_link_double_charges () =
  in_kernel (fun _ root ->
      let d1 = Sys.container_create ~container:root ~label:l1 ~quota:65_536L "d1" in
      let d2 = Sys.container_create ~container:root ~label:l1 ~quota:65_536L "d2" in
      let seg = Sys.segment_create ~container:d1 ~label:l1 ~quota:8192L "s" in
      let _, u1_before = Sys.obj_quota (self_entry d2) in
      Sys.set_fixed_quota (centry d1 seg);
      Sys.container_link ~container:d2 ~target:(centry d1 seg);
      let _, u1_after = Sys.obj_quota (self_entry d2) in
      (* §3.3: the full quota counts in every container *)
      Alcotest.(check int64) "full quota charged to the second container"
        8192L
        (Int64.sub u1_after u1_before))

let test_verify_label_check () =
  in_kernel (fun _ root ->
      let gate =
        Sys.gate_create ~container:root ~label:l1 ~clearance:l2 ~quota:4096L
          ~name:"g" (fun () -> Sys.self_halt ())
      in
      (* L_T ⊑ L_V must hold: an impossible verify label is rejected *)
      expect_error (fun () ->
          Sys.gate_enter ~gate:(centry root gate) ~label:l1 ~clearance:l2
            ~verify:(Label.make Level.L0) ()))

let test_thread_cannot_read_higher_thread_label () =
  in_kernel (fun _ root ->
      let c = Sys.cat_create () in
      let owner_tid =
        Sys.thread_create ~container:root
          ~label:(l [ (c, Level.Star) ] Level.L1)
          ~clearance:(l [ (c, Level.L3) ] Level.L2)
          ~quota:65_536L ~name:"owner"
          (fun () ->
            let rec spin n = if n > 0 then begin Sys.yield (); spin (n-1) end in
            spin 50)
      in
      let denied = ref false in
      let _probe =
        Sys.thread_create ~container:root ~label:l1 ~clearance:l2
          ~quota:65_536L ~name:"probe" (fun () ->
            match Sys.thread_get_label (centry root owner_tid) with
            | _ -> ()
            | exception Kernel_error (Label_check _) -> denied := true)
      in
      let tries = ref 0 in
      while (not !denied) && !tries < 1000 do
        incr tries;
        Sys.yield ()
      done;
      (* L_T'^J ⊑ L_T^J fails: owner has c at ⋆→J, probe at 1 *)
      Alcotest.(check bool) "mutable thread labels are protected" true !denied)

let test_segment_copy_requires_observe () =
  in_kernel (fun _ root ->
      let c = Sys.cat_create () in
      let seg =
        Sys.segment_create ~container:root
          ~label:(l [ (c, Level.L3) ] Level.L1)
          ~quota:8192L ~len:4 "secret"
      in
      let denied = ref false in
      let _t =
        Sys.thread_create ~container:root ~label:l1 ~clearance:l2
          ~quota:65_536L ~name:"copier" (fun () ->
            match
              Sys.segment_copy ~src:(centry root seg) ~container:root
                ~label:l1 ~quota:8192L "stolen copy"
            with
            | _ -> ()
            | exception Kernel_error (Label_check _) -> denied := true)
      in
      let tries = ref 0 in
      while (not !denied) && !tries < 1000 do
        incr tries;
        Sys.yield ()
      done;
      Alcotest.(check bool) "cannot launder via copy" true !denied)

let test_as_map_unmap () =
  in_kernel (fun _ root ->
      let asp = Sys.as_create ~container:root ~label:l1 ~quota:4608L "as" in
      let seg = Sys.segment_create ~container:root ~label:l1 ~quota:8192L "s" in
      let m =
        {
          Histar_core.Syscall.va = 0x1000L;
          seg = centry root seg;
          offset = 0;
          npages = 1;
          flags = { Histar_core.Syscall.read = true; write = false; exec = false };
        }
      in
      Sys.as_map (centry root asp) m;
      Alcotest.(check int) "mapped" 1 (List.length (Sys.as_get (centry root asp)));
      (* remapping the same va replaces *)
      Sys.as_map (centry root asp) m;
      Alcotest.(check int) "idempotent" 1 (List.length (Sys.as_get (centry root asp)));
      Sys.as_unmap (centry root asp) 0x1000L;
      Alcotest.(check int) "unmapped" 0 (List.length (Sys.as_get (centry root asp))))

(* ---------- fs semantics ---------- *)

let test_missing_intermediate () =
  in_unix (fun _ fs _ ->
      Alcotest.(check bool) "no phantom paths" false (Fs.exists fs "/a/b/c");
      (try
         ignore (Fs.mkdir fs "/a/b/c");
         Alcotest.fail "mkdir through missing parents"
       with Invalid_argument _ -> ()))

let test_readdir_of_file_rejected () =
  in_unix (fun _ fs _ ->
      Fs.write_file fs "/plain" "x";
      try
        ignore (Fs.readdir fs "/plain");
        Alcotest.fail "readdir of a file"
      with Invalid_argument _ -> ())

let test_rename_replaces_target () =
  in_unix (fun _ fs _ ->
      ignore (Fs.mkdir fs "/r");
      Fs.write_file fs "/r/a" "new";
      Fs.write_file fs "/r/b" "old";
      Fs.rename fs ~src:"/r/a" ~dst:"/r/b";
      Alcotest.(check string) "target replaced" "new" (Fs.read_file fs "/r/b");
      Alcotest.(check bool) "source gone" false (Fs.exists fs "/r/a");
      Alcotest.(check int) "one entry" 1 (List.length (Fs.readdir fs "/r")))

let test_relabel_chmod_semantics () =
  in_unix (fun _ fs proc ->
      let c = Sys.cat_create () in
      Fs.write_file fs "/doc" "was public";
      (* chmod 0600: relabel to {c3, 1} *)
      ignore (Fs.relabel fs "/doc" ~label:(l [ (c, Level.L3) ] Level.L1));
      Alcotest.(check string) "owner still reads" "was public"
        (Fs.read_file fs "/doc");
      let denied = ref false in
      let child =
        Process.spawn proc ~name:"other" (fun p ->
            match Fs.read_file (Process.fs p) "/doc" with
            | _ -> ()
            | exception Kernel_error (Label_check _) -> denied := true)
      in
      ignore (Process.wait proc child);
      Alcotest.(check bool) "relabel took effect" true !denied)

let test_mtime_advances () =
  in_unix (fun _ fs _ ->
      Fs.write_file fs "/stamped" "v1";
      let t1 = Option.get (Fs.mtime fs "/stamped") in
      Sys.usleep 1_000;
      Fs.write_file fs "/stamped" "v2";
      let t2 = Option.get (Fs.mtime fs "/stamped") in
      Alcotest.(check bool) (Printf.sprintf "mtime %d -> %d" t1 t2) true (t2 > t1);
      (* the metadata is the file's to write: 8 bytes that are not a
         non-negative 63-bit time read back as no mtime *)
      let ce = Fs.entry (Option.get (Fs.lookup fs "/stamped")) in
      List.iter
        (fun v ->
          let b = Bytes.create 8 in
          Bytes.set_int64_le b 0 v;
          Sys.set_metadata ce (Bytes.to_string b);
          Alcotest.(check (option int)) (Printf.sprintf "%Lx" v) None
            (Fs.mtime fs "/stamped"))
        [ Int64.min_int; Int64.shift_left 1L 62; -1L ];
      Sys.set_metadata ce "";
      Alcotest.(check (option int)) "empty" None (Fs.mtime fs "/stamped"))

let test_fsync_missing_raises () =
  in_unix (fun _ fs _ ->
      try
        Fs.fsync fs "/nope";
        Alcotest.fail "fsync of a missing file"
      with Invalid_argument _ -> ())

(* ---------- fs model property ---------- *)

(* Random single-directory workloads compared against a string map. *)
type fs_op =
  | Op_write of int * string
  | Op_unlink of int
  | Op_rename of int * int
  | Op_read of int

let gen_fs_op =
  let open Gen in
  let name = int_range 0 8 in
  oneof
    [
      map2 (fun n v -> Op_write (n, v)) name (resize 40 string);
      map (fun n -> Op_unlink n) name;
      map2 (fun a b -> Op_rename (a, b)) name name;
      map (fun n -> Op_read n) name;
    ]

module SMap = Map.Make (String)

let prop_fs_model =
  Check.test_case ~count:40 "fs matches a map model"
    Gen.(resize 80 (list gen_fs_op))
    (fun ops ->
      Check.ensure @@ in_unix (fun _ fs _ ->
          ignore (Fs.mkdir fs "/m");
          let path n = Printf.sprintf "/m/f%d" n in
          let model = ref SMap.empty in
          let ok = ref true in
          List.iter
            (fun op ->
              match op with
              | Op_write (n, v) ->
                  Fs.write_file fs (path n) v;
                  model := SMap.add (path n) v !model
              | Op_unlink n -> (
                  match SMap.mem (path n) !model with
                  | true ->
                      Fs.unlink fs (path n);
                      model := SMap.remove (path n) !model
                  | false -> (
                      match Fs.unlink fs (path n) with
                      | () -> ok := false
                      | exception Invalid_argument _ -> ()))
              | Op_rename (a, b) -> (
                  if a <> b then
                    match SMap.find_opt (path a) !model with
                    | Some v ->
                        Fs.rename fs ~src:(path a) ~dst:(path b);
                        model :=
                          SMap.add (path b) v (SMap.remove (path a) !model)
                    | None -> (
                        match Fs.rename fs ~src:(path a) ~dst:(path b) with
                        | () -> ok := false
                        | exception Invalid_argument _ -> ()))
              | Op_read n -> (
                  let actual =
                    match Fs.read_file fs (path n) with
                    | v -> Some v
                    | exception Invalid_argument _ -> None
                  in
                  if SMap.find_opt (path n) !model <> actual then ok := false))
            ops;
          (* final directory listing must agree with the model *)
          let listing =
            Fs.readdir fs "/m"
            |> List.map (fun e -> "/m/" ^ e.Dirseg.name)
            |> List.sort compare
          in
          let expected = List.sort compare (List.map fst (SMap.bindings !model)) in
          !ok && listing = expected))

(* ---------- whole-world persistence ---------- *)

let test_unix_world_survives_reboot () =
  let clock = Clock.create () in
  let disk = Disk.create ~clock () in
  let store = Store.format ~disk () in
  let kernel = Kernel.create ~clock ~store () in
  let paths = [ "/etc/passwd"; "/home/bob/notes"; "/var/log/boot" ] in
  let _tid =
    Kernel.spawn kernel ~name:"init" (fun () ->
        let fs = Fs.format_root ~container:(Kernel.root kernel) ~label:l1 in
        let _proc = Process.boot ~fs ~container:(Kernel.root kernel) ~name:"init" () in
        ignore (Fs.mkdir fs "/etc");
        ignore (Fs.mkdir fs "/home");
        ignore (Fs.mkdir fs "/home/bob");
        ignore (Fs.mkdir fs "/var");
        ignore (Fs.mkdir fs "/var/log");
        List.iter (fun p -> Fs.write_file fs p ("contents of " ^ p)) paths;
        Sys.sync_all ())
  in
  Kernel.run kernel;
  (* power cut: everything in kernel memory is gone; rebuild from disk *)
  let kernel' = Kernel.recover ~store:(Store.recover ~disk) in
  let seen = ref [] in
  let _tid =
    Kernel.spawn kernel' ~name:"after-boot" (fun () ->
        (* find the fs root: the only container child of the root *)
        let root = Kernel.root kernel' in
        let kids = Option.value ~default:[] (Kernel.container_children kernel' root) in
        let fs_root =
          List.find_map
            (fun (oid, kind) ->
              if kind = Container then
                match Sys.obj_descrip (self_entry oid) with
                | "/" -> Some oid
                | _ -> None
                | exception Kernel_error _ -> None
              else None)
            kids
        in
        match fs_root with
        | None -> ()
        | Some root_oid ->
            let fs = Fs.make ~root:root_oid in
            List.iter
              (fun p ->
                match Fs.read_file fs p with
                | v -> seen := (p, v) :: !seen
                | exception _ -> ())
              paths)
  in
  Kernel.run kernel';
  List.iter
    (fun p ->
      Alcotest.(check (option string))
        ("after reboot: " ^ p)
        (Some ("contents of " ^ p))
        (List.assoc_opt p !seen))
    paths

(* ---------- pipes under pressure ---------- *)

let test_pipe_blocking_full () =
  in_unix (fun _ _ proc ->
      let r, w = Process.pipe proc in
      let big = String.make (Pipe.capacity + 10_000) 'z' in
      let wrote = ref false in
      let child =
        Process.spawn proc ~name:"writer" ~fds:[ w ] (fun p ->
            ignore (Process.write p w big);
            wrote := true;
            Process.close p w)
      in
      (* close our own write end, or EOF never arrives *)
      Process.close proc w;
      (* the writer must block until we drain *)
      let total = ref 0 in
      let rec drain () =
        let chunk = Process.read proc r 65_536 in
        if String.length chunk > 0 then begin
          total := !total + String.length chunk;
          drain ()
        end
      in
      drain ();
      ignore (Process.wait proc child);
      Alcotest.(check bool) "writer completed" true !wrote;
      Alcotest.(check int) "all bytes" (String.length big) !total)

let test_pipe_two_writers_eof () =
  in_unix (fun _ _ proc ->
      let r, w = Process.pipe proc in
      let c1 =
        Process.spawn proc ~name:"w1" ~fds:[ w ] (fun p ->
            ignore (Process.write p w "aaaa");
            Process.close p w)
      in
      let c2 =
        Process.spawn proc ~name:"w2" ~fds:[ w ] (fun p ->
            ignore (Process.write p w "bbbb");
            Process.close p w)
      in
      Process.close proc w;
      let buf = Buffer.create 16 in
      let rec drain () =
        let chunk = Process.read proc r 16 in
        if String.length chunk > 0 then begin
          Buffer.add_string buf chunk;
          drain ()
        end
      in
      drain ();
      ignore (Process.wait proc c1);
      ignore (Process.wait proc c2);
      Alcotest.(check int) "eight bytes then EOF" 8 (Buffer.length buf))

(* ---------- processes ---------- *)

let test_grandchildren () =
  in_unix (fun _ _ proc ->
      let child =
        Process.spawn proc ~name:"child" (fun c ->
            let grandchild =
              Process.spawn c ~name:"grandchild" (fun g -> Process.exit g 5)
            in
            Process.exit c (Process.wait c grandchild + 10))
      in
      Alcotest.(check int) "status flows up" 15 (Process.wait proc child))

let test_fork_exec_without_text () =
  in_unix (fun _ _ proc ->
      let h = Process.fork_exec proc ~name:"anon" (fun c -> Process.exit c 3) in
      Alcotest.(check int) "ran" 3 (Process.wait proc h))

let test_exec_missing_text_raises () =
  in_unix (fun _ _ proc ->
      try
        ignore
          (Process.fork_exec proc ~name:"ghost" ~text:"/bin/ghost" (fun c ->
               Process.exit c 0));
        Alcotest.fail "exec of a missing binary"
      with Invalid_argument _ -> ())

(* ---------- stack teardown ---------- *)

let test_stack_teardown () =
  let clock = Clock.create () in
  let hub = Histar_net.Hub.create ~clock () in
  let a = Histar_net.Sim_host.create ~hub ~clock ~ip:"10.0.0.1" ~mac:"aa" () in
  let b = Histar_net.Sim_host.create ~hub ~clock ~ip:"10.0.0.2" ~mac:"bb" () in
  Histar_net.Sim_host.echo b ~port:7;
  let c =
    Histar_net.Stack.connect (Histar_net.Sim_host.stack a)
      ~dst:(Histar_net.Addr.v "10.0.0.2" 7)
  in
  Histar_net.Stack.send c "x";
  ignore (Histar_net.Stack.recv c);
  Histar_net.Stack.close c;
  Histar_net.Stack.close c (* double close is fine *);
  (try
     Histar_net.Stack.send c "y";
     Alcotest.fail "send after close"
   with Invalid_argument _ -> ());
  Histar_net.Stack.unlisten (Histar_net.Sim_host.stack b) ~port:7;
  (* a new connection now gets RST *)
  let c2 =
    Histar_net.Stack.connect (Histar_net.Sim_host.stack a)
      ~dst:(Histar_net.Addr.v "10.0.0.2" 7)
  in
  Alcotest.(check bool) "rst after unlisten" true
    (Histar_net.Stack.state c2 = Histar_net.Stack.Closed)

(* ---------- determinism and crash recovery ---------- *)

let run_workload () =
  let clock = Clock.create () in
  let disk = Disk.create ~clock () in
  let store = Store.format ~disk () in
  let kernel = Kernel.create ~clock ~store () in
  let _tid =
    Kernel.spawn kernel ~name:"init" (fun () ->
        let fs = Fs.format_root ~container:(Kernel.root kernel) ~label:l1 in
        let proc = Process.boot ~fs ~container:(Kernel.root kernel) ~name:"init" () in
        ignore (Fs.mkdir fs "/w");
        for i = 0 to 49 do
          Fs.write_file fs (Printf.sprintf "/w/f%d" i) (String.make 512 'x');
          if i mod 10 = 0 then Fs.fsync fs (Printf.sprintf "/w/f%d" i)
        done;
        let r, w = Process.pipe proc in
        let h =
          Process.spawn proc ~name:"echo" ~fds:[ w ] (fun p ->
              ignore (Process.write p w "done");
              Process.close p w)
        in
        ignore (Process.read proc r 8);
        ignore (Process.wait proc h);
        Sys.sync_all ())
  in
  Kernel.run kernel;
  Clock.now clock

let test_simulation_deterministic () =
  let a = run_workload () in
  let b = run_workload () in
  Alcotest.(check int) "identical virtual end time" a b

let test_kernel_crash_during_checkpoint () =
  let clock = Clock.create () in
  let disk = Disk.create ~clock () in
  let store = Store.format ~disk () in
  let kernel = Kernel.create ~clock ~store () in
  let _tid =
    Kernel.spawn kernel ~name:"init" (fun () ->
        let fs = Fs.format_root ~container:(Kernel.root kernel) ~label:l1 in
        let _proc = Process.boot ~fs ~container:(Kernel.root kernel) ~name:"init" () in
        Fs.write_file fs "/gen" "one";
        Sys.sync_all ();
        Fs.write_file fs "/gen" "two";
        (* power fails partway through the second checkpoint *)
        Disk.set_crash_after_writes disk 7;
        match Sys.sync_all () with
        | () -> ()
        | exception Kernel_error _ -> ())
  in
  (try Kernel.run kernel with Disk.Crashed -> ());
  let disk' = Disk.reopen_after_crash disk in
  let kernel' = Kernel.recover ~store:(Store.recover ~disk:disk') in
  let seen = ref None in
  let _tid =
    Kernel.spawn kernel' ~name:"after" (fun () ->
        let kids =
          Option.value ~default:[]
            (Kernel.container_children kernel' (Kernel.root kernel'))
        in
        List.iter
          (fun (oid, kind) ->
            if kind = Container then
              match Sys.obj_descrip (self_entry oid) with
              | "/" -> (
                  let fs = Fs.make ~root:oid in
                  match Fs.read_file fs "/gen" with
                  | v -> seen := Some v
                  | exception _ -> ())
              | _ -> ()
              | exception Kernel_error _ -> ())
          kids)
  in
  Kernel.run kernel';
  (* whole-snapshot atomicity: we see gen one or gen two, never garbage *)
  match !seen with
  | Some "one" | Some "two" -> ()
  | Some other -> Alcotest.fail ("inconsistent state: " ^ other)
  | None -> Alcotest.fail "file system lost"

let () =
  Alcotest.run "histar_more"
    [
      ( "kernel edges",
        [
          Alcotest.test_case "metadata limit" `Quick test_metadata_limit;
          Alcotest.test_case "quota needs read" `Quick
            test_quota_observation_needs_read;
          Alcotest.test_case "link double-charges" `Quick
            test_hard_link_double_charges;
          Alcotest.test_case "verify label" `Quick test_verify_label_check;
          Alcotest.test_case "thread label privacy" `Quick
            test_thread_cannot_read_higher_thread_label;
          Alcotest.test_case "copy needs observe" `Quick
            test_segment_copy_requires_observe;
          Alcotest.test_case "as map/unmap" `Quick test_as_map_unmap;
        ] );
      ( "fs semantics",
        [
          Alcotest.test_case "missing intermediate" `Quick
            test_missing_intermediate;
          Alcotest.test_case "readdir of file" `Quick
            test_readdir_of_file_rejected;
          Alcotest.test_case "rename replaces" `Quick test_rename_replaces_target;
          Alcotest.test_case "relabel (chmod)" `Quick
            test_relabel_chmod_semantics;
          Alcotest.test_case "mtime" `Quick test_mtime_advances;
          Alcotest.test_case "fsync missing" `Quick test_fsync_missing_raises;
        ] );
      ("fs model", [ prop_fs_model ]);
      ( "persistence",
        [
          Alcotest.test_case "unix world reboot" `Quick
            test_unix_world_survives_reboot;
        ] );
      ( "pipes",
        [
          Alcotest.test_case "blocking when full" `Quick test_pipe_blocking_full;
          Alcotest.test_case "two writers EOF" `Quick test_pipe_two_writers_eof;
        ] );
      ( "processes",
        [
          Alcotest.test_case "grandchildren" `Quick test_grandchildren;
          Alcotest.test_case "fork_exec no text" `Quick
            test_fork_exec_without_text;
          Alcotest.test_case "missing text" `Quick test_exec_missing_text_raises;
        ] );
      ("net teardown", [ Alcotest.test_case "close/unlisten" `Quick test_stack_teardown ]);
      ( "simulation",
        [
          Alcotest.test_case "deterministic" `Quick
            test_simulation_deterministic;
          Alcotest.test_case "crash mid-checkpoint" `Quick
            test_kernel_crash_during_checkpoint;
        ] );
    ]
