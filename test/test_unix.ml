module Kernel = Histar_core.Kernel
module Sys = Histar_core.Sys
open Histar_core.Types
open Histar_unix
open Histar_label

let l1 = Label.make Level.L1

(* Run [f] in a fresh kernel with a formatted FS and a boot process. *)
let in_unix f =
  let k = Kernel.create () in
  let result = ref None in
  let failure = ref None in
  let _tid =
    Kernel.spawn k ~name:"init" (fun () ->
        let fs = Fs.format_root ~container:(Kernel.root k) ~label:l1 in
        let proc = Process.boot ~fs ~container:(Kernel.root k) ~name:"init" () in
        match f k proc with
        | v -> result := Some v
        | exception e -> failure := Some (Printexc.to_string e))
  in
  Kernel.run k;
  match (!result, !failure) with
  | Some v, _ -> v
  | None, Some msg -> Alcotest.fail ("init crashed: " ^ msg)
  | None, None -> Alcotest.fail "init did not complete"

let join pred =
  let tries = ref 0 in
  while (not (pred ())) && !tries < 50_000 do
    incr tries;
    Sys.yield ()
  done;
  if not (pred ()) then Alcotest.fail "join: condition never became true"

(* ---------- path handling ---------- *)

let test_split_path () =
  Alcotest.(check (list string)) "plain" [ "a"; "b" ] (Fs.split_path "/a/b");
  Alcotest.(check (list string)) "dots and slashes" [ "a"; "b" ]
    (Fs.split_path "//a/./b/");
  Alcotest.(check (list string)) "root" [] (Fs.split_path "/")

(* ---------- files and directories ---------- *)

let test_mkdir_create_read () =
  in_unix (fun _k proc ->
      let fs = Process.fs proc in
      ignore (Fs.mkdir fs "/tmp");
      Fs.write_file fs "/tmp/hello.txt" "hello world";
      Alcotest.(check string) "read back" "hello world"
        (Fs.read_file fs "/tmp/hello.txt");
      Alcotest.(check bool) "exists" true (Fs.exists fs "/tmp/hello.txt");
      Alcotest.(check bool) "is_dir" true (Fs.is_dir fs "/tmp");
      Alcotest.(check int) "size" 11 (Fs.file_size fs "/tmp/hello.txt"))

let test_nested_dirs () =
  in_unix (fun _k proc ->
      let fs = Process.fs proc in
      ignore (Fs.mkdir fs "/a");
      ignore (Fs.mkdir fs "/a/b");
      ignore (Fs.mkdir fs "/a/b/c");
      Fs.write_file fs "/a/b/c/deep.txt" "deep";
      Alcotest.(check string) "nested read" "deep"
        (Fs.read_file fs "/a/b/c/deep.txt");
      let names =
        List.map (fun e -> e.Dirseg.name) (Fs.readdir fs "/a/b")
      in
      Alcotest.(check (list string)) "listing" [ "c" ] names)

let test_readdir_and_unlink () =
  in_unix (fun _k proc ->
      let fs = Process.fs proc in
      ignore (Fs.mkdir fs "/d");
      List.iter (fun n -> Fs.write_file fs ("/d/" ^ n) n) [ "x"; "y"; "z" ];
      Alcotest.(check int) "three entries" 3 (List.length (Fs.readdir fs "/d"));
      Fs.unlink fs "/d/y";
      let names = List.map (fun e -> e.Dirseg.name) (Fs.readdir fs "/d") in
      Alcotest.(check (list string)) "after unlink" [ "x"; "z" ] names;
      Alcotest.(check bool) "gone" false (Fs.exists fs "/d/y"))

let test_unlink_frees_objects () =
  in_unix (fun k proc ->
      let fs = Process.fs proc in
      ignore (Fs.mkdir fs "/dying");
      Fs.write_file fs "/dying/f" "data";
      let before = Kernel.object_count k in
      Fs.unlink fs "/dying";
      (* directory container + dirseg + file all freed *)
      Alcotest.(check int) "objects freed" (before - 3) (Kernel.object_count k))

let test_rename_same_dir () =
  in_unix (fun _k proc ->
      let fs = Process.fs proc in
      ignore (Fs.mkdir fs "/r");
      Fs.write_file fs "/r/old" "contents";
      Fs.rename fs ~src:"/r/old" ~dst:"/r/new";
      Alcotest.(check bool) "old gone" false (Fs.exists fs "/r/old");
      Alcotest.(check string) "new has data" "contents"
        (Fs.read_file fs "/r/new"))

let test_rename_cross_dir () =
  in_unix (fun _k proc ->
      let fs = Process.fs proc in
      ignore (Fs.mkdir fs "/src");
      ignore (Fs.mkdir fs "/dst");
      Fs.write_file fs "/src/f" "moved";
      Fs.rename fs ~src:"/src/f" ~dst:"/dst/g";
      Alcotest.(check string) "moved" "moved" (Fs.read_file fs "/dst/g");
      Alcotest.(check bool) "source gone" false (Fs.exists fs "/src/f"))

let test_hard_link () =
  in_unix (fun _k proc ->
      let fs = Process.fs proc in
      ignore (Fs.mkdir fs "/l1");
      ignore (Fs.mkdir fs "/l2");
      Fs.write_file fs "/l1/f" "shared";
      Fs.link fs ~src:"/l1/f" ~dst:"/l2/f2";
      Alcotest.(check string) "via link" "shared" (Fs.read_file fs "/l2/f2");
      Fs.unlink fs "/l1/f";
      Alcotest.(check string) "still alive through second link" "shared"
        (Fs.read_file fs "/l2/f2"))

let test_big_file_quota_autogrow () =
  in_unix (fun _k proc ->
      let fs = Process.fs proc in
      ignore (Fs.mkdir fs "/big");
      (* far larger than the default file and directory quotas *)
      let data = String.make 20_000_000 'q' in
      Fs.write_file fs "/big/file" data;
      Alcotest.(check int) "20MB written" 20_000_000
        (Fs.file_size fs "/big/file"))

let test_mounts () =
  in_unix (fun _k proc ->
      let fs = Process.fs proc in
      ignore (Fs.mkdir fs "/mnt");
      ignore (Fs.mkdir fs "/other");
      Fs.write_file fs "/other/inside" "via mount";
      (match Fs.lookup fs "/other" with
      | Some n -> Fs.mount fs ~path:"/mnt/disk" n.Fs.oid
      | None -> Alcotest.fail "no /other");
      Alcotest.(check string) "read through mount" "via mount"
        (Fs.read_file fs "/mnt/disk/inside");
      Fs.unmount fs ~path:"/mnt/disk";
      Alcotest.(check bool) "unmounted" false (Fs.exists fs "/mnt/disk/inside"))

let test_private_files_kernel_enforced () =
  in_unix (fun _k proc ->
      let fs = Process.fs proc in
      let user = Users.create_user ~fs ~name:"bob" in
      Fs.write_file fs "/home/bob/secret" "bob's diary";
      (* bob (this thread owns ur/uw after create_user) can read *)
      Alcotest.(check string) "owner reads" "bob's diary"
        (Fs.read_file fs "/home/bob/secret");
      (* an unprivileged process cannot *)
      let denied = ref false in
      let child =
        Process.spawn proc ~name:"snoop" ~user:(Users.create_user ~fs ~name:"eve")
          (fun snoop ->
            let sfs = Process.fs snoop in
            match Fs.read_file sfs "/home/bob/secret" with
            | _ -> ()
            | exception Kernel_error (Label_check _) -> denied := true)
      in
      ignore (Process.wait proc child);
      Alcotest.(check bool) "kernel denied eve" true !denied;
      ignore user)

(* ---------- fd layer ---------- *)

let test_fd_read_write_seek () =
  in_unix (fun _k proc ->
      let fs = Process.fs proc in
      ignore (Fs.mkdir fs "/f");
      let fd = Process.create_file proc "/f/data" in
      ignore (Process.write proc fd "abcdefgh");
      Process.seek proc fd 2;
      Alcotest.(check string) "seek+read" "cdef" (Process.read proc fd 4);
      Alcotest.(check int) "pos" 6 (Process.fd_pos proc fd);
      Alcotest.(check string) "rest" "gh" (Process.read proc fd 100);
      Alcotest.(check string) "eof" "" (Process.read proc fd 10);
      Process.close proc fd;
      Alcotest.(check int) "fd table empty" 0 (Process.fd_count proc))

let test_fd_append () =
  in_unix (fun _k proc ->
      let fs = Process.fs proc in
      Fs.write_file fs "/log" "a";
      let fd = Process.open_file proc ~append:true "/log" in
      ignore (Process.write proc fd "b");
      ignore (Process.write proc fd "c");
      Process.close proc fd;
      Alcotest.(check string) "appended" "abc" (Fs.read_file fs "/log"))

(* ---------- pipes ---------- *)

let test_pipe_basic () =
  in_unix (fun _k proc ->
      let rfd, wfd = Process.pipe proc in
      ignore (Process.write proc wfd "through the pipe");
      Alcotest.(check string) "read" "through the pipe"
        (Process.read proc rfd 100);
      Process.close proc wfd;
      Alcotest.(check string) "eof after close" "" (Process.read proc rfd 10))

let test_pipe_between_processes () =
  in_unix (fun _k proc ->
      let rfd, wfd = Process.pipe proc in
      let child =
        Process.spawn proc ~name:"producer" ~fds:[ wfd ] (fun child ->
            ignore (Process.write child wfd "from child");
            Process.close child wfd)
      in
      let got = Process.read proc rfd 100 in
      ignore (Process.wait proc child);
      Alcotest.(check string) "ipc" "from child" got)

let test_pipe_ping_pong () =
  (* the structure of the paper's IPC benchmark: two processes, two
     uni-directional pipes, 8-byte messages echoed back *)
  in_unix (fun _k proc ->
      let r1, w1 = Process.pipe proc in
      let r2, w2 = Process.pipe proc in
      let echo =
        Process.spawn proc ~name:"echo" ~fds:[ r1; w2 ] (fun child ->
            let rec loop () =
              let m = Process.read child r1 8 in
              if String.length m > 0 then begin
                ignore (Process.write child w2 m);
                loop ()
              end
            in
            loop ();
            Process.close child w2)
      in
      for i = 1 to 10 do
        let msg = Printf.sprintf "msg%05d" i in
        ignore (Process.write proc w1 msg);
        Alcotest.(check string) "round trip" msg (Process.read proc r2 8)
      done;
      Process.close proc w1;
      ignore (Process.wait proc echo))

(* ---------- processes ---------- *)

let test_spawn_wait_status () =
  in_unix (fun _k proc ->
      let child =
        Process.spawn proc ~name:"worker" (fun child -> Process.exit child 42)
      in
      Alcotest.(check int) "exit status" 42 (Process.wait proc child))

let test_spawn_implicit_exit () =
  in_unix (fun _k proc ->
      let child = Process.spawn proc ~name:"quiet" (fun _ -> ()) in
      Alcotest.(check int) "implicit 0" 0 (Process.wait proc child))

let test_wait_reaps () =
  in_unix (fun k proc ->
      let before = Kernel.object_count k in
      let child = Process.spawn proc ~name:"ephemeral" (fun _ -> ()) in
      ignore (Process.wait proc child);
      (* everything the child created inside its containers is gone *)
      Alcotest.(check bool) "no leak beyond a few category-free objects" true
        (Kernel.object_count k <= before + 2))

let test_fork_exec () =
  in_unix (fun _k proc ->
      let fs = Process.fs proc in
      ignore (Fs.mkdir fs "/bin");
      Fs.write_file fs "/bin/true" "#!histar/true";
      let ran = ref false in
      let child =
        Process.fork_exec proc ~name:"true" ~text:"/bin/true" (fun child ->
            ran := true;
            Process.exit child 0)
      in
      Alcotest.(check int) "status" 0 (Process.wait proc child);
      Alcotest.(check bool) "program ran" true !ran)

(* A fork_exec child's own descriptors start past the ones it
   inherits, as a spawned child's do: its first open must not reuse
   the inherited fd 3. *)
let test_fork_exec_keeps_inherited_fds () =
  in_unix (fun _k proc ->
      let fs = Process.fs proc in
      ignore (Fs.mkdir fs "/bin");
      Fs.write_file fs "/bin/true" "#!histar/true";
      Fs.write_file fs "/a" "AAAA";
      Fs.write_file fs "/b" "BBBB";
      let fd = Process.open_file proc "/a" in
      Alcotest.(check int) "parent's first fd" 3 fd;
      let seen = ref None in
      let child =
        Process.fork_exec proc ~name:"reader" ~text:"/bin/true" ~fds:[ fd ]
          (fun child ->
            let own = Process.open_file child "/b" in
            seen := Some (own, Process.read child fd 4))
      in
      ignore (Process.wait proc child);
      match !seen with
      | None -> Alcotest.fail "child did not run"
      | Some (own, data) ->
          Alcotest.(check string) "inherited fd still reads /a" "AAAA" data;
          Alcotest.(check bool) "own fd is fresh" true (own <> fd))

let test_fork_exec_costlier_than_spawn () =
  in_unix (fun k proc ->
      let fs = Process.fs proc in
      ignore (Fs.mkdir fs "/bin");
      Fs.write_file fs "/bin/true" "#!histar/true";
      let profile = Kernel.profile k in
      Histar_core.Profile.reset profile;
      let c1 = Process.fork_exec proc ~name:"t1" ~text:"/bin/true" (fun c -> Process.exit c 0) in
      ignore (Process.wait proc c1);
      let fork_exec_count = Histar_core.Profile.total profile in
      Histar_core.Profile.reset profile;
      let c2 = Process.spawn proc ~name:"t2" (fun c -> Process.exit c 0) in
      ignore (Process.wait proc c2);
      let spawn_count = Histar_core.Profile.total profile in
      Alcotest.(check bool)
        (Printf.sprintf "fork/exec (%d) uses well over the syscalls of spawn (%d)"
           fork_exec_count spawn_count)
        true
        (fork_exec_count > spawn_count * 3 / 2))

let test_signal_handler () =
  in_unix (fun _k proc ->
      let got = ref (-1) in
      let child =
        Process.spawn proc ~name:"victim" (fun child ->
            Process.on_signal child 15 (fun s -> got := s);
            (* wait until signal observed *)
            join (fun () -> !got >= 0);
            Process.exit child 7)
      in
      (* give the child a moment to install its handler *)
      Sys.yield ();
      Sys.yield ();
      Process.kill proc child 15;
      Alcotest.(check int) "exit after signal" 7 (Process.wait proc child);
      Alcotest.(check int) "handler saw signal" 15 !got)

let test_sigkill () =
  in_unix (fun k proc ->
      let child =
        Process.spawn proc ~name:"undead" (fun _child ->
            (* loop forever *)
            let rec spin () =
              Sys.yield ();
              spin ()
            in
            spin ())
      in
      Sys.yield ();
      Process.kill proc child 9;
      (* process container should be destroyed *)
      join (fun () ->
          Kernel.obj_kind k (Process.handle_container child) = None);
      Alcotest.(check bool) "process destroyed" true
        (Kernel.obj_kind k (Process.handle_container child) = None))

let test_tainted_child_cannot_leak_to_fs () =
  (* A scanner-style child tainted in category v cannot write any file
     at the default label (§2.1). *)
  in_unix (fun _k proc ->
      let fs = Process.fs proc in
      ignore (Fs.mkdir fs "/shared");
      Fs.write_file fs "/shared/drop" "";
      let denied = ref false in
      let v = Sys.cat_create () in
      let child =
        Process.spawn proc ~name:"tainted"
          ~extra_label:[ (v, Level.L3) ]
          ~extra_clearance:[ (v, Level.L3) ]
          (fun child ->
            let cfs = Process.fs child in
            match Fs.write_file cfs "/shared/drop" "secret!" with
            | () -> ()
            | exception Kernel_error (Label_check _) -> denied := true)
      in
      ignore (Process.wait proc child);
      Alcotest.(check bool) "tainted write denied by kernel" true !denied;
      Alcotest.(check string) "file unchanged" "" (Fs.read_file fs "/shared/drop"))

(* ---------- dirseg concurrency ---------- *)

let test_dirseg_concurrent_creates () =
  in_unix (fun _k proc ->
      let fs = Process.fs proc in
      ignore (Fs.mkdir fs "/con");
      let finished = ref 0 in
      for t = 1 to 4 do
        let _h =
          Process.spawn proc ~name:(Printf.sprintf "writer%d" t) (fun child ->
              let cfs = Process.fs child in
              for i = 1 to 10 do
                Fs.write_file cfs (Printf.sprintf "/con/f-%d-%d" t i) "x"
              done;
              incr finished)
        in
        ()
      done;
      join (fun () -> !finished = 4);
      Alcotest.(check int) "all 40 files present" 40
        (List.length (Fs.readdir fs "/con")))

(* ---------- fsync_range durability ---------- *)

(* Run [f] as init on a disk-backed kernel, cut the power, and recover a
   fresh kernel from the media. Every sync path ends with a barrier, so
   the write cache a power cut discards holds nothing acknowledged.
   Returns the recovered contents of the file [f] names. *)
let after_power_cut f =
  let disk =
    Histar_disk.Disk.create
      ~geometry:{ Histar_disk.Disk.sectors = 500_000; sector_bytes = 512 }
      ~clock:(Histar_util.Sim_clock.create ())
      ()
  in
  let store = Histar_store.Store.format ~disk ~wal_sectors:1024 () in
  let k = Kernel.create ~store () in
  let oid = ref None and failure = ref None in
  let _tid =
    Kernel.spawn k ~name:"init" (fun () ->
        let fs = Fs.format_root ~container:(Kernel.root k) ~label:l1 in
        let proc = Process.boot ~fs ~container:(Kernel.root k) ~name:"init" () in
        match f fs proc with
        | path -> oid := Option.map (fun n -> n.Fs.oid) (Fs.lookup fs path)
        | exception e -> failure := Some (Printexc.to_string e))
  in
  Kernel.run k;
  Option.iter (fun msg -> Alcotest.fail ("init crashed: " ^ msg)) !failure;
  let k' = Kernel.recover ~store:(Histar_store.Store.recover ~disk) in
  match Option.bind !oid (Kernel.segment_data k') with
  | Some data -> data
  | None -> Alcotest.fail "file lost"

let write_at proc fd off data =
  Process.seek proc fd off;
  ignore (Process.write proc fd data)

(* A file with a checkpointed home image, as after fsync + sync_all. *)
let homed_file fs proc path =
  ignore (Fs.create fs path);
  Fs.reserve fs path 4096;
  let fd = Process.open_file proc path in
  write_at proc fd 0 (String.make 4096 'a');
  Fs.fsync fs path;
  Sys.sync_all ();
  fd

let test_fsync_range_sectors () =
  (* The flushed bytes sit after the object's encoded prefix: the
     in-place flush must write the sectors that really hold them, or
     the image's checksum no longer matches its media. *)
  let data =
    after_power_cut (fun fs proc ->
        let fd = homed_file fs proc "/f" in
        write_at proc fd 990 "0123456789";
        Fs.fsync_range fs "/f" ~off:990 ~len:10;
        "/f")
  in
  Alcotest.(check string) "range durable" "0123456789" (String.sub data 990 10);
  Alcotest.(check char) "rest intact" 'a' data.[4095]

let test_fsync_range_after_logged_sync () =
  (* After an fsync the log holds a copy newer than the home image, and
     replay applies it over the home: an in-place flush there would be
     lost, so it must go to the log too. *)
  let data =
    after_power_cut (fun fs proc ->
        let fd = homed_file fs proc "/f" in
        write_at proc fd 0 "x";
        Fs.fsync fs "/f";
        write_at proc fd 2048 (String.make 512 'b');
        Fs.fsync_range fs "/f" ~off:2048 ~len:512;
        "/f")
  in
  Alcotest.(check char) "logged sync durable" 'x' data.[0];
  Alcotest.(check string) "range durable" (String.make 512 'b')
    (String.sub data 2048 512)

let () =
  Alcotest.run "histar_unix"
    [
      ("paths", [ Alcotest.test_case "split" `Quick test_split_path ]);
      ( "fs",
        [
          Alcotest.test_case "mkdir/create/read" `Quick test_mkdir_create_read;
          Alcotest.test_case "nested dirs" `Quick test_nested_dirs;
          Alcotest.test_case "readdir/unlink" `Quick test_readdir_and_unlink;
          Alcotest.test_case "unlink frees" `Quick test_unlink_frees_objects;
          Alcotest.test_case "rename same dir" `Quick test_rename_same_dir;
          Alcotest.test_case "rename cross dir" `Quick test_rename_cross_dir;
          Alcotest.test_case "hard link" `Quick test_hard_link;
          Alcotest.test_case "quota autogrow" `Quick
            test_big_file_quota_autogrow;
          Alcotest.test_case "mounts" `Quick test_mounts;
          Alcotest.test_case "private files" `Quick
            test_private_files_kernel_enforced;
        ] );
      ( "fds",
        [
          Alcotest.test_case "read/write/seek" `Quick test_fd_read_write_seek;
          Alcotest.test_case "append" `Quick test_fd_append;
        ] );
      ( "pipes",
        [
          Alcotest.test_case "basic" `Quick test_pipe_basic;
          Alcotest.test_case "between processes" `Quick
            test_pipe_between_processes;
          Alcotest.test_case "ping pong" `Quick test_pipe_ping_pong;
        ] );
      ( "processes",
        [
          Alcotest.test_case "spawn/wait" `Quick test_spawn_wait_status;
          Alcotest.test_case "implicit exit" `Quick test_spawn_implicit_exit;
          Alcotest.test_case "wait reaps" `Quick test_wait_reaps;
          Alcotest.test_case "fork/exec" `Quick test_fork_exec;
          Alcotest.test_case "fork/exec cost" `Quick
            test_fork_exec_costlier_than_spawn;
          Alcotest.test_case "fork/exec keeps inherited fds" `Quick
            test_fork_exec_keeps_inherited_fds;
          Alcotest.test_case "signal handler" `Quick test_signal_handler;
          Alcotest.test_case "sigkill" `Quick test_sigkill;
          Alcotest.test_case "tainted child" `Quick
            test_tainted_child_cannot_leak_to_fs;
        ] );
      ( "durability",
        [
          Alcotest.test_case "fsync_range sectors" `Quick
            test_fsync_range_sectors;
          Alcotest.test_case "fsync_range after logged sync" `Quick
            test_fsync_range_after_logged_sync;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "dirseg writers" `Quick
            test_dirseg_concurrent_creates;
        ] );
    ]
