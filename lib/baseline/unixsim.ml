module Disk = Histar_disk.Disk
module Clock = Histar_util.Sim_clock

type flavor = Linux | Openbsd

type params = {
  syscall_ns : float;
  ctx_switch_ns : float;
  fork_exec_ns : float;
}

(* Calibrated to the paper's testbed measurements (§7.1):
   pipe RTT = 4 syscalls + 2 switches; fork/exec/wait of a static
   /bin/true ≈ 0.18 ms on both systems. *)
let params_of = function
  | Linux -> { syscall_ns = 220.0; ctx_switch_ns = 1720.0; fork_exec_ns = 180_000.0 }
  | Openbsd -> { syscall_ns = 160.0; ctx_switch_ns = 745.0; fork_exec_ns = 180_000.0 }

type file = {
  mutable data : string;
  mutable dirty : bool;
  mutable cached : bool;  (** contents present in the buffer cache *)
  mutable home : int option;  (** first sector of the on-disk copy *)
  owner : int;
  mode : int;
}

type t = {
  flavor : flavor;
  params : params;
  clock : Clock.t;
  disk : Disk.t option;
  files : (string, file) Hashtbl.t;
  mutable next_sector : int;
  mutable journal_sector : int;
  mutable syscalls : int;
  net_sink : Buffer.t;
}

let data_region_start = 1_000_000
let journal_region_start = 500_000

let create flavor ?disk ~clock () =
  {
    flavor;
    params = params_of flavor;
    clock;
    disk = (match flavor with Openbsd -> None | Linux -> disk);
    files = Hashtbl.create 256;
    next_sector = data_region_start;
    journal_sector = journal_region_start;
    syscalls = 0;
    net_sink = Buffer.create 64;
  }

let syscall_count t = t.syscalls
let reset_syscall_count t = t.syscalls <- 0

let syscall t =
  t.syscalls <- t.syscalls + 1;
  Clock.advance t.clock (int_of_float t.params.syscall_ns)

let sectors_for bytes = (bytes + 511) / 512

let pad_sectors s =
  let n = sectors_for (String.length s) in
  s ^ String.make ((n * 512) - String.length s) '\000'

(* write a file's data blocks to their home location (allocating one) *)
let write_home t f =
  match t.disk with
  | None -> ()
  | Some d ->
      let image = pad_sectors f.data in
      let sectors = String.length image / 512 in
      let start =
        match f.home with
        | Some s -> s
        | None ->
            let s = t.next_sector in
            t.next_sector <- t.next_sector + sectors + 1;
            f.home <- Some s;
            s
      in
      Disk.write d ~sector:start image

let journal_commit t ~sectors =
  match t.disk with
  | None -> ()
  | Some d ->
      let blob = String.make (sectors * 512) 'J' in
      if t.journal_sector + sectors >= data_region_start then
        t.journal_sector <- journal_region_start;
      Disk.write d ~sector:t.journal_sector blob;
      t.journal_sector <- t.journal_sector + sectors;
      Disk.flush d

(* ---------- file system calls ---------- *)

let find t path =
  match Hashtbl.find_opt t.files path with
  | Some f -> f
  | None -> failwith (Printf.sprintf "unixsim: no such file: %s" path)

let check_read f ~uid =
  if f.mode land 0o044 = 0 && f.owner <> uid then
    failwith "unixsim: permission denied"

let check_write f ~uid =
  if f.mode land 0o022 = 0 && f.owner <> uid then
    failwith "unixsim: permission denied"

let creat t ~uid ~mode path =
  syscall t;
  Hashtbl.replace t.files path
    { data = ""; dirty = true; cached = true; home = None; owner = uid; mode }

let write t ~uid path data =
  syscall t;
  let f = find t path in
  check_write f ~uid;
  f.data <- data;
  f.dirty <- true;
  f.cached <- true

let read t ~uid path =
  syscall t;
  let f = find t path in
  check_read f ~uid;
  if not f.cached then begin
    (match (t.disk, f.home) with
    | Some d, Some start ->
        ignore (Disk.read d ~sector:start ~count:(max 1 (sectors_for (String.length f.data))))
    | _ -> ());
    f.cached <- true
  end;
  f.data

let unlink t ~uid path =
  syscall t;
  let f = find t path in
  check_write f ~uid;
  Hashtbl.remove t.files path

let fsync t path =
  syscall t;
  match t.flavor with
  | Openbsd -> () (* mfs: nothing to do *)
  | Linux -> (
      match Hashtbl.find_opt t.files path with
      | Some f when f.dirty -> (
          (* ext3 ordered mode: data to home, barrier, then the journal
             commit record, barrier *)
          write_home t f;
          (match t.disk with Some d -> Disk.flush d | None -> ());
          journal_commit t ~sectors:2;
          f.dirty <- false)
      | Some _ | None ->
          (* still journals the (possibly deleted) dirent metadata *)
          journal_commit t ~sectors:2)

let fsync_dir t _path =
  syscall t;
  match t.flavor with Openbsd -> () | Linux -> journal_commit t ~sectors:2

let exists t path = Hashtbl.mem t.files path

let sync_all t =
  syscall t;
  match t.flavor with
  | Openbsd -> ()
  | Linux ->
      Hashtbl.iter
        (fun _ f ->
          if f.dirty then begin
            write_home t f;
            f.dirty <- false
          end)
        t.files;
      (match t.disk with Some d -> Disk.flush d | None -> ());
      journal_commit t ~sectors:2

let drop_caches t = Hashtbl.iter (fun _ f -> f.cached <- false) t.files

(* §7.1 random-write phase: Linux flushes two 4KB pages per synchronous
   8KB write. *)
let sync_write_pages t path ~pages =
  syscall t;
  match t.disk with
  | None -> ()
  | Some d -> (
      let f = find t path in
      match f.home with
      | None ->
          write_home t f;
          Disk.flush d
      | Some start ->
          (* data page(s) in place plus the journal metadata record,
             forced with one barrier — two disk locations per
             synchronous write, like ext3 *)
          Disk.write d ~sector:start (String.make (pages * 4 * 512) 'P');
          Disk.write d ~sector:t.journal_sector (String.make 1024 'J');
          t.journal_sector <- t.journal_sector + 2;
          if t.journal_sector >= data_region_start then
            t.journal_sector <- journal_region_start;
          Disk.flush d)

(* ---------- processes and IPC ---------- *)

let fork_exec_true t =
  (* fork, execve, brk, mmap, exit_group in the child; clone return,
     wait4 and friends in the parent: 9 calls on this interface (§7.1) *)
  for _ = 1 to 9 do
    syscall t
  done;
  Clock.advance t.clock (int_of_float t.params.fork_exec_ns)

let pipe_rtt t =
  (* write + read in each direction, with a context switch per hop *)
  for _ = 1 to 4 do
    syscall t
  done;
  Clock.advance t.clock (int_of_float (2.0 *. t.params.ctx_switch_ns))

(* ---------- the attack surface ---------- *)

type leak = { channel : string; succeeded : bool }

let network_sink t = Buffer.contents t.net_sink

let attack_surface t ~secret =
  let attempt channel f =
    let succeeded = match f () with () -> true | exception _ -> false in
    { channel; succeeded }
  in
  let uid_scanner = 1000 in
  [
    (* the scanner runs with the user's uid: DAC lets it read the files
       and then do whatever it likes with the bytes *)
    attempt "direct-tcp" (fun () ->
        syscall t;
        Buffer.add_string t.net_sink secret);
    attempt "shared-tmp" (fun () ->
        if not (exists t "/tmp/dead-drop") then
          creat t ~uid:uid_scanner ~mode:0o666 "/tmp/dead-drop";
        write t ~uid:uid_scanner "/tmp/dead-drop" secret);
    attempt "new-public-file" (fun () ->
        creat t ~uid:uid_scanner ~mode:0o644 "/tmp/loot";
        write t ~uid:uid_scanner "/tmp/loot" secret);
    attempt "quota-channel" (fun () ->
        (* modulating disk usage: just write a sized file *)
        creat t ~uid:uid_scanner ~mode:0o644 "/tmp/pad";
        write t ~uid:uid_scanner "/tmp/pad" (String.make (String.length secret) 'x'));
    attempt "futex-signal" (fun () ->
        (* SysV semaphores/futexes are uid-agnostic *)
        syscall t);
    attempt "virus-db" (fun () ->
        if not (exists t "/var/db/virus.db") then
          creat t ~uid:uid_scanner ~mode:0o666 "/var/db/virus.db";
        write t ~uid:uid_scanner "/var/db/virus.db" secret);
  ]
