module Sys = Histar_core.Sys
module Label = Histar_label.Label
module Level = Histar_label.Level
module Category = Histar_label.Category
module Codec = Histar_util.Codec
open Histar_core.Types

type user = { user_name : string; ur : Category.t; uw : Category.t }

type fd_target =
  | T_file of centry
  | T_pipe_r of Pipe.t
  | T_pipe_w of Pipe.t

type fd_state = {
  fd_seg : centry;  (** seek position and flags, label {fr3, fw0, 1} *)
  target : fd_target;
  fr : Category.t;
  fw : Category.t;
  append : bool;
}

type t = {
  pname : string;
  parent_ct : oid;  (** container holding the process container *)
  proc_ct : oid;
  internal_ct : oid;
  pr : Category.t;
  pw : Category.t;
  exit_seg : centry;
  signal_gate : centry;
  as_entry : centry;
  puser : user option;
  pfs : Fs.t;
  fds : (int, fd_state) Hashtbl.t;
  mutable next_fd : int;
  handlers : (int, int -> unit) Hashtbl.t;
  out_buf : Buffer.t;
  mutable sig_thread : oid;
  exit_gate : centry option;
      (** §5.8 untainting gate for process exit: lets a tainted child
          declassify the single fact that it exited, with its status *)
}

type handle = {
  h_parent_ct : oid;
  h_proc_ct : oid;
  h_exit_seg : centry;
  h_signal_gate : centry;
  h_pr : Category.t;  (** needed to request the gate's grant on kill *)
  h_pw : Category.t;
}

type fd = int

let name t = t.pname
let fs t = t.pfs
let container t = t.proc_ct
let internal t = t.internal_ct
let categories t = (t.pr, t.pw)
let output t = t.out_buf
let printf t fmt = Printf.bprintf t.out_buf fmt
let handle_container h = h.h_proc_ct
let fd_count t = Hashtbl.length t.fds

let l entries d = Label.of_list entries d

(* The label of a process's threads: {pr⋆, pw⋆, user cats ⋆, extras, 1} *)
let thread_label ~pr ~pw ~user ~extra =
  let base =
    l
      ([ (pr, Level.Star); (pw, Level.Star) ]
      @ (match user with
        | Some u -> [ (u.ur, Level.Star); (u.uw, Level.Star) ]
        | None -> [])
      @ extra)
      Level.L1
  in
  base

(* Clearance covering a label: owned categories at 3, default 2. *)
let clearance_for ?(extra = []) label =
  let base =
    Category.Set.fold
      (fun c acc -> Label.set acc c Level.L3)
      (Label.owned label) (Label.make Level.L2)
  in
  List.fold_left (fun acc (c, lv) -> Label.set acc c lv) base extra

(* ---------- process structure (Figure 6) ---------- *)

let publish_exit exit_seg status =
  Sys.set_segment_word exit_seg ~off:8 (Int64.of_int status);
  Sys.set_segment_word exit_seg ~off:0 1L;
  ignore (Sys.futex_wake exit_seg ~off:0 ~count:max_int)

(* The exit gate runs with the spawner's ownership (including any taint
   categories it owns), so it may declassify the exit event. *)
let exit_gate_entry exit_seg () =
  let d = Codec.Dec.of_string (Sys.tls_read ()) in
  let status = Codec.Dec.u32 d in
  publish_exit exit_seg status;
  Sys.self_halt ()

let make_exit_gate ~proc_ct ~exit_seg =
  (* clearance = the spawner's clearance, so children tainted in any
     category the spawner has clearance for can still invoke it *)
  let gate =
    Sys.gate_create ~container:proc_ct ~label:(Sys.self_label ())
      ~clearance:(Sys.self_clearance ()) ~quota:4096L ~name:"exit gate"
      (exit_gate_entry exit_seg)
  in
  centry proc_ct gate

(* The label of a process's private objects: {pr3, pw0, 1}. *)
let priv_label ~pr ~pw = l [ (pr, Level.L3); (pw, Level.L0) ] Level.L1

(* The one place a process is built: its two categories, its
   containers, exit segment and address-space object (Figure 6), and,
   if [untaint_exit], its exit gate. Runs in the creating thread, which
   owns [pr] and [pw] from here on. [signal_gate] is a placeholder
   until [install_signal_infra] replaces it. *)
let new_process ~name ~parent_ct ~user ~pfs ~out_buf ~untaint_exit =
  let pr = Sys.cat_create () in
  let pw = Sys.cat_create () in
  let pub_label = l [ (pw, Level.L0) ] Level.L1 in
  let priv_label = priv_label ~pr ~pw in
  let proc_ct =
    Sys.container_create ~container:parent_ct ~label:pub_label
      ~quota:16_777_216L (name ^ " proc")
  in
  let internal_ct =
    Sys.container_create ~container:proc_ct ~label:priv_label ~quota:8_388_608L
      (name ^ " internal")
  in
  let exit_oid =
    Sys.segment_create ~container:proc_ct ~label:pub_label ~quota:4608L ~len:16
      (name ^ " exit status")
  in
  let as_oid =
    Sys.as_create ~container:internal_ct ~label:priv_label ~quota:4608L
      (name ^ " as")
  in
  let exit_seg = centry proc_ct exit_oid in
  let exit_gate =
    if untaint_exit then Some (make_exit_gate ~proc_ct ~exit_seg) else None
  in
  {
    pname = name;
    parent_ct;
    proc_ct;
    internal_ct;
    pr;
    pw;
    exit_seg;
    signal_gate = exit_seg;
    as_entry = centry internal_ct as_oid;
    puser = user;
    pfs;
    fds = Hashtbl.create 8;
    next_fd = 3;
    handlers = Hashtbl.create 4;
    out_buf;
    sig_thread = 0;
    exit_gate;
  }

(* Map text/data/bss/environ/heap/stack into a process address space,
   as exec does. *)
let setup_address_space p ~text =
  let internal_ct = p.internal_ct and as_entry = p.as_entry in
  let priv_label = priv_label ~pr:p.pr ~pw:p.pw in
  let heap =
    Sys.segment_create ~container:internal_ct ~label:priv_label ~quota:266_240L
      ~len:4096 "heap"
  in
  let stack =
    Sys.segment_create ~container:internal_ct ~label:priv_label ~quota:266_240L
      ~len:8192 "stack"
  in
  let data =
    Sys.segment_create ~container:internal_ct ~label:priv_label ~quota:133_120L
      ~len:4096 "data"
  in
  let environ =
    Sys.segment_create ~container:internal_ct ~label:priv_label ~quota:69_632L
      ~len:1024 "environ"
  in
  let flags_rw0 = { Histar_core.Syscall.read = true; write = true; exec = false } in
  Sys.as_map as_entry
    {
      Histar_core.Syscall.va = 0x500000L;
      seg = centry internal_ct data;
      offset = 0;
      npages = 1;
      flags = flags_rw0;
    };
  Sys.as_map as_entry
    {
      Histar_core.Syscall.va = 0x7fe000L;
      seg = centry internal_ct environ;
      offset = 0;
      npages = 1;
      flags = flags_rw0;
    };
  let flags_rw = { Histar_core.Syscall.read = true; write = true; exec = false } in
  let flags_rx = { Histar_core.Syscall.read = true; write = false; exec = true } in
  (match text with
  | Some text_ce ->
      Sys.as_map as_entry
        {
          Histar_core.Syscall.va = 0x400000L;
          seg = text_ce;
          offset = 0;
          npages = 16;
          flags = flags_rx;
        }
  | None -> ());
  Sys.as_map as_entry
    {
      Histar_core.Syscall.va = 0x600000L;
      seg = centry internal_ct heap;
      offset = 0;
      npages = 1;
      flags = flags_rw;
    };
  Sys.as_map as_entry
    {
      Histar_core.Syscall.va = 0x7ff000L;
      seg = centry internal_ct stack;
      offset = 0;
      npages = 2;
      flags = flags_rw;
    }

(* The signal dispatcher thread: waits for alerts and runs handlers.
   Signal 9 always destroys the process. *)
let signal_thread_body proc () =
  Sys.self_set_as proc.as_entry;
  let rec loop () =
    let s = Sys.wait_alert () in
    if s = 9 then begin
      (* destroy the whole process; this thread dies with it *)
      Sys.unref (centry proc.parent_ct proc.proc_ct);
      Sys.self_halt ()
    end
    else begin
      (match Hashtbl.find_opt proc.handlers s with
      | Some h -> ( try h s with _ -> ())
      | None -> ());
      loop ()
    end
  in
  loop ()

(* The signal gate: runs on the sender's thread with {pr⋆, pw⋆},
   reads the signal number from the TLS and alerts the dispatcher. *)
let signal_gate_entry proc () =
  let d = Codec.Dec.of_string (Sys.tls_read ()) in
  let s = Codec.Dec.u8 d in
  (try Sys.thread_alert (centry proc.proc_ct proc.sig_thread) s
   with Kernel_error _ -> ());
  Sys.gate_return ()

let install_signal_infra proc =
  let gate_label = l [ (proc.pr, Level.Star); (proc.pw, Level.Star) ] Level.L1 in
  let gate_clearance =
    match proc.puser with
    | Some u -> l [ (u.uw, Level.L0) ] Level.L2
    | None -> Label.make Level.L2
  in
  let tlabel = thread_label ~pr:proc.pr ~pw:proc.pw ~user:proc.puser ~extra:[] in
  let sig_tid =
    Sys.thread_create ~container:proc.proc_ct ~label:tlabel
      ~clearance:(clearance_for tlabel) ~quota:65_536L
      ~name:(proc.pname ^ " sigthread")
      (fun () -> signal_thread_body proc ())
  in
  proc.sig_thread <- sig_tid;
  let gate_oid =
    Sys.gate_create ~container:proc.proc_ct ~label:gate_label
      ~clearance:gate_clearance ~quota:4096L ~name:(proc.pname ^ " signal gate")
      (fun () -> signal_gate_entry proc ())
  in
  centry proc.proc_ct gate_oid

let boot ~fs ~container ?user ~name () =
  let proc =
    new_process ~name ~parent_ct:container ~user ~pfs:fs
      ~out_buf:(Buffer.create 256) ~untaint_exit:false
  in
  setup_address_space proc ~text:None;
  let signal_gate = install_signal_infra proc in
  Sys.self_set_as proc.as_entry;
  { proc with signal_gate }

(* ---------- file descriptors ---------- *)

let mk_fd_state_with_cats proc target ~append ~fr ~fw =
  let fd_label = l [ (fr, Level.L3); (fw, Level.L0) ] Level.L1 in
  let seg =
    Sys.segment_create ~container:proc.proc_ct ~label:fd_label ~quota:4624L
      ~len:16 "fd segment"
  in
  { fd_seg = centry proc.proc_ct seg; target; fr; fw; append }

let mk_fd_state proc target ~append =
  let fr = Sys.cat_create () in
  let fw = Sys.cat_create () in
  mk_fd_state_with_cats proc target ~append ~fr ~fw

let alloc_fd proc st =
  let n = proc.next_fd in
  proc.next_fd <- n + 1;
  Hashtbl.replace proc.fds n st;
  n

let get_fd proc n =
  match Hashtbl.find_opt proc.fds n with
  | Some st -> st
  | None -> invalid_arg (Printf.sprintf "%s: bad fd %d" proc.pname n)

let open_file proc ?(append = false) path =
  match Fs.lookup proc.pfs path with
  | Some node when not node.Fs.is_dir ->
      alloc_fd proc (mk_fd_state proc (T_file (Fs.entry node)) ~append)
  | Some _ -> invalid_arg (Printf.sprintf "open_file: %s is a directory" path)
  | None -> invalid_arg (Printf.sprintf "open_file: no such file: %s" path)

let create_file proc ?label path =
  let ce = Fs.create proc.pfs ?label path in
  alloc_fd proc (mk_fd_state proc (T_file ce) ~append:false)

let read proc n max =
  let st = get_fd proc n in
  match st.target with
  | T_file file ->
      let pos = Int64.to_int (Sys.segment_word st.fd_seg ~off:0) in
      let size = Sys.segment_size file in
      let len = min max (size - pos) in
      if len <= 0 then ""
      else begin
        let data = Sys.segment_read file ~off:pos ~len () in
        Sys.set_segment_word st.fd_seg ~off:0 (Int64.of_int (pos + len));
        data
      end
  | T_pipe_r p -> ( match Pipe.read p ~max with Some d -> d | None -> "")
  | T_pipe_w _ -> invalid_arg "read: write end of a pipe"

let write proc n data =
  let st = get_fd proc n in
  match st.target with
  | T_file file ->
      let size = Sys.segment_size file in
      let pos =
        if st.append then size
        else Int64.to_int (Sys.segment_word st.fd_seg ~off:0)
      in
      let endpos = pos + String.length data in
      if endpos > size then Sys.segment_resize file endpos;
      Sys.segment_write file ~off:pos data;
      if not st.append then
        Sys.set_segment_word st.fd_seg ~off:0 (Int64.of_int endpos);
      String.length data
  | T_pipe_w p ->
      Pipe.write p data;
      String.length data
  | T_pipe_r _ -> invalid_arg "write: read end of a pipe"

let seek proc n pos =
  let st = get_fd proc n in
  Sys.set_segment_word st.fd_seg ~off:0 (Int64.of_int pos)

let fd_pos proc n =
  Int64.to_int (Sys.segment_word (get_fd proc n).fd_seg ~off:0)

let close proc n =
  let st = get_fd proc n in
  (match st.target with
  | T_pipe_w p -> Pipe.close_writer p
  | T_pipe_r _ | T_file _ -> ());
  Sys.unref st.fd_seg;
  Hashtbl.remove proc.fds n

(* Both pipe ends share one category pair: every process holding
   either end needs to lock, read and advance the ring. The backing
   segment lives in the (publicly resolvable) process container. *)
let pipe proc =
  let fr = Sys.cat_create () in
  let fw = Sys.cat_create () in
  let plabel = l [ (fr, Level.L3); (fw, Level.L0) ] Level.L1 in
  let p = Pipe.create ~container:proc.proc_ct ~label:plabel in
  let rfd =
    alloc_fd proc (mk_fd_state_with_cats proc (T_pipe_r p) ~append:false ~fr ~fw)
  in
  let wfd =
    alloc_fd proc (mk_fd_state_with_cats proc (T_pipe_w p) ~append:false ~fr ~fw)
  in
  (rfd, wfd)

(* ---------- spawn / fork+exec ---------- *)

(* Hard-link an object into [dst_ct], tolerating an existing link
   (both pipe ends share one backing segment). *)
let link_into ~dst_ct target =
  Sys.set_fixed_quota target;
  match Sys.container_link ~container:dst_ct ~target with
  | () -> ()
  | exception Kernel_error (Invalid _) -> ()

let inherit_fd parent child n =
  let st =
    match Hashtbl.find_opt parent.fds n with
    | Some st -> st
    | None -> invalid_arg (Printf.sprintf "inherit_fd: bad fd %d" n)
  in
  link_into ~dst_ct:child.proc_ct st.fd_seg;
  let relink_pipe p =
    let pe = Pipe.entry p in
    link_into ~dst_ct:child.proc_ct pe;
    Pipe.of_entry (centry child.proc_ct pe.object_id)
  in
  let target =
    match st.target with
    | T_file f -> T_file f
    | T_pipe_r p -> T_pipe_r (relink_pipe p)
    | T_pipe_w p ->
        Pipe.add_writer p;
        T_pipe_w (relink_pipe p)
  in
  Hashtbl.replace child.fds n
    { st with fd_seg = centry child.proc_ct st.fd_seg.object_id; target }

let inherited_cats proc fds =
  List.concat_map
    (fun n ->
      let st = get_fd proc n in
      [ (st.fr, Level.Star); (st.fw, Level.Star) ])
    fds

(* Terminate the current thread, publishing [status]. A thread that has
   tainted itself cannot write the exit-status segment directly — doing
   so would leak — so it falls back to the process's exit untainting
   gate if its creator provided one (§5.8). With no gate the exit is
   silent, which is exactly the strong-isolation configuration wrap
   uses for the virus scanner. *)
let do_exit proc status : unit =
  match publish_exit proc.exit_seg status with
  | () -> Sys.self_halt ()
  | exception Kernel_error (Label_check _) -> (
      match proc.exit_gate with
      | None -> Sys.self_halt ()
      | Some gate ->
          let e = Codec.Enc.create () in
          Codec.Enc.u32 e status;
          Sys.tls_write (Codec.Enc.to_string e);
          let self = Sys.self_label () in
          let gl = Sys.obj_label gate in
          let floor =
            Label.lower_star (Label.lub (Label.raise_j self) (Label.raise_j gl))
          in
          Sys.gate_enter ~gate ~label:floor ~clearance:(Sys.self_clearance ())
            ())

(* The common tail: create the child's main thread running [main]. *)
let start_main_thread ~proc_for_child ~tlabel ~tclear ~name main =
  Sys.thread_create ~container:proc_for_child.proc_ct ~label:tlabel
    ~clearance:tclear ~quota:262_144L ~name:(name ^ " main")
    (fun () ->
      Sys.self_set_as proc_for_child.as_entry;
      main proc_for_child;
      (* falling off the end = exit 0 *)
      do_exit proc_for_child 0)

(* The common end of [spawn] and [fork_exec], once [child]'s address
   space is set up: inherit the descriptors [fds] by hard-linking each
   descriptor segment (and any pipe backing segment) into the child's
   own container, so the objects survive whichever process exits first
   and each holder can unreference its own link (§5.3); then start the
   signal machinery and the main thread. *)
let start_child proc child ~fds ~extra_label ~extra_clearance main =
  List.iter (fun n -> inherit_fd proc child n) fds;
  if fds <> [] then
    child.next_fd <- 1 + List.fold_left max child.next_fd fds;
  let signal_gate = install_signal_infra child in
  let child = { child with signal_gate } in
  let tlabel =
    thread_label ~pr:child.pr ~pw:child.pw ~user:child.puser
      ~extra:(inherited_cats proc fds @ extra_label)
  in
  let tclear = clearance_for ~extra:extra_clearance tlabel in
  let _tid =
    start_main_thread ~proc_for_child:child ~tlabel ~tclear ~name:child.pname
      main
  in
  {
    h_parent_ct = child.parent_ct;
    h_proc_ct = child.proc_ct;
    h_exit_seg = child.exit_seg;
    h_signal_gate = signal_gate;
    h_pr = child.pr;
    h_pw = child.pw;
  }

let spawn proc ~name ?user ?(fds = []) ?(extra_label = [])
    ?(extra_clearance = []) ?(untaint_exit = true) ?in_container main =
  let child =
    new_process ~name
      ~parent_ct:(Option.value in_container ~default:proc.parent_ct)
      ~user:(match user with Some _ -> user | None -> proc.puser)
      ~pfs:(Fs.copy proc.pfs) ~out_buf:proc.out_buf ~untaint_exit
  in
  setup_address_space child ~text:None;
  start_child proc child ~fds ~extra_label ~extra_clearance main

(* fork + exec: faithfully wasteful. fork copies the parent's writable
   segments and descriptor state into a new process; exec throws the
   copies away and rebuilds from the executable. *)
let fork_exec proc ~name ?text ?(fds = []) main =
  let child =
    new_process ~name ~parent_ct:proc.parent_ct ~user:proc.puser
      ~pfs:(Fs.copy proc.pfs) ~out_buf:proc.out_buf ~untaint_exit:true
  in
  let internal_ct = child.internal_ct and as_entry = child.as_entry in
  let priv_label = priv_label ~pr:child.pr ~pw:child.pw in
  (* --- fork: duplicate the parent's address-space contents --- *)
  let parent_mappings = Sys.as_get proc.as_entry in
  let copies =
    List.map
      (fun m ->
        let seg = m.Histar_core.Syscall.seg in
        let copy =
          Sys.segment_copy ~src:seg ~container:internal_ct ~label:priv_label
            ~quota:266_240L "fork copy"
        in
        (m, copy))
      parent_mappings
  in
  List.iter
    (fun (m, copy) ->
      Sys.as_map as_entry
        { m with Histar_core.Syscall.seg = centry internal_ct copy })
    copies;
  (* duplicate every descriptor's state segment, as fork shares them *)
  let fd_copies =
    Hashtbl.fold
      (fun _ st acc ->
        Sys.segment_copy ~src:st.fd_seg ~container:internal_ct
          ~label:priv_label ~quota:8192L "fd copy"
        :: acc)
      proc.fds []
  in
  (* --- exec: discard the copies, rebuild a fresh image --- *)
  List.iter
    (fun (m, copy) ->
      Sys.as_unmap as_entry m.Histar_core.Syscall.va;
      Sys.unref (centry internal_ct copy))
    copies;
  List.iter (fun c -> Sys.unref (centry internal_ct c)) fd_copies;
  let text_ce =
    match text with
    | Some path -> (
        match Fs.lookup proc.pfs path with
        | Some node when not node.Fs.is_dir -> Some (Fs.entry node)
        | Some _ | None ->
            invalid_arg (Printf.sprintf "exec: no such executable: %s"
                           (Option.value text ~default:"?")))
    | None -> None
  in
  setup_address_space child ~text:text_ce;
  start_child proc child ~fds ~extra_label:[] ~extra_clearance:[] main

(* ---------- wait / exit / kill ---------- *)

let wait _proc h =
  let rec block () =
    let done_ = Sys.segment_word h.h_exit_seg ~off:0 in
    if Int64.equal done_ 0L then begin
      Sys.futex_wait h.h_exit_seg ~off:0 ~expected:0L;
      block ()
    end
  in
  block ();
  let status = Int64.to_int (Sys.segment_word h.h_exit_seg ~off:8) in
  (* reap: destroy the process subtree *)
  (try Sys.unref (centry h.h_parent_ct h.h_proc_ct) with Kernel_error _ -> ());
  status

let exit proc status =
  do_exit proc status;
  (* do_exit never returns; this only fixes the type *)
  Sys.self_halt ()

let kill proc h signal =
  let e = Codec.Enc.create () in
  Codec.Enc.u8 e signal;
  Sys.tls_write (Codec.Enc.to_string e);
  (* request the privileges the signal gate grants: the target's pr/pw *)
  let granted =
    Label.set
      (Label.set (Sys.self_label ()) h.h_pr Level.Star)
      h.h_pw Level.Star
  in
  Sys.gate_call ~gate:h.h_signal_gate ~label:granted
    ~clearance:(Sys.self_clearance ()) ~return_container:proc.internal_ct
    ~return_label:(Sys.self_label ())
    ~return_clearance:(Sys.self_clearance ()) ()

(* Ensure the process container has at least [n] spare bytes, pulling
   quota from the enclosing container (which for top-level processes is
   the root, with quota ∞). *)
let reserve proc n =
  let q, u = Sys.obj_quota (self_entry proc.proc_ct) in
  let avail =
    if Int64.equal q Int64.max_int then Int64.max_int else Int64.sub q u
  in
  if Int64.compare avail n < 0 then
    Sys.quota_move ~container:proc.parent_ct ~target:proc.proc_ct
      ~nbytes:(Int64.sub n avail)

let on_signal proc s handler =
  if s = 9 then invalid_arg "on_signal: SIGKILL cannot be caught";
  Hashtbl.replace proc.handlers s handler
