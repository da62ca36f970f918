module Sys = Histar_core.Sys
module Process = Histar_unix.Process
module Fs = Histar_unix.Fs
module Label = Histar_label.Label
module Level = Histar_label.Level
open Histar_core.Types

type command = Apply of string | Snoop of string list

type t = {
  inbox : command Queue.t;
  wake_cell : centry option ref;
  applied : int ref;
  snoops : (string * bool) list ref;
}

let db_write_label ~dbw = Label.of_list [ (dbw, Level.L0) ] Level.L1

let rec await cell =
  match !cell with
  | Some v -> v
  | None ->
      Sys.yield ();
      await cell

let bump ce =
  Sys.set_segment_word ce ~off:0 (Int64.add (Sys.segment_word ce ~off:0) 1L);
  ignore (Sys.futex_wake ce ~off:0 ~count:max_int)

let start ~proc ~dbw ~db_path ~netd ~vendor =
  let t =
    {
      inbox = Queue.create ();
      wake_cell = ref None;
      applied = ref 0;
      snoops = ref [];
    }
  in
  let _h =
    Process.spawn proc ~name:"update-daemon"
      ~extra_label:[ (dbw, Level.Star) ]
      ~extra_clearance:[ (dbw, Level.L3) ]
      (fun daemon ->
        let fs = Process.fs daemon in
        let wake =
          Sys.segment_create ~container:(Process.container daemon)
            ~label:(Label.make Level.L1) ~quota:8704L ~len:8 "updated wakeup"
        in
        let wake = centry (Process.container daemon) wake in
        t.wake_cell := Some wake;
        (* fetch one update from the vendor if we have a network *)
        (match netd with
        | None -> ()
        | Some nd -> (
            try
              let scratch = Process.internal daemon in
              let sock =
                Histar_net.Netd.Client.connect nd ~return_container:scratch
                  vendor
              in
              Histar_net.Netd.Client.send nd ~return_container:scratch sock
                "GET /virusdb";
              match
                Histar_net.Netd.Client.recv nd ~return_container:scratch sock
              with
              | Some db ->
                  Fs.write_file fs db_path db;
                  incr t.applied
              | None -> ()
            with Kernel_error _ | Histar_net.Netd.Client.Netd_error _ -> ()));
        (* then serve queued commands forever *)
        let rec serve () =
          (match Queue.take_opt t.inbox with
          | Some (Apply db) ->
              (try
                 Fs.write_file fs db_path db;
                 incr t.applied
               with Kernel_error _ -> ())
          | Some (Snoop paths) ->
              List.iter
                (fun p ->
                  let ok =
                    match Fs.read_file fs p with
                    | _ -> true
                    | exception Kernel_error _ -> false
                    | exception Invalid_argument _ -> false
                  in
                  t.snoops := (p, ok) :: !(t.snoops))
                paths
          | None -> ());
          (if Queue.is_empty t.inbox then
             let gen = Sys.segment_word wake ~off:0 in
             if Queue.is_empty t.inbox then
               Sys.futex_wait wake ~off:0 ~expected:gen);
          serve ()
        in
        serve ())
  in
  t

let push_update t db =
  Queue.push (Apply db) t.inbox;
  bump (await t.wake_cell)

let try_snoop t paths =
  Queue.push (Snoop paths) t.inbox;
  bump (await t.wake_cell)

let updates_applied t = !(t.applied)
let snoop_attempts t = List.rev !(t.snoops)
