(* Shared plumbing for the benchmark executable: building simulated
   machines, timing phases on the virtual clock, and table printing. *)

module Kernel = Histar_core.Kernel
module Sys = Histar_core.Sys
module Clock = Histar_util.Sim_clock
module Disk = Histar_disk.Disk
module Store = Histar_store.Store
module Fs = Histar_unix.Fs
module Process = Histar_unix.Process
open Histar_label

let l1 = Label.make Level.L1

type machine = {
  kernel : Kernel.t;
  clock : Clock.t;
  disk : Disk.t;
  store : Store.t;
}

(* A full HiStar machine with disk-backed store. The syscall cost is
   calibrated so the paper's IPC numbers land in the right range.
   [faults] optionally wires a disk-fault decision plan (from
   [Histar_faults.Faults.Disk_faults.create]) under the media. *)
let mk_machine ?(syscall_cost_ns = 120) ?faults () =
  let clock = Clock.create () in
  let disk = Disk.create ?faults ~clock () in
  let store = Store.format ~disk ~wal_sectors:262_144 () in
  let kernel = Kernel.create ~clock ~store ~syscall_cost_ns () in
  { kernel; clock; disk; store }

(* Run [f] as init with an FS and a boot process; returns f's value. *)
let boot m f =
  let result = ref None in
  let _tid =
    Kernel.spawn m.kernel ~name:"init" (fun () ->
        let fs = Fs.format_root ~container:(Kernel.root m.kernel) ~label:l1 in
        let proc =
          Process.boot ~fs ~container:(Kernel.root m.kernel) ~name:"init" ()
        in
        result := Some (f fs proc))
  in
  Kernel.run m.kernel;
  match !result with
  | Some v -> v
  | None -> failwith "bench: init thread did not complete"

(* Virtual-time measurement of a phase. *)
let timed clock f =
  let t0 = Clock.now_ns clock in
  let v = f () in
  (v, Int64.sub (Clock.now_ns clock) t0)

(* A measured phase of a HiStar workload: its virtual time and the
   syscalls every thread made meanwhile, as a [Profile.total] delta. *)
type phase = { ns : int64; syscalls : int }

let measure m f =
  let profile = Kernel.profile m.kernel in
  let s0 = Histar_core.Profile.total profile in
  let (), ns = timed m.clock f in
  { ns; syscalls = Histar_core.Profile.total profile - s0 }

let s_of_ns ns = Int64.to_float ns /. 1e9
let us_of_ns ns = Int64.to_float ns /. 1e3

(* ---------- table printing ---------- *)

let bar = String.make 78 '-'

let header title =
  Printf.printf "\n%s\n%s\n%s\n" bar title bar

let row4 c0 c1 c2 c3 = Printf.printf "%-38s %12s %12s %12s\n" c0 c1 c2 c3

let fmt_time_s ?(digits = 2) v = Printf.sprintf "%.*f s" digits v
let fmt_time_us v = Printf.sprintf "%.2f µs" v
let fmt_time_ms v = Printf.sprintf "%.2f ms" v
let na = "—"

(* Paper-reference annotation under a row. *)
let paper note = Printf.printf "%-38s %s\n" "  (paper)" note
