exception Crashed
exception Read_error of { sector : int; transient : bool }

module Metrics = Histar_metrics.Metrics
module Disk_faults = Histar_faults.Faults.Disk_faults
module Bptree = Histar_btree.Bptree

(* Process-global media counters and decomposed service-time totals
   (§7's disk model made observable: where virtual time on the platter
   actually goes). These counters are the disk's only accounting: a
   caller that wants one disk's work reads their deltas in a scope. *)
let m_reads = Metrics.counter "disk.reads"
let m_sectors_read = Metrics.counter "disk.sectors_read"
let m_media_sector_writes = Metrics.counter "disk.media_sector_writes"
let m_flushes = Metrics.counter "disk.flushes"
let m_seeks = Metrics.counter "disk.seeks"
let m_seek_ns = Metrics.counter "disk.seek_ns"
let m_rotate_ns = Metrics.counter "disk.rotate_ns"
let m_transfer_ns = Metrics.counter "disk.transfer_ns"
let m_read_retries = Metrics.counter "disk.read_retries"
let m_read_errors = Metrics.counter "disk.read_errors"

type geometry = { sectors : int; sector_bytes : int }

let default_geometry = { sectors = 78_125_000; sector_bytes = 512 }

type params = {
  seek_min_us : float;
  seek_max_us : float;
  rotation_us : float;
  transfer_us_per_sector : float;
}

(* Seagate Barracuda 7200.7: 7200 RPM, ~8.5ms average seek, ~58 MB/s. *)
let default_params =
  {
    seek_min_us = 800.0;
    seek_max_us = 17_000.0;
    rotation_us = 8_333.0;
    transfer_us_per_sector = 512.0 /. 58.0;
  }

(* The durable media is a persistent map sector → contents: capturing
   "the platter as of this instant" is an O(1) root copy, which is what
   lets the crash sweep snapshot at every write instead of replaying
   the workload prefix for every crash point. The volatile write cache
   stays a hash table — it is lost on crash. *)
type t = {
  geometry : geometry;
  params : params;
  clock : Histar_util.Sim_clock.t;
  mutable media : string Bptree.t;  (** durable contents *)
  cache : (int, string) Hashtbl.t;  (** volatile dirty sectors *)
  mutable head : int;  (** current head position (sector) *)
  mutable crash_after : int option;  (** media writes remaining before crash *)
  mutable is_crashed : bool;
  mutable media_writes : int;  (** lifetime media sector writes (monotonic) *)
  mutable write_trace : (sector:int -> data:string -> unit) option;
  mutable pre_write_hook : (unit -> unit) option;
  mutable faults : Disk_faults.t option;  (** injected media faults *)
}

let create ?(geometry = default_geometry) ?(params = default_params) ?faults
    ~clock () =
  {
    faults;
    geometry;
    params;
    clock;
    media = Bptree.create ();
    cache = Hashtbl.create 256;
    head = 0;
    crash_after = None;
    is_crashed = false;
    media_writes = 0;
    write_trace = None;
    pre_write_hook = None;
  }

let set_faults t f = t.faults <- f
let faults t = t.faults
let geometry t = t.geometry
let clock t = t.clock

let check_alive t = if t.is_crashed then raise Crashed

let check_range t sector count =
  if sector < 0 || count < 0 || sector + count > t.geometry.sectors then
    invalid_arg
      (Printf.sprintf "Disk: sector range [%d, %d) out of bounds" sector
         (sector + count))

(* Charge seek + rotational latency when the head moves, then transfer
   time for [count] contiguous sectors. *)
let charge_io t ~sector ~count =
  let p = t.params in
  if t.head <> sector then begin
    Metrics.Counter.incr m_seeks;
    let dist = float_of_int (abs (sector - t.head)) in
    let frac = dist /. float_of_int t.geometry.sectors in
    let seek = p.seek_min_us +. ((p.seek_max_us -. p.seek_min_us) *. sqrt frac) in
    Metrics.Counter.add m_seek_ns (int_of_float (seek *. 1e3));
    Metrics.Counter.add m_rotate_ns (int_of_float (p.rotation_us /. 2.0 *. 1e3));
    Histar_util.Sim_clock.advance_us t.clock (seek +. (p.rotation_us /. 2.0))
  end;
  let transfer = p.transfer_us_per_sector *. float_of_int count in
  Metrics.Counter.add m_transfer_ns (int_of_float (transfer *. 1e3));
  Histar_util.Sim_clock.advance_us t.clock transfer;
  t.head <- sector + count

let zero_sector t = String.make t.geometry.sector_bytes '\000'

let sector_contents t i =
  match Hashtbl.find_opt t.cache i with
  | Some s -> s
  | None -> (
      match Bptree.find t.media i with
      | Some s -> s
      | None -> zero_sector t)

let read t ~sector ~count =
  check_alive t;
  check_range t sector count;
  Metrics.Counter.incr m_reads;
  Metrics.Counter.add m_sectors_read count;
  (* Cached (dirty) sectors cost nothing extra; charge for the whole run
     conservatively as one media access. *)
  charge_io t ~sector ~count;
  (* Injected media faults only apply to sectors actually served from
     the platter; dirty sectors still in the volatile cache are RAM. *)
  (match t.faults with
  | None -> ()
  | Some f ->
      for i = sector to sector + count - 1 do
        if not (Hashtbl.mem t.cache i) then
          match Disk_faults.on_read f ~sector:i with
          | Disk_faults.Read_ok -> ()
          | Disk_faults.Read_transient ->
              Metrics.Counter.incr m_read_errors;
              raise (Read_error { sector = i; transient = true })
          | Disk_faults.Read_latent ->
              Metrics.Counter.incr m_read_errors;
              raise (Read_error { sector = i; transient = false })
      done);
  let buf = Buffer.create (count * t.geometry.sector_bytes) in
  for i = sector to sector + count - 1 do
    Buffer.add_string buf (sector_contents t i)
  done;
  Buffer.contents buf

(* Bounded retry with exponential backoff charged on the virtual
   clock.  Transient errors are retried; latent sector errors are
   persistent by definition, so they propagate immediately and the
   caller decides (give up, or repair + rewrite). *)
let read_retrying ?(attempts = 6) t ~sector ~count =
  let rec go n backoff_us =
    try read t ~sector ~count with
    | Read_error { transient = true; _ } when n + 1 < attempts ->
        Metrics.Counter.incr m_read_retries;
        Histar_util.Sim_clock.advance_us t.clock backoff_us;
        go (n + 1) (backoff_us *. 2.0)
  in
  go 0 100.0

let write t ~sector data =
  check_alive t;
  let sb = t.geometry.sector_bytes in
  if String.length data mod sb <> 0 then
    invalid_arg "Disk.write: data not a multiple of the sector size";
  let count = String.length data / sb in
  check_range t sector count;
  for i = 0 to count - 1 do
    Hashtbl.replace t.cache (sector + i) (String.sub data (i * sb) sb)
  done

let media_write_one t i data =
  (* The pre-write hook observes the media *before* this write applies:
     at [media_writes = n] it sees exactly the platter a crash at index
     n would leave behind (writes 0..n-1, volatile cache lost). *)
  (match t.pre_write_hook with Some f -> f () | None -> ());
  (match t.crash_after with
  | Some 0 ->
      t.is_crashed <- true;
      Hashtbl.reset t.cache;
      raise Crashed
  | Some n -> t.crash_after <- Some (n - 1)
  | None -> ());
  let data =
    match t.faults with
    | Some f -> Disk_faults.on_media_write f ~sector:i data
    | None -> data
  in
  t.media <- Bptree.insert t.media i data;
  t.media_writes <- t.media_writes + 1;
  Metrics.Counter.incr m_media_sector_writes;
  match t.write_trace with
  | Some f -> f ~sector:i ~data
  | None -> ()

let flush t =
  check_alive t;
  Metrics.Counter.incr m_flushes;
  let dirty = Hashtbl.fold (fun i _ acc -> i :: acc) t.cache [] in
  let dirty = List.sort Int.compare dirty in
  (* A write barrier waits for the platter: charge half a rotation for
     any non-empty flush, on top of per-run seek and transfer costs.
     This is what makes per-file fsync pay dearly compared to one big
     group sync (the paper's 459s vs 2.57s LFS result). *)
  if dirty <> [] then begin
    Metrics.Counter.add m_rotate_ns
      (int_of_float (t.params.rotation_us /. 2.0 *. 1e3));
    Histar_util.Sim_clock.advance_us t.clock (t.params.rotation_us /. 2.0)
  end;
  (* Elevator scan: charge per contiguous run, write each sector. *)
  let rec runs = function
    | [] -> []
    | x :: rest ->
        let rec take_run last = function
          | y :: tl when y = last + 1 -> take_run y tl
          | tl -> (last, tl)
        in
        let last, tl = take_run x rest in
        (x, last - x + 1) :: runs tl
  in
  List.iter
    (fun (start, count) ->
      charge_io t ~sector:start ~count;
      for i = start to start + count - 1 do
        let data = Hashtbl.find t.cache i in
        media_write_one t i data
      done)
    (runs dirty);
  Hashtbl.reset t.cache

let set_crash_after_writes t n =
  assert (n >= 0);
  t.crash_after <- Some n

let crashed t = t.is_crashed
let media_writes t = t.media_writes
let set_write_trace t f = t.write_trace <- f
let set_pre_write_hook t f = t.pre_write_hook <- f

let reopen_after_crash t =
  if not t.is_crashed then invalid_arg "Disk.reopen_after_crash: not crashed";
  (* The surviving platter is the persistent map itself — no copy. *)
  {
    t with
    cache = Hashtbl.create 256;
    head = 0;
    crash_after = None;
    is_crashed = false;
    media_writes = 0;
    write_trace = None;
    pre_write_hook = None;
  }

(* ---------- branchable media states ---------- *)

type snapshot = {
  snap_geometry : geometry;
  snap_params : params;
  snap_media : string Bptree.t;
}

let snapshot t =
  { snap_geometry = t.geometry; snap_params = t.params; snap_media = t.media }

let restore snap ~clock =
  {
    geometry = snap.snap_geometry;
    params = snap.snap_params;
    clock;
    media = snap.snap_media;
    cache = Hashtbl.create 256;
    head = 0;
    crash_after = None;
    is_crashed = false;
    media_writes = 0;
    write_trace = None;
    pre_write_hook = None;
    faults = None;
  }
