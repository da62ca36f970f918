module Disk = Histar_disk.Disk
module Wal = Histar_wal.Wal
module Bptree = Histar_btree.Bptree
module Codec = Histar_util.Codec
module Checksum = Histar_util.Checksum
module Metrics = Histar_metrics.Metrics

(* Checkpoint frequency and total virtual-time cost, log sync batches
   and the clean-object cache. These counters are the store's only
   accounting: a caller reads their deltas in a metrics scope, so the
   benchmark runner sees storage work without holding a store handle. *)
let m_checkpoints = Metrics.counter "store.checkpoints"
let m_checkpoint_ns_sum = Metrics.counter "store.checkpoint_ns_sum"
let m_sync_batches = Metrics.counter "store.sync_batches"
let m_synced_oids = Metrics.counter "store.synced_oids"
let m_cache_hits = Metrics.counter "store.cache_hits"
let m_cache_misses = Metrics.counter "store.cache_misses"

(* Scrub/repair activity under media faults: objects rewritten to
   fresh homes, sectors permanently quarantined, objects whose payload
   could not be recovered from any copy. *)
let m_recoveries = Metrics.counter "store.recoveries"
let m_recovered_objects = Metrics.counter "store.recovered_objects"
let m_replayed_records = Metrics.counter "store.replayed_records"
let m_scrubs = Metrics.counter "store.scrubs"
let m_repaired = Metrics.counter "store.repaired_objects"
let m_quarantined = Metrics.counter "store.quarantined_sectors"
let m_lost = Metrics.counter "store.lost_objects"

let store_magic = 0x48695374L (* "HiSt" *)
let object_magic = 0x4F424A31 (* "OBJ1" *)

(* A pending update: the payload, plus where its in-place-rewritable
   data region starts when the writer said so (see {!sync_range}). *)
type update = { payload : string; prefix_len : int option }

(* What the store knows about a clean object's home image: enough to
   verify it exactly, and to rewrite a few of its sectors in place and
   fix up the checksum without touching the rest. *)
type home = {
  len : int;  (** payload bytes *)
  prefix_len : int option;
  sums : Bytes.t;
      (** little-endian int64s: the sum of all sector hashes, the sum
          the image header carries, then the hash of each image sector
          ([slot i]) *)
  clean : clean option;
      (** the image's payload: the clean read cache, and the copy
          {!scrub} re-homes from when the image goes bad *)
}

(* The clean copy is the immutable payload as checkpointed or read, and
   is handed to readers as is; the first in-place flush turns it into a
   private buffer it can patch in O(range), which readers then get a
   copy of. *)
and clean = Frozen of string | Patched of Bytes.t

type t = {
  disk : Disk.t;
  wal : Wal.t;
  wal_sectors : int;
  apply_threshold : int;
  sector_bytes : int;
  mutable object_map : int Bptree.t;
      (** oid → packed (start << 24 | sector count); the current root
          of a persistent tree *)
  alloc : Extent_alloc.t;
  dirty : (int, update option) Hashtbl.t;
      (** pending updates; [None] means deletion. An object with a
          record in the current log epoch is always here. *)
  homes : (int, home) Hashtbl.t;
      (** home images of clean objects only: staging an update (or
          logging a clean object) drops the entry until the checkpoint
          that writes the next image *)
  mutable generation : int64;
  mutable checkpoint_extent : (int * int) option;  (** start, sectors *)
  mutable quarantined : (int * int) list;
      (** extents withdrawn from service after a latent media error
          survived retry: never returned to the allocator, persisted in
          the checkpoint metadata, and counted as their own category in
          the {!fsck} tiling proof. Sorted by start. *)
  mutable wal_epoch : int64;
      (** WAL epoch whose records are valid to replay over the snapshot
          this superblock describes. A checkpoint's superblock names the
          post-truncate epoch, so a crash between the superblock write
          and the log truncate cannot replay stale records over the new
          snapshot (which would regress synced objects). *)
}

let wal_start = 1
let default_wal_sectors = 65_536
let pack ~start ~sectors = (start lsl 24) lor sectors
let unpack v = (v lsr 24, v land 0xFF_FFFF)

let sectors_for t bytes = (bytes + t.sector_bytes - 1) / t.sector_bytes

(* ---------- object images ---------- *)

(* Image: magic u32, payload length u32, sum i64, payload, zero padding
   to whole sectors. The sum adds up one hash per sector, keyed by the
   sector's index; sector 0 is hashed without the sum field, and the
   padding is not covered. Rewriting k sectors in place therefore moves
   the sum by k hash differences, whatever the object's size. *)
let header_bytes = 16

let sector_hash image ~index ~pos ~len =
  let seed = Int64.of_int index in
  let h =
    if index = 0 then
      Checksum.fold64
        (Checksum.fold64 seed image ~pos ~len:8)
        image ~pos:(pos + header_bytes) ~len:(len - header_bytes)
    else Checksum.fold64 seed image ~pos ~len
  in
  Checksum.mix64 h

let slot i = (i + 2) * 8
let stored_sum = 8

(* Hash state of an image whose first [body] bytes are header + payload;
   the caller fills in the stored sum. *)
let image_sums t image ~body =
  let sb = t.sector_bytes in
  let n = sectors_for t body in
  let sums = Bytes.create (slot n) in
  let total = ref 0L in
  for i = 0 to n - 1 do
    let pos = i * sb in
    let h = sector_hash image ~index:i ~pos ~len:(min sb (body - pos)) in
    Bytes.set_int64_le sums (slot i) h;
    total := Int64.add !total h
  done;
  Bytes.set_int64_le sums 0 !total;
  sums

let object_image t payload =
  let len = String.length payload in
  let body = header_bytes + len in
  let image = Bytes.make (sectors_for t body * t.sector_bytes) '\000' in
  Bytes.set_int32_le image 0 (Int32.of_int object_magic);
  Bytes.set_int32_le image 4 (Int32.of_int len);
  Bytes.blit_string payload 0 image header_bytes len;
  let sums = image_sums t (Bytes.unsafe_to_string image) ~body in
  Bytes.set_int64_le sums stored_sum (Bytes.get_int64_le sums 0);
  Bytes.set_int64_le image 8 (Bytes.get_int64_le sums 0);
  (Bytes.unsafe_to_string image, sums)

(* An in-place flush writes sector 0 first (the elevator goes up), and
   the sum it carries leaves out the one run of later sectors it
   rewrites: a crash may leave that run part old, part new. So an image
   whose hashes add up to [diff] more than its sum passes iff some run
   [f, l] with 1 <= f <= l accounts for exactly [diff]; with prefix
   sums p, p(l+1) - p(f) = diff. This leniency is for recovery only: the
   run's bytes are not covered, so a live store checks against its own
   record of the image instead (see [parse_object_image]). *)
let omits_run sums diff =
  let n = (Bytes.length sums / 8) - 2 in
  let ends = Hashtbl.create n in
  let p = ref (Bytes.get_int64_le sums (slot 0)) in
  for l = 1 to n - 1 do
    p := Int64.add !p (Bytes.get_int64_le sums (slot l));
    Hashtbl.replace ends !p l
  done;
  let p = ref (Bytes.get_int64_le sums (slot 0)) in
  let found = ref false in
  for f = 1 to n - 1 do
    (match Hashtbl.find_opt ends (Int64.add !p diff) with
    | Some l when l >= f -> found := true
    | Some _ | None -> ());
    p := Int64.add !p (Bytes.get_int64_le sums (slot f))
  done;
  !found

(* Verify an image read from disk; its payload length and hash state.
   With the store's [home] record of the image, every sector hash and
   the stored sum must match it exactly; without one (the first read
   after recovery) the image's own sum must account for its hashes, up
   to one run omitted by an in-place flush. *)
let parse_object_image t ?home image =
  let d = Codec.Dec.of_string image in
  if Codec.Dec.u32 d <> object_magic then failwith "Store: bad object magic";
  let len = Codec.Dec.u32 d in
  let sum = Codec.Dec.i64 d in
  if len > String.length image - header_bytes then
    failwith "Store: object image truncated";
  let sums = image_sums t image ~body:(header_bytes + len) in
  Bytes.set_int64_le sums stored_sum sum;
  let intact =
    match home with
    | Some h -> h.len = len && Bytes.equal sums h.sums
    | None ->
        let diff = Int64.sub (Bytes.get_int64_le sums 0) sum in
        Int64.equal diff 0L || omits_run sums diff
  in
  if not intact then failwith "Store: object checksum mismatch";
  (len, sums)

(* ---------- superblock ---------- *)

let superblock_image t =
  let e = Codec.Enc.create () in
  Codec.Enc.i64 e store_magic;
  Codec.Enc.i64 e t.generation;
  Codec.Enc.i64 e t.wal_epoch;
  Codec.Enc.u32 e t.apply_threshold;
  Codec.Enc.u32 e t.wal_sectors;
  (match t.checkpoint_extent with
  | None ->
      Codec.Enc.bool e false;
      Codec.Enc.u32 e 0;
      Codec.Enc.u32 e 0
  | Some (start, sectors) ->
      Codec.Enc.bool e true;
      Codec.Enc.u32 e start;
      Codec.Enc.u32 e sectors);
  let body = Codec.Enc.to_string e in
  body ^ String.make (t.sector_bytes - String.length body) '\000'

let write_superblock t =
  Disk.write t.disk ~sector:0 (superblock_image t);
  Disk.flush t.disk

(* ---------- WAL records ---------- *)

let wal_record ~oid update =
  let e = Codec.Enc.create () in
  (match update with
  | Some payload ->
      Codec.Enc.u8 e 1;
      Codec.Enc.int e oid;
      Codec.Enc.str e payload
  | None ->
      Codec.Enc.u8 e 2;
      Codec.Enc.int e oid);
  Codec.Enc.to_string e

let parse_wal_record payload =
  let d = Codec.Dec.of_string payload in
  match Codec.Dec.u8 d with
  | 1 ->
      let oid = Codec.Dec.int d in
      let data = Codec.Dec.str d in
      (oid, Some data)
  | 2 -> (Codec.Dec.int d, None)
  | _ -> failwith "Store: unknown WAL record tag"

(* ---------- construction ---------- *)

let format ~disk ?(wal_sectors = default_wal_sectors) ?(apply_threshold = 1000)
    () =
  let geometry = Disk.geometry disk in
  let wal = Wal.format ~disk ~start:wal_start ~sectors:wal_sectors in
  let alloc = Extent_alloc.create () in
  let data_start = wal_start + wal_sectors in
  Extent_alloc.add_region alloc ~start:data_start
    ~sectors:(geometry.Disk.sectors - data_start);
  let t =
    {
      disk;
      wal;
      wal_sectors;
      apply_threshold;
      sector_bytes = geometry.Disk.sector_bytes;
      object_map = Bptree.create ();
      alloc;
      dirty = Hashtbl.create 256;
      homes = Hashtbl.create 256;
      generation = 0L;
      checkpoint_extent = None;
      quarantined = [];
      wal_epoch = Wal.epoch wal;
    }
  in
  write_superblock t;
  t

(* ---------- reads ---------- *)

let clean_payload = function Frozen s -> s | Patched b -> Bytes.to_string b

let read_from_home t oid =
  match Bptree.find t.object_map oid with
  | None -> None
  | Some packed ->
      let start, sectors = unpack packed in
      let image = Disk.read_retrying t.disk ~sector:start ~count:sectors in
      let home = Hashtbl.find_opt t.homes oid in
      let len, sums = parse_object_image t ?home image in
      let prefix_len = Option.bind home (fun h -> h.prefix_len) in
      let payload = String.sub image header_bytes len in
      Hashtbl.replace t.homes oid
        { len; prefix_len; sums; clean = Some (Frozen payload) };
      Some payload

let get t ~oid =
  match Hashtbl.find_opt t.dirty oid with
  | Some None -> None
  | Some (Some u) -> Some u.payload
  | None -> (
      match Hashtbl.find_opt t.homes oid with
      | Some { clean = Some clean; _ } ->
          Metrics.Counter.incr m_cache_hits;
          Some (clean_payload clean)
      | Some { clean = None; _ } | None ->
          Metrics.Counter.incr m_cache_misses;
          read_from_home t oid)

let mem t ~oid = Option.is_some (get t ~oid)

(* ---------- writes ---------- *)

let put t ~oid ?prefix_len payload =
  Hashtbl.replace t.dirty oid (Some { payload; prefix_len });
  Hashtbl.remove t.homes oid

let set_prefix_len t ~oid prefix_len =
  match Hashtbl.find_opt t.dirty oid with
  | Some (Some u) ->
      Hashtbl.replace t.dirty oid (Some { u with prefix_len = Some prefix_len })
  | Some None -> ()
  | None ->
      Option.iter
        (fun h -> Hashtbl.replace t.homes oid { h with prefix_len = Some prefix_len })
        (Hashtbl.find_opt t.homes oid)

let delete t ~oid =
  let persistent = Bptree.mem t.object_map oid in
  if persistent then Hashtbl.replace t.dirty oid None
  else Hashtbl.remove t.dirty oid;
  Hashtbl.remove t.homes oid

(* ---------- checkpoint ---------- *)

let encode_metadata ~object_map ~alloc ~quarantined =
  let e = Codec.Enc.create () in
  Bptree.encode e object_map;
  Extent_alloc.encode e alloc;
  Codec.Enc.u32 e (List.length quarantined);
  List.iter
    (fun (start, sectors) ->
      Codec.Enc.u32 e start;
      Codec.Enc.u32 e sectors)
    quarantined;
  let body = Codec.Enc.to_string e in
  let e2 = Codec.Enc.create () in
  Codec.Enc.i64 e2 (Checksum.fnv64 body);
  Codec.Enc.str e2 body;
  Codec.Enc.to_string e2

(* Crash atomicity: until the new superblock is durable, nothing that
   the *previous* snapshot references may be overwritten. New object
   images and the new metadata image therefore come from free space
   only; extents vacated by this checkpoint are collected in [to_free]
   and returned to the allocator last. The metadata image must describe
   the post-free allocator, so it encodes a copy with the deferred
   frees already applied. *)
let checkpoint t =
  Metrics.Counter.incr m_checkpoints;
  let clock = Disk.clock t.disk in
  let t0 = Histar_util.Sim_clock.now clock in
  let to_free = ref [] in
  (* Write dirty objects to fresh home locations, in oid order for
     locality. *)
  let dirty = Hashtbl.fold (fun oid u acc -> (oid, u) :: acc) t.dirty [] in
  let dirty = List.sort (fun (a, _) (b, _) -> Int.compare a b) dirty in
  List.iter
    (fun (oid, update) ->
      (match Bptree.find t.object_map oid with
      | Some packed ->
          to_free := unpack packed :: !to_free;
          (match Bptree.remove t.object_map oid with
          | Some m -> t.object_map <- m
          | None -> assert false)
      | None -> ());
      match update with
      | None -> ()
      | Some { payload; prefix_len } -> (
          let image, sums = object_image t payload in
          let sectors = String.length image / t.sector_bytes in
          match Extent_alloc.alloc t.alloc ~sectors with
          | None -> failwith "Store: disk full"
          | Some start ->
              Disk.write t.disk ~sector:start image;
              t.object_map <- Bptree.insert t.object_map oid (pack ~start ~sectors);
              Hashtbl.replace t.homes oid
                {
                  len = String.length payload;
                  prefix_len;
                  sums;
                  clean = Some (Frozen payload);
                }))
    dirty;
  Hashtbl.reset t.dirty;
  (match t.checkpoint_extent with
  | Some (start, sectors) -> to_free := (start, sectors) :: !to_free
  | None -> ());
  t.checkpoint_extent <- None;
  (* The encoded allocator = live allocator + deferred frees + the
     metadata extent itself removed. Allocate the extent first (sized
     against the pre-free encoding plus slack: frees only shrink the
     encoding by coalescing, and the allocation itself perturbs it by
     at most one split). *)
  let future_alloc () =
    let a = Extent_alloc.copy t.alloc in
    List.iter (fun (start, sectors) -> Extent_alloc.free a ~start ~sectors) !to_free;
    a
  in
  let estimate =
    String.length
      (encode_metadata ~object_map:t.object_map ~alloc:(future_alloc ())
         ~quarantined:t.quarantined)
  in
  let sectors = sectors_for t estimate + 1 in
  (match Extent_alloc.alloc t.alloc ~sectors with
  | None -> failwith "Store: disk full (checkpoint)"
  | Some start ->
      let body =
        encode_metadata ~object_map:t.object_map ~alloc:(future_alloc ())
          ~quarantined:t.quarantined
      in
      assert (String.length body <= sectors * t.sector_bytes);
      let pad = (sectors * t.sector_bytes) - String.length body in
      Disk.write t.disk ~sector:start (body ^ String.make pad '\000');
      t.checkpoint_extent <- Some (start, sectors));
  Disk.flush t.disk;
  t.generation <- Int64.add t.generation 1L;
  (* Only records of the post-truncate epoch may be replayed over this
     snapshot; everything in the current epoch is already applied. *)
  t.wal_epoch <- Int64.add (Wal.epoch t.wal) 1L;
  write_superblock t;
  (* The new snapshot is durable: vacated extents may now be reused. *)
  List.iter (fun (start, sectors) -> Extent_alloc.free t.alloc ~start ~sectors) !to_free;
  Wal.truncate t.wal;
  Metrics.Counter.add m_checkpoint_ns_sum (Histar_util.Sim_clock.now clock - t0)

(* ---------- sync (fsync path) ---------- *)

let sync_oids t ~oids =
  let append oid =
    let update = get t ~oid in
    (* Replay applies this record over the home image, so the object
       counts as dirty until the checkpoint that folds the log in: a
       clean object logged here must not be patched in place. *)
    if not (Hashtbl.mem t.dirty oid) then
      Option.iter
        (fun payload ->
          let home = Hashtbl.find_opt t.homes oid in
          put t ~oid ?prefix_len:(Option.bind home (fun h -> h.prefix_len)) payload)
        update;
    let record = wal_record ~oid update in
    (try Wal.append t.wal record
     with Wal.Log_full ->
       checkpoint t;
       Wal.append t.wal record)
  in
  List.iter append oids;
  Wal.commit t.wal;
  Metrics.Counter.incr m_sync_batches;
  Metrics.Counter.add m_synced_oids (List.length oids);
  if Wal.committed_records t.wal >= t.apply_threshold then checkpoint t

let sync_oid t ~oid = sync_oids t ~oids:[ oid ]

(* Make [h] patchable: thaw a frozen clean copy into a private buffer. *)
let own_home t oid (h : home) =
  match h.clean with
  | Some (Frozen s) ->
      let h = { h with clean = Some (Patched (Bytes.of_string s)) } in
      Hashtbl.replace t.homes oid h;
      h
  | Some (Patched _) | None -> h

(* Copy [len] bytes of the payload [prefix ^ data], from payload offset
   [src], into [dst] at [dst_off]. *)
let blit_payload ~prefix ~data ~src dst ~dst_off ~len =
  let k = max 0 (min len (String.length prefix - src)) in
  if k > 0 then Bytes.blit_string prefix src dst dst_off k;
  if len > k then
    Bytes.blit data (src + k - String.length prefix) dst (dst_off + k) (len - k)

(* Build image sectors [a, b] from the payload [prefix ^ data], patch
   the clean copy with the same bytes, and move the hash state by the
   rebuilt sectors' hash differences. Returns the sectors, unwritten. *)
let rewrite_run t h ~prefix ~data a b =
  let sb = t.sector_bytes in
  let body = header_bytes + h.len in
  let buf = Bytes.make ((b - a + 1) * sb) '\000' in
  let lo = max header_bytes (a * sb) and hi = min body ((b + 1) * sb) in
  blit_payload ~prefix ~data ~src:(lo - header_bytes) buf ~dst_off:(lo - (a * sb))
    ~len:(hi - lo);
  (match h.clean with
  | Some (Patched clean) ->
      Bytes.blit buf (lo - (a * sb)) clean (lo - header_bytes) (hi - lo)
  | Some (Frozen _) -> assert false (* [own_home] thawed it *)
  | None -> ());
  if a = 0 then begin
    Bytes.set_int32_le buf 0 (Int32.of_int object_magic);
    Bytes.set_int32_le buf 4 (Int32.of_int h.len)
  end;
  let image = Bytes.unsafe_to_string buf in
  for i = a to b do
    let fresh =
      sector_hash image ~index:i ~pos:((i - a) * sb) ~len:(min sb (body - (i * sb)))
    in
    let total = Bytes.get_int64_le h.sums 0 in
    Bytes.set_int64_le h.sums 0
      (Int64.add total (Int64.sub fresh (Bytes.get_int64_le h.sums (slot i))));
    Bytes.set_int64_le h.sums (slot i) fresh
  done;
  buf

(* In-place page flush (§7.1): only a clean object (one with a [homes]
   entry, so nothing newer is staged or logged) whose image has the same
   payload and prefix lengths, so every data byte keeps its sector, and
   whose rewritten sectors after sector 0 form one run (see [omits_run]):
   a multi-sector prefix must adjoin the data sectors. *)
let sync_range t ~oid ~prefix ~data ~data_len:n ~off ~len =
  let plen = String.length prefix in
  let sb = t.sector_bytes in
  let data_at = header_bytes + plen in
  (* Header sectors [0, head]; data sectors [first, last] hold the
     bytes of [off, off+len) clipped to the data (empty: first > last). *)
  let head = (data_at - 1) / sb in
  let lo = max 0 off
  and hi = if len <= 0 then 0 else if off > n - len then n else off + len in
  let first, last =
    if lo < hi then ((data_at + lo) / sb, (data_at + hi - 1) / sb)
    else (head + 1, head)
  in
  let joined = first <= head + 1 in
  match (Hashtbl.find_opt t.homes oid, Bptree.find t.object_map oid) with
  | Some h, Some packed
    when h.prefix_len = Some plen && h.len = plen + n && (head = 0 || joined) ->
      let h = own_home t oid h in
      let start, _ = unpack packed in
      let head = if joined then max head last else head in
      let head_buf = rewrite_run t h ~prefix ~data 0 head in
      let tail_buf =
        if joined then None else Some (rewrite_run t h ~prefix ~data first last)
      in
      (* The stored sum leaves out the rewritten sectors after sector 0
         (see [omits_run]), so any crash point inside the flush leaves a
         verifiable image. *)
      let omit_from = if joined then 1 else first in
      let omit_to = if joined then head else last in
      let sum = ref (Bytes.get_int64_le h.sums 0) in
      for i = omit_from to omit_to do
        sum := Int64.sub !sum (Bytes.get_int64_le h.sums (slot i))
      done;
      Bytes.set_int64_le h.sums stored_sum !sum;
      Bytes.set_int64_le head_buf 8 !sum;
      Disk.write t.disk ~sector:start (Bytes.unsafe_to_string head_buf);
      Option.iter
        (fun buf -> Disk.write t.disk ~sector:(start + first) (Bytes.unsafe_to_string buf))
        tail_buf;
      Disk.flush t.disk;
      true
  | _ -> false

(* ---------- recovery ---------- *)

let recover ~disk =
  let geometry = Disk.geometry disk in
  let sector_bytes = geometry.Disk.sector_bytes in
  let sb = Disk.read_retrying disk ~sector:0 ~count:1 in
  let d = Codec.Dec.of_string sb in
  let m = Codec.Dec.i64 d in
  if not (Int64.equal m store_magic) then
    invalid_arg "Store.recover: no store on this disk";
  let generation = Codec.Dec.i64 d in
  let wal_epoch = Codec.Dec.i64 d in
  let apply_threshold = Codec.Dec.u32 d in
  let wal_sectors = Codec.Dec.u32 d in
  let has_ckpt = Codec.Dec.bool d in
  let ckpt_start = Codec.Dec.u32 d in
  let ckpt_sectors = Codec.Dec.u32 d in
  let object_map, alloc, checkpoint_extent, quarantined =
    if has_ckpt then begin
      let image = Disk.read_retrying disk ~sector:ckpt_start ~count:ckpt_sectors in
      let d = Codec.Dec.of_string image in
      let sum = Codec.Dec.i64 d in
      let body = Codec.Dec.str d in
      if not (Int64.equal (Checksum.fnv64 body) sum) then
        failwith "Store.recover: checkpoint checksum mismatch";
      let d = Codec.Dec.of_string body in
      let object_map = Bptree.decode d in
      let alloc = Extent_alloc.decode d in
      let nq = Codec.Dec.u32 d in
      let quarantined =
        List.init nq (fun _ ->
            let start = Codec.Dec.u32 d in
            let sectors = Codec.Dec.u32 d in
            (start, sectors))
      in
      (object_map, alloc, Some (ckpt_start, ckpt_sectors), quarantined)
    end
    else begin
      let alloc = Extent_alloc.create () in
      let data_start = wal_start + wal_sectors in
      Extent_alloc.add_region alloc ~start:data_start
        ~sectors:(geometry.Disk.sectors - data_start);
      (Bptree.create (), alloc, None, [])
    end
  in
  let wal, records = Wal.recover ~disk ~start:wal_start ~sectors:wal_sectors in
  (* Crash between a checkpoint's superblock write and its log
     truncate: the log still holds the pre-checkpoint epoch, whose
     records are already folded into the snapshot. Replaying them would
     regress objects, so discard them and finish the truncate. *)
  let records =
    if Int64.equal (Wal.epoch wal) wal_epoch then records
    else begin
      Wal.truncate wal;
      if not (Int64.equal (Wal.epoch wal) wal_epoch) then
        failwith "Store.recover: WAL epoch diverged from superblock";
      []
    end
  in
  let t =
    {
      disk;
      wal;
      wal_sectors;
      apply_threshold;
      sector_bytes;
      object_map;
      alloc;
      dirty = Hashtbl.create 256;
      homes = Hashtbl.create 256;
      generation;
      checkpoint_extent;
      quarantined;
      wal_epoch;
    }
  in
  List.iter
    (fun payload ->
      let oid, update = parse_wal_record payload in
      match update with
      | Some data -> put t ~oid data
      | None -> delete t ~oid)
    records;
  (* Recovery accounting: how often nodes come back from their own
     store, how many WAL records the committed prefix replayed, and
     how many live objects the recovered map holds — the numbers a
     shard-death drill reads to prove recovery actually happened. *)
  Metrics.Counter.incr m_recoveries;
  Metrics.Counter.add m_replayed_records (List.length records);
  Metrics.Counter.add m_recovered_objects (Bptree.cardinal t.object_map);
  t

(* ---------- scrub (media-fault repair) ---------- *)

type scrub_report = {
  passes : int;
  scanned : int;
  repaired : int;
  quarantined_sectors : int;
  lost : int list;
  clean : bool;
}

let quarantine t ~start ~sectors =
  t.quarantined <-
    List.sort
      (fun (a, _) (b, _) -> Int.compare a b)
      ((start, sectors) :: t.quarantined);
  Metrics.Counter.add m_quarantined sectors

let readable t ~sector ~count =
  match Disk.read_retrying t.disk ~sector ~count with
  | image -> Some image
  | exception Disk.Read_error _ -> None

(* Repair loop. Each verify pass walks every durable structure —
   store and WAL superblocks, the checkpoint metadata extent, and the
   home image of every clean mapped object — reading with retry and
   verifying checksums. Superblocks heal by rewrite (which clears a
   latent mark, like a drive remap). An object image that stays
   unreadable or fails its checksum loses its extent to the quarantine
   list; its payload is recovered from the clean cache when present
   (every checkpoint leaves one there) and re-marked dirty, so the
   forced checkpoint at the end of the pass re-homes it to fresh
   sectors. Because those repair writes can themselves strike new
   latent sectors, the loop re-verifies until a pass finds nothing
   (bounded by [max_passes]); for a fixed fault seed the whole loop is
   deterministic. *)
let scrub ?(max_passes = 10) t =
  Metrics.Counter.incr m_scrubs;
  let scanned = ref 0
  and repaired = ref 0
  and quarantined_n = ref 0
  and lost = ref [] in
  let verify_and_repair () =
    let faults = ref 0 in
    (match readable t ~sector:0 ~count:1 with
    | Some _ -> ()
    | None ->
        incr faults;
        write_superblock t);
    (match readable t ~sector:wal_start ~count:1 with
    | Some _ -> ()
    | None ->
        incr faults;
        Wal.rewrite_superblock t.wal);
    (* The in-memory object map and allocator are authoritative; a bad
       metadata extent is simply superseded by the forced checkpoint. *)
    (match t.checkpoint_extent with
    | None -> ()
    | Some (start, sectors) ->
        let ok =
          match readable t ~sector:start ~count:sectors with
          | None -> false
          | Some image -> (
              try
                let d = Codec.Dec.of_string image in
                let sum = Codec.Dec.i64 d in
                let body = Codec.Dec.str d in
                Int64.equal (Checksum.fnv64 body) sum
              with _ -> false)
        in
        if not ok then incr faults);
    let mapped = ref [] in
    Bptree.iter (fun oid packed -> mapped := (oid, packed) :: !mapped) t.object_map;
    List.iter
      (fun (oid, packed) ->
        if not (Hashtbl.mem t.dirty oid) then begin
          incr scanned;
          let start, sectors = unpack packed in
          let intact =
            match readable t ~sector:start ~count:sectors with
            | None -> false
            | Some image -> (
                try
                  let home = Hashtbl.find_opt t.homes oid in
                  ignore (parse_object_image t ?home image);
                  true
                with _ -> false)
          in
          if not intact then begin
            incr faults;
            (match Bptree.remove t.object_map oid with
            | Some m -> t.object_map <- m
            | None -> assert false);
            quarantine t ~start ~sectors;
            quarantined_n := !quarantined_n + sectors;
            match Hashtbl.find_opt t.homes oid with
            | Some { clean = Some clean; prefix_len; _ } ->
                put t ~oid ?prefix_len (clean_payload clean);
                incr repaired;
                Metrics.Counter.incr m_repaired
            | Some { clean = None; _ } | None ->
                Hashtbl.remove t.homes oid;
                lost := oid :: !lost;
                Metrics.Counter.incr m_lost
          end
        end)
      (List.rev !mapped);
    !faults
  in
  let rec loop n =
    let faults = verify_and_repair () in
    if faults = 0 then (n + 1, true)
    else begin
      (* Persist the repairs (and the quarantine list) even when this
         was the last allowed pass. *)
      checkpoint t;
      if n + 1 >= max_passes then (n + 1, false) else loop (n + 1)
    end
  in
  let passes, clean = loop 0 in
  {
    passes;
    scanned = !scanned;
    repaired = !repaired;
    quarantined_sectors = !quarantined_n;
    lost = List.rev !lost;
    clean;
  }

let quarantined_extents t = t.quarantined

(* ---------- inspection ---------- *)

(* In oid order, so no caller sees the [dirty] table's hash order. *)
let iter_oids t f =
  let live =
    Bptree.fold
      (fun acc oid _ -> if Hashtbl.mem t.dirty oid then acc else oid :: acc)
      [] t.object_map
  in
  let live =
    Hashtbl.fold
      (fun oid update acc -> match update with Some _ -> oid :: acc | None -> acc)
      t.dirty live
  in
  List.iter f (List.sort Int.compare live)

let object_count t =
  let n = ref 0 in
  iter_oids t (fun _ -> incr n);
  !n

let dirty_count t = Hashtbl.length t.dirty
let drop_clean_cache t =
  Hashtbl.filter_map_inplace
    (fun _ (h : home) -> Some { h with clean = None })
    t.homes
let free_sectors t = Extent_alloc.free_sectors t.alloc

let check_invariants t =
  Extent_alloc.check_invariants t.alloc;
  Bptree.check_invariants t.object_map;
  (* No persistent object's extent may be marked free. This is implied
     by allocator correctness; spot-check object map entries are
     readable and checksum-clean. *)
  Bptree.iter
    (fun oid packed ->
      let start, sectors = unpack packed in
      if sectors <= 0 then failwith "Store: empty object extent";
      if not (Hashtbl.mem t.dirty oid) then
        ignore
          (parse_object_image t ?home:(Hashtbl.find_opt t.homes oid)
             (Disk.read_retrying t.disk ~sector:start ~count:sectors)))
    t.object_map

(* Whole-disk accounting, for the crash-sweep harness. Beyond
   [check_invariants], prove that the object map, the checkpoint
   metadata extent and the allocator's free extents exactly tile the
   data region: any gap is a leaked extent, any overlap is a double
   allocation. Also re-verify the on-disk checkpoint image checksum and
   the WAL's structural invariants. *)
let fsck t =
  check_invariants t;
  Wal.check_invariants t.wal;
  let geometry = Disk.geometry t.disk in
  let data_start = wal_start + t.wal_sectors in
  let extents = ref [] in
  let add what start sectors = extents := (what, start, sectors) :: !extents in
  Bptree.iter
    (fun oid packed ->
      let start, sectors = unpack packed in
      add (Printf.sprintf "object %d" oid) start sectors)
    t.object_map;
  (match t.checkpoint_extent with
  | Some (start, sectors) ->
      add "checkpoint metadata" start sectors;
      (* Checkpoint checksum integrity: the snapshot we would recover
         from must still be readable. *)
      let image = Disk.read_retrying t.disk ~sector:start ~count:sectors in
      let d = Codec.Dec.of_string image in
      let sum = Codec.Dec.i64 d in
      let body = Codec.Dec.str d in
      if not (Int64.equal (Checksum.fnv64 body) sum) then
        failwith "Store.fsck: checkpoint checksum mismatch"
  | None -> ());
  List.iter
    (fun (start, sectors) -> add "free extent" start sectors)
    (Extent_alloc.to_list t.alloc);
  List.iter
    (fun (start, sectors) -> add "quarantined extent" start sectors)
    t.quarantined;
  let extents =
    List.sort (fun (_, a, _) (_, b, _) -> Int.compare a b) !extents
  in
  let pos = ref data_start in
  List.iter
    (fun (what, start, sectors) ->
      if start < !pos then
        failwith
          (Printf.sprintf
             "Store.fsck: %s [%d, %d) overlaps allocation ending at %d" what
             start (start + sectors) !pos);
      if start > !pos then
        failwith
          (Printf.sprintf "Store.fsck: leaked sectors [%d, %d) before %s" !pos
             start what);
      pos := start + sectors)
    extents;
  if !pos <> geometry.Disk.sectors then
    failwith
      (Printf.sprintf "Store.fsck: leaked sectors [%d, %d) at end of disk" !pos
         geometry.Disk.sectors)
