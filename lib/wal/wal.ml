module Disk = Histar_disk.Disk
module Codec = Histar_util.Codec
module Checksum = Histar_util.Checksum
module Metrics = Histar_metrics.Metrics

(* Log activity counters: every append/commit/truncate, plus records
   re-read at recovery. Commit sectors expose how much batching the
   group-commit path achieves per barrier. *)
let m_appends = Metrics.counter "wal.appends"
let m_commits = Metrics.counter "wal.commits"
let m_commit_sectors = Metrics.counter "wal.commit_sectors"
let m_truncates = Metrics.counter "wal.truncates"
let m_replayed = Metrics.counter "wal.replayed_records"

(* A latent media error inside the log body ends the scan early: the
   records before the bad sector replay normally, the suffix is lost.
   This counter makes that degradation visible. *)
let m_media_stops = Metrics.counter "wal.media_read_stops"

exception Log_full

let magic = 0x57414C31L (* "WAL1" *)
let record_magic = 0x5245434FL (* "RECO" *)

type t = {
  disk : Disk.t;
  start : int;  (** first sector of the region (superblock) *)
  sectors : int;  (** region length in sectors *)
  sector_bytes : int;
  mutable epoch : int64;
  mutable head : int;  (** next free sector, relative to region start *)
  mutable seq : int64;  (** next record sequence number *)
  mutable committed : int;  (** committed records this epoch *)
  mutable pending : string list;  (** reversed buffered records *)
}

let sector_bytes t = t.sector_bytes

let superblock_bytes t ~epoch =
  let e = Codec.Enc.create () in
  Codec.Enc.i64 e magic;
  Codec.Enc.i64 e epoch;
  let body = Codec.Enc.to_string e in
  body ^ String.make (sector_bytes t - String.length body) '\000'

let write_superblock t =
  Disk.write t.disk ~sector:t.start (superblock_bytes t ~epoch:t.epoch);
  Disk.flush t.disk

(* Rewriting heals a latent-bad superblock sector (drive remap): the
   store's scrub path calls this when the log superblock stops reading
   back. *)
let rewrite_superblock t = write_superblock t

(* A record image: header + payload, padded to whole sectors.
   Header: record_magic, epoch, seq, payload length, payload checksum. *)
let record_image t payload =
  let e = Codec.Enc.create () in
  Codec.Enc.i64 e record_magic;
  Codec.Enc.i64 e t.epoch;
  Codec.Enc.i64 e t.seq;
  Codec.Enc.u32 e (String.length payload);
  Codec.Enc.i64 e (Checksum.fnv64 payload);
  Codec.Enc.raw e payload;
  let body = Codec.Enc.to_string e in
  let sb = sector_bytes t in
  let padded_len = (String.length body + sb - 1) / sb * sb in
  body ^ String.make (padded_len - String.length body) '\000'

let mk ~disk ~start ~sectors =
  if sectors < 8 then invalid_arg "Wal: region must be at least 8 sectors";
  {
    disk;
    start;
    sectors;
    sector_bytes = (Disk.geometry disk).Disk.sector_bytes;
    epoch = 0L;
    head = 1;
    seq = 0L;
    committed = 0;
    pending = [];
  }

let format ~disk ~start ~sectors =
  let t = mk ~disk ~start ~sectors in
  t.epoch <- 1L;
  write_superblock t;
  t

(* Log reads retry transient errors; a latent sector error is treated
   as the end of the parsable log (graceful degradation, counted). *)
let read_log t ~sector ~count =
  match Disk.read_retrying t.disk ~sector ~count with
  | image -> Some image
  | exception Disk.Read_error _ ->
      Metrics.Counter.incr m_media_stops;
      None

let parse_record t ~epoch ~expect_seq ~rel_sector =
  if rel_sector >= t.sectors then None
  else
    match read_log t ~sector:(t.start + rel_sector) ~count:1 with
    | None -> None
    | Some header ->
    let d = Codec.Dec.of_string header in
    match
      let m = Codec.Dec.i64 d in
      let ep = Codec.Dec.i64 d in
      let seq = Codec.Dec.i64 d in
      let len = Codec.Dec.u32 d in
      let sum = Codec.Dec.i64 d in
      (m, ep, seq, len, sum)
    with
    | exception Codec.Truncated -> None
    | m, ep, seq, len, sum ->
        if
          (not (Int64.equal m record_magic))
          || (not (Int64.equal ep epoch))
          || not (Int64.equal seq expect_seq)
        then None
        else
          let header_len = 8 + 8 + 8 + 4 + 8 in
          let total = header_len + len in
          let nsectors = (total + t.sector_bytes - 1) / t.sector_bytes in
          if rel_sector + nsectors > t.sectors then None
          else
            match read_log t ~sector:(t.start + rel_sector) ~count:nsectors with
            | None -> None
            | Some image ->
                if header_len + len > String.length image then None
                else
                  let payload = String.sub image header_len len in
                  if Int64.equal (Checksum.fnv64 payload) sum then
                    Some (payload, nsectors)
                  else None

let recover ~disk ~start ~sectors =
  let t = mk ~disk ~start ~sectors in
  let sb = Disk.read_retrying disk ~sector:start ~count:1 in
  let d = Codec.Dec.of_string sb in
  let ok_magic =
    match Codec.Dec.i64 d with
    | m -> Int64.equal m magic
    | exception Codec.Truncated -> false
  in
  if not ok_magic then invalid_arg "Wal.recover: no log at this location";
  t.epoch <- Codec.Dec.i64 d;
  let rec scan rel seq acc =
    match parse_record t ~epoch:t.epoch ~expect_seq:seq ~rel_sector:rel with
    | None -> (rel, seq, List.rev acc)
    | Some (payload, nsectors) ->
        scan (rel + nsectors) (Int64.add seq 1L) (payload :: acc)
  in
  let head, seq, payloads = scan 1 0L [] in
  t.head <- head;
  t.seq <- seq;
  t.committed <- List.length payloads;
  Metrics.Counter.add m_replayed t.committed;
  (t, payloads)

let image_sectors t image = String.length image / t.sector_bytes

let pending_sectors t =
  List.fold_left (fun acc img -> acc + image_sectors t img) 0 t.pending

let free_sectors t = t.sectors - t.head - pending_sectors t

let append t payload =
  let image = record_image t payload in
  if image_sectors t image > free_sectors t then raise Log_full;
  Metrics.Counter.incr m_appends;
  t.seq <- Int64.add t.seq 1L;
  t.pending <- image :: t.pending

let commit t =
  match t.pending with
  | [] -> ()
  | pending ->
      let images = List.rev pending in
      let blob = String.concat "" images in
      Disk.write t.disk ~sector:(t.start + t.head) blob;
      Disk.flush t.disk;
      Metrics.Counter.incr m_commits;
      Metrics.Counter.add m_commit_sectors (image_sectors t blob);
      t.head <- t.head + image_sectors t blob;
      t.committed <- t.committed + List.length images;
      t.pending <- []

let truncate t =
  Metrics.Counter.incr m_truncates;
  t.epoch <- Int64.add t.epoch 1L;
  t.head <- 1;
  t.seq <- 0L;
  t.committed <- 0;
  t.pending <- [];
  write_superblock t

let committed_records t = t.committed
let pending_records t = List.length t.pending
let epoch t = t.epoch

let check_invariants t =
  if t.head < 1 || t.head > t.sectors then
    failwith
      (Printf.sprintf "Wal: head %d outside region of %d sectors" t.head
         t.sectors);
  if Int64.compare t.seq (Int64.of_int (t.committed + List.length t.pending)) <> 0
  then failwith "Wal: seq does not count committed + pending records";
  (* The on-disk log must re-parse to exactly the committed records of
     the current epoch, ending at [head]. *)
  let sb = Disk.read_retrying t.disk ~sector:t.start ~count:1 in
  let d = Codec.Dec.of_string sb in
  (match Codec.Dec.i64 d with
  | m when Int64.equal m magic -> ()
  | _ -> failwith "Wal: bad superblock magic"
  | exception Codec.Truncated -> failwith "Wal: truncated superblock");
  let disk_epoch = Codec.Dec.i64 d in
  if not (Int64.equal disk_epoch t.epoch) then
    failwith "Wal: superblock epoch disagrees with handle";
  let rec scan rel seq n =
    match parse_record t ~epoch:t.epoch ~expect_seq:seq ~rel_sector:rel with
    | None -> (rel, n)
    | Some (_, nsectors) -> scan (rel + nsectors) (Int64.add seq 1L) (n + 1)
  in
  let head, n = scan 1 0L 0 in
  if n <> t.committed then
    failwith
      (Printf.sprintf "Wal: %d committed records in memory, %d on disk"
         t.committed n);
  if head <> t.head then
    failwith
      (Printf.sprintf "Wal: head %d in memory, %d by on-disk scan" t.head head)
