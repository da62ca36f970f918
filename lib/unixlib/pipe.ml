module Sys = Histar_core.Sys
open Histar_core.Types

let capacity = 65_536
let off_mutex = 0
let off_rpos = 8
let off_wpos = 16
let off_writers = 24
let data_start = 32

type t = { seg : centry; mutex : Mutex0.t }

let entry t = t.seg
let of_entry seg = { seg; mutex = Mutex0.at seg ~off:off_mutex }

let create ~container ~label =
  let len = data_start + capacity in
  let seg =
    Sys.segment_create ~container ~label
      ~quota:(Int64.of_int (len + 4096))
      ~len "pipe"
  in
  let t = of_entry (centry container seg) in
  Sys.set_segment_word t.seg ~off:off_writers 1L;
  t

let add_writer t =
  Mutex0.with_lock t.mutex (fun () ->
      Sys.set_segment_word t.seg ~off:off_writers
        (Int64.add (Sys.segment_word t.seg ~off:off_writers) 1L))

let close_writer t =
  Mutex0.with_lock t.mutex (fun () ->
      Sys.set_segment_word t.seg ~off:off_writers
        (Int64.sub (Sys.segment_word t.seg ~off:off_writers) 1L));
  (* wake readers so they can observe EOF *)
  ignore (Sys.futex_wake t.seg ~off:off_wpos ~count:max_int)

(* [data]'s bytes [pos, pos + len), copied only if that is not all of it. *)
let slice data pos len =
  if pos = 0 && len = String.length data then data else String.sub data pos len

(* Copy [n] bytes of [data] from [pos] into the ring at logical
   position [wpos]. *)
let ring_write t ~wpos data ~pos ~n =
  let start = Int64.to_int (Int64.rem wpos (Int64.of_int capacity)) in
  let first = min n (capacity - start) in
  Sys.segment_write t.seg ~off:(data_start + start) (slice data pos first);
  if first < n then
    Sys.segment_write t.seg ~off:data_start (slice data (pos + first) (n - first))

let ring_read t ~rpos n =
  let start = Int64.to_int (Int64.rem rpos (Int64.of_int capacity)) in
  let first = min n (capacity - start) in
  let a = Sys.segment_read t.seg ~off:(data_start + start) ~len:first () in
  if first < n then
    a ^ Sys.segment_read t.seg ~off:data_start ~len:(n - first) ()
  else a

(* Write [data] from [pos] on, one ring-sized piece at a time. *)
let rec write_from t data pos =
  let len = String.length data - pos in
  if len > 0 then begin
    Mutex0.lock t.mutex;
    let rpos = Sys.segment_word t.seg ~off:off_rpos in
    let wpos = Sys.segment_word t.seg ~off:off_wpos in
    let space = capacity - Int64.to_int (Int64.sub wpos rpos) in
    if space = 0 then begin
      Mutex0.unlock t.mutex;
      (* sleep until a reader advances rpos *)
      Sys.futex_wait t.seg ~off:off_rpos ~expected:rpos;
      write_from t data pos
    end
    else begin
      let n = min space len in
      ring_write t ~wpos data ~pos ~n;
      Sys.set_segment_word t.seg ~off:off_wpos (Int64.add wpos (Int64.of_int n));
      Mutex0.unlock t.mutex;
      ignore (Sys.futex_wake t.seg ~off:off_wpos ~count:max_int);
      write_from t data (pos + n)
    end
  end

let write t data = write_from t data 0

let rec read t ~max =
  Mutex0.lock t.mutex;
  let rpos = Sys.segment_word t.seg ~off:off_rpos in
  let wpos = Sys.segment_word t.seg ~off:off_wpos in
  let avail = Int64.to_int (Int64.sub wpos rpos) in
  if avail = 0 then begin
    let writers = Sys.segment_word t.seg ~off:off_writers in
    Mutex0.unlock t.mutex;
    if Int64.equal writers 0L then None
    else begin
      Sys.futex_wait t.seg ~off:off_wpos ~expected:wpos;
      read t ~max
    end
  end
  else begin
    let n = min avail max in
    let data = ring_read t ~rpos n in
    Sys.set_segment_word t.seg ~off:off_rpos (Int64.add rpos (Int64.of_int n));
    Mutex0.unlock t.mutex;
    ignore (Sys.futex_wake t.seg ~off:off_rpos ~count:max_int);
    Some data
  end
