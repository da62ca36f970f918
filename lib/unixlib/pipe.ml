module Sys = Histar_core.Sys
open Histar_core.Types

let capacity = 65_536
let off_mutex = 0
let off_rpos = 8
let off_wpos = 16
let off_writers = 24
let data_start = 32

type t = { seg : centry }

let entry t = t.seg
let of_entry seg = { seg }

let create ~container ~label =
  let len = data_start + capacity in
  let seg =
    Sys.segment_create ~container ~label
      ~quota:(Int64.of_int (len + 4096))
      ~len "pipe"
  in
  let t = { seg = centry container seg } in
  Sys.set_segment_word t.seg ~off:off_writers 1L;
  t

let mutex t = Mutex0.at t.seg ~off:off_mutex

let add_writer t =
  Mutex0.with_lock (mutex t) (fun () ->
      Sys.set_segment_word t.seg ~off:off_writers
        (Int64.add (Sys.segment_word t.seg ~off:off_writers) 1L))

let close_writer t =
  Mutex0.with_lock (mutex t) (fun () ->
      Sys.set_segment_word t.seg ~off:off_writers
        (Int64.sub (Sys.segment_word t.seg ~off:off_writers) 1L));
  (* wake readers so they can observe EOF *)
  ignore (Sys.futex_wake t.seg ~off:off_wpos ~count:max_int)

(* Copy [data] into the ring at logical position [wpos]. *)
let ring_write t ~wpos data =
  let start = Int64.to_int (Int64.rem wpos (Int64.of_int capacity)) in
  let first = min (String.length data) (capacity - start) in
  Sys.segment_write t.seg ~off:(data_start + start) (String.sub data 0 first);
  if first < String.length data then
    Sys.segment_write t.seg ~off:data_start
      (String.sub data first (String.length data - first))

let ring_read t ~rpos n =
  let start = Int64.to_int (Int64.rem rpos (Int64.of_int capacity)) in
  let first = min n (capacity - start) in
  let a = Sys.segment_read t.seg ~off:(data_start + start) ~len:first () in
  if first < n then
    a ^ Sys.segment_read t.seg ~off:data_start ~len:(n - first) ()
  else a

let rec write t data =
  if String.length data = 0 then ()
  else begin
    Mutex0.lock (mutex t);
    let rpos = Sys.segment_word t.seg ~off:off_rpos in
    let wpos = Sys.segment_word t.seg ~off:off_wpos in
    let space = capacity - Int64.to_int (Int64.sub wpos rpos) in
    if space = 0 then begin
      Mutex0.unlock (mutex t);
      (* sleep until a reader advances rpos *)
      Sys.futex_wait t.seg ~off:off_rpos ~expected:rpos;
      write t data
    end
    else begin
      let n = min space (String.length data) in
      ring_write t ~wpos (String.sub data 0 n);
      Sys.set_segment_word t.seg ~off:off_wpos (Int64.add wpos (Int64.of_int n));
      Mutex0.unlock (mutex t);
      ignore (Sys.futex_wake t.seg ~off:off_wpos ~count:max_int);
      write t (String.sub data n (String.length data - n))
    end
  end

let rec read t ~max =
  Mutex0.lock (mutex t);
  let rpos = Sys.segment_word t.seg ~off:off_rpos in
  let wpos = Sys.segment_word t.seg ~off:off_wpos in
  let avail = Int64.to_int (Int64.sub wpos rpos) in
  if avail = 0 then begin
    let writers = Sys.segment_word t.seg ~off:off_writers in
    Mutex0.unlock (mutex t);
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
    Mutex0.unlock (mutex t);
    ignore (Sys.futex_wake t.seg ~off:off_rpos ~count:max_int);
    Some data
  end
