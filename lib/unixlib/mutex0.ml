module Sys = Histar_core.Sys

type t = { seg : Histar_core.Types.centry; off : int }

let at seg ~off = { seg; off }

let try_lock t = Sys.segment_cas t.seg ~off:t.off ~expected:0L ~desired:1L

let rec lock t =
  if not (try_lock t) then begin
    (* sleep while the word reads locked; wake on unlock *)
    Sys.futex_wait t.seg ~off:t.off ~expected:1L;
    lock t
  end

let unlock t =
  if not (Sys.segment_cas t.seg ~off:t.off ~expected:1L ~desired:0L) then
    invalid_arg "Mutex0.unlock: not locked";
  ignore (Sys.futex_wake t.seg ~off:t.off ~count:1)

let with_lock t f =
  lock t;
  match f () with
  | v ->
      unlock t;
      v
  | exception e ->
      unlock t;
      raise e
