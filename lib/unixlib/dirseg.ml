module Sys = Histar_core.Sys
module Codec = Histar_util.Codec
open Histar_core.Types

type entry = { name : string; oid : oid; is_dir : bool }

let header_bytes = 16 (* mutex word + generation word *)

let encode_entries es =
  let e = Codec.Enc.create () in
  Codec.Enc.list e
    (fun e en ->
      Codec.Enc.str e en.name;
      Codec.Enc.int e en.oid;
      Codec.Enc.bool e en.is_dir)
    es;
  Codec.Enc.to_string e

let decode_entries s =
  let d = Codec.Dec.of_string s in
  Codec.Dec.list d (fun d ->
      let name = Codec.Dec.str d in
      let oid = oid_of_int64 (Codec.Dec.i64 d) in
      let is_dir = Codec.Dec.bool d in
      { name; oid; is_dir })

let create ~dir ~label =
  let body = encode_entries [] in
  let len = header_bytes + String.length body in
  let seg =
    Sys.segment_create ~container:dir ~label
      ~quota:(Int64.of_int (4096 + len))
      ~len "directory segment"
  in
  Sys.segment_write (centry dir seg) ~off:header_bytes body;
  (* record the dirseg oid in the container's metadata *)
  let e = Codec.Enc.create () in
  Codec.Enc.int e seg;
  Sys.set_metadata (self_entry dir) (Codec.Enc.to_string e);
  seg

let of_dir ~dir_entry =
  let md = Sys.get_metadata dir_entry in
  if String.length md < 8 then
    invalid_arg "Dirseg.of_dir: container has no directory segment";
  let d = Codec.Dec.of_string md in
  centry dir_entry.object_id (oid_of_int64 (Codec.Dec.i64 d))

let generation ce = Sys.segment_word ce ~off:8

(* Consistent read without write permission: generation + busy flag
   sampled before and after (§5.1). *)
let entries ce =
  let rec attempt tries =
    if tries > 10_000 then failwith "Dirseg.entries: livelock";
    let gen0 = generation ce in
    let busy = Sys.segment_word ce ~off:0 in
    if not (Int64.equal busy 0L) then begin
      Sys.yield ();
      attempt (tries + 1)
    end
    else
      let body = Sys.segment_read ce ~off:header_bytes ~len:(-1) () in
      let gen1 = generation ce in
      if Int64.equal gen0 gen1 then decode_entries body
      else attempt (tries + 1)
  in
  attempt 0

let lookup ce name =
  List.find_opt (fun e -> String.equal e.name name) (entries ce)

let mutex ce = Mutex0.at ce ~off:0

let write_entries ce es =
  let body = encode_entries es in
  let gen = generation ce in
  Sys.segment_resize ce (header_bytes + String.length body);
  (* resize may have zeroed past data only beyond length; rewrite
     generation and body *)
  Sys.set_segment_word ce ~off:8 (Int64.add gen 1L);
  Sys.segment_write ce ~off:header_bytes body

let read_entries_locked ce =
  decode_entries (Sys.segment_read ce ~off:header_bytes ~len:(-1) ())

let add ce en =
  Mutex0.with_lock (mutex ce) (fun () ->
      let es = read_entries_locked ce in
      if List.exists (fun e -> String.equal e.name en.name) es then
        invalid_arg (Printf.sprintf "Dirseg.add: %s exists" en.name);
      write_entries ce (es @ [ en ]))

let remove ce name =
  Mutex0.with_lock (mutex ce) (fun () ->
      let es = read_entries_locked ce in
      let es' = List.filter (fun e -> not (String.equal e.name name)) es in
      if List.length es' = List.length es then false
      else begin
        write_entries ce es';
        true
      end)

let rename ce ~src ~dst =
  Mutex0.with_lock (mutex ce) (fun () ->
      let es = read_entries_locked ce in
      match List.find_opt (fun e -> String.equal e.name src) es with
      | None -> false
      | Some moved ->
          let es' =
            List.filter_map
              (fun e ->
                if String.equal e.name dst then None
                else if String.equal e.name src then
                  Some { moved with name = dst }
                else Some e)
              es
          in
          write_entries ce es';
          true)
