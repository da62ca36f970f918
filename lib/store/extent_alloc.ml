module Bptree = Histar_btree.Bptree

(* The two index trees are persistent; the allocator handle just holds
   the current roots. [copy] is therefore O(1) and copies never alias. *)
type t = {
  mutable by_size : int Bptree.t;  (** key = size<<32 | start, value = start *)
  mutable by_loc : int Bptree.t;  (** key = start, value = size *)
}

(* Packing requires starts below 2^32 sectors and sizes below 2^30, so
   the key stays a positive 63-bit int; the simulated disk is 40 GB =
   ~78M (< 2^27) sectors, far inside both bounds. *)
let size_key ~sectors ~start =
  assert (sectors > 0 && sectors < 0x4000_0000);
  assert (start >= 0 && start < 0x1_0000_0000);
  (sectors lsl 32) lor start

let create () = { by_size = Bptree.create (); by_loc = Bptree.create () }

let insert_extent t ~start ~sectors =
  t.by_loc <- Bptree.insert t.by_loc start sectors;
  t.by_size <- Bptree.insert t.by_size (size_key ~sectors ~start) start

let remove_extent t ~start ~sectors =
  (match Bptree.remove t.by_loc start with
  | Some tr -> t.by_loc <- tr
  | None -> assert false);
  match Bptree.remove t.by_size (size_key ~sectors ~start) with
  | Some tr -> t.by_size <- tr
  | None -> assert false

let free t ~start ~sectors =
  if sectors <= 0 then invalid_arg "Extent_alloc.free: empty extent";
  (* Detect double-free / overlap with the by-location tree. *)
  (match Bptree.find_leq t.by_loc start with
  | Some (s, len) when s + len > start ->
      failwith "Extent_alloc.free: overlaps an already-free extent"
  | Some _ | None -> ());
  (match Bptree.find_gt t.by_loc start with
  | Some (s, _) when s < start + sectors ->
      failwith "Extent_alloc.free: overlaps an already-free extent"
  | Some _ | None -> ());
  (* Coalesce with the predecessor if it abuts. *)
  let start, sectors =
    match Bptree.find_lt t.by_loc start with
    | Some (s, len) when s + len = start ->
        remove_extent t ~start:s ~sectors:len;
        (s, len + sectors)
    | Some _ | None -> (start, sectors)
  in
  (* Coalesce with the successor if it abuts. *)
  let sectors =
    match Bptree.find_geq t.by_loc (start + sectors) with
    | Some (s, len) when s = start + sectors ->
        remove_extent t ~start:(start + sectors) ~sectors:len;
        sectors + len
    | Some _ | None -> sectors
  in
  insert_extent t ~start ~sectors

let add_region t ~start ~sectors = free t ~start ~sectors

let alloc t ~sectors =
  if sectors <= 0 then invalid_arg "Extent_alloc.alloc: empty request";
  match Bptree.find_geq t.by_size (size_key ~sectors ~start:0) with
  | None -> None
  | Some (key, start) ->
      let ext_sectors = key lsr 32 in
      remove_extent t ~start ~sectors:ext_sectors;
      if ext_sectors > sectors then
        insert_extent t ~start:(start + sectors) ~sectors:(ext_sectors - sectors);
      Some start

let free_sectors t =
  Bptree.fold (fun acc _ len -> acc + len) 0 t.by_loc

let extent_count t = Bptree.cardinal t.by_loc

let to_list t =
  Bptree.to_list t.by_loc

let largest_extent t =
  match Bptree.max_binding t.by_size with
  | None -> 0
  | Some (key, _) -> key lsr 32

let check_invariants t =
  Bptree.check_invariants t.by_loc;
  Bptree.check_invariants t.by_size;
  if Bptree.cardinal t.by_loc <> Bptree.cardinal t.by_size then
    failwith "Extent_alloc: tree cardinality mismatch";
  let prev_end = ref (-1) in
  Bptree.iter
    (fun start len ->
      if len <= 0 then failwith "Extent_alloc: empty extent";
      if start <= !prev_end then failwith "Extent_alloc: overlap/abut not coalesced";
      if start = !prev_end + 1 && !prev_end >= 0 then ();
      (* abutting means start = prev_end exactly (end-exclusive) *)
      if not (Bptree.mem t.by_size (size_key ~sectors:len ~start)) then
        failwith "Extent_alloc: extent missing from by-size tree";
      prev_end := start + len - 1)
    t.by_loc;
  (* also verify no abutting pairs (should have been coalesced) *)
  let last = ref None in
  Bptree.iter
    (fun start len ->
      (match !last with
      | Some (s, l) when s + l = start ->
          failwith "Extent_alloc: abutting extents not coalesced"
      | Some _ | None -> ());
      last := Some (start, len))
    t.by_loc

let copy t = { by_size = t.by_size; by_loc = t.by_loc }

let encode enc t =
  let module E = Histar_util.Codec.Enc in
  E.u32 enc (Bptree.cardinal t.by_loc);
  Bptree.iter
    (fun start len ->
      E.int enc start;
      E.int enc len)
    t.by_loc

let decode dec =
  let module D = Histar_util.Codec.Dec in
  let t = create () in
  let n = D.u32 dec in
  for _ = 1 to n do
    let start = D.int dec in
    let len = D.int dec in
    insert_extent t ~start ~sectors:len
  done;
  t
