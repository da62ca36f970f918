module Sys = Histar_core.Sys
module Label = Histar_label.Label
open Histar_core.Types

let default_dir_quota = 131_072L (* overhead + initial dirseg + slack *)
let default_file_quota = 69_632L (* 64 KB data + overhead *)

type t = { fs_root : oid; mounts : (string, oid) Hashtbl.t }

let root t = t.fs_root

let split_path path =
  String.split_on_char '/' path
  |> List.filter (fun s -> String.length s > 0 && not (String.equal s "."))

let norm_path path = "/" ^ String.concat "/" (split_path path)

(* Ensure a container has a directory segment; create lazily with the
   container's own label so kernel permissions stay consistent. *)
let ensure_dirseg dir =
  let ce = self_entry dir in
  let md = Sys.get_metadata ce in
  if String.length md >= 8 then Dirseg.of_dir ~dir_entry:ce
  else
    let label = Sys.obj_label ce in
    centry dir (Dirseg.create ~dir ~label)

let make ~root =
  ignore (ensure_dirseg root);
  { fs_root = root; mounts = Hashtbl.create 8 }

let format_root ~container ~label =
  let root =
    Sys.container_create ~container ~label ~quota:default_dir_quota "/"
  in
  ignore (ensure_dirseg root);
  { fs_root = root; mounts = Hashtbl.create 8 }

let copy t = { fs_root = t.fs_root; mounts = Hashtbl.copy t.mounts }
let mount t ~path oid = Hashtbl.replace t.mounts (norm_path path) oid
let unmount t ~path = Hashtbl.remove t.mounts (norm_path path)

type node = { parent : oid; oid : oid; is_dir : bool }

let entry n = centry n.parent n.oid

(* Walk the path, honouring mounts: after each component, if the
   accumulated absolute path is a mount point, jump to the mounted
   container. Returns the chain of directory containers traversed (for
   quota management) along with the final node. *)
let resolve t path =
  let components = split_path path in
  let mounted prefix = Hashtbl.find_opt t.mounts prefix in
  let start = match mounted "/" with Some o -> o | None -> t.fs_root in
  let rec walk dir chain prefix = function
    | [] -> Some ({ parent = dir; oid = dir; is_dir = true }, List.rev chain)
    | [ last ] -> (
        let prefix' = prefix ^ "/" ^ last in
        match mounted prefix' with
        | Some m ->
            (* a mount overlays the name whether or not it exists; the
               mounted container is named by its self-entry since the
               kernel knows nothing about mounts *)
            Some ({ parent = m; oid = m; is_dir = true }, List.rev chain)
        | None -> (
            let ds = ensure_dirseg dir in
            match Dirseg.lookup ds last with
            | None -> None
            | Some e ->
                Some
                  ( { parent = dir; oid = e.Dirseg.oid; is_dir = e.Dirseg.is_dir },
                    List.rev chain )))
    | comp :: rest -> (
        let prefix' = prefix ^ "/" ^ comp in
        match mounted prefix' with
        | Some m -> walk m ((dir, m) :: chain) prefix' rest
        | None -> (
            let ds = ensure_dirseg dir in
            match Dirseg.lookup ds comp with
            | None -> None
            | Some e ->
                if not e.Dirseg.is_dir then None
                else walk e.Dirseg.oid ((dir, e.Dirseg.oid) :: chain) prefix' rest))
  in
  walk start [] "" components

let lookup t path = Option.map fst (resolve t path)
let exists t path = Option.is_some (lookup t path)

let is_dir t path =
  match lookup t path with Some n -> n.is_dir | None -> false

let parent_of path =
  let comps = split_path path in
  match List.rev comps with
  | [] -> invalid_arg "Fs: path has no parent"
  | name :: rev_parent ->
      let ppath = "/" ^ String.concat "/" (List.rev rev_parent) in
      (ppath, name)

let lookup_dir t path =
  match lookup t path with
  | Some n when n.is_dir -> n
  | Some _ -> invalid_arg (Printf.sprintf "Fs: %s is not a directory" path)
  | None -> invalid_arg (Printf.sprintf "Fs: no such directory: %s" path)

(* ---------- quota management (§3.3 "automatic") ---------- *)

let avail_of ce =
  let q, u = Sys.obj_quota ce in
  if Int64.equal q Int64.max_int then Int64.max_int else Int64.sub q u

(* The chain of (enclosing container, directory) pairs from the very
   top down to the directory named by [dirpath]. The pair for the file
   system root itself is included, so quota ultimately flows from the
   root container (which has quota ∞). *)
let chain_to_dir t dirpath =
  match resolve t dirpath with
  | None -> invalid_arg (Printf.sprintf "Fs: no such directory: %s" dirpath)
  | Some (dnode, chain) ->
      let root_parent = Sys.container_parent (self_entry t.fs_root) in
      let chain = (root_parent, t.fs_root) :: chain in
      let chain =
        if dnode.parent = dnode.oid then chain
        else chain @ [ (dnode.parent, dnode.oid) ]
      in
      (dnode.oid, chain)

(* Give every directory along the path at least [need] spare bytes,
   top-down. Competing processes may consume headroom between passes,
   so run passes until a full sweep succeeds (the root container's
   quota is infinite, so this converges unless a label forbids the
   move). *)
let ensure_headroom t dirpath need =
  if Int64.compare need 0L > 0 then begin
    let _dir, chain = chain_to_dir t dirpath in
    let sweep () =
      List.for_all
        (fun (parent, child) ->
          if parent = child then true
          else
            let avail = avail_of (self_entry child) in
            if Int64.compare avail need >= 0 then true
            else
              match
                Sys.quota_move ~container:parent ~target:child
                  ~nbytes:(Int64.sub need avail)
              with
              | () -> true
              | exception Kernel_error (Quota _) -> false)
        chain
    in
    let rec loop n =
      if n = 0 then
        raise
          (Kernel_error (Quota "Fs.ensure_headroom: could not reserve quota"))
      else if not (sweep ()) then loop (n - 1)
    in
    loop 32
  end

(* Move [need] extra quota onto [target], which is linked in the
   directory named by [dirpath]. *)
let reserve_into t ~dirpath ~target need =
  if Int64.compare need 0L > 0 then begin
    let dir, _ = chain_to_dir t dirpath in
    let rec attempt n =
      ensure_headroom t dirpath need;
      match Sys.quota_move ~container:dir ~target ~nbytes:need with
      | () -> ()
      | exception Kernel_error (Quota _) when n > 0 -> attempt (n - 1)
    in
    attempt 8
  end

(* Make sure the directory segment of [dirpath] can absorb another
   [bytes]-byte entry. *)
let grow_dirseg t dirpath bytes =
  let dir, _ = chain_to_dir t dirpath in
  let ds = ensure_dirseg dir in
  let avail = avail_of ds in
  let slack = Int64.of_int (bytes + 128) in
  if Int64.compare avail slack < 0 then
    reserve_into t ~dirpath ~target:ds.object_id
      (Int64.of_int (max (bytes + 128) 8192))

let reserve t path n =
  match resolve t path with
  | None -> invalid_arg (Printf.sprintf "Fs.reserve: no such file: %s" path)
  | Some (node, _chain) ->
      let avail = avail_of (entry node) in
      let need = Int64.sub (Int64.of_int n) avail in
      if Int64.compare need 0L > 0 then
        let dirpath, _ = parent_of path in
        reserve_into t ~dirpath ~target:node.oid need

(* Competing processes can consume headroom between our reservation
   and the operation that needed it; re-reserve and retry. *)
let with_quota_retry t ppath need f =
  let rec go attempts =
    match f () with
    | v -> v
    | exception Kernel_error (Quota _) when attempts > 0 ->
        ensure_headroom t ppath need;
        go (attempts - 1)
  in
  ensure_headroom t ppath need;
  go 8

(* ---------- directories ---------- *)

let mkdir t ?label ?(quota = default_dir_quota) path =
  let ppath, name = parent_of path in
  let pdir = lookup_dir t ppath in
  let label =
    match label with Some l -> l | None -> Sys.obj_label (entry pdir)
  in
  let dir =
    with_quota_retry t ppath quota (fun () ->
        Sys.container_create ~container:pdir.oid ~label ~quota name)
  in
  ignore (ensure_dirseg dir);
  grow_dirseg t ppath (String.length name + 16);
  Dirseg.add (ensure_dirseg pdir.oid) { Dirseg.name; oid = dir; is_dir = true };
  dir

let readdir t path =
  let dir = lookup_dir t path in
  Dirseg.entries (ensure_dirseg dir.oid)

(* ---------- files ---------- *)

let create t ?label ?(quota = default_file_quota) path =
  let ppath, name = parent_of path in
  let pdir = lookup_dir t ppath in
  let label =
    match label with Some l -> l | None -> Sys.obj_label (entry pdir)
  in
  let file =
    with_quota_retry t ppath quota (fun () ->
        Sys.segment_create ~container:pdir.oid ~label ~quota ~len:0 name)
  in
  grow_dirseg t ppath (String.length name + 16);
  Dirseg.add (ensure_dirseg pdir.oid) { Dirseg.name; oid = file; is_dir = false };
  centry pdir.oid file

let find_file t path =
  match resolve t path with
  | Some (n, chain) when not n.is_dir -> Some (n, chain)
  | Some _ -> invalid_arg (Printf.sprintf "Fs: %s is a directory" path)
  | None -> None

(* Modification time lives in the object's 64 bytes of user-defined
   metadata, as §3 suggests. *)
let set_mtime ce =
  let e = Histar_util.Codec.Enc.create () in
  Histar_util.Codec.Enc.int e (Sys.clock_ns ());
  Sys.set_metadata ce (Histar_util.Codec.Enc.to_string e)

let write_file t path data =
  let node, chain =
    match find_file t path with
    | Some (n, c) -> (n, c)
    | None -> (
        ignore (create t path);
        match find_file t path with
        | Some (n, c) -> (n, c)
        | None -> invalid_arg "Fs.write_file: create failed")
  in
  ignore chain;
  let ce = entry node in
  let avail = avail_of ce in
  let size = Sys.segment_size ce in
  let need = Int64.sub (Int64.of_int (String.length data - size)) avail in
  (if Int64.compare need 0L > 0 then
     let dirpath, _ = parent_of path in
     reserve_into t ~dirpath ~target:node.oid need);
  Sys.segment_resize ce (String.length data);
  if String.length data > 0 then Sys.segment_write ce data;
  try set_mtime ce with Kernel_error _ -> ()

let append_file t path data =
  if not (exists t path) then ignore (create t path);
  match find_file t path with
  | None -> invalid_arg "Fs.append_file"
  | Some (node, _chain) ->
      let ce = entry node in
      let size = Sys.segment_size ce in
      let need = Int64.sub (Int64.of_int (String.length data)) (avail_of ce) in
      (if Int64.compare need 0L > 0 then
         let dirpath, _ = parent_of path in
         reserve_into t ~dirpath ~target:node.oid need);
      Sys.segment_resize ce (size + String.length data);
      Sys.segment_write ce ~off:size data;
      (try set_mtime ce with Kernel_error _ -> ())

let read_file t path =
  match find_file t path with
  | Some (n, _) -> Sys.segment_read (entry n) ()
  | None -> invalid_arg (Printf.sprintf "Fs: no such file: %s" path)

let file_size t path =
  match find_file t path with
  | Some (n, _) -> Sys.segment_size (entry n)
  | None -> invalid_arg (Printf.sprintf "Fs: no such file: %s" path)

let unlink t path =
  let ppath, name = parent_of path in
  let pdir = lookup_dir t ppath in
  let ds = ensure_dirseg pdir.oid in
  match Dirseg.lookup ds name with
  | None -> invalid_arg (Printf.sprintf "Fs: no such entry: %s" path)
  | Some e ->
      ignore (Dirseg.remove ds name);
      Sys.unref (centry pdir.oid e.Dirseg.oid)

let rename t ~src ~dst =
  let sp, sname = parent_of src in
  let dp, dname = parent_of dst in
  let sdir = lookup_dir t sp in
  if String.equal (norm_path sp) (norm_path dp) then begin
    if not (Dirseg.rename (ensure_dirseg sdir.oid) ~src:sname ~dst:dname) then
      invalid_arg (Printf.sprintf "Fs.rename: no such entry: %s" src)
  end
  else begin
    (* cross-directory: hard-link into the destination, then unlink *)
    let ddir = lookup_dir t dp in
    let ds = ensure_dirseg sdir.oid in
    match Dirseg.lookup ds sname with
    | None -> invalid_arg (Printf.sprintf "Fs.rename: no such entry: %s" src)
    | Some e ->
        if e.Dirseg.is_dir then
          invalid_arg "Fs.rename: cross-directory directory rename unsupported";
        Sys.set_fixed_quota (centry sdir.oid e.Dirseg.oid);
        ensure_headroom t dp
          (fst (Sys.obj_quota (centry sdir.oid e.Dirseg.oid)));
        Sys.container_link ~container:ddir.oid
          ~target:(centry sdir.oid e.Dirseg.oid);
        grow_dirseg t dp (String.length dname + 16);
        Dirseg.add (ensure_dirseg ddir.oid)
          { Dirseg.name = dname; oid = e.Dirseg.oid; is_dir = false };
        ignore (Dirseg.remove ds sname);
        Sys.unref (centry sdir.oid e.Dirseg.oid)
  end

let link t ~src ~dst =
  match find_file t src with
  | None -> invalid_arg (Printf.sprintf "Fs.link: no such file: %s" src)
  | Some (n, _) ->
      let dp, dname = parent_of dst in
      let ddir = lookup_dir t dp in
      Sys.set_fixed_quota (entry n);
      ensure_headroom t dp (fst (Sys.obj_quota (entry n)));
      Sys.container_link ~container:ddir.oid ~target:(entry n);
      grow_dirseg t dp (String.length dname + 16);
      Dirseg.add (ensure_dirseg ddir.oid)
        { Dirseg.name = dname; oid = n.oid; is_dir = false }

(* §9: chmod/chown change a file's label by *copying* the segment with
   the new label and swapping the directory entry — open descriptors to
   the old object are implicitly revoked when it is unreferenced. *)
let relabel t path ~label =
  let ppath, name = parent_of path in
  let pdir = lookup_dir t ppath in
  match find_file t path with
  | None -> invalid_arg (Printf.sprintf "Fs.relabel: no such file: %s" path)
  | Some (n, _) ->
      let quota = fst (Sys.obj_quota (entry n)) in
      ensure_headroom t ppath quota;
      let fresh =
        Sys.segment_copy ~src:(entry n) ~container:pdir.oid ~label ~quota name
      in
      let ds = ensure_dirseg pdir.oid in
      ignore (Dirseg.remove ds name);
      Dirseg.add ds { Dirseg.name; oid = fresh; is_dir = false };
      Sys.unref (entry n);
      centry pdir.oid fresh

let mtime t path =
  match find_file t path with
  | None -> invalid_arg (Printf.sprintf "Fs.mtime: no such file: %s" path)
  | Some (n, _) -> (
      (* any thread that may modify the file can write its metadata *)
      let d = Histar_util.Codec.Dec.of_string (Sys.get_metadata (entry n)) in
      match Histar_util.Codec.Dec.int d with
      | ns when ns >= 0 -> Some ns
      | _ | (exception Histar_util.Codec.Truncated) -> None)

let fsync t path =
  match resolve t path with
  | None -> invalid_arg (Printf.sprintf "Fs.fsync: no such file: %s" path)
  | Some (n, _) ->
      let ds = ensure_dirseg n.parent in
      Sys.sync_many [ entry n; ds; self_entry n.parent ]

(* §7.1: "we implement fsync of a directory by checkpointing the
   entire system state" — the cause of HiStar's slow synchronous
   unlink. *)
let fsync_dir t path =
  if not (is_dir t path) then
    invalid_arg (Printf.sprintf "Fs.fsync_dir: not a directory: %s" path);
  Sys.sync_all ()

let fsync_range t path ~off ~len =
  match find_file t path with
  | Some (n, _) -> Sys.sync_range (entry n) ~off ~len
  | None -> invalid_arg (Printf.sprintf "Fs.fsync_range: %s" path)
