(* Pure reference model of the kernel. Transcribed from §3 of the
   paper with the same check *order* as lib/core/kernel.ml, so that
   error classes line up under differential testing. State is a
   persistent map keyed by small sequential object ids; mutations on a
   failing syscall never leak (each operation either returns a wholly
   new state or the original one) — except the gate-call round trip,
   whose partial progress on a stuck return path is part of the
   specified behaviour (the return gate leaks, the thread keeps the
   requested label). *)

type oid = int
type centry = { container : oid; object_id : oid }
type kind = Segment | Thread | Address_space | Gate | Container | Device

type err = E_label | E_not_found | E_invalid | E_quota | E_immutable | E_avoid

type mapping = {
  va : int64;
  seg : centry;
  map_off : int;
  npages : int;
  mread : bool;
  mwrite : bool;
  mexec : bool;
}

type spec = {
  sc_container : oid;
  sc_label : Mlabel.t;
  sc_quota : int64;
  sc_descrip : string;
}

type req =
  | Cat_create
  | Self_get_label
  | Self_get_clearance
  | Self_set_label of Mlabel.t
  | Self_set_clearance of Mlabel.t
  | Obj_get_label of centry
  | Obj_get_kind of centry
  | Obj_get_descrip of centry
  | Obj_get_quota of centry
  | Obj_set_fixed_quota of centry
  | Obj_set_immutable of centry
  | Obj_get_metadata of centry
  | Obj_set_metadata of centry * string
  | Unref of centry
  | Quota_move of { qm_container : oid; qm_target : oid; qm_nbytes : int64 }
  | Container_create of spec * kind list
  | Container_list of centry
  | Container_get_parent of centry
  | Container_link of { cl_container : oid; cl_target : centry }
  | Segment_create of spec * int
  | Segment_read of centry * int * int
  | Segment_write of centry * int * string
  | Segment_resize of centry * int
  | Segment_get_size of centry
  | Segment_copy of centry * spec
  | Segment_cas of { cas_seg : centry; cas_off : int; cas_exp : int64; cas_des : int64 }
  | As_create of spec
  | As_get of centry
  | As_map of centry * mapping
  | As_unmap of centry * int64
  | Thread_create of spec * Mlabel.t
  | Thread_get_label of centry
  | Gate_create of {
      gc_spec : spec;
      gc_clearance : Mlabel.t;
      gc_keep : bool;
      gc_once : bool;
    }
  | Gate_call of {
      g_gate : centry;
      g_label : Mlabel.t option;
      g_clear : Mlabel.t option;
      g_verify : Mlabel.t;
      g_retcon : oid;
    }
  | Futex_wake of centry * int * int
  | Sync_object of centry

type resp =
  | R_unit
  | R_bool of bool
  | R_cat of int
  | R_label of Mlabel.t
  | R_oid of oid
  | R_bytes of string
  | R_int of int64
  | R_quota of int64 * int64
  | R_kind of kind
  | R_entries of (oid * kind * string) list
  | R_mappings of mapping list
  | R_err of err * string

type status = S_continue | S_thread_gone | S_stuck of err * string

module M = Map.Make (Int)

type con = { children : kind M.t; parent : oid; avoid : int }

(* [Dev] is never built (devices are out of the model's scope) but
   keeps the body/kind correspondence total. *)
type body =
  | Seg of string
  | Con of con
  | Thr of { tclear : Mlabel.t }
  | Gat of { gclear : Mlabel.t; gkeep : bool; gonce : bool }
  | Asp of mapping list
  | Dev [@warning "-37"]

type obj = {
  kind : kind;
  label : Mlabel.t;
  descrip : string;
  quota : int64;
  usage : int64;
  fixed : bool;
  immut : bool;
  meta : string;
  refs : int;
  body : body;
}

type state = {
  objs : obj M.t;
  next_oid : oid;
  next_cat : int;
  root : oid;
  boot : oid;
}

type view = {
  v_kind : kind;
  v_label : Mlabel.t;
  v_descrip : string;
  v_quota : int64;
  v_usage : int64;
  v_fixed : bool;
  v_immut : bool;
  v_meta : string;
  v_refs : int;
  v_seg : string option;
  v_children : (oid * kind * string) list option;
  v_parent : oid option;
  v_clear : Mlabel.t option;
  v_maps : mapping list option;
}

let infinite_quota = Int64.max_int
let base_overhead = 512L

let kind_to_bit = function
  | Segment -> 0
  | Thread -> 1
  | Address_space -> 2
  | Gate -> 3
  | Container -> 4
  | Device -> 5

let kind_to_string = function
  | Segment -> "segment"
  | Thread -> "thread"
  | Address_space -> "address_space"
  | Gate -> "gate"
  | Container -> "container"
  | Device -> "device"

let err_to_string = function
  | E_label -> "label"
  | E_not_found -> "not_found"
  | E_invalid -> "invalid"
  | E_quota -> "quota"
  | E_immutable -> "immutable"
  | E_avoid -> "avoid_type"

(* ---------- state helpers ---------- *)

let ( let* ) = Result.bind
let err e msg = Error (e, msg)
let find st oid = M.find_opt oid st.objs
let put st oid o = { st with objs = M.add oid o st.objs }
let remove st oid = { st with objs = M.remove oid st.objs }

let thread st tid =
  match find st tid with
  | Some ({ body = Thr { tclear }; _ } as o) -> (o, tclear)
  | Some _ | None -> invalid_arg "Model: not a live thread"

let cur_label st tid = (fst (thread st tid)).label
let cur_clear st tid = snd (thread st tid)

let set_thread st tid ~label ~clear =
  match find st tid with
  | Some ({ body = Thr _; _ } as o) ->
      put st tid { o with label; body = Thr { tclear = clear } }
  | Some _ | None -> assert false

(* ---------- label checks ---------- *)

let check_observe st tid o op =
  if Mlabel.can_observe ~thread:(cur_label st tid) ~obj:o.label then Ok ()
  else err E_label (op ^ ": cannot observe")

let check_modify st tid o op =
  if o.immut then err E_immutable (op ^ ": object is immutable")
  else if Mlabel.can_modify ~thread:(cur_label st tid) ~obj:o.label then Ok ()
  else err E_label (op ^ ": cannot modify")

let as_container ~op o =
  match o.body with
  | Con c -> Ok c
  | Seg _ | Thr _ | Gat _ | Asp _ | Dev -> err E_invalid (op ^ ": not a container")

let resolve st tid ~op (ce : centry) =
  match find st ce.container with
  | None -> err E_not_found (op ^ ": no container")
  | Some d -> (
      match d.body with
      | Con c ->
          let* () = check_observe st tid d op in
          if ce.object_id = ce.container then Ok (ce.container, d)
          else if M.mem ce.object_id c.children then (
            match find st ce.object_id with
            | Some o -> Ok (ce.object_id, o)
            | None -> err E_not_found (op ^ ": dangling link"))
          else err E_not_found (op ^ ": not in container")
      | Seg _ | Thr _ | Gat _ | Asp _ | Dev ->
          err E_invalid (op ^ ": not a container"))

let resolve_segment st tid ~op ce =
  let* oid, o = resolve st tid ~op ce in
  match o.body with
  | Seg _ -> Ok (oid, o)
  | Con _ | Thr _ | Gat _ | Asp _ | Dev -> err E_invalid (op ^ ": not a segment")

(* ---------- quotas ---------- *)

let usage_of_body = function
  | Seg s -> Int64.add base_overhead (Int64.of_int (String.length s))
  | Con _ | Thr _ | Gat _ | Asp _ | Dev -> base_overhead

let quota_avail o =
  if Int64.equal o.quota infinite_quota then Int64.max_int
  else Int64.sub o.quota o.usage

let sat_add a b =
  let s = Int64.add a b in
  if Int64.compare b 0L > 0 && Int64.compare s a < 0 then Int64.max_int else s

let charge st ~op doid amount =
  match find st doid with
  | None -> assert false
  | Some d ->
      if Int64.equal d.quota infinite_quota then
        Ok (put st doid { d with usage = sat_add d.usage amount })
      else if Int64.compare amount (Int64.sub d.quota d.usage) > 0 then
        err E_quota (op ^ ": container over quota")
      else Ok (put st doid { d with usage = Int64.add d.usage amount })

(* ---------- allocation / deallocation ---------- *)

let rec destroy st oid =
  match find st oid with
  | None -> st
  | Some o -> (
      let st = remove st oid in
      match o.body with
      | Con c -> M.fold (fun child _ st -> decref st child) c.children st
      | Seg _ | Thr _ | Gat _ | Asp _ | Dev -> st)

and decref st child =
  match find st child with
  | None -> st
  | Some o ->
      let refs = o.refs - 1 in
      if refs <= 0 then destroy st child else put st child { o with refs }

let unlink st doid child_oid =
  match find st doid with
  | Some ({ body = Con c; _ } as d) when M.mem child_oid c.children ->
      let d = { d with body = Con { c with children = M.remove child_oid c.children } } in
      let d =
        match find st child_oid with
        | Some ch -> { d with usage = Int64.sub d.usage ch.quota }
        | None -> d
      in
      decref (put st doid d) child_oid
  | Some _ | None -> st

let create_object st tid ~(spec : spec) ~kind ~clearance_check ~body =
  let lt = cur_label st tid in
  let ct = cur_clear st tid in
  let* () =
    if not (Mlabel.is_storable spec.sc_label) then
      err E_invalid "create: label contains J"
    else
      match kind with
      | Thread | Gate -> Ok ()
      | Segment | Address_space | Container | Device ->
          if Mlabel.is_object_label spec.sc_label then Ok ()
          else err E_invalid "create: only threads and gates may own (*)"
  in
  let* d =
    match find st spec.sc_container with
    | Some o -> Ok o
    | None -> err E_not_found "create: no container"
  in
  let* c = as_container ~op:"create" d in
  let* () = check_modify st tid d "create(container)" in
  let* () =
    if c.avoid land (1 lsl kind_to_bit kind) <> 0 then
      err E_avoid (kind_to_string kind ^ " forbidden in this container")
    else Ok ()
  in
  let* () =
    if not (Mlabel.leq lt spec.sc_label) then err E_label "create: L_T not <= L"
    else if (not clearance_check) && not (Mlabel.leq spec.sc_label ct) then
      err E_label "create: L not <= C_T"
    else Ok ()
  in
  let initial_usage = usage_of_body body in
  let* () =
    if Int64.compare spec.sc_quota initial_usage < 0 then
      err E_quota "create: quota below initial usage"
    else Ok ()
  in
  let* st = charge st ~op:"create" spec.sc_container spec.sc_quota in
  let id = st.next_oid in
  let o =
    {
      kind;
      label = spec.sc_label;
      descrip = spec.sc_descrip;
      quota = spec.sc_quota;
      usage = initial_usage;
      fixed = false;
      immut = false;
      meta = "";
      refs = 1;
      body;
    }
  in
  let st = put { st with next_oid = id + 1 } id o in
  let st =
    match find st spec.sc_container with
    | Some ({ body = Con c; _ } as d) ->
        put st spec.sc_container
          { d with body = Con { c with children = M.add id kind c.children } }
    | Some _ | None -> assert false
  in
  Ok (st, id)

(* ---------- gates (§3.5, §5.5) ---------- *)

let check_gate_invoke ~lt ~ct ~lg ~gclear ~rl ~rc ~lv =
  if not (Mlabel.leq lt gclear) then err E_label "gate: L_T not <= C_G"
  else if not (Mlabel.leq lt lv) then err E_label "gate: L_T not <= L_V"
  else
    let floor = Mlabel.lower_star (Mlabel.lub (Mlabel.raise_j lt) (Mlabel.raise_j lg)) in
    if not (Mlabel.leq floor rl) then err E_label "gate: floor not <= L_R"
    else if not (Mlabel.leq rl rc) then err E_label "gate: L_R not <= C_R"
    else if not (Mlabel.leq rc (Mlabel.lub ct gclear)) then
      err E_label "gate: C_R not <= C_T | C_G"
    else Ok ()

(* obj_get_label semantics, shared with the floor computation: thread
   labels are mutable state and demand L_T'^J <= L_T^J to read. *)
let obj_label_sem st tid ce =
  let* _, o = resolve st tid ~op:"obj_get_label" ce in
  match o.body with
  | Thr _ ->
      if Mlabel.leq (Mlabel.raise_j o.label) (Mlabel.raise_j (cur_label st tid))
      then Ok o.label
      else err E_label "obj_get_label: thread label not readable"
  | Seg _ | Con _ | Gat _ | Asp _ | Dev -> Ok o.label

(* The modeled service entry: immediately [gate_return], keeping all
   owned categories when the gate was created with [gc_keep] and none
   otherwise. Runs at the requested label/clearance; any failure on the
   return path leaves the thread stuck inside the service. *)
let model_gate_return st tid ~(rg : centry) ~keep =
  let stuck (e, m) = (st, R_err (e, m), S_stuck (e, m)) in
  match obj_label_sem st tid rg with
  | Error em -> stuck em
  | Ok rgl -> (
      let self = cur_label st tid in
      let dropped =
        if keep then self
        else
          List.fold_left
            (fun acc c ->
              if Mlabel.owns rgl c then acc else Mlabel.set acc c Mlabel.l1)
            self (Mlabel.owned self)
      in
      let lr =
        Mlabel.lower_star
          (Mlabel.lub (Mlabel.raise_j dropped) (Mlabel.raise_j rgl))
      in
      let cc = cur_clear st tid in
      match resolve st tid ~op:"gate_enter" rg with
      | Error em -> stuck em
      | Ok (rg_oid, rgo) -> (
          match rgo.body with
          | Gat rgg -> (
              match
                check_gate_invoke ~lt:(cur_label st tid) ~ct:cc ~lg:rgo.label
                  ~gclear:rgg.gclear ~rl:lr ~rc:cc ~lv:(Mlabel.make Mlabel.l3)
              with
              | Error em -> stuck em
              | Ok () ->
                  let st = set_thread st tid ~label:lr ~clear:cc in
                  (* a return gate is one-shot: reap it *)
                  let st = unlink st rg.container rg_oid in
                  (st, R_unit, S_continue))
          | Seg _ | Con _ | Thr _ | Asp _ | Dev ->
              stuck (E_invalid, "gate_enter: not a gate")))

let gate_call st tid ~g_gate ~g_label ~g_clear ~g_verify ~g_retcon =
  let res =
    (* Sys.gate_call with label = the gate floor when [g_label] is
       [None] (a separate obj_get_label syscall, performed first), and
       return gate label/clearance = the caller's current ones. *)
    let* rl =
      match g_label with
      | Some l -> Ok l
      | None ->
          let* lg = obj_label_sem st tid g_gate in
          Ok
            (Mlabel.lower_star
               (Mlabel.lub
                  (Mlabel.raise_j (cur_label st tid))
                  (Mlabel.raise_j lg)))
    in
    let rc = match g_clear with Some c -> c | None -> cur_clear st tid in
    let* gid, gobj = resolve st tid ~op:"gate_call" g_gate in
    let* gclear, gkeep, gonce =
      match gobj.body with
      | Gat { gclear; gkeep; gonce } -> Ok (gclear, gkeep, gonce)
      | Seg _ | Con _ | Thr _ | Asp _ | Dev ->
          err E_invalid "gate_call: not a gate"
    in
    let lt = cur_label st tid in
    let ct = cur_clear st tid in
    let* () =
      check_gate_invoke ~lt ~ct ~lg:gobj.label ~gclear ~rl ~rc ~lv:g_verify
    in
    let* () =
      if not (Mlabel.leq lt ct) then
        err E_label "gate_call: return gate label not <= C_T"
      else if not (Mlabel.leq ct (Mlabel.lub ct (Mlabel.raise_j lt))) then
        err E_label "gate_call: return clearance not <= C_T | L_T^J"
      else Ok ()
    in
    let* st, rg_oid =
      create_object st tid
        ~spec:
          {
            sc_container = g_retcon;
            sc_label = lt;
            sc_quota = 4096L;
            sc_descrip = "return gate";
          }
        ~kind:Gate ~clearance_check:true
        ~body:(Gat { gclear = ct; gkeep = false; gonce = false })
    in
    let st = set_thread st tid ~label:rl ~clear:rc in
    (* a one-shot service gate reaps itself at entry, like the return
       gate it hands back — mirror the kernel's [reap_one_shot] *)
    let st = if gonce then unlink st g_gate.container gid else st in
    Ok (st, rg_oid, gkeep)
  in
  match res with
  | Error (e, m) -> (st, R_err (e, m), S_continue)
  | Ok (st, rg_oid, keep) ->
      model_gate_return st tid
        ~rg:{ container = g_retcon; object_id = rg_oid }
        ~keep

(* ---------- segments ---------- *)

let seg_data o = match o.body with Seg s -> s | _ -> assert false

(* ---------- dispatch ---------- *)

let exec st tid req : (state * resp, err * string) result =
  match req with
  | Cat_create ->
      let c = st.next_cat in
      let lt = Mlabel.set (cur_label st tid) c Mlabel.star in
      let ct = Mlabel.set (cur_clear st tid) c Mlabel.l3 in
      let st = set_thread st tid ~label:lt ~clear:ct in
      Ok ({ st with next_cat = c + 1 }, R_cat c)
  | Self_get_label -> Ok (st, R_label (cur_label st tid))
  | Self_get_clearance -> Ok (st, R_label (cur_clear st tid))
  | Self_set_label l ->
      if Mlabel.leq (cur_label st tid) l && Mlabel.leq l (cur_clear st tid)
      then Ok (set_thread st tid ~label:l ~clear:(cur_clear st tid), R_unit)
      else err E_label "self_set_label: need L_T <= L <= C_T"
  | Self_set_clearance c ->
      let lt = cur_label st tid in
      let bound = Mlabel.lub (cur_clear st tid) (Mlabel.raise_j lt) in
      if Mlabel.leq lt c && Mlabel.leq c bound then
        Ok (set_thread st tid ~label:lt ~clear:c, R_unit)
      else err E_label "self_set_clearance: need L_T <= C <= C_T | L_T^J"
  | Obj_get_label ce ->
      let* l = obj_label_sem st tid ce in
      Ok (st, R_label l)
  | Obj_get_kind ce ->
      let* _, o = resolve st tid ~op:"obj_get_kind" ce in
      Ok (st, R_kind o.kind)
  | Obj_get_descrip ce ->
      let* _, o = resolve st tid ~op:"obj_get_descrip" ce in
      Ok (st, R_bytes o.descrip)
  | Obj_get_quota ce ->
      let* _, o = resolve st tid ~op:"obj_get_quota" ce in
      let* () = check_observe st tid o "obj_get_quota" in
      Ok (st, R_quota (o.quota, o.usage))
  | Obj_set_fixed_quota ce ->
      let* oid, o = resolve st tid ~op:"obj_set_fixed_quota" ce in
      let* () = check_modify st tid o "obj_set_fixed_quota" in
      Ok (put st oid { o with fixed = true }, R_unit)
  | Obj_set_immutable ce ->
      let* oid, o = resolve st tid ~op:"obj_set_immutable" ce in
      let* () = check_modify st tid o "obj_set_immutable" in
      Ok (put st oid { o with immut = true }, R_unit)
  | Obj_get_metadata ce ->
      let* _, o = resolve st tid ~op:"obj_get_metadata" ce in
      let* () = check_observe st tid o "obj_get_metadata" in
      Ok (st, R_bytes o.meta)
  | Obj_set_metadata (ce, md) ->
      let* oid, o = resolve st tid ~op:"obj_set_metadata" ce in
      let* () = check_modify st tid o "obj_set_metadata" in
      if String.length md > 64 then err E_invalid "obj_set_metadata: > 64 bytes"
      else Ok (put st oid { o with meta = md }, R_unit)
  | Unref ce ->
      let* d =
        match find st ce.container with
        | Some o -> Ok o
        | None -> err E_not_found "unref: no container"
      in
      let* c = as_container ~op:"unref" d in
      let* () = check_modify st tid d "unref(container)" in
      if ce.object_id = ce.container then
        err E_invalid "unref: container cannot unlink itself"
      else if M.mem ce.object_id c.children then
        Ok (unlink st ce.container ce.object_id, R_unit)
      else err E_not_found "unref: not in container"
  | Quota_move { qm_container; qm_target; qm_nbytes } ->
      let* d =
        match find st qm_container with
        | Some o -> Ok o
        | None -> err E_not_found "quota_move: no container"
      in
      let* c = as_container ~op:"quota_move" d in
      let* () = check_modify st tid d "quota_move(container)" in
      let* o =
        if M.mem qm_target c.children then
          match find st qm_target with
          | Some o -> Ok o
          | None -> err E_not_found "quota_move: dangling"
        else err E_not_found "quota_move: not in container"
      in
      let lt = cur_label st tid in
      let ct = cur_clear st tid in
      let* () =
        if Mlabel.leq lt o.label && Mlabel.leq o.label ct then Ok ()
        else err E_label "quota_move: need L_T <= L_O <= C_T"
      in
      let* () =
        if Int64.compare qm_nbytes 0L < 0 then
          if not (Mlabel.can_observe ~thread:lt ~obj:o.label) then
            err E_label "quota_move: shrinking requires L_O <= L_T^J"
          else if Int64.compare (quota_avail o) (Int64.neg qm_nbytes) < 0 then
            err E_quota "quota_move: fewer spare bytes"
          else Ok ()
        else Ok ()
      in
      let* () =
        if o.fixed then err E_immutable "quota_move: fixed-quota object"
        else Ok ()
      in
      let* () =
        if
          Int64.compare qm_nbytes 0L > 0
          && Int64.compare qm_nbytes (Int64.sub Int64.max_int o.quota) > 0
        then err E_quota "quota_move: target quota would overflow"
        else Ok ()
      in
      let* st = charge st ~op:"quota_move" qm_container qm_nbytes in
      let o = match find st qm_target with Some o -> o | None -> assert false in
      Ok (put st qm_target { o with quota = Int64.add o.quota qm_nbytes }, R_unit)
  | Container_create (spec, avoid) ->
      let* parent_avoid =
        match find st spec.sc_container with
        | Some { body = Con c; _ } -> Ok c.avoid
        | Some _ -> err E_invalid "container_create: parent not a container"
        | None -> err E_not_found "container_create: no container"
      in
      let avoid_bits =
        List.fold_left (fun acc k -> acc lor (1 lsl kind_to_bit k)) 0 avoid
      in
      let body =
        Con
          {
            children = M.empty;
            avoid = avoid_bits lor parent_avoid;
            parent = spec.sc_container;
          }
      in
      let* st, id = create_object st tid ~spec ~kind:Container ~clearance_check:false ~body in
      Ok (st, R_oid id)
  | Container_list ce ->
      let* _, o = resolve st tid ~op:"container_list" ce in
      let* c = as_container ~op:"container_list" o in
      let entries =
        M.fold
          (fun oid kind acc ->
            let descrip =
              match find st oid with Some ob -> ob.descrip | None -> "?"
            in
            (oid, kind, descrip) :: acc)
          c.children []
        |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
      in
      Ok (st, R_entries entries)
  | Container_get_parent ce ->
      let* _, o = resolve st tid ~op:"container_get_parent" ce in
      let* c = as_container ~op:"container_get_parent" o in
      Ok (st, R_oid c.parent)
  | Container_link { cl_container; cl_target } ->
      let* o_oid, o = resolve st tid ~op:"container_link" cl_target in
      let* d =
        match find st cl_container with
        | Some d -> Ok d
        | None -> err E_not_found "container_link: no container"
      in
      let* c = as_container ~op:"container_link" d in
      let* () = check_modify st tid d "container_link(container)" in
      let* () =
        if Mlabel.leq o.label (cur_clear st tid) then Ok ()
        else err E_label "container_link: L_S not <= C_T"
      in
      let* () =
        match o.body with
        | Con _ -> err E_invalid "container_link: containers have a single parent"
        | Seg _ | Thr _ | Gat _ | Asp _ | Dev -> Ok ()
      in
      let* () =
        if o.fixed then Ok ()
        else err E_invalid "container_link: object quota not fixed"
      in
      if M.mem o_oid c.children then err E_invalid "container_link: already linked"
      else
        let* st = charge st ~op:"container_link" cl_container o.quota in
        let st =
          match find st cl_container with
          | Some ({ body = Con c; _ } as d) ->
              put st cl_container
                { d with body = Con { c with children = M.add o_oid o.kind c.children } }
          | Some _ | None -> assert false
        in
        let o = match find st o_oid with Some o -> o | None -> assert false in
        Ok (put st o_oid { o with refs = o.refs + 1 }, R_unit)
  | Segment_create (spec, len) ->
      if len < 0 then err E_invalid "segment_create: negative length"
      else
        let body = Seg (String.make len '\000') in
        let* st, id = create_object st tid ~spec ~kind:Segment ~clearance_check:false ~body in
        Ok (st, R_oid id)
  | Segment_read (ce, off, len) ->
      let* _, o = resolve_segment st tid ~op:"segment_read" ce in
      let* () = check_observe st tid o "segment_read" in
      let s = seg_data o in
      let n = String.length s in
      let len = if len < 0 then n - off else len in
      if off < 0 || len < 0 || off + len > n then
        err E_invalid "segment_read: range outside length"
      else Ok (st, R_bytes (String.sub s off len))
  | Segment_write (ce, off, data) ->
      let* oid, o = resolve_segment st tid ~op:"segment_write" ce in
      let* () = check_modify st tid o "segment_write" in
      let s = seg_data o in
      let n = String.length s in
      if off < 0 || off + String.length data > n then
        err E_invalid "segment_write: range outside length"
      else
        let b = Bytes.of_string s in
        Bytes.blit_string data 0 b off (String.length data);
        Ok (put st oid { o with body = Seg (Bytes.to_string b) }, R_unit)
  | Segment_resize (ce, len) ->
      let* oid, o = resolve_segment st tid ~op:"segment_resize" ce in
      let* () = check_modify st tid o "segment_resize" in
      if len < 0 then err E_invalid "segment_resize: negative length"
      else
        let new_usage = Int64.add base_overhead (Int64.of_int len) in
        if
          (not (Int64.equal o.quota infinite_quota))
          && Int64.compare new_usage o.quota > 0
        then err E_quota "segment_resize: length exceeds quota"
        else
          let s = seg_data o in
          let fresh = Bytes.make len '\000' in
          Bytes.blit_string s 0 fresh 0 (min (String.length s) len);
          Ok
            ( put st oid
                { o with body = Seg (Bytes.to_string fresh); usage = new_usage },
              R_unit )
  | Segment_get_size ce ->
      let* _, o = resolve_segment st tid ~op:"segment_get_size" ce in
      let* () = check_observe st tid o "segment_get_size" in
      Ok (st, R_int (Int64.of_int (String.length (seg_data o))))
  | Segment_copy (src, spec) ->
      let* _, o = resolve_segment st tid ~op:"segment_copy" src in
      let* () = check_observe st tid o "segment_copy" in
      let body = Seg (seg_data o) in
      let* st, id = create_object st tid ~spec ~kind:Segment ~clearance_check:false ~body in
      Ok (st, R_oid id)
  | Segment_cas { cas_seg; cas_off; cas_exp; cas_des } ->
      let* oid, o = resolve_segment st tid ~op:"segment_cas" cas_seg in
      let* () = check_modify st tid o "segment_cas" in
      let s = seg_data o in
      if cas_off < 0 || cas_off + 8 > String.length s then
        err E_invalid "segment_cas: offset out of range"
      else
        let v = String.get_int64_le s cas_off in
        if Int64.equal v cas_exp then begin
          let b = Bytes.of_string s in
          Bytes.set_int64_le b cas_off cas_des;
          Ok (put st oid { o with body = Seg (Bytes.to_string b) }, R_bool true)
        end
        else Ok (st, R_bool false)
  | As_create spec ->
      let* st, id =
        create_object st tid ~spec ~kind:Address_space ~clearance_check:false
          ~body:(Asp [])
      in
      Ok (st, R_oid id)
  | As_get ce ->
      let* _, o = resolve st tid ~op:"as_get" ce in
      let* () = check_observe st tid o "as_get" in
      (match o.body with
      | Asp a -> Ok (st, R_mappings a)
      | Seg _ | Con _ | Thr _ | Gat _ | Dev -> err E_invalid "as_get: not an AS")
  | As_map (ce, m) ->
      let* oid, o = resolve st tid ~op:"as_map" ce in
      let* () = check_modify st tid o "as_map" in
      (match o.body with
      | Asp a ->
          let a = m :: List.filter (fun m' -> m'.va <> m.va) a in
          Ok (put st oid { o with body = Asp a }, R_unit)
      | Seg _ | Con _ | Thr _ | Gat _ | Dev -> err E_invalid "as_map: not an AS")
  | As_unmap (ce, va) ->
      let* oid, o = resolve st tid ~op:"as_unmap" ce in
      let* () = check_modify st tid o "as_unmap" in
      (match o.body with
      | Asp a ->
          let a = List.filter (fun m -> m.va <> va) a in
          Ok (put st oid { o with body = Asp a }, R_unit)
      | Seg _ | Con _ | Thr _ | Gat _ | Dev -> err E_invalid "as_unmap: not an AS")
  | Thread_create (spec, clearance) ->
      let lt = cur_label st tid in
      let ct = cur_clear st tid in
      let* () =
        if
          Mlabel.leq lt spec.sc_label
          && Mlabel.leq spec.sc_label clearance
          && Mlabel.leq clearance ct
        then Ok ()
        else err E_label "thread_create: need L_T <= L' <= C' <= C_T"
      in
      let* st, id =
        create_object st tid ~spec ~kind:Thread ~clearance_check:true
          ~body:(Thr { tclear = clearance })
      in
      Ok (st, R_oid id)
  | Thread_get_label ce ->
      let* _, o = resolve st tid ~op:"thread_get_label" ce in
      (match o.body with
      | Thr _ ->
          if
            Mlabel.leq (Mlabel.raise_j o.label)
              (Mlabel.raise_j (cur_label st tid))
          then Ok (st, R_label o.label)
          else err E_label "thread_get_label: not readable"
      | Seg _ | Con _ | Gat _ | Asp _ | Dev ->
          err E_invalid "thread_get_label: not a thread")
  | Gate_create { gc_spec; gc_clearance; gc_keep; gc_once } ->
      let lt = cur_label st tid in
      let ct = cur_clear st tid in
      let* () =
        let bound = Mlabel.lub (Mlabel.lub ct (Mlabel.raise_j lt)) gc_spec.sc_label in
        if not (Mlabel.leq gc_clearance bound) then
          err E_label "gate_create: C_G not <= C_T | L_T^J | L_G"
        else Ok ()
      in
      let* st, id =
        create_object st tid ~spec:gc_spec ~kind:Gate ~clearance_check:true
          ~body:(Gat { gclear = gc_clearance; gkeep = gc_keep; gonce = gc_once })
      in
      Ok (st, R_oid id)
  | Gate_call _ -> assert false (* handled in [step] *)
  | Futex_wake (ce, _off, _count) ->
      let* _, o = resolve_segment st tid ~op:"futex_wake" ce in
      let* () = check_modify st tid o "futex_wake" in
      (* the model has no blocked threads, so no waiter can exist *)
      Ok (st, R_int 0L)
  | Sync_object ce ->
      let* _ = resolve st tid ~op:"sync_object" ce in
      Ok (st, R_unit)

let step st ~thread:tid req =
  ignore (thread st tid);
  match req with
  | Gate_call { g_gate; g_label; g_clear; g_verify; g_retcon } ->
      gate_call st tid ~g_gate ~g_label ~g_clear ~g_verify ~g_retcon
  | _ -> (
      match exec st tid req with
      | Ok (st', resp) ->
          if M.mem tid st'.objs then (st', resp, S_continue)
          else (st', resp, S_thread_gone)
      | Error (e, m) -> (st, R_err (e, m), S_continue))

(* ---------- construction / observation ---------- *)

let spawn st ~container ~label ~clearance ~descrip =
  let id = st.next_oid in
  let o =
    {
      kind = Thread;
      label;
      descrip;
      quota = 65_536L;
      usage = base_overhead;
      fixed = false;
      immut = false;
      meta = "";
      refs = 1;
      body = Thr { tclear = clearance };
    }
  in
  let st = put { st with next_oid = id + 1 } id o in
  match find st container with
  | Some ({ body = Con c; _ } as d) ->
      let st =
        put st container
          {
            d with
            usage = Int64.add d.usage o.quota;
            body = Con { c with children = M.add id Thread c.children };
          }
      in
      (st, id)
  | Some _ | None -> invalid_arg "Model.spawn: bad container"

let init () =
  let root_id = 1 in
  let root_obj =
    {
      kind = Container;
      label = Mlabel.make Mlabel.l1;
      descrip = "root container";
      quota = infinite_quota;
      usage = base_overhead;
      fixed = true;
      immut = false;
      meta = "";
      refs = 1;
      body = Con { children = M.empty; avoid = 0; parent = root_id };
    }
  in
  let st =
    {
      objs = M.add root_id root_obj M.empty;
      next_oid = 2;
      next_cat = 0;
      root = root_id;
      boot = 0;
    }
  in
  let st, boot =
    spawn st ~container:root_id ~label:(Mlabel.make Mlabel.l1)
      ~clearance:(Mlabel.make Mlabel.l2) ~descrip:"driver"
  in
  { st with boot }

let root st = st.root
let boot_thread st = st.boot
let live st = M.fold (fun oid _ acc -> oid :: acc) st.objs [] |> List.sort Int.compare

let view st oid =
  Option.map
    (fun o ->
      {
        v_kind = o.kind;
        v_label = o.label;
        v_descrip = o.descrip;
        v_quota = o.quota;
        v_usage = o.usage;
        v_fixed = o.fixed;
        v_immut = o.immut;
        v_meta = o.meta;
        v_refs = o.refs;
        v_seg = (match o.body with Seg s -> Some s | _ -> None);
        v_children =
          (match o.body with
          | Con c ->
              Some
                (M.fold
                   (fun coid kind acc ->
                     let descrip =
                       match find st coid with Some ob -> ob.descrip | None -> "?"
                     in
                     (coid, kind, descrip) :: acc)
                   c.children []
                |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b))
          | _ -> None);
        v_parent = (match o.body with Con c -> Some c.parent | _ -> None);
        v_clear = (match o.body with Thr th -> Some th.tclear | _ -> None);
        v_maps = (match o.body with Asp a -> Some a | _ -> None);
      })
    (find st oid)

let thread_label_of st oid =
  match find st oid with
  | Some { body = Thr _; label; _ } -> Some label
  | Some _ | None -> None
