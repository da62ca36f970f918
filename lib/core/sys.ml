module Label = Histar_label.Label
module Category = Histar_label.Category
module Codec = Histar_util.Codec
open Types
open Syscall

let fail_resp name resp =
  match resp with
  | R_err e -> raise (Kernel_error e)
  | _ -> invalid_arg (Printf.sprintf "Sys.%s: unexpected kernel response" name)

let unit_resp name req =
  match perform req with R_unit -> () | r -> fail_resp name r

let oid_resp name req =
  match perform req with R_oid o -> o | r -> fail_resp name r

let bytes_resp name req =
  match perform req with R_bytes b -> b | r -> fail_resp name r

let label_resp name req =
  match perform req with R_label l -> l | r -> fail_resp name r

let int_resp name req =
  match perform req with R_int v -> v | r -> fail_resp name r

(* --- categories and self --- *)

let cat_create () =
  match perform Cat_create with R_cat c -> c | r -> fail_resp "cat_create" r

let self_id () = oid_resp "self_id" Self_get_id
let self_label () = label_resp "self_label" Self_get_label
let self_clearance () = label_resp "self_clearance" Self_get_clearance
let self_set_label l = unit_resp "self_set_label" (Self_set_label l)
let self_set_clearance c = unit_resp "self_set_clearance" (Self_set_clearance c)
let self_set_as ce = unit_resp "self_set_as" (Self_set_as ce)

let self_get_as () =
  match perform Self_get_as with
  | R_centry_opt ce -> ce
  | r -> fail_resp "self_get_as" r

let self_get_return_gate () =
  match perform Self_get_return_gate with
  | R_centry_opt ce -> ce
  | r -> fail_resp "self_get_return_gate" r

let self_halt () =
  ignore (perform Self_halt);
  assert false

let yield () = unit_resp "yield" Self_yield
let usleep us = unit_resp "usleep" (Self_usleep us)

let sleep_until_ns deadline =
  unit_resp "sleep_until_ns" (Self_sleep_until deadline)

let wait_alert () =
  match perform Self_wait_alert with
  | R_alert a -> a
  | r -> fail_resp "wait_alert" r

(* --- generic object operations --- *)

let obj_label ce = label_resp "obj_label" (Obj_get_label ce)

let obj_kind ce =
  match perform (Obj_get_kind ce) with
  | R_kind k -> k
  | r -> fail_resp "obj_kind" r

let obj_descrip ce = bytes_resp "obj_descrip" (Obj_get_descrip ce)

let obj_quota ce =
  match perform (Obj_get_quota ce) with
  | R_quota (q, u) -> (q, u)
  | r -> fail_resp "obj_quota" r

let set_fixed_quota ce = unit_resp "set_fixed_quota" (Obj_set_fixed_quota ce)
let set_immutable ce = unit_resp "set_immutable" (Obj_set_immutable ce)
let get_metadata ce = bytes_resp "get_metadata" (Obj_get_metadata ce)
let set_metadata ce md = unit_resp "set_metadata" (Obj_set_metadata (ce, md))
let unref ce = unit_resp "unref" (Unref ce)

let quota_move ~container ~target ~nbytes =
  unit_resp "quota_move" (Quota_move { container; target; nbytes })

(* --- containers --- *)

let avoid_mask kinds =
  List.fold_left (fun acc k -> acc lor (1 lsl kind_to_bit k)) 0 kinds

let container_create ?(avoid = []) ~container ~label ~quota descrip =
  oid_resp "container_create"
    (Container_create ({ container; label; descrip; quota }, avoid_mask avoid))

let container_list ce =
  match perform (Container_list ce) with
  | R_entries es -> es
  | r -> fail_resp "container_list" r

let container_parent ce = oid_resp "container_parent" (Container_get_parent ce)

let container_link ~container ~target =
  unit_resp "container_link" (Container_link { container; target })

(* --- segments --- *)

let segment_create ~container ~label ~quota ?(len = 0) descrip =
  oid_resp "segment_create"
    (Segment_create ({ container; label; descrip; quota }, len))

let segment_read ce ?(off = 0) ?(len = -1) () =
  bytes_resp "segment_read" (Segment_read (ce, off, len))

let segment_write ce ?(off = 0) data =
  unit_resp "segment_write" (Segment_write (ce, off, data))

(* An 8-byte little-endian word: one [segment_read] or [segment_write]
   of exactly those bytes, the layout [segment_cas] works on. The
   requests are built here rather than through [?off], which would box
   the offset on every futex-word access. *)
let segment_word ce ~off =
  let b = bytes_resp "segment_read" (Segment_read (ce, off, 8)) in
  Codec.Dec.i64 (Codec.Dec.of_string b)

let set_segment_word ce ~off v =
  let e = Codec.Enc.create () in
  Codec.Enc.i64 e v;
  unit_resp "segment_write" (Segment_write (ce, off, Codec.Enc.to_string e))

let segment_resize ce len = unit_resp "segment_resize" (Segment_resize (ce, len))

let segment_size ce =
  Int64.to_int (int_resp "segment_size" (Segment_get_size ce))

let segment_copy ~src ~container ~label ~quota descrip =
  oid_resp "segment_copy"
    (Segment_copy (src, { container; label; descrip; quota }))

let tls = centry 0L tls_oid
let tls_read () = segment_read tls ()

let tls_write data =
  if segment_size tls <> String.length data then
    segment_resize tls (String.length data);
  segment_write tls data

(* --- address spaces --- *)

let as_create ~container ~label ~quota descrip =
  oid_resp "as_create" (As_create { container; label; descrip; quota })

let as_get ce =
  match perform (As_get ce) with
  | R_mappings ms -> ms
  | r -> fail_resp "as_get" r

let as_map ce m = unit_resp "as_map" (As_map (ce, m))
let as_unmap ce va = unit_resp "as_unmap" (As_unmap (ce, va))

(* --- threads --- *)

let thread_create ~container ~label ~clearance ~quota ~name entry =
  oid_resp "thread_create"
    (Thread_create
       { spec = { container; label; descrip = name; quota }; clearance; entry })

let thread_alert ce a = unit_resp "thread_alert" (Thread_alert (ce, a))
let thread_get_label ce = label_resp "thread_get_label" (Thread_get_label ce)

(* --- gates --- *)

let gate_create ?(one_shot = false) ~container ~label ~clearance ~quota ~name
    entry =
  oid_resp "gate_create"
    (Gate_create
       {
         spec = { container; label; descrip = name; quota };
         clearance;
         entry;
         one_shot;
       })

let default_verify = Label.make Histar_label.Level.L3

let gate_enter ~gate ~label ~clearance ?(verify = default_verify) () =
  match
    perform
      (Gate_enter
         {
           gate;
           requested_label = label;
           requested_clearance = clearance;
           verify_label = verify;
         })
  with
  | R_err e -> raise (Kernel_error e)
  | _ -> assert false (* success never returns *)

let gate_call ~gate ~label ~clearance ?(verify = default_verify)
    ~return_container ~return_label ~return_clearance () =
  unit_resp "gate_call"
    (Gate_call
       {
         gate;
         requested_label = label;
         requested_clearance = clearance;
         verify_label = verify;
         return_spec =
           {
             container = return_container;
             label = return_label;
             descrip = "return gate";
             quota = 4096L;
           };
         return_clearance;
       })

(* RPC-style gate-call marshalling (§3.5): the request travels to the
   service through the thread-local segment and the reply comes back
   the same way. The TLS is exempt from label checks (it models
   per-thread memory), so a caller that gets tainted inside the
   service can still read its reply. *)
let rpc_call ~gate ~return_container req =
  tls_write req;
  gate_call ~gate ~label:(self_label ()) ~clearance:(self_clearance ())
    ~return_container ~return_label:(self_label ())
    ~return_clearance:(self_clearance ()) ();
  tls_read ()

(* Conventional RPC return. Ownership survives gate transitions via the
   floor rule, so by default the entry drops every category it owns
   that the return gate does not restore — the caller comes back with
   exactly its own privileges (plus any taint accumulated). Categories
   in [keep] are deliberately granted through the return, which is how
   the check gate of §6.2 hands the login process ownership of x. *)
let gate_return ?(keep = []) () =
  match self_get_return_gate () with
  | None -> self_halt ()
  | Some rg ->
      let rgl = obj_label rg in
      let self = self_label () in
      let self_dropped =
        Category.Set.fold
          (fun c acc ->
            if Label.owns rgl c || List.exists (Category.equal c) keep then acc
            else Label.set acc c Histar_label.Level.L1)
          (Label.owned self) self
      in
      let lr =
        Label.lower_star
          (Label.lub (Label.raise_j self_dropped) (Label.raise_j rgl))
      in
      gate_enter ~gate:rg ~label:lr ~clearance:(self_clearance ()) ()

(* The least label a thread can request when invoking [gate]:
   (L_T^J ⊔ L_G^J)^⋆. *)
let gate_floor gate =
  Label.lower_star
    (Label.lub (Label.raise_j (self_label ())) (Label.raise_j (obj_label gate)))

(* --- futexes --- *)

let futex_wait ce ~off ~expected =
  match perform (Futex_wait (ce, off, expected)) with
  | R_ok _ -> ()
  | r -> fail_resp "futex_wait" r

let futex_wake ce ~off ~count =
  Int64.to_int (int_resp "futex_wake" (Futex_wake (ce, off, count)))

(* --- network devices --- *)

let net_mac ce = bytes_resp "net_mac" (Net_get_mac ce)
let net_send ce frame = unit_resp "net_send" (Net_send (ce, frame))
let net_recv ce = bytes_resp "net_recv" (Net_recv ce)

(* --- persistence and time --- *)

let segment_cas ce ~off ~expected ~desired =
  match perform (Segment_cas (ce, off, expected, desired)) with
  | R_ok b -> b
  | r -> fail_resp "segment_cas" r

let sync_object ce = unit_resp "sync_object" (Sync_object ce)
let sync_many ces = unit_resp "sync_many" (Sync_many ces)

let sync_range ce ~off ~len = unit_resp "sync_range" (Sync_range (ce, off, len))
let sync_all () = unit_resp "sync_all" Sync_all
let clock_ns () = int_resp "clock_ns" Clock_read
