(* Syscall requests and responses (§3). User threads perform the
   {!Syscall} effect; the kernel scheduler interprets it. The interface
   deliberately mirrors the paper's: objects are named by container
   entries, labels are explicit in every request that needs one, and
   gates provide the only protected control transfer. *)

module Label = Histar_label.Label
module Category = Histar_label.Category
open Types

type create_spec = {
  container : oid;  (** container the new object is linked into *)
  label : Label.t;
  descrip : string;  (** 32-byte descriptive string *)
  quota : int64;  (** storage bound for the new object *)
}

type map_flags = { read : bool; write : bool; exec : bool }

type mapping = {
  va : int64;
  seg : centry;
  offset : int;
  npages : int;
  flags : map_flags;
}

type req =
  (* categories and self *)
  | Cat_create
  | Self_get_id
  | Self_get_label
  | Self_get_clearance
  | Self_set_label of Label.t
  | Self_set_clearance of Label.t
  | Self_set_as of centry
  | Self_get_as
  | Self_get_return_gate
  | Self_halt
  | Self_yield
  | Self_usleep of int  (** advance virtual time; reschedules *)
  | Self_sleep_until of int
      (** block until virtual time reaches the deadline (ns); the
          scheduler advances the clock to the earliest such deadline
          when nothing else is runnable *)
  | Self_wait_alert
  (* generic object operations *)
  | Obj_get_label of centry
  | Obj_get_kind of centry
  | Obj_get_descrip of centry
  | Obj_get_quota of centry  (** returns (quota, usage) *)
  | Obj_set_fixed_quota of centry
  | Obj_set_immutable of centry
  | Obj_get_metadata of centry
  | Obj_set_metadata of centry * string
  | Unref of centry
  | Quota_move of { container : oid; target : oid; nbytes : int64 }
  (* containers *)
  | Container_create of create_spec * int  (** spec, avoid_types mask *)
  | Container_list of centry
  | Container_get_parent of centry
  | Container_link of { container : oid; target : centry }
      (** hard-link an existing object into another container *)
  (* segments *)
  | Segment_create of create_spec * int  (** spec, initial length *)
  | Segment_read of centry * int * int  (** entry, offset, length (-1 = all) *)
  | Segment_write of centry * int * string
  | Segment_resize of centry * int
  | Segment_get_size of centry
  | Segment_copy of centry * create_spec
      (** efficient copy with a different label (§3) *)
  (* address spaces *)
  | As_create of create_spec
  | As_get of centry
  | As_map of centry * mapping
  | As_unmap of centry * int64
  (* threads *)
  | Thread_create of {
      spec : create_spec;
      clearance : Label.t;
      entry : unit -> unit;
    }
  | Thread_alert of centry * int
  | Thread_get_label of centry
  (* gates *)
  | Gate_create of {
      spec : create_spec;
      clearance : Label.t;
      entry : unit -> unit;
      one_shot : bool;
          (** reap the gate after its first successful invocation, like
              the return gates [Gate_call] mints — the primitive under
              scoped label excursions (lib/lio's [to_labeled]) *)
    }
  | Gate_enter of {
      gate : centry;
      requested_label : Label.t;
      requested_clearance : Label.t;
      verify_label : Label.t;
    }  (** one-way transfer: never returns *)
  | Gate_call of {
      gate : centry;
      requested_label : Label.t;
      requested_clearance : Label.t;
      verify_label : Label.t;
      return_spec : create_spec;
      return_clearance : Label.t;
    }
      (** create a return gate capturing the current continuation, then
          enter the service gate; completes when the service enters the
          return gate *)
  (* futexes (§4: the only kernel IPC besides shared memory and gates) *)
  | Futex_wait of centry * int * int64
  | Futex_wake of centry * int * int
  (* network device (§4: a three-call API) *)
  | Net_get_mac of centry
  | Net_send of centry * string
  | Net_recv of centry
  | Segment_cas of centry * int * int64 * int64
      (** atomic compare-and-swap of an 8-byte word: the stand-in for
          x86 atomic instructions on shared memory, which user-level
          mutexes are built from *)
  (* persistence *)
  | Sync_object of centry  (** the fsync path: log this object *)
  | Sync_many of centry list  (** fsync several objects, one barrier *)
  | Sync_range of centry * int * int
      (** in-place flush of a byte range of a segment (§7.1) *)
  | Sync_all  (** whole-system checkpoint / group sync *)
  (* time *)
  | Clock_read

type resp =
  | R_unit
  | R_ok of bool
  | R_oid of oid
  | R_cat of Category.t
  | R_label of Label.t
  | R_bytes of string
  | R_int of int
  | R_clock of int  (** virtual ns *)
  | R_quota of int64 * int64
  | R_kind of kind
  | R_entries of (oid * kind * string) list
  | R_mappings of mapping list
  | R_centry_opt of centry option
  | R_alert of int
  | R_err of error

type _ Effect.t += Syscall : req -> resp Effect.t

let perform req = Effect.perform (Syscall req)

(* The one syscall-name table. [req_index] numbers every request;
   [req_names] holds each number's name, so the profiler (§7.1 counts)
   can count in an array slot and still name every slot on output. *)
let req_index = function
  | Cat_create -> 0
  | Self_get_id -> 1
  | Self_get_label -> 2
  | Self_get_clearance -> 3
  | Self_set_label _ -> 4
  | Self_set_clearance _ -> 5
  | Self_set_as _ -> 6
  | Self_get_as -> 7
  | Self_get_return_gate -> 8
  | Self_halt -> 9
  | Self_yield -> 10
  | Self_usleep _ -> 11
  | Self_sleep_until _ -> 12
  | Self_wait_alert -> 13
  | Obj_get_label _ -> 14
  | Obj_get_kind _ -> 15
  | Obj_get_descrip _ -> 16
  | Obj_get_quota _ -> 17
  | Obj_set_fixed_quota _ -> 18
  | Obj_set_immutable _ -> 19
  | Obj_get_metadata _ -> 20
  | Obj_set_metadata _ -> 21
  | Unref _ -> 22
  | Quota_move _ -> 23
  | Container_create _ -> 24
  | Container_list _ -> 25
  | Container_get_parent _ -> 26
  | Container_link _ -> 27
  | Segment_create _ -> 28
  | Segment_read _ -> 29
  | Segment_write _ -> 30
  | Segment_resize _ -> 31
  | Segment_get_size _ -> 32
  | Segment_copy _ -> 33
  | As_create _ -> 34
  | As_get _ -> 35
  | As_map _ -> 36
  | As_unmap _ -> 37
  | Thread_create _ -> 38
  | Thread_alert _ -> 39
  | Thread_get_label _ -> 40
  | Gate_create _ -> 41
  | Gate_enter _ -> 42
  | Gate_call _ -> 43
  | Futex_wait _ -> 44
  | Futex_wake _ -> 45
  | Net_get_mac _ -> 46
  | Net_send _ -> 47
  | Net_recv _ -> 48
  | Segment_cas _ -> 49
  | Sync_object _ -> 50
  | Sync_many _ -> 51
  | Sync_range _ -> 52
  | Sync_all -> 53
  | Clock_read -> 54

let req_names =
  [|
    "cat_create";
    "self_get_id";
    "self_get_label";
    "self_get_clearance";
    "self_set_label";
    "self_set_clearance";
    "self_set_as";
    "self_get_as";
    "self_get_return_gate";
    "self_halt";
    "self_yield";
    "self_usleep";
    "self_sleep_until";
    "self_wait_alert";
    "obj_get_label";
    "obj_get_kind";
    "obj_get_descrip";
    "obj_get_quota";
    "obj_set_fixed_quota";
    "obj_set_immutable";
    "obj_get_metadata";
    "obj_set_metadata";
    "unref";
    "quota_move";
    "container_create";
    "container_list";
    "container_get_parent";
    "container_link";
    "segment_create";
    "segment_read";
    "segment_write";
    "segment_resize";
    "segment_get_size";
    "segment_copy";
    "as_create";
    "as_get";
    "as_map";
    "as_unmap";
    "thread_create";
    "thread_alert";
    "thread_get_label";
    "gate_create";
    "gate_enter";
    "gate_call";
    "futex_wait";
    "futex_wake";
    "net_get_mac";
    "net_send";
    "net_recv";
    "segment_cas";
    "sync_object";
    "sync_many";
    "sync_range";
    "sync_all";
    "clock_read";
  |]

let req_name r = req_names.(req_index r)
