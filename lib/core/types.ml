type oid = int

(* All real object IDs come from the cipher over [0, 2^61); this value is
   outside that range. *)
let tls_oid = -1

let oid_of_int64 v =
  if (v < 0L || v >= 0x2000_0000_0000_0000L) && not (Int64.equal v (-1L)) then
    invalid_arg (Printf.sprintf "Types.oid_of_int64: %Ld out of range" v);
  Int64.to_int v

type centry = { container : oid; object_id : oid }

let centry container object_id = { container; object_id }
let self_entry d = { container = d; object_id = d }

type kind = Segment | Thread | Address_space | Gate | Container | Device

let kind_to_string = function
  | Segment -> "segment"
  | Thread -> "thread"
  | Address_space -> "address_space"
  | Gate -> "gate"
  | Container -> "container"
  | Device -> "device"

let kind_to_bit = function
  | Segment -> 0
  | Thread -> 1
  | Address_space -> 2
  | Gate -> 3
  | Container -> 4
  | Device -> 5

type error =
  | Label_check of string
  | Not_found_ of string
  | Invalid of string
  | Quota of string
  | Immutable of string
  | Avoid_type of string

let error_to_string = function
  | Label_check s -> "label check failed: " ^ s
  | Not_found_ s -> "not found: " ^ s
  | Invalid s -> "invalid: " ^ s
  | Quota s -> "quota: " ^ s
  | Immutable s -> "immutable: " ^ s
  | Avoid_type s -> "avoid_type: " ^ s

exception Kernel_error of error

type 'a result = ('a, error) Stdlib.result
