(** The directory service (§6.2): maps usernames to the container entry
    of each user's authentication setup gate. Controlled by the system
    administrator but untrusted — login trusts it only to interpret the
    username; handing back the wrong gate can make authentication fail
    or return the wrong credentials, never leak the password. *)

type t

val start : Histar_unix.Process.t -> t

val register :
  t ->
  return_container:Histar_core.Types.oid ->
  user:string ->
  setup_gate:Histar_core.Types.centry ->
  unit

val lookup :
  t ->
  return_container:Histar_core.Types.oid ->
  string ->
  Histar_core.Types.centry option
