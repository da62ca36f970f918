(** The §5.8 explicit information leaks.

    Unix was not designed to control information flow; emulating some of
    its semantics requires small, deliberate leaks, implemented at user
    level as untainting gates created by the *owner* of the taint
    category. The library provides the paper's three:

    - process exit (built into {!Process.spawn} via [?untaint_exit]);
    - file creation — declassifies only the *name* of the new file into
      an untainted directory, while the file itself stays tainted;
    - quota adjustment — lets a tainted process obtain more storage from
      a container it cannot write.

    Whether to create each gate is the category owner's policy choice:
    wrap (§6.1) creates none of them, which is what makes its isolation
    airtight at the cost of the scanner exiting silently. *)

open Histar_core.Types

val call : centry -> return_container:oid -> string -> string
(** [call gate ~return_container payload] invokes a service gate at
    its floor with the caller's clearance. [payload] goes out through
    the thread-local segment, and the gate's reply comes back the same
    way. *)

val make_file_create_gate :
  fs:Fs.t ->
  container:oid ->
  taints:Histar_label.Category.t list ->
  centry
(** Create a gate (in [container]) that lets threads tainted in
    [taints] create files in untainted directories. The calling thread
    must own every category in [taints]. The created files are labeled
    tainted at level 3 in each category — only the name leaks. *)

val create_file_via :
  gate:centry -> return_container:oid -> string -> centry
(** Invoke the gate from a tainted thread: create the named file and
    return its container entry. *)

val make_quota_gate :
  container:oid -> taints:Histar_label.Category.t list -> centry
(** A gate allowing tainted threads to move quota onto objects from
    containers only the gate's creator can write. *)

val adjust_quota_via :
  gate:centry ->
  return_container:oid ->
  container:oid ->
  target:oid ->
  nbytes:int64 ->
  unit
