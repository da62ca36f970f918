(** wrap — the paper's 110-line trusted isolation wrapper (§2.1, §6.1).

    wrap is invoked with the user's privileges (ownership of the
    category protecting their files). It allocates a fresh taint
    category [v], creates a private tainted /tmp, launches the virus
    scanner tainted [{ur3, v3}] inside it with **no** untainting gates,
    waits for the verdicts (bounded by a timeout that also bounds the
    covert-channel budget), untaints the one-line result, and reports
    it to the terminal. If the scanner oversteps the deadline it is
    killed and its container — everything it ever allocated — is
    destroyed.

    So long as wrap is correct, nothing the scanner (or any helper it
    spawns) does can leak the contents of the scanned files. *)

type report = {
  verdicts : Scanner.verdict list;
  timed_out : bool;
  elapsed_ns : int;
}

val run :
  proc:Histar_unix.Process.t ->
  user:Histar_unix.Process.user ->
  db_path:string ->
  paths:string list ->
  ?timeout_ms:int ->
  ?scanner:
    (proc:Histar_unix.Process.t ->
    db_path:string ->
    paths:string list ->
    result_seg:Histar_core.Types.centry ->
    spawn_helpers:bool ->
    unit) ->
  ?spawn_helpers:bool ->
  unit ->
  report
(** Run a scan under isolation. [scanner] defaults to {!Scanner.run};
    tests substitute compromised variants. The caller's thread must own
    the user's categories. *)
