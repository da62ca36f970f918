(** The per-user authentication service (§6.2, Figures 9 and 10).

    Each user runs a daemon owning [ur] and [uw]; its job is to grant
    those categories to login clients that authenticate. The service
    exposes a *setup gate*; each invocation (on the login client's
    donated thread) logs the attempt, allocates a fresh category [x],
    and creates three objects in the caller-provided session container:

    - the retry-count segment, labeled [{pir3, uw0, 1}], built through
      the caller's *agreed-code gate* because neither party trusts the
      other with the privileges its label needs;
    - the check gate, labeled [{ur⋆, uw⋆, x⋆, pir3, 1}]: entering it
      taints the thread [pir3], protecting the password — the tainted
      code can neither export the password nor reach the log; on a
      correct password and retry budget it grants [x] back through the
      return gate;
    - the grant gate, clearance [{x0, 2}]: only an owner of [x] can
      enter; it logs the success (which the tainted check gate could
      not) and grants [ur]/[uw] through its return. *)

type t

type mode =
  | Password  (** the client sends the password into the tainted gate *)
  | Challenge_response
      (** §6.2's non-password option: the service issues a challenge
          and the client answers with H(H(password) ‖ challenge) — the
          password itself never leaves the login process at all *)

val start :
  Histar_unix.Process.t ->
  user:Histar_unix.Process.user ->
  password:string ->
  ?mode:mode ->
  log:Logd.t ->
  dir:Dird.t ->
  unit ->
  t
(** Spawn the daemon (which must be launched by a thread owning the
    user's categories) and register its setup gate with the
    directory. *)

val setup_gate : t -> Histar_core.Types.centry
val trojaned_setup_gate : t -> Histar_core.Types.centry
(** Host/test hook: a *malicious* variant of the setup gate whose check
    gate tries to exfiltrate the password instead of verifying it.
    Used to demonstrate that even then only one bit can leak. *)

val stolen : t -> string list
(** Anything the trojaned check gate managed to exfiltrate (should
    stay empty). *)
