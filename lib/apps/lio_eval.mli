(** Multi-tenant expression evaluator on the LIO floating-label layer
    — the application-level demo for [lib/lio].

    One untrusted service thread evaluates expressions for many
    mutually distrusting tenants. Each tenant gets a secrecy category;
    variables live in labeled refs at the tenant's label; every
    evaluation runs inside a {!Histar_lio.Lio.to_labeled} block at
    that label, so the kernel's clearance bound — not the evaluator —
    stops an expression from reading another tenant's state. Results
    travel to per-tenant outboxes through [with_scope] excursions
    whose gate returns launder the service's deliberate taint back to
    ⋆, leaving the thread label exactly as it started ({!clean}). *)

type expr =
  | Lit of int
  | Var of string
  | Add of expr * expr
  | Mul of expr * expr
  | Div of expr * expr
  | Peek of string * string
      (** [(tenant, var)]: read another tenant's variable — denied by
          the kernel inside the block; the request completes with a
          labeled error and no cross-tenant flow. *)

type t

val create : container:Histar_core.Types.oid -> string list -> t
(** Call from the (untainted) service thread: mint one category per
    tenant name, build the LIO context with one scratch level per
    tenant, and create empty outboxes. *)

val set_var : t -> tenant:string -> string -> int -> unit

val eval : t -> tenant:string -> expr -> (unit, string) result
(** Evaluate at the tenant's label and deliver the outcome to the
    tenant's outbox (a number, ["ERR denied"], or ["ERR eval"]).
    [Error "denied"] marks a kernel-refused cross-tenant read. *)

val read_out : t -> tenant:string -> string
(** The tenant's outbox contents (service-side excursion). *)

val served : t -> int
val denied : t -> int

val clean : t -> bool
(** The service thread's label equals its creation-time label — no
    residue from serving any number of tenants. *)
