(* Multi-tenant expression evaluator on the LIO floating-label layer.

   One service thread hosts every tenant: it mints a secrecy category
   per tenant, keeps each tenant's variables in labeled refs at
   {tcat 3, 1}, and evaluates submitted expressions inside
   [Lio.to_labeled] blocks at the owning tenant's label. The kernel's
   clearance bound does the isolation work: an expression that peeks
   at another tenant's variable dies on the read *inside* the block
   (the taint to {a 3, b 3} exceeds the block clearance {a 3, 1}) and
   comes back as a labeled error — nothing of the other tenant reaches
   the requester, and the service itself never sees the denial as
   anything but a label-determined verdict.

   Because the service owns every tenant category, it can move results
   into per-tenant outboxes by tainting itself on purpose — inside a
   [with_scope] excursion whose gate return launders the owned taint
   back to ⋆ (§3.5). Serving tenant A then tenant B from one thread
   accumulates no label residue; [clean] checks exactly that. *)

module Sys = Histar_core.Sys
module Label = Histar_label.Label
module Level = Histar_label.Level
module Category = Histar_label.Category
module Lio = Histar_lio.Lio
open Histar_core.Types

type expr =
  | Lit of int
  | Var of string
  | Add of expr * expr
  | Mul of expr * expr
  | Div of expr * expr
  | Peek of string * string  (* another tenant's variable — must deny *)

type tenant = {
  t_name : string;
  t_cat : Category.t;
  t_label : Label.t;
  t_vars : (string, Lio.lref) Hashtbl.t;
  t_out : Lio.lref;
}

type t = {
  e_ctx : Lio.ctx;
  e_tenants : (string * tenant) list;
  e_base : Label.t;  (* service label at creation: the clean state *)
  mutable e_served : int;
  mutable e_denied : int;
}

(* Call from the service thread, untainted. *)
let create ~container names =
  let minted =
    List.map
      (fun name ->
        let c = Sys.cat_create () in
        (name, c, Label.of_list [ (c, Level.L3) ] Level.L1))
      names
  in
  let ctx =
    Lio.init ~levels:(List.map (fun (_, _, l) -> l) minted) ~container ()
  in
  let tenants =
    List.map
      (fun (t_name, t_cat, t_label) ->
        ( t_name,
          {
            t_name;
            t_cat;
            t_label;
            t_vars = Hashtbl.create 8;
            t_out = Lio.new_ref ctx ~name:(t_name ^ " outbox") t_label "";
          } ))
      minted
  in
  {
    e_ctx = ctx;
    e_tenants = tenants;
    e_base = Sys.self_label ();
    e_served = 0;
    e_denied = 0;
  }

let tenant t name =
  match List.assoc_opt name t.e_tenants with
  | Some tn -> tn
  | None -> invalid_arg ("lio_eval: unknown tenant " ^ name)

let set_var t ~tenant:name var n =
  let tn = tenant t name in
  match Hashtbl.find_opt tn.t_vars var with
  | Some r -> Lio.write_ref r (string_of_int n)
  | None ->
      Hashtbl.replace tn.t_vars var
        (Lio.new_ref t.e_ctx
           ~name:(Printf.sprintf "%s var %s" name var)
           tn.t_label (string_of_int n))

let rec ev t tn = function
  | Lit n -> n
  | Var v -> int_of_string (Lio.read_ref (Hashtbl.find tn.t_vars v))
  | Add (a, b) -> ev t tn a + ev t tn b
  | Mul (a, b) -> ev t tn a * ev t tn b
  | Div (a, b) -> ev t tn a / ev t tn b
  | Peek (other, v) ->
      (* The ref lookup is public routing data; the read is what the
         kernel refuses under the block's clearance. *)
      int_of_string (Lio.read_ref (Hashtbl.find (tenant t other).t_vars v))

let eval t ~tenant:name expr =
  let tn = tenant t name in
  let lv = Lio.to_labeled t.e_ctx tn.t_label (fun () -> ev t tn expr) in
  (* Deliver into the tenant's outbox: deliberately taint up to the
     tenant label inside a laundering scope, so the service comes back
     clean and the verdict (not the value) is all that escapes. *)
  let out, _final =
    Lio.with_scope t.e_ctx (fun () ->
        match Lio.unlabel lv with
        | v ->
            Lio.write_ref tn.t_out (string_of_int v);
            `Ok
        | exception Kernel_error _ ->
            Lio.write_ref tn.t_out "ERR denied";
            `Denied
        | exception _ ->
            Lio.write_ref tn.t_out "ERR eval";
            `Failed)
  in
  match out with
  | Ok `Ok ->
      t.e_served <- t.e_served + 1;
      Ok ()
  | Ok `Denied ->
      t.e_denied <- t.e_denied + 1;
      Error "denied"
  | Ok `Failed -> Error "eval failed"
  | Error _ -> Error "delivery failed"

let read_out t ~tenant:name =
  let tn = tenant t name in
  match Lio.with_scope t.e_ctx (fun () -> Lio.read_ref tn.t_out) with
  | Ok s, _ -> s
  | Error e, _ -> raise e

let served t = t.e_served
let denied t = t.e_denied
let clean t = Label.equal (Sys.self_label ()) t.e_base
