module Label = Histar_label.Label
module Metrics = Histar_metrics.Metrics

(* Counter semantics:
   [label.checks]  — §2 algebra actually executed (cache misses plus
                     the kernel's uncached gate-invocation checks),
   [label.elided]  — decisions served from the cache without running
                     the algebra (cache hits),
   [label.cache_misses] — decisions this cache computed,
   [label.denied]  — denials, cached or not. *)
let m_checks = Metrics.counter "label.checks"
let m_denied = Metrics.counter "label.denied"
let m_cache_misses = Metrics.counter "label.cache_misses"
let m_elided = Metrics.counter "label.elided"

(* A key is a (thread, obj) label pair compared by pointer and hashed
   by intern id. A stored key holds the labels themselves, not their
   ids: a cached label then stays alive, so an equal label built later
   is the same pointer and hits, whatever the GC collected in between.
   A lookup probes through the one mutable [probe] record, so a hit
   allocates nothing; only a miss stores a fresh key, because a stored
   key that is later overwritten would alias every entry. *)
type key = { mutable thread : Label.t; mutable obj : Label.t }

module Tbl = Hashtbl.Make (struct
  type t = key

  let equal a b = a.thread == b.thread && a.obj == b.obj
  let hash k = ((Label.id k.thread * 65599) + Label.id k.obj) land max_int
end)

type t = {
  bound : int;
  observe_tbl : bool Tbl.t;
  modify_tbl : bool Tbl.t;
  probe : key;
}

let fresh_probe () =
  let l = Label.make Histar_label.Level.L1 in
  { thread = l; obj = l }

let create ?(bound = 8192) () =
  {
    bound;
    observe_tbl = Tbl.create 256;
    modify_tbl = Tbl.create 256;
    probe = fresh_probe ();
  }

let lookup t tbl relation ~thread ~obj =
  t.probe.thread <- thread;
  t.probe.obj <- obj;
  let v =
    match Tbl.find tbl t.probe with
    | v ->
        Metrics.Counter.incr m_elided;
        v
    | exception Not_found ->
        Metrics.Counter.incr m_cache_misses;
        Metrics.Counter.incr m_checks;
        let v = relation ~thread ~obj in
        if Tbl.length tbl >= t.bound then Tbl.reset tbl;
        Tbl.add tbl { thread; obj } v;
        v
  in
  if not v then Metrics.Counter.incr m_denied;
  v

(* Exposed for the kernel's uncached check sites (gate invocation),
   which must report into the same counters. *)
let count_uncached_check ~allowed =
  Metrics.Counter.incr m_checks;
  if not allowed then Metrics.Counter.incr m_denied

let observe t ~thread ~obj = lookup t t.observe_tbl Label.can_observe ~thread ~obj
let modify t ~thread ~obj = lookup t t.modify_tbl Label.can_modify ~thread ~obj

(* An independent cache with identical contents, so a forked kernel's
   hit/miss behaviour is bit-identical to the trunk's at the branch
   point (same cached entries, same reset threshold fill). *)
let copy t =
  {
    bound = t.bound;
    observe_tbl = Tbl.copy t.observe_tbl;
    modify_tbl = Tbl.copy t.modify_tbl;
    probe = fresh_probe ();
  }
