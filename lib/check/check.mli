(** Property-based checking runner.

    A property is a function ['a -> unit] that raises on failure
    (Alcotest checks, [Failure], any exception). The runner generates
    [count] inputs of growing size from a deterministic seed, and on
    failure shrinks the input through the generator's shrink tree,
    reporting the minimal counterexample together with the exact
    environment needed to replay it:

    {v
    HISTAR_CHECK_SEED=0x00C0FFEE dune runtest
    v}

    Environment knobs:
    - [HISTAR_CHECK_SEED]: override the (fixed, deterministic) default
      seed — accepts decimal or 0x-prefixed hex;
    - [HISTAR_CHECK_COUNT]: override every property's iteration count;
    - [HISTAR_CHECK_FULL=1]: exhaustive mode — multiplies property
      iteration counts by 5, the conformance fuzz budgets by 8 and the
      twin-trace pairs by 4, and makes crash sweeps visit every crash
      point instead of a strided sample. *)

val default_seed : int64
(** Fixed seed used when [HISTAR_CHECK_SEED] is unset, so CI runs are
    reproducible by default. *)

val seed : unit -> int64
(** The seed in effect ([HISTAR_CHECK_SEED] or {!default_seed}). *)

val full_mode : unit -> bool
(** [HISTAR_CHECK_FULL=1]. *)

exception Falsified of string
(** Carries the full counterexample report. *)

val run :
  ?count:int ->
  ?max_size:int ->
  ?seed:int64 ->
  ?print:('a -> string) ->
  name:string ->
  'a Gen.t ->
  ('a -> unit) ->
  unit
(** Run the property; raises {!Falsified} with a replayable report on
    failure. Default [count] is 100 (×5 in full mode), default
    [max_size] 30. *)

val find_counterexample :
  ?count:int ->
  ?max_size:int ->
  ?seed:int64 ->
  'a Gen.t ->
  ('a -> unit) ->
  'a option
(** Like {!run} but returns the shrunk counterexample instead of
    raising — used by the engine's own tests. *)

val test_case :
  ?count:int ->
  ?max_size:int ->
  ?print:('a -> string) ->
  string ->
  'a Gen.t ->
  ('a -> unit) ->
  unit Alcotest.test_case
(** Embed a property as an Alcotest [`Quick] case. *)

val ensure : ?msg:string -> bool -> unit
(** [ensure b] raises if [b] is false — for use inside properties. *)
