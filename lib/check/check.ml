module Rng = Histar_util.Rng

exception Falsified of string

let default_seed = 0x00C0FFEEL

let parse_seed s =
  match Int64.of_string_opt s with
  | Some v -> v
  | None -> invalid_arg ("HISTAR_CHECK_SEED: cannot parse " ^ s)

let seed () =
  match Stdlib.Sys.getenv_opt "HISTAR_CHECK_SEED" with
  | Some s when s <> "" -> parse_seed s
  | _ -> default_seed

let full_mode () =
  match Stdlib.Sys.getenv_opt "HISTAR_CHECK_FULL" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

let count_override () =
  match Stdlib.Sys.getenv_opt "HISTAR_CHECK_COUNT" with
  | Some s -> int_of_string_opt s
  | None -> None

let ensure ?(msg = "ensure failed") b = if not b then failwith msg

let exn_to_string = function
  | Failure m -> m
  | Falsified m -> m
  | e -> Printexc.to_string e

(* Walk the shrink tree: repeatedly descend into the first child that
   still falsifies the property, within a test budget. *)
let minimize tree fails budget =
  let steps = ref 0 in
  let rec go (Gen.Tree (x, cs) : _ Gen.tree) =
    let rec search cs =
      if !steps >= budget then None
      else
        match cs () with
        | Seq.Nil -> None
        | Seq.Cons (c, rest) ->
            incr steps;
            if fails (Gen.tree_root c) then Some c else search rest
    in
    match search cs with Some c -> go c | None -> x
  in
  (go tree, !steps)

type 'a failure = {
  minimal : 'a;
  iteration : int;
  count : int;
  size : int;
  shrink_steps : int;
  exn : exn;
}

(* Shrinking stops after this many property evaluations. *)
let max_shrink_steps = 2000

let search ?(count = 100) ?(max_size = 30) ?seed:seed_arg gen prop =
  let seed = match seed_arg with Some s -> s | None -> seed () in
  let count =
    match count_override () with
    | Some n -> n
    | None -> if full_mode () then count * 5 else count
  in
  let master = Rng.create seed in
  let rec loop i =
    if i >= count then None
    else
      let iter_seed = Rng.next64 master in
      let size = 1 + (i * max_size / max 1 count) in
      let tree = Gen.run gen ~seed:iter_seed ~size in
      match prop (Gen.tree_root tree) with
      | () -> loop (i + 1)
      | exception first_exn ->
          let fails x =
            match prop x with () -> false | exception _ -> true
          in
          let minimal, shrink_steps = minimize tree fails max_shrink_steps in
          let exn =
            match prop minimal with
            | () -> first_exn (* should not happen; keep the original *)
            | exception e -> e
          in
          Some (seed, { minimal; iteration = i; count; size; shrink_steps; exn })
  in
  loop 0

let find_counterexample ?count ?max_size ?seed gen prop =
  match search ?count ?max_size ?seed gen prop with
  | None -> None
  | Some (_, f) -> Some f.minimal

let run ?count ?max_size ?seed ?print ~name gen prop =
  match search ?count ?max_size ?seed gen prop with
  | None -> ()
  | Some (seed, f) ->
      let printed =
        match print with Some p -> p f.minimal | None -> "<no printer>"
      in
      raise
        (Falsified
           (Printf.sprintf
              "property '%s' falsified (iteration %d/%d, size %d, %d shrink \
               steps)\n\
               counterexample: %s\n\
               cause: %s\n\
               replay: HISTAR_CHECK_SEED=0x%LX dune runtest"
              name f.iteration f.count f.size f.shrink_steps printed
              (exn_to_string f.exn) seed))

let test_case ?count ?max_size ?print name gen prop =
  Alcotest.test_case name `Quick (fun () ->
      try run ?count ?max_size ?print ~name gen prop
      with Falsified msg -> Alcotest.fail msg)
