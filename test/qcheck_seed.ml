(* QCheck properties under the harness seed: every property draws from a
   fresh state seeded with [Check.seed ()] ([HISTAR_CHECK_SEED], or the
   fixed default), so tier-1 draws the same cases on every run and a
   failure replays with the seed the harness prints. *)
let to_alcotest t =
  let rand = Random.State.make [| Int64.to_int (Histar_check.Check.seed ()) |] in
  QCheck_alcotest.to_alcotest ~rand t
