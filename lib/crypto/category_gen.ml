type t = { cipher : Block_cipher.t; mutable counter : int64 }

let create ~key = { cipher = Block_cipher.create ~key; counter = 0L }

let next t =
  let name = Block_cipher.encrypt61 t.cipher t.counter in
  t.counter <- Int64.add t.counter 1L;
  Int64.to_int name

let allocated t = Int64.to_int t.counter
let counter t = t.counter
let restore ~key ~counter = { cipher = Block_cipher.create ~key; counter }
