(* One count per syscall, in the slot [Syscall.req_index] gives it;
   [Syscall.req_names] names the slots on output. *)
type t = { counts : int array; mutable total : int }

let create () = { counts = Array.make (Array.length Syscall.req_names) 0; total = 0 }

let record t i =
  t.total <- t.total + 1;
  t.counts.(i) <- t.counts.(i) + 1

let total t = t.total

let count t name =
  match Array.find_index (String.equal name) Syscall.req_names with
  | Some i -> t.counts.(i)
  | None -> 0

(* Canonical order: count descending, then name — independent of slot
   order, so profiles with equal contents always list (and hash)
   identically, whichever path (fork or replay) produced them. *)
let to_list t =
  let acc = ref [] in
  Array.iteri
    (fun i n -> if n > 0 then acc := (Syscall.req_names.(i), n) :: !acc)
    t.counts;
  List.sort
    (fun (na, a) (nb, b) ->
      match Int.compare b a with 0 -> String.compare na nb | c -> c)
    !acc

let equal a b = a.total = b.total && a.counts = b.counts
let copy t = { counts = Array.copy t.counts; total = t.total }

let reset t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.total <- 0

let pp fmt t =
  Format.fprintf fmt "@[<v>total syscalls: %d" t.total;
  List.iter (fun (name, n) -> Format.fprintf fmt "@,%8d  %s" n name) (to_list t);
  Format.fprintf fmt "@]"
