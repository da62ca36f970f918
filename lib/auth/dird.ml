module Sys = Histar_core.Sys
module Process = Histar_unix.Process
module Untaint = Histar_unix.Untaint
module Label = Histar_label.Label
module Level = Histar_label.Level
module Codec = Histar_util.Codec
open Histar_core.Types

type t = {
  lookup_cell : centry option ref;
  register_cell : centry option ref;
  table : (string, centry) Hashtbl.t;
}

let lookup_entry t () =
  let user = Proto.dec_string (Sys.tls_read ()) in
  Sys.tls_write (Proto.enc_dir_reply (Hashtbl.find_opt t.table user));
  Sys.gate_return ()

let register_entry t () =
  let d = Codec.Dec.of_string (Sys.tls_read ()) in
  let user = Codec.Dec.str d in
  let gate = Proto.dec_centry d in
  Hashtbl.replace t.table user gate;
  Sys.gate_return ()

let start proc =
  let t =
    {
      lookup_cell = ref None;
      register_cell = ref None;
      table = Hashtbl.create 8;
    }
  in
  let _h =
    Process.spawn proc ~name:"dird" (fun daemon ->
        let ct = Process.container daemon in
        let mk name entry =
          centry ct
            (Sys.gate_create ~container:ct ~label:(Label.make Level.L1)
               ~clearance:(Label.make Level.L2) ~quota:4096L ~name entry)
        in
        t.lookup_cell := Some (mk "dir lookup" (lookup_entry t));
        t.register_cell := Some (mk "dir register" (register_entry t));
        ignore (Sys.wait_alert ()))
  in
  t

let register t ~return_container ~user ~setup_gate =
  let e = Codec.Enc.create () in
  Codec.Enc.str e user;
  Proto.enc_centry e setup_gate;
  ignore
    (Untaint.call (Sys.await t.register_cell) ~return_container
       (Codec.Enc.to_string e))

let lookup t ~return_container user =
  Proto.dec_dir_reply
    (Untaint.call (Sys.await t.lookup_cell) ~return_container
       (Proto.enc_string user))
