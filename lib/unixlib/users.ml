module Sys = Histar_core.Sys
module Label = Histar_label.Label
module Level = Histar_label.Level
open Histar_core.Types

let ensure_home_root ~fs =
  if not (Fs.exists fs "/home") then ignore (Fs.mkdir fs "/home");
  match Fs.lookup fs "/home" with
  | Some n -> n.Fs.oid
  | None -> invalid_arg "Users: cannot create /home"

let private_label (u : Process.user) =
  Label.of_list [ (u.Process.ur, Level.L3); (u.Process.uw, Level.L0) ] Level.L1

let home (u : Process.user) = "/home/" ^ u.Process.user_name

let create_user ~fs ~name =
  ignore (ensure_home_root ~fs);
  let ur = Sys.cat_create () in
  let uw = Sys.cat_create () in
  let user = { Process.user_name = name; ur; uw } in
  ignore (Fs.mkdir fs ~label:(private_label user) (home user));
  user

let owns label (u : Process.user) =
  Label.owns label u.Process.ur && Label.owns label u.Process.uw

let sees ~fs ~viewer path =
  match Fs.lookup fs path with
  | None -> false
  | Some n -> (
      match Sys.obj_label (Fs.entry n) with
      | lbl -> Label.can_observe ~thread:viewer ~obj:lbl
      | exception Kernel_error _ -> false)
