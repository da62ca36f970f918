(** Unix users (§5.4): a pair of categories [ur]/[uw] per user defines
    read and write privilege; private files are labeled
    [{ur3, uw0, 1}]. There is no superuser — "root" is just a user
    whose categories things happen to be labeled with. *)

val create_user : fs:Fs.t -> name:string -> Process.user
(** Allocate the user's categories (the calling thread becomes an
    owner) and create [/home/<name>] labeled [{ur3, uw0, 1}]. *)

val private_label : Process.user -> Histar_label.Label.t
(** [{ur3, uw0, 1}]. *)

val home : Process.user -> string
val owns : Histar_label.Label.t -> Process.user -> bool
(** Does this thread label carry both of the user's categories at ⋆? *)

val sees : fs:Fs.t -> viewer:Histar_label.Label.t -> string -> bool
(** Can a thread with this label read the named file? (Checked against
    the file's label; convenience for tests.) *)

