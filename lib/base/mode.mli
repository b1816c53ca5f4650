(** File mode bits and discretionary access control (DAC) arithmetic.

    A mode is the low 12 bits of [st_mode]: setuid, setgid, sticky, and three
    rwx triplets.  The setuid *bit* (04000) is the paper's central object of
    study. *)

type t = int
(** Octal permission bits, e.g. [0o4755]. *)

(** [s_isuid] = 0o4000 (the setuid bit), [s_isgid] = 0o2000. *)

val s_isuid : t
val s_isgid : t

(** Access classes requested by a permission check. *)
type access = R | W | X

val has_setuid : t -> bool
val has_setgid : t -> bool
val has_sticky : t -> bool

val set_setuid : t -> t
val clear_setuid : t -> t

val bits_for : who:[ `Owner | `Group | `Other ] -> access -> t
(** The single permission bit for an access class and principal class. *)

val permits :
  t -> who:[ `Owner | `Group | `Other ] -> access -> bool

val to_string : t -> string
(** ls(1)-style string for the 12 bits, e.g. ["rwsr-xr-x"]. *)

val to_octal : t -> string
(** e.g. ["4755"]. *)

val of_octal : string -> t option

val pp : Format.formatter -> t -> unit
