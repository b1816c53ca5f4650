(** Inode construction and direct (non-syscall) manipulation.

    These functions are used by the VFS internals and by image construction;
    programs must go through {!Syscall}, which performs permission checks. *)

open Protego_base

val alloc :
  Ktypes.machine -> kind:Ktypes.file_kind -> mode:Mode.t -> uid:Ktypes.uid ->
  gid:Ktypes.gid -> Ktypes.inode
(** Allocate a fresh inode with the machine's next inode number. *)

val lookup_child : Ktypes.inode -> string -> Ktypes.inode option
val add_child : Ktypes.inode -> string -> Ktypes.inode -> unit
val remove_child : Ktypes.inode -> string -> bool
val child_names : Ktypes.inode -> string list

val read_all : Ktypes.inode -> string
val write_all : Ktypes.inode -> string -> unit
val append_data : Ktypes.inode -> string -> unit
val size : Ktypes.inode -> int

val is_reg : Ktypes.inode -> bool
val same : Ktypes.inode -> Ktypes.inode -> bool
(** Physical identity — inode numbers are unique per machine but mounts
    compare by identity. *)
