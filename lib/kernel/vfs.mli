(** Path resolution, DAC permission checks, and mount redirection.

    Resolution follows Linux: component-wise walk from the root (or the
    task's cwd for relative paths), symlink expansion with an [ELOOP] bound,
    search (x) permission on every traversed directory, and redirection
    through the mount table when a walk reaches a covered directory. *)

open Protego_base

val normalize : cwd:string -> string -> string
(** Make a path absolute against [cwd] and squeeze [.] / [..] / duplicate
    slashes lexically (used for canonical policy paths). *)

val split_path : string -> string list
(** Path components, no empties. *)

val dac_permits : Ktypes.cred -> Ktypes.inode -> Mode.access -> bool
(** Pure DAC decision: owner / group / other class selection by fsuid,
    fsgid and supplementary groups. *)

val may_access :
  Ktypes.machine -> Ktypes.task -> path:string -> Ktypes.inode ->
  Mode.access -> (unit, Errno.t) result
(** DAC plus [CAP_DAC_OVERRIDE] / [CAP_DAC_READ_SEARCH] (checked through the
    active LSM's [capable]) plus the LSM [inode_permission] hook. *)

val resolve :
  Ktypes.machine -> Ktypes.task -> string -> (Ktypes.inode, Errno.t) result
(** Resolve to an inode, following symlinks and mounts; checks search
    permission on every directory traversed. *)

val resolve_no_follow :
  Ktypes.machine -> Ktypes.task -> string -> (Ktypes.inode, Errno.t) result
(** Like {!resolve} but does not follow a symlink in the final component. *)

val resolve_parent :
  Ktypes.machine -> Ktypes.task -> string ->
  (Ktypes.inode * string, Errno.t) result
(** Resolve the parent directory of a path; returns it with the final
    component name. *)

val redirect_mount : Ktypes.machine -> Ktypes.inode -> Ktypes.inode
(** Follow the initial-namespace mount table: if a mount covers this inode,
    return the mounted root (iterated, for stacked mounts). *)

val mounts_of : Ktypes.machine -> Ktypes.task -> Ktypes.mount_record list
(** The mount table the task sees: its private copy when it unshared the
    mount namespace, the machine's otherwise. *)

val path_of_inode : Ktypes.machine -> Ktypes.inode -> string option
(** Reverse lookup for diagnostics (walks the tree; O(n)). *)
