(** Path resolution, DAC permission checks, and mount redirection.

    Resolution follows Linux: component-wise walk from the root (or the
    task's cwd for relative paths), symlink expansion with an [ELOOP] bound,
    search (x) permission on every traversed directory, and redirection
    through the mount table when a walk reaches a covered directory. *)

open Protego_base

val normalize : cwd:string -> string -> string
(** Make a path absolute against [cwd] and squeeze [.] / [..] / duplicate
    slashes lexically (used for canonical policy paths).  A path that is
    already canonical (absolute, with no empty, [.] or [..] component
    and no trailing slash) comes back as the argument itself, not a
    copy, after one scan that allocates nothing: callers must not expect
    a fresh string.  Strings are immutable, so comparing the result by
    physical identity (the dispatcher's front slot does) stays sound. *)

val split_path : string -> string list
(** Path components, no empties. *)

val next_component : string -> int -> int
(** [next_component s i]: the first index at or after [i] where a
    component of [s] starts, past ['/'] separators and [.] components
    ([String.length s] when none is left).  The index scan {!resolve}
    walks with, in place of {!split_path}; allocates nothing. *)

val component_end : string -> int -> int
(** [component_end s i]: the index just past the component that starts
    at [i] (the next ['/'], or [String.length s]). *)

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
    permission on every directory traversed.  Per component, in order:
    [ENOTDIR] if the directory reached is not one, [EACCES] without
    search permission on it, then the lookup ([ENOENT]).  [..] is
    lexical: the walk restarts from the root at the normalized prefix
    through it.  A symlink restarts the walk at its target (relative to
    the directory that holds it) followed by the rest of the path,
    normalized; the 41st symlink followed fails with [ELOOP].

    The walk reads the path by index and matches directory entries in
    place, so through plain directories it allocates only its result;
    a string is built only when a symlink or [..] restarts it. *)

val resolve_no_follow :
  Ktypes.machine -> Ktypes.task -> string -> (Ktypes.inode, Errno.t) result
(** Like {!resolve} but does not follow a symlink in the final component
    (the last one that is not empty or [.]). *)

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

val mounted_at :
  Ktypes.mount_record list -> string -> Ktypes.mount_record list
(** [mounted_at mounts target]: the table from its first entry mounted
    at [target] on, [[]] when nothing is mounted there.  Match the head
    for the entry, or compare with [!= []] for a membership test; the
    lookup allocates nothing. *)

val unmount : Ktypes.mount_record list -> string -> Ktypes.mount_record list
(** [unmount mounts target]: [mounts] without its first entry mounted at
    [target], in one pass that copies only the entries ahead of it and
    shares the rest.  Nothing is mounted there exactly when the result
    is [mounts] itself ([==]). *)

val path_of_inode : Ktypes.machine -> Ktypes.inode -> string option
(** Reverse lookup for diagnostics (walks the tree; O(n)). *)
