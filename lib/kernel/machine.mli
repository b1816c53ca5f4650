(** Machine construction, the simulated clock, tasks, and registration of
    devices, programs and virtual (/proc, /sys) files. *)

open Protego_base

val create : unit -> Ktypes.machine
(** A machine with an empty root filesystem, the stock-Linux security
    operations, an accept-all netfilter table, pid 1 not yet created. *)

val advance_clock : Ktypes.machine -> float -> unit
(** Move simulated time forward by [seconds]. *)

val spawn_task :
  Ktypes.machine -> ?parent:Ktypes.pid -> ?tty:string -> cred:Ktypes.cred ->
  ?cwd:string -> ?env:(string * string) list -> unit -> Ktypes.task
(** Create and register a fresh task. *)

val remove_task : Ktypes.machine -> Ktypes.task -> unit

val install_binary :
  Ktypes.machine -> Ktypes.task -> path:string -> ?mode:Mode.t ->
  ?uid:Ktypes.uid -> ?gid:Ktypes.gid -> Ktypes.program ->
  (unit, Errno.t) result
(** Create the file at [path] (parents must exist), mark it executable with
    [mode] (default [0o755]), and register its implementation under the
    canonical path. *)

val mkdev :
  Ktypes.machine -> Ktypes.task -> path:string -> ?mode:Mode.t ->
  ?uid:Ktypes.uid -> ?gid:Ktypes.gid -> Ktypes.device ->
  (unit, Errno.t) result
(** Create the /dev inode and register the device payload in one step. *)

val add_vnode :
  Ktypes.machine -> Ktypes.task -> path:string -> ?mode:Mode.t ->
  ?uid:Ktypes.uid -> ?gid:Ktypes.gid ->
  read:(Ktypes.machine -> Ktypes.task -> (string, Errno.t) result) ->
  write:(Ktypes.machine -> Ktypes.task -> string -> (unit, Errno.t) result) ->
  unit -> (unit, Errno.t) result
(** Install a virtual file (procfs/sysfs style) whose reads and writes are
    computed. *)

val vnode_read_only :
  (Ktypes.machine -> Ktypes.task -> (string, Errno.t) result) ->
  (Ktypes.machine -> Ktypes.task -> string -> (unit, Errno.t) result)
(** A write handler that always fails with [EACCES], for read-only vnodes. *)

val mkdir_p :
  Ktypes.machine -> Ktypes.task -> string -> ?mode:Mode.t -> ?uid:Ktypes.uid ->
  ?gid:Ktypes.gid -> unit -> (Ktypes.inode, Errno.t) result
(** Create a directory chain without permission checks beyond traversal
    (image-construction helper). *)

val write_file :
  Ktypes.machine -> Ktypes.task -> path:string -> ?mode:Mode.t ->
  ?uid:Ktypes.uid -> ?gid:Ktypes.gid -> string -> (unit, Errno.t) result
(** Create-or-truncate a file with explicit ownership (image-construction
    helper; bypasses DAC, still posts fs events). *)

val create_ppp_link :
  Ktypes.machine -> serial_device:string -> owner_uid:Ktypes.uid ->
  Protego_net.Ppp.t
(** What the kernel PPP driver does when pppd attaches a unit to /dev/ppp:
    allocate the next pppN interface backed by [serial_device]. *)

val kernel_task : Ktypes.machine -> Ktypes.task
(** The root-credentialed task pid 1 ("init"), created on first use; image
    construction and trusted services run as this task. *)

val dmesg : Ktypes.machine -> string list
(** Kernel log, oldest first.  The lines are rendered here, on read: the
    kernel stores its mount and umount lines typed
    ({!Ktypes.dmesg_line}) and formats nothing when it logs them. *)
