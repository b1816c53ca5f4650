(** The system call layer.

    Every simulated program and test drives the machine exclusively through
    these entry points.  Each call checks DAC and invokes the active LSM's
    hooks at the same places Linux does, so swapping the security module
    (stock / AppArmor / Protego) changes behaviour exactly as in the paper. *)

open Protego_base

type fd = int

type open_flag =
  | O_RDONLY
  | O_WRONLY
  | O_RDWR
  | O_CREAT of Mode.t
  | O_TRUNC
  | O_APPEND
  | O_CLOEXEC

type stat_info = {
  st_ino : int;
  st_kind : Ktypes.file_kind;
  st_mode : Mode.t;
  st_uid : Ktypes.uid;
  st_gid : Ktypes.gid;
  st_size : int;
}

val set_trap_iterations : int -> unit
(** Calibrate (or zero, for unit tests) the fixed syscall-entry cost that
    models the user/kernel mode switch.  Default 400 iterations.  One
    iteration is 0.4 of a {!Cost.chain} hop (a dependent L1 load), about
    0.85 ns on a 2-core x86-64 development host, so the default costs
    about 340 ns there whatever the code's placement.  Negative counts
    as 0. *)

(** {1 Identity} *)

val getuid : Ktypes.task -> Ktypes.uid
val geteuid : Ktypes.task -> Ktypes.uid
val getgid : Ktypes.task -> Ktypes.gid
val getegid : Ktypes.task -> Ktypes.gid
val getgroups : Ktypes.task -> Ktypes.gid list
val getpid : Ktypes.task -> Ktypes.pid

val setuid :
  Ktypes.machine -> Ktypes.task -> Ktypes.uid -> (unit, Errno.t) result
(** Stock semantics: with [CAP_SETUID] all four uids change; otherwise the
    target must be ruid or suid and only euid/fsuid change.  The
    [task_fix_setuid] LSM hook may authorize additional transitions
    (delegation) or defer them to exec (Protego §4.3), in which case this
    call returns [Ok ()] with the transition pending. *)

val setgid :
  Ktypes.machine -> Ktypes.task -> Ktypes.gid -> (unit, Errno.t) result

val seteuid :
  Ktypes.machine -> Ktypes.task -> Ktypes.uid -> (unit, Errno.t) result

val setgroups :
  Ktypes.machine -> Ktypes.task -> Ktypes.gid list -> (unit, Errno.t) result

(** {1 Files} *)

val open_ :
  Ktypes.machine -> Ktypes.task -> string -> open_flag list ->
  (fd, Errno.t) result

val close : Ktypes.machine -> Ktypes.task -> fd -> (unit, Errno.t) result
val read : Ktypes.machine -> Ktypes.task -> fd -> int -> (string, Errno.t) result
val write : Ktypes.machine -> Ktypes.task -> fd -> string -> (int, Errno.t) result
val dup : Ktypes.machine -> Ktypes.task -> fd -> (fd, Errno.t) result
val set_cloexec : Ktypes.task -> fd -> bool -> (unit, Errno.t) result
val stat : Ktypes.machine -> Ktypes.task -> string -> (stat_info, Errno.t) result
val lstat : Ktypes.machine -> Ktypes.task -> string -> (stat_info, Errno.t) result
val access :
  Ktypes.machine -> Ktypes.task -> string -> Mode.access list ->
  (unit, Errno.t) result

val chmod :
  Ktypes.machine -> Ktypes.task -> string -> Mode.t -> (unit, Errno.t) result
val chown :
  Ktypes.machine -> Ktypes.task -> string -> Ktypes.uid -> Ktypes.gid ->
  (unit, Errno.t) result

val mkdir :
  Ktypes.machine -> Ktypes.task -> string -> Mode.t -> (unit, Errno.t) result
val unlink : Ktypes.machine -> Ktypes.task -> string -> (unit, Errno.t) result
val rename :
  Ktypes.machine -> Ktypes.task -> string -> string -> (unit, Errno.t) result
val symlink :
  Ktypes.machine -> Ktypes.task -> target:string -> linkpath:string ->
  (unit, Errno.t) result
val readdir :
  Ktypes.machine -> Ktypes.task -> string -> (string list, Errno.t) result
val chdir : Ktypes.machine -> Ktypes.task -> string -> (unit, Errno.t) result

val read_file :
  Ktypes.machine -> Ktypes.task -> string -> (string, Errno.t) result
(** Convenience: open O_RDONLY, read all, close. *)

val write_file :
  Ktypes.machine -> Ktypes.task -> string -> string -> (unit, Errno.t) result
(** Convenience: open O_WRONLY|O_CREAT(0644)|O_TRUNC, write all, close. *)

val append_file :
  Ktypes.machine -> Ktypes.task -> string -> string -> (unit, Errno.t) result

(** {1 Pipes} *)

val pipe : Ktypes.machine -> Ktypes.task -> (fd * fd, Errno.t) result

(** {1 Mounts} *)

val mount :
  Ktypes.machine -> Ktypes.task -> source:string -> target:string ->
  fstype:string -> flags:Ktypes.mount_flag list -> (unit, Errno.t) result
(** Graft a filesystem; the [sb_mount] hook decides permission.  [source] is
    a block device path carrying media (or ["none"] for tmpfs/proc). *)

val umount :
  Ktypes.machine -> Ktypes.task -> target:string -> (unit, Errno.t) result

(** {1 Sockets} *)

val socket :
  Ktypes.machine -> Ktypes.task -> Ktypes.sock_domain -> Ktypes.sock_type ->
  int -> (fd, Errno.t) result

val bind :
  Ktypes.machine -> Ktypes.task -> fd -> Protego_net.Ipaddr.t -> int ->
  (unit, Errno.t) result

val listen : Ktypes.machine -> Ktypes.task -> fd -> (unit, Errno.t) result

val connect :
  Ktypes.machine -> Ktypes.task -> fd -> Protego_net.Ipaddr.t -> int ->
  (unit, Errno.t) result

val sendto :
  Ktypes.machine -> Ktypes.task -> fd -> Protego_net.Ipaddr.t -> int ->
  string -> (int, Errno.t) result

val recvfrom :
  Ktypes.machine -> Ktypes.task -> fd -> (string, Errno.t) result

val send : Ktypes.machine -> Ktypes.task -> fd -> string -> (int, Errno.t) result
val recv : Ktypes.machine -> Ktypes.task -> fd -> int -> (string, Errno.t) result

val socketpair :
  Ktypes.machine -> Ktypes.task -> (fd * fd, Errno.t) result

val setsockopt_ttl :
  Ktypes.machine -> Ktypes.task -> fd -> int -> (unit, Errno.t) result
(** IP_TTL for kernel-built packets (traceroute's probe TTL). *)

(** {1 ioctl} *)

val ioctl :
  Ktypes.machine -> Ktypes.task -> fd -> Ktypes.ioctl_req ->
  (string, Errno.t) result
(** Dispatch an ioctl on an open descriptor; the [file_ioctl] hook decides
    permission; the result string carries any returned data (e.g. the
    dm-crypt table status line, which includes the key — the §4.1 interface
    design flaw). *)

(** {1 Processes} *)

val fork : Ktypes.machine -> Ktypes.task -> Ktypes.task
val execve :
  Ktypes.machine -> Ktypes.task -> string -> string list ->
  (string * string) list -> (int, Errno.t) result
(** Execute a registered binary.  Honours the setuid bit (unless the mount is
    nosuid), runs the [bprm_check] hook (which resolves any pending
    setuid-on-exec), closes close-on-exec descriptors, and runs the program
    to completion, returning its exit status. *)

val waitpid :
  Ktypes.machine -> Ktypes.task -> Ktypes.pid -> (int, Errno.t) result

val exit : Ktypes.machine -> Ktypes.task -> int -> unit

(** {1 File capabilities (§3.1's setcap hardening technique)} *)

val setcap :
  Ktypes.machine -> Ktypes.task -> string -> Cap.Set.t option ->
  (unit, Errno.t) result
(** Attach (or with [None] clear) file capabilities; requires
    [CAP_SETFCAP].  Exec of the file grants the set without a uid change —
    finer than the setuid bit but, as §3.2 argues, still much coarser than
    the binary's safe functionality. *)

val getcap :
  Ktypes.machine -> Ktypes.task -> string -> (Cap.Set.t option, Errno.t) result

(** {1 Namespaces} *)

type ns_flag = Ns_user | Ns_net | Ns_mount

val unshare :
  Ktypes.machine -> Ktypes.task -> ns_flag list -> (unit, Errno.t) result
(** CLONE_NEWUSER/NEWNET/NEWNS.  On the paper's 3.6 kernel all of these
    require [CAP_SYS_ADMIN] — hence setuid sandbox helpers like
    chromium-sandbox; with [machine.unpriv_userns] (kernel >= 3.8) an
    unprivileged task may create a user namespace and, holding the
    in-namespace capabilities, network and mount namespaces inside it
    (§4.6).  A private network namespace is a fake network with no route to
    the outside world; a private mount namespace gives the task a
    copy-on-unshare view of the mount table restricted to synthetic
    filesystems. *)

(** {1 Signals} *)

val sigaction :
  Ktypes.task -> int -> (unit -> unit) option -> unit
val kill :
  Ktypes.machine -> Ktypes.task -> Ktypes.pid -> int -> (unit, Errno.t) result

(** {1 Environment helpers (libc-level, no privilege)} *)

val getenv : Ktypes.task -> string -> string option
val setenv : Ktypes.task -> string -> string -> unit
