(** The Protego LSM: object-based policies for the paper's 8 interfaces.

    [install] replaces the machine's security operations with Protego's
    (which fall back to the stock checks for anything not covered), creates
    the /proc/protego configuration files, installs the default raw-socket
    netfilter rules, and exposes a /sys device-information file for every
    dm-crypt device.

    Hook-by-hook summary (Table 4 "Our approach" column):
    - [socket_create]: any user may create a raw or packet socket; such
      sockets are marked and their traffic is filtered (§4.1.1).
    - [socket_bind]: privileged ports are allocated to (binary, uid)
      instances by the bind map (§4.1.3).
    - [sb_mount]/[sb_umount]: whitelist check against the kernel copy of the
      "user" entries of /etc/fstab (§2, §4.2).
    - [task_fix_setuid]: delegation rules (sudoers) with recency-of-
      authentication; restricted transitions become setuid-on-exec (§4.3).
    - [task_fix_setgid]: membership or password-protected groups (newgrp).
    - [bprm_check]: resolves a pending setuid-on-exec; validates command
      arguments against the delegation rule.
    - [inode_permission]/[file_open]: reauthentication before reading
      fragmented shadow files; per-binary ACL on the host ssh key; shadow
      handles are forced close-on-exec (§4.4, §4.6).
    - [file_ioctl]: non-conflicting user routes and safe modem options for
      pppd (§4.1.2); the dm-crypt status ioctl stays root-only because the
      /sys interface replaces it (§4.1).

    The whitelist-shaped hooks (mount, umount, bind, the netfilter output
    chain and the modem-option ioctl) are evaluated through the
    {!Pfm_dispatch} filter machine; [install] also creates
    [/proc/protego/filter_stats] and interposes the dispatcher on the
    netfilter output chain. *)

open Protego_kernel

type t = {
  machine : Ktypes.machine;
  state : Policy_state.t;
  dispatch : Pfm_dispatch.t;
}

val install : Ktypes.machine -> t
(** Requires the /proc and /sys directories to exist (the image builder
    creates them); safe to call on a machine without them — the
    configuration files are then unavailable until created. *)

val state : t -> Policy_state.t
val dispatch : t -> Pfm_dispatch.t
