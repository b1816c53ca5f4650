(** The monitoring daemon (§2, Figure 1).

    A trusted process that watches the legacy, policy-relevant configuration
    files (/etc/fstab, /etc/sudoers and sudoers.d, /etc/bind,
    /etc/ppp/options, and the fragmented account databases) through the
    kernel's file-change notification feed, and propagates changes into the
    Protego LSM via the /proc/protego files.  It also regenerates the legacy
    shared databases (/etc/passwd, /etc/group, /etc/shadow) from the
    per-account fragments for backwards compatibility (§4.4).

    The daemon is only required for backwards compatibility: an
    administrator may instead write the /proc files directly. *)

open Protego_kernel

type t

val start : Ktypes.machine -> t
(** Spawn the daemon's (root) task and perform an initial full sync. *)

val step : t -> int
(** Drain pending file-change events; re-synchronize the affected policies.
    Returns the number of sync actions performed.  Events caused by the
    daemon's own writes are ignored. *)

val sync_all : t -> unit
