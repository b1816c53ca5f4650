(** Distribution image builder.

    Populates a simulated machine with the Ubuntu/Debian-like layout the
    paper's study assumes: users (root, alice, bob, charlie, service
    accounts), groups (incl. a password-protected one), the /etc policy
    files, devices (CD-ROM, USB stick, dm-crypt node, serial modem, video
    card), remote hosts, and the studied binaries — in one of two
    configurations:

    - [Linux]: the baseline — stock kernel policies with AppArmor loaded
      (no profiles), binaries installed setuid-to-root, legacy shared
      credential databases.
    - [Protego]: the Protego LSM active, the setuid bit removed from every
      studied binary, fragmented credential databases, the trusted
      authentication service registered, and the monitoring daemon started
      (initial policy sync performed). *)

open Protego_kernel

type config = Linux | Protego

type t = {
  machine : Ktypes.machine;
  config : config;
  apparmor : Protego_apparmor.Apparmor.t option;  (** baseline LSM handle *)
  protego : Protego_core.Lsm.t option;            (** Protego LSM handle *)
  plane : Protego_plane.Plane.t option;
      (** parallel decision plane over the LSM's policy state, with
          [/proc/protego/plane] installed; [None] on the Linux baseline *)
  daemon : Protego_services.Monitor_daemon.t option;
}

val build : config -> t

val flavor : config -> Protego_userland.Prog.flavor

val login :
  t -> string -> Ktypes.task
(** A logged-in shell task for the named user (credentials from the account
    database, tty attached, cwd at $HOME).  Raises [Failure] on unknown
    users. *)

val run :
  t -> Ktypes.task -> string -> string list -> (int, Protego_base.Errno.t) result
(** Fork-and-exec a binary as the given task (argv gets the path prepended);
    returns the exit status. *)

val uid_of : t -> string -> int
(** Uid from the image's account set; raises [Failure] on unknown users. *)

(** Well-known uids/gids in every image. *)

val alice_uid : int
val bob_uid : int
val charlie_uid : int
val exim_uid : int
val wwwdata_uid : int
val mail_gid : int
val lp_gid : int
val staff_gid : int
