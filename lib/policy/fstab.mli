(** /etc/fstab parsing.

    The administrator marks filesystems that unprivileged users may mount
    with the ["user"] or ["users"] option; legacy mount(8) enforces this
    check itself, Protego migrates it into the kernel (§2). *)

type entry = {
  fs_spec : string;      (** device, e.g. "/dev/cdrom" *)
  fs_file : string;      (** mountpoint *)
  fs_vfstype : string;   (** e.g. "iso9660" *)
  fs_mntops : string list;
  fs_freq : int;
  fs_passno : int;
}

val parse : string -> (entry list, string) result
(** Parse a whole file; reports the first malformed line. *)

val to_string : entry list -> string

val user_mountable : entry -> bool
(** Has the ["user"] or ["users"] option. *)

val find_for_target : entry list -> string -> entry option
val find_for_source : entry list -> string -> entry option

val mount_flags : entry -> Protego_kernel.Ktypes.mount_flag list
(** Mount flags implied by the options (ro, nosuid, nodev, noexec).  Note
    Linux semantics: the ["user"] option implies nosuid and nodev. *)

val phase_guard : entry -> (Protego_base.Phase.guard, string) result
(** The lifecycle window a [phase<=...] mount option restricts the entry
    to; [Phase.Always] when no phase option is present. *)
