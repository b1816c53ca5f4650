(** Credential construction and capability checks. *)

open Protego_base

val make :
  ?groups:Ktypes.gid list -> ?caps:Cap.Set.t -> uid:Ktypes.uid ->
  gid:Ktypes.gid -> unit -> Ktypes.cred
(** Fresh credentials with all four uids (resp. gids) set to [uid] (resp.
    [gid]).  A uid-0 credential receives the full capability set unless
    [caps] overrides it, matching stock Linux. *)

val copy : Ktypes.cred -> Ktypes.cred
(** Deep copy, as [fork] performs. *)

val has_cap : Ktypes.cred -> Cap.t -> bool
(** Raw capability-set membership (no LSM involvement). *)

val is_root : Ktypes.cred -> bool
(** [euid = 0]. *)

val in_group : Ktypes.cred -> Ktypes.gid -> bool
(** [egid] or supplementary groups. *)

val recompute_caps_for_uid_change : Ktypes.cred -> unit
(** Linux semantics on identity change (for processes without file
    capabilities): the effective set is full when euid is 0 and empty
    otherwise — a seteuid bracket away from root drops the capabilities
    until the saved uid brings them back. *)

val pp : Format.formatter -> Ktypes.cred -> unit
