(** The AppArmor LSM: profile attachment on exec, path mediation, capability
    confinement.  Used as the measurement baseline ("Linux with AppArmor",
    Table 5) and for the security comparison of §1. *)


type t
(** Loaded-profiles handle. *)

val install : Protego_kernel.Ktypes.machine -> t
(** Replace the machine's security ops with AppArmor stacked on the stock
    operations.  With no profiles loaded, behaviour is identical to stock
    Linux (the hooks run but decide nothing) — matching the paper's baseline
    configuration. *)

val load_profile : t -> Profile.t -> unit
val unload_profile : t -> string -> unit
val profiles : t -> Profile.t list
