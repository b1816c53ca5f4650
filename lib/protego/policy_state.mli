(** Kernel-resident Protego policy state and the /proc configuration
    grammars.

    The state is configured through four files under /proc/protego (either
    written directly by the administrator or kept in sync with the legacy
    configuration files by the monitoring daemon, Figure 1):

    - [mount_whitelist]: ["allow <source> <target> <fstype> <flags|-> <user|users>"]
    - [bind_map]:        ["<port> <tcp|udp> <binary> <uid>"] (§4.1.3 grammar)
    - [delegation]:      /etc/sudoers syntax (§4.3)
    - [accounts]:        ["user <name> <uid> <gid> <groups|->"] and
                         ["group <name> <gid> <members|-> [<hash>]"] — the
                         uid/name mapping delegation rules are written in.

    Policies that take no parameters (raw-socket marking, the shadow-read
    reauthentication rule, the ssh host key ACL) are hard-coded here.

    The filter-machine dispatcher's file, [filter_stats], is documented
    with {!Pfm_dispatch.render} and {!Pfm_dispatch.handle_write}. *)

open Protego_kernel

module Phase = Protego_base.Phase

type mount_rule = {
  mr_source : string;
  mr_target : string;
  mr_fstype : string;
  mr_flags : Ktypes.mount_flag list;
  mr_mode : [ `User | `Users ];
      (** ["user"]: only the mounting user may unmount; ["users"]: anyone. *)
  mr_phase : Protego_base.Phase.guard;
      (** lifecycle window the rule is active in, from an optional trailing
          [phase<=...] token (DESIGN.md §11) *)
}

val filter_rule : mount_rule -> Protego_filter.Pfm_compile.mount_rule
(** The compiler's view of a whitelist rule — what every mount and
    umount program is built from. *)

type account_user = {
  au_name : string;
  au_uid : int;
  au_gid : int;
  au_groups : string list;  (** supplementary group names *)
}

type account_group = {
  ag_name : string;
  ag_gid : int;
  ag_members : string list;
  ag_password : string option;  (** hash for newgrp password-protected groups *)
}

type source = Mounts | Binds | Delegation | Accounts | Ppp
(** The /proc-configurable policy sources, for generation accounting. *)

type store
(** The program store (see {!section:programs}). *)

type t = private {
  mutable mounts : mount_rule list;
  mutable binds : Protego_policy.Bindconf.entry list;
  mutable delegation : Protego_policy.Sudoers.t;
  mutable users : account_user list;
  mutable groups : account_group list;
  mutable ppp : Protego_policy.Pppopts.t;
  reauth_read_prefixes : string list;
      (** reading files under these paths requires recent authentication *)
  file_acl : (string * string list) list;
      (** sensitive file -> binaries allowed to open it (ssh-keysign rule) *)
  generations : int Atomic.t array;
      (** per-source generation counters, indexed by {!source} — use
          {!generation} rather than the raw array.  Atomic so the
          multi-domain decision plane can read the vector while a /proc
          writer bumps it; see DESIGN.md §6. *)
  store : store;
      (** compiled programs by source value; created by {!create},
          shared by every {!copy} and {!candidate} *)
}
(** Private: fields read freely, but a policy source changes only through
    {!set}, so its generation is the one staleness signal every cache and
    snapshot reads. *)

type update =
  | Set_mounts of mount_rule list
  | Set_binds of Protego_policy.Bindconf.entry list
  | Set_delegation of Protego_policy.Sudoers.t
  | Set_accounts of account_user list * account_group list
  | Set_ppp of Protego_policy.Pppopts.t
(** A new value for one source ([Set_accounts] replaces both account
    lists). *)

val create : unit -> t
(** Empty policy plus the hard-coded defaults: reauthentication on
    [/etc/shadows/], host-key ACL for [/usr/lib/openssh/ssh-keysign].
    All generations start at 0. *)

(** {1 Changing the policy and generations}

    A source changes only through {!set}, which installs the new value
    and bumps that source's generation counter — what every accepted
    /proc/protego policy write does (a write the load gate refuses calls
    nothing; see {!candidate}).  The decision cache ({!Decision_cache})
    stamps each memoized verdict with the generation of the source its
    hook reads, and a plane snapshot freezes the whole vector, so a
    change lazily invalidates exactly the affected entries — no global
    flush, and no reader ever writes the vector. *)

val source_name : source -> string
(** ["mounts"], ["binds"], ["delegation"], ["accounts"], ["ppp"]. *)

val sources : source list
(** All sources, in {!source_index} order — for freezing the full vector. *)

val source_index : source -> int
(** Dense index into {!t.generations} (0..4, {!sources} order). *)

val generation : t -> source -> int

val bump_generation : t -> source -> unit
(** A reload that changes no value: everything stamped with the old
    generation goes stale, but the source keeps its physical identity, so
    the dispatcher's compiled program is reused. *)

val set : t -> update -> unit
(** Install the value and bump that source's generation.  Programs the
    load gate staged for the value ({!compiled} [~stage:true]) go live
    in the store. *)

val candidate : t -> update -> t
(** A {!copy} of [t] with the update installed, for the load gate to lint:
    [t] and its generation vector are untouched, and the write calls
    {!set} only if the gate accepts. *)

val copy : t -> t
(** An independent copy: the (immutable) field values and the program
    store are shared, the generation counters are fresh cells holding
    the current values. *)

(** {1:programs Compiled programs}

    The compiled {!Protego_filter.Pfm} programs of the four
    [Policy_state]-backed hooks live in one store per state lineage,
    keyed by the {e physical identity} of the source value they were
    compiled from.  Source values are immutable, so a program is a pure
    function of its key: a bare {!bump_generation} keeps the key and the
    program, and a source set back to an older value gets a program
    compiled from that value.  Cached verdicts still go stale on any
    bump — they are stamped by generation, not by value.

    Only the store compiles these programs: the load gate, every
    dispatcher ({!Pfm_dispatch}) and every plane snapshot take them from
    here.  A store program is shared, so evaluators run a
    {!Protego_filter.Pfm.clone} of it and execution counters stay per
    evaluator.  Store updates are serialized by a mutex; a lookup that
    hits the live program takes no lock. *)

type program_kind = Mount_program | Umount_program | Bind_program | Ppp_program
(** [Mount_program] and [Umount_program] compile from {!t.mounts},
    [Bind_program] from {!t.binds}, [Ppp_program] from {!t.ppp}. *)

val compiled :
  ?stage:bool -> t -> program_kind ->
  Protego_filter.Pfm.program * (int * string) list
(** The program compiled from [t]'s current value of the kind's source,
    with its provenance notes ([(pc, rule text)], as the
    [Pfm_compile.*_notes] compilers return them); compiled on a miss.
    The store keeps one live program per kind: a lookup of another value
    compiles it and replaces the live one.  [~stage:true] is the load
    gate's lookup for a {!candidate}: a miss compiles into a separate
    staged slot, which {!set} promotes when it installs that value, so a
    refused write evicts nothing. *)

val program : t -> program_kind -> Protego_filter.Pfm.program
(** [fst (compiled t kind)]. *)

val compiles : t -> int
(** Programs the store has compiled since {!create}: one per lookup of
    a value that is neither the kind's live nor its staged one — so 2
    (mount and umount) for a new mount whitelist, 1 for a new bind map
    or ppp policy, 0 for a bare {!bump_generation} or a
    delegation/accounts change.  The
    per-phase residual programs {!Protego_analysis.Policy_lint} builds
    for its own checks are lint-only and not counted. *)

(** {1 Name service} *)

val name_of_uid : t -> int -> string option
val group_of_gid : t -> int -> account_group option
val group_names_of_user : t -> string -> string list
(** Primary + supplementary group names. *)

(** {1 /proc grammars: parse (on write) and print (on read)} *)

val parse_mounts : string -> (mount_rule list, string) result
val mounts_to_string : mount_rule list -> string

val flags_to_string : Ktypes.mount_flag list -> string
(** ["-"] for the empty list, else comma-joined flag names — the
    whitelist grammar's flag column, reused by the policy synthesizer
    (the record-mode audit descriptors spell flags the same way). *)

val parse_accounts :
  string -> (account_user list * account_group list, string) result
val accounts_to_string : account_user list -> account_group list -> string

(** {1 Queries used by the LSM hooks}

    With [?phase], rules whose guard is inactive in that phase are
    skipped — the same residual walk the compiled per-phase ladders
    perform.  Without it, guards are ignored.  All the queries and
    oracles below treat [?phase] identically. *)

val bind_allowed :
  ?phase:Protego_base.Phase.t ->
  t -> port:int -> proto:Protego_policy.Bindconf.proto ->
  exe:string -> uid:int -> bool

(** {2 Reference decision oracles}

    These three wrap the primitive queries into the exact allow/deny
    decision each LSM hook makes.  They are the list-walking reference
    semantics the compiled {!Protego_filter.Pfm} programs must reproduce;
    the dispatcher runs them when the [ref] engine is selected and the
    differential fuzz suite checks the compiled verdicts against them. *)

val mount_decision :
  ?phase:Protego_base.Phase.t ->
  t -> source:string -> target:string -> fstype:string ->
  flags:Ktypes.mount_flag list -> bool
(** First rule matching (source, target, fstype — ["auto"] wildcards on
    either side) decides; its flag requirement is final. *)

val umount_decision :
  ?phase:Protego_base.Phase.t ->
  t -> target:string -> mounted_by:int -> ruid:int -> bool
(** First rule naming [target] decides: [`Users] allows anyone, [`User]
    only the user the mount records as its creator. *)

val ppp_ioctl_decision :
  ?phase:Protego_base.Phase.t ->
  t -> device:string -> opt:Protego_net.Ppp.option_ -> bool
(** Device whitelisted by [allow-device] and the option intrinsically safe. *)

val file_acl_allows : t -> path:string -> exe:string -> bool option
(** [None] if no ACL covers [path]; [Some allowed] otherwise. *)

val needs_reauth_to_read : t -> string -> bool
