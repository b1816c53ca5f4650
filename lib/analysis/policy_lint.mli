(** Cross-source semantic lint over the declarative Protego policies.

    Complements the structural checks the parsers and {!Pfm.verify}
    already make: every check here is about what a policy {e means} — an
    entry that never takes effect, a grant wider than plausibly
    intended, two sources contradicting each other — and carries a
    stable finding code that tools and CI match on.  Codes are
    append-only.

    {2 Finding codes}

    Declarative checks:
    - [PL-M001] (warning) shadowed mount rule — an earlier first-match
      rule fires on every request this one would
    - [PL-M002] (error) user-mountable filesystem without [nosuid]
    - [PL-M003] (warning) user-mountable filesystem without [nodev]
    - [PL-M004] (warning) mount target shadows a system path
    - [PL-B001] (error) duplicate bind-map (port, proto)
    - [PL-B002] (warning) one port mapped to different binaries
    - [PL-B003] (warning) bind-map port outside the privileged range
    - [PL-S001] (warning) delegation cycle between non-root users
    - [PL-S002] (error) non-root unrestricted NOPASSWD rule
    - [PL-S003] (warning) SETENV on an unrestricted rule
    - [PL-S004] (warning) rule names an unknown user/group (needs accounts)
    - [PL-N001] (error) netfilter rule unreachable, conflicting target
    - [PL-N002] (warning) netfilter rule redundant
    - [PL-P001] (warning) duplicate ppp [allow-device]
    - [PL-P002] (warning) ppp [allow-device] not under [/dev]
    - [PL-X001] (warning) port both bind-mapped and netfilter-blocked
    - [PL-X002] (warning) bind-map owner uid matches no account (needs
      accounts)
    - [PL-PH001] (error) a phase guard that is not downward closed —
      the rule activates {e later} in the one-way lifecycle, a loosening
      the tighten-only phase model forbids (any source that accepts
      guards: mounts, binds, delegation, ppp).  The absence of PL-PH001
      findings is the tighten-only proof obligation of DESIGN.md §11.

    Facts proved on the compiled bytecode by {!Pfm_absint} (definite,
    by its soundness argument):
    - [PFM-DEAD] (warning) a rule's compiled code is (partly)
      unreachable — shadowed at the bytecode level
    - [PFM-PHASE-DEAD] (warning) a rule's guard makes it active in some
      phase, but in that phase's residual program its code is
      unreachable — shadowed by earlier rules active in the same phase
      (the whole-program PFM-DEAD cannot see this: the code is reachable
      via another phase)
    - [PFM-NEVER-ALLOW] (warning) the program cannot allow anything
      despite having rules
    - [PFM-ALWAYS-ALLOW] (error) the program allows everything despite
      having rules
    - [PFM-CONST-BRANCH] (info) a conditional whose outcome is decided
      before it runs *)

module Pfm = Protego_filter.Pfm
module Pfm_compile = Protego_filter.Pfm_compile
module Bindconf = Protego_policy.Bindconf
module Sudoers = Protego_policy.Sudoers
module Pppopts = Protego_policy.Pppopts
module Netfilter = Protego_net.Netfilter

type severity = Info | Warning | Error

type finding = {
  code : string;
  severity : severity;
  source : string;
      (** ["mounts"], ["binds"], ["delegation"], ["netfilter:<chain>"],
          ["ppp"] or ["cross"] *)
  locus : string;   (** rule/entry identification within the source *)
  message : string;
}

val finding_to_string : finding -> string
(** One line: [<code> <severity> <source> (<locus>): <message>] — the
    golden-test and CLI format. *)

(** Account database, for the checks that need name resolution; pass
    {!no_accounts} to skip them. *)
type accounts = {
  user_names : (string * int) list;  (** (name, uid) *)
  group_names : string list;
}

val no_accounts : accounts

type input = {
  mounts : Pfm_compile.mount_rule list;
  binds : Bindconf.entry list;
  delegation : Sudoers.t;
  accounts : accounts;
  ppp : Pppopts.t option;
  chains : (string * Netfilter.rule list * Netfilter.verdict) list;
}

val empty_input : input

type programs = {
  mount_program : unit -> Pfm.program * (int * string) list;
  umount_program : unit -> Pfm.program * (int * string) list;
  bind_program : unit -> Pfm.program * (int * string) list;
  ppp_program : unit -> Pfm.program * (int * string) list;
}
(** Where {!lint} gets the whole-source programs of an input's mounts,
    binds and ppp policy, with their provenance notes: thunks, so only
    the checked sources are built.  Each must return what the
    [Pfm_compile.*_notes] compiler returns for that source of the
    input. *)

val lint : ?programs:programs -> ?sources:string list -> input -> finding list
(** All checks over [sources], named as findings name them (["mounts"],
    ["binds"], ["delegation"], ["netfilter:<chain>"], ["ppp"]; default:
    every source [input] carries), including compiling each source and
    running the abstract-interpretation checks on the result.  Sources
    outside the set are neither checked nor compiled.  The cross-source
    checks ([source = "cross"]) run on every call, so [lint ~sources inp]
    is exactly [lint inp] restricted to the findings of [sources] plus
    the cross-source ones, in the same order.  Finding order is
    deterministic: by source in input order, then by rule position.
    PL-M001, PL-B001 and PL-B002 look earlier rules up through indexes,
    so the declarative checks are linear in the rule count apart from
    the findings they emit.

    [programs] (default: compile them from [input]) lets a caller that
    already holds the compiled programs hand them over — the load gate
    passes its program store's, so a write's one compile serves both the
    lint and the decisions after it.  The per-phase residual programs
    behind PFM-PHASE-DEAD are always compiled here. *)

(** {2 Per-source entry points} (used by tests and the CLI) *)

val lint_mounts : Pfm_compile.mount_rule list -> finding list
val lint_binds : Bindconf.entry list -> finding list

val lint_program :
  source:string -> ?notes:(int * string) list -> ?entries:int ->
  Pfm.program -> finding list
(** The PFM-* checks on one compiled program.  [notes] attributes
    findings to declarative rules; [entries] is the number of rules the
    program was compiled from — the verdict-shape checks
    (NEVER/ALWAYS-ALLOW) are suppressed when it is [0], because an empty
    whitelist compiles to deny-all and an empty chain to its policy
    verdict by design. *)

(** {2 Reporting} *)

val has_errors : finding list -> bool

val render : finding list -> string
(** One finding per line plus a summary line; ["no findings\n"] when
    clean. *)

val parse_chain :
  string -> (Netfilter.rule list * Netfilter.verdict, string) result
(** Parse a chain file: rule specs one per line
    (see {!Netfilter.rule_of_spec}), plus an optional
    [policy ACCEPT|DROP|REJECT] line (default [ACCEPT]); [#] comments
    and blank lines ignored. *)

val sensitive_prefixes : string list
(** System paths PL-M004 protects against being shadowed by a mount
    target — shared with the policy synthesizer's admissibility check. *)

val path_under : string -> string -> bool
(** [path_under prefix p]: [p] is [prefix] or lies strictly under it. *)
