(** The filter-machine dispatcher: the glue between the LSM hooks and the
    compiled {!Protego_filter.Pfm} programs.

    Each filtered hook (mount, umount, bind, netfilter output, ppp ioctl)
    asks the dispatcher for a verdict, served through one {!Decider} —
    front slot, then the {!Decision_cache} table, then the engine: under
    [`Pfm] (the default) the hook's policy source as a bytecode program,
    under [`Ref] the original list-walking decision ({!Request.oracle},
    {!Protego_net.Netfilter.walk}), kept in-tree as the
    differential-testing oracle.  Memoized verdicts are stamped with the
    generation of the source the hook reads ({!Request.source}, or
    {!Protego_net.Netfilter.generation} for the output chain).  A
    source changes only through {!Policy_state.set} (or a netfilter
    mutator), which bumps its generation, so a reload lazily invalidates
    exactly the stamped entries.  Decisions only read generations; they
    never write them.

    The four [Policy_state]-backed hooks decide a {!Request.t}: they are
    registered with {!Request.key} and {!Request.eval}, the same key and
    engine every decision-plane worker registers, so the two paths share
    everything below the ladder but where the program comes from.  Here
    each hook keeps a counter-fresh {!Protego_filter.Pfm.clone} of the
    state's program-store entry for the live source value
    ({!Policy_state.program}), keyed on that entry's {e physical
    identity}, not on the source's generation: a bare generation bump (a
    reload with unchanged contents) keeps the program, while a new value
    replaces it on the next evaluation.  These hooks never compile: the
    load gate compiled the value when the write was accepted.  The
    netfilter OUTPUT hook compiles its chain lazily, keyed by (rules
    identity, chain policy): the chain lives on the machine, not in
    {!Policy_state}, so the store does not cover it (ROADMAP item 5,
    [nf_output] on the plane, revisits this).

    A dispatcher serves one {!Policy_state.t} (as {!Lsm.install} wires
    it); decision-cache keys do not name the state, so sharing a
    dispatcher between states would let entries from one answer for the
    other. *)

type engine = Decider.engine

type lint_mode = [ `Warn | `Enforce ]
(** What the load-time policy lint gate does with error-severity
    findings: [`Warn] (the default) installs the policy and tags the
    audit trail; [`Enforce] refuses the install. *)

type hook_stats = {
  mutable evals : int;          (** engine evaluations (table misses) *)
  mutable allow : int;
  mutable deny : int;
  mutable reject : int;
  mutable invalidations : int;  (** program reloads forced by a policy change *)
  mutable insns : int;          (** bytecode instructions retired ([`Pfm] only) *)
}

type t

val create : unit -> t
(** Starts on the [`Pfm] engine with empty caches and zeroed stats. *)

val engine : t -> engine
val set_engine : t -> engine -> unit
val engine_name : t -> string
(** ["pfm"] or ["ref"] — the configured evaluation engine. *)

val decision_engine : t -> int
(** What served the most recent decision, as the journal engine code
    the LSM decision records carry ({!Decider.last_engine}). *)

val decision_engine_name : t -> string
(** {!decision_engine}'s name: ["cache"], ["pfm"] or ["ref"] — what the
    audit text shows.  ["pfm"] before any decision. *)

val cache : t -> Decision_cache.t
(** The decision cache in front of both engines. *)

val trace : t -> Trace.t
(** The decision tracer: per-(hook, engine) latency histograms plus the
    opt-in span ring.  Unarmed (and skipped by every decision) until a
    clock is installed with {!Trace.set_clock} or spans are switched
    on. *)

val last_span : t -> int option
(** Span id of the most recent decision — what its audit record carries.
    [None] when spans were off for that decision. *)

val last_span_id : t -> int
(** {!last_span} unboxed, 0 for none: what an LSM decision record
    stores. *)

val set_lint_mode : t -> lint_mode -> unit
val lint_mode_name : t -> string
(** ["warn"] or ["enforce"]. *)

val record_mode : t -> bool

val set_record : t -> bool -> unit
(** Permissive record mode ([/proc/protego/record], {!Decider.flip}):
    while on, every decide function returns allow, and a would-deny sets
    {!last_recorded} so the hook layer can emit a record-tagged audit
    entry carrying the full canonical arguments. *)

val last_recorded : t -> bool
(** The most recent decision was a would-deny flipped to allow by
    record mode.  [false] after any genuine allow or deny. *)

val stats : t -> (string * hook_stats) list
(** Fixed order: mount, umount, bind, nf_output, ppp_ioctl. *)

val reset_stats : t -> unit

val cached_program : t -> string -> Protego_filter.Pfm.program option
(** The program currently in a hook's slot (hook names as listed by
    {!stats}), if any evaluation has loaded one: the dispatcher's own
    clone, or its installed optimization. *)

(** {1 Profile-guided recompilation}

    [optimize] runs {!Protego_filter.Pfm_opt.optimize} over every hook's
    cached program and gates each rewrite on {!Protego_filter.Pfm.verify}
    {e and} a {!Protego_analysis.Pfm_equiv.prove} equivalence proof
    before installing it in the hook's program slot.  A refuted or
    unproven rewrite is never installed: the original program keeps
    serving and the rejection counter is bumped.  Each hook's slot
    carries the optimizer's state — the (original, optimized) pair it
    installed and the last gate result — and every call reports typed
    per-hook {!outcome}s; the text forms come only from
    {!outcome_to_string} and {!status_to_string}.  A policy reload
    replaces the slot's program with the new source's, demoting a
    previously installed optimization to {!Stale}. *)

type status =
  | Inactive  (** ["none"] *)
  | Active of Protego_filter.Pfm_opt.report  (** ["active: <report>"] *)
  | Refused of string  (** ["rejected: <reason>"]: the gate's last word *)
  | Stale
      (** ["stale (policy changed)"]: a reload replaced the program an
          installed rewrite was built from.  Derived from the slot, never
          stored; it shadows a later rejection until {!deoptimize}. *)

type outcome =
  | Installed of {
      replaced : Protego_filter.Pfm.program;
          (** the program the rewrite replaced, proved equal to it *)
      report : Protego_filter.Pfm_opt.report;
    }  (** ["installed: <report>"] *)
  | Already_installed  (** ["unchanged: optimization already installed"] *)
  | No_rewrite  (** ["unchanged: no profitable rewrite"] *)
  | Rejected of string
      (** ["rejected: <reason>"]: [verify: ...], [refuted: ...] or
          [unproven: ...] *)
  | Skipped  (** ["skipped: no compiled program"] *)
  | Reverted  (** ["reverted"]: {!deoptimize} removed an install *)

val outcome_to_string : outcome -> string
(** The texts above; prefixed with ["opt <hook> "], the dmesg and audit
    line of an {!audited} outcome. *)

val audited : outcome -> bool option
(** The audit result of an outcome the kernel logs ([false] only for
    [Rejected]); [None] for one that changes nothing. *)

val status_to_string : status -> string
(** The texts above: the tail of a {!render} [opt] line. *)

val optimize : t -> (string * outcome) list
(** Per hook, in {!stats} order. *)

val deoptimize : t -> (string * outcome) list
(** Restore every hook whose slot still serves an installed optimized
    program back to its original compiled program, and forget every
    install; one [Reverted] per hook that had one, in {!stats} order. *)

val statuses : t -> (string * status) list
(** Per hook, in {!stats} order: what the [opt] lines of {!render}
    show. *)

val opt_rejects : t -> int
(** Rewrites the verify/prove gate has refused since [create]. *)

(** {1 Hook decisions} *)

val decide :
  t -> phase:Protego_base.Phase.t -> Policy_state.t -> Request.t -> bool
(** The mount, umount, bind and ppp ioctl hooks' one entry point: serve
    [req] through the ladder ({!Decider.decide}), its [subject] being the
    cache subject, and return the served verdict (record mode's flip
    applied).  [phase] is the caller's lifecycle phase
    ({!Protego_base.Phase.initial} without task context, verdict-neutral
    for unphased policies); it keys the ladder and rides into the PFM
    context / reference oracle so phase-guarded rules see it.  It is
    required, not optional: dune's dev profile compiles with [-opaque],
    so an optional argument would box a [Some] on every hook call.

    The front slot compares requests by physical identity: a caller that
    reuses a request value hits it, while the LSM hooks, which build a
    fresh request from each syscall's arguments, are served by the
    table. *)

val decide_nf_output :
  t -> Protego_net.Netfilter.t -> Protego_net.Packet.t ->
  origin:Protego_net.Packet.origin -> Protego_net.Netfilter.verdict
(** Installed as the chain's output override at {!Lsm.install} time. *)

(** {1 Load-time policy lint} *)

val lint_accounts :
  Policy_state.account_user list -> Policy_state.account_group list ->
  Protego_analysis.Policy_lint.accounts
(** The lint engine's view of the accounts source: user names with
    their uids, and group names. *)

val lint_input :
  ?chains:
    (string * Protego_net.Netfilter.rule list * Protego_net.Netfilter.verdict)
    list ->
  Policy_state.t -> Protego_analysis.Policy_lint.input
(** The lint engine's view of a policy state (plus, optionally, the
    netfilter chains, which live on the machine rather than in
    {!Policy_state}). *)

val lint_report :
  ?chains:
    (string * Protego_net.Netfilter.rule list * Protego_net.Netfilter.verdict)
    list ->
  Policy_state.t -> Protego_analysis.Policy_lint.finding list
(** [Policy_lint.lint] over {!lint_input}, with the whole-source
    programs taken from the state's program store — what
    /proc/protego/lint renders. *)

val check_policy_load :
  t ->
  ?chains:
    (string * Protego_net.Netfilter.rule list * Protego_net.Netfilter.verdict)
    list ->
  Policy_state.t -> sources:string list ->
  [ `Clean
  | `Warned of Protego_analysis.Policy_lint.finding list
  | `Refused of Protego_analysis.Policy_lint.finding list ]
(** The gate behind every /proc policy write: lint the candidate state
    over [sources] (the sources being written) plus the cross-source
    checks — [Policy_lint.lint ~sources], which neither checks nor
    compiles the other sources, so a pre-existing defect in an unrelated
    source never vetoes an install.  The written sources' programs come
    from the candidate's program store, staged
    ({!Policy_state.compiled} [~stage:true]): the write's one compile,
    live once {!Policy_state.set} installs the value.  [`Refused] is only possible in
    [`Enforce] mode and only for error-severity findings. *)

(** {1 /proc/protego/filter_stats} *)

val render : t -> string
(** The file's text:
    {v
    engine <pfm|ref>
    hook <name> evals <n> allow <n> deny <n> reject <n> invalidations <n> insns <n>
    opt <name> <status>
    opt_rejects <n>
    v}
    with one [hook] and one [opt] line per filtered hook, in {!stats}
    order ([mount], [umount], [bind], [nf_output], [ppp_ioctl]); an
    [opt] line's status is {!status_to_string} of {!statuses}. *)

val handle_write : t -> string -> ((string * outcome) list, string) result
(** A write to the file: ["engine pfm"] or ["engine ref"] selects the
    evaluating engine, ["reset"] zeroes every hook counter (both return
    no outcomes), ["optimize"] runs {!optimize}, ["deoptimize"] runs
    {!deoptimize} and returns their outcomes; anything else is an
    [Error] (EINVAL from the /proc handler).  ["optimize"] returns [Ok]
    even when rewrites are rejected by the proof gate: a rejection is
    an outcome, shown by {!render} and audited by the caller, not a
    write error. *)
