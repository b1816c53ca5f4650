(** The filter-machine dispatcher: the glue between the LSM hooks and the
    compiled {!Protego_filter.Pfm} programs.

    Each filtered hook (mount, umount, bind, netfilter output, ppp ioctl)
    asks the dispatcher for a verdict, served through one {!Decider}:
    under [`Pfm] (the default) the hook's policy source as a bytecode
    program, under [`Ref] the original list-walking decision
    ({!Request.oracle}, {!Protego_net.Netfilter.walk}), kept in-tree as
    the differential-testing oracle.

    The four [Policy_state]-backed hooks decide a {!Request.t} with
    their engine alone: they are registered with {!Request.eval}, as
    every decision-plane worker registers them, so the two
    paths share everything below the ladder but where the program comes
    from.  Here each hook keeps a counter-fresh
    {!Protego_filter.Pfm.clone} of the state's program-store entry for
    the live source value ({!Policy_state.program}), keyed on that
    entry's {e physical identity}, not on the source's generation: a
    bare generation bump (a reload with unchanged contents) keeps the
    program, while a new value replaces it on the next evaluation.
    These hooks never compile: the load gate compiled the value when
    the write was accepted.

    The netfilter OUTPUT hook is the one with a {!Decision_cache} table
    in front of its engine ({!Decider.decide_cached}, keyed by the
    packet context's ints): its compiled chain dispatches runs of
    singleton-valued rules through a switch
    ({!Protego_filter.Pfm_compile.netfilter}) but tests every other rule
    in turn.  Its memoized verdicts are stamped with
    {!Protego_net.Netfilter.generation}, which every chain mutator
    bumps, so an edit lazily invalidates them; decisions only read the
    generation.  It compiles its chain lazily, keyed by (rules identity,
    chain policy): the chain lives on the machine, not in
    {!Policy_state}, so the store does not cover it (ROADMAP item 5,
    [nf_output] on the plane, revisits this).

    A dispatcher serves one {!Policy_state.t} (as {!Lsm.install} wires
    it). *)

type engine = Decider.engine

type lint_mode = [ `Warn | `Enforce ]
(** What the load-time policy lint gate does with error-severity
    findings: [`Warn] (the default) installs the policy and tags the
    audit trail; [`Enforce] refuses the install. *)

type hook_stats = {
  mutable evals : int;  (** engine evaluations (packet: table misses) *)
  mutable allow : int;
  mutable deny : int;
  mutable reject : int;
  mutable invalidations : int;  (** program reloads forced by a policy change *)
  mutable insns : int;          (** bytecode instructions retired ([`Pfm] only) *)
}

type t

val create : unit -> t
(** Starts on the [`Pfm] engine with an empty table and zeroed stats. *)

val engine : t -> engine
val set_engine : t -> engine -> unit
val engine_name : t -> string
(** ["pfm"] or ["ref"] — the configured evaluation engine. *)

val decision_engine : t -> int
(** What served the most recent decision, as the journal engine code
    the LSM decision records carry ({!Decider.last_engine}). *)

val decision_engine_name : t -> string
(** {!decision_engine}'s name: ["cache"] (a packet decision the table
    served), ["pfm"] or ["ref"] — what the audit text shows.  ["pfm"]
    before any decision. *)

val cache : t -> Decision_cache.t
(** The packet hook's decision table: the only hook with one, so
    [/proc/protego/cache_stats] lists only [nf_output]. *)

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
    clone of the store's program, or the packet hook's compiled
    chain. *)

(** {1 Hook decisions} *)

val decide :
  t -> phase:Protego_base.Phase.t -> Policy_state.t -> Request.t -> bool
(** The mount, umount, bind and ppp ioctl hooks' one entry point: decide
    [req] with the hook's engine ({!Decider.decide}) and return
    the served verdict (record mode's flip applied).  [phase] is the
    caller's lifecycle phase ({!Protego_base.Phase.initial} without task
    context, verdict-neutral for unphased policies); it rides into the
    PFM context / reference oracle so phase-guarded rules see it.  It is
    required, not optional: dune's dev profile compiles with [-opaque],
    so an optional argument would box a [Some] on every hook call. *)

val decide_nf_output :
  t -> Protego_net.Netfilter.t -> Protego_net.Packet.t ->
  origin:Protego_net.Packet.origin -> Protego_net.Netfilter.verdict
(** Installed as the chain's output override at {!Lsm.install} time:
    the table, keyed by the packet's
    {!Protego_filter.Pfm_compile.packet_ctx} ints, then the engine. *)

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
    v}
    with one [hook] line per filtered hook, in {!stats} order
    ([mount], [umount], [bind], [nf_output], [ppp_ioctl]). *)

val handle_write : t -> string -> (unit, string) result
(** A write to the file: ["engine pfm"] or ["engine ref"] selects the
    evaluating engine, ["reset"] zeroes every hook counter; anything
    else is an [Error] (EINVAL and a dmesg line from the /proc
    handler). *)
