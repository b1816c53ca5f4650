(** The decision ladder: the one implementation every filtered decision
    runs through, the LSM hooks ({!Pfm_dispatch}) and every
    decision-plane worker alike.  Below it, both paths register the four
    policy-state hooks with the same engine over one {!Request.t}; only
    the packet hook has its own.

    A request hook decides with its engine ({!decide}): its program
    decides with one switch dispatch and a few instructions, about what
    a table lookup costs.  The packet hook's compiled OUTPUT chain tests
    every rule outside a run of singleton-valued rules in turn, so it
    alone puts a {!Decision_cache} table
    in front of its engine ({!decide_cached}), keyed by the packet
    context's ints and stamped with the chain's generation.  No hook has
    a front slot.  A table holds only {e true} verdicts; record mode
    flips a would-deny afterwards ({!flip}).  A decider is
    single-threaded: each plane worker owns one. *)

module Pfm = Protego_filter.Pfm

(** {1 Per-hook facts} *)

type kind = Mount | Umount | Bind | Nf_output | Ppp_ioctl

val kind_name : kind -> string
(** ["mount"], ["umount"], ["bind"], ["nf_output"], ["ppp_ioctl"] — the
    name every counter, cache line and latency series carries. *)

val deny_errno : kind -> Protego_base.Errno.t option
(** What a denial on the hook returns: [EACCES] for bind, [EPERM] for
    mount, umount and ppp_ioctl; none for nf_output, whose denial is a
    dropped packet. *)

val errno : kind -> Pfm.verdict -> Protego_base.Errno.t option
(** [None] for [Allow], {!deny_errno} otherwise. *)

(** {1 Deciders and hooks} *)

type engine = [ `Pfm | `Ref ]

type stats = private {
  mutable evals : int;   (** engine evaluations (table misses) *)
  mutable allow : int;
  mutable deny : int;
  mutable reject : int;
}
(** Per-hook engine counters: the LSM's filter_stats and the plane's
    per-hook lines.  A request hook serves every decision from its
    engine, so they count its decisions too. *)

type t
type ('e, 'a) hook
(** One hook's latency series, counters and engine; ['a] is the raw
    argument value it decides, ['e] the environment the engine evaluates
    in. *)

val create : trace:Trace.t -> t
(** A decider recording into [trace] (it becomes the tracer's
    {!Trace.on_arm} listener).  Record mode off. *)

val hook :
  t -> kind -> ('e -> engine -> phase:int -> 'a -> Pfm.verdict) ->
  ('e, 'a) hook
(** [hook d kind eval] registers a hook and its latency series, in call
    order: [cache] (the packet hook only), [pfm], [ref].
    [eval env engine ~phase raw] is the hook's engine: the compiled
    program or the reference walk, as [engine] says. *)

val trace : t -> Trace.t
val kind : ('e, 'a) hook -> kind
val stats : ('e, 'a) hook -> stats
val reset_stats : ('e, 'a) hook -> unit

(** {1 The ladder} *)

val decide :
  t -> ('e, 'a) hook -> 'e -> gen:int -> phase:int -> engine:engine -> 'a ->
  Pfm.verdict
(** [decide d h env ~gen ~phase ~engine raw]: the true verdict for [raw]
    from the hook's engine in [env].  [gen] is the generation of the
    source the hook reads (it stamps the span); [phase] rides into the
    engine.

    A traced decision's span carries a [slot], a [table] and an
    [engine] mark, in that order, each the offset from the decision's
    start at which the rung was passed.  The rungs a request hook lacks
    (the front slot is gone from every hook, the table from all but the
    packet hook) are marked zero-width at the start, so readers that
    classify spans by those three names keep working. *)

val decide_cached :
  t -> ('e, 'a) hook -> Decision_cache.t -> key:int array -> 'e -> gen:int ->
  engine:engine -> 'a -> Pfm.verdict
(** [decide_cached d h cache ~key env ~gen ~engine raw]: the packet
    hook's ladder.  An entry of [cache] for [key] stamped [gen] serves
    the decision ({!last_engine} reads [engine_cache]); otherwise the
    hook's engine decides (phase 0: chains carry no phase guards) and
    its verdict is memoized under [key].  A span's [epoch] is [cache]'s;
    a table hit has no [engine] mark.  Only
    {!Pfm_dispatch.decide_nf_output} calls it ([scripts/ci.sh --fast]
    fails on another caller, and on a {!Decision_cache.find} or
    {!Decision_cache.add} outside it, in [lib/]). *)

(** {1 Record mode} *)

val record : t -> bool

val set_record : t -> bool -> unit

val flip : t -> Pfm.verdict -> Pfm.verdict
(** The verdict to serve: [Allow] for a would-deny while record mode is
    on (then {!last_recorded} is true), the verdict itself otherwise. *)

val last_recorded : t -> bool

(** {1 Last decision} *)

val last_engine : t -> int
(** What served the most recent decision, as a journal engine code:
    {!Protego_journal.Journal.engine_cache} (a table hit, so only the
    packet hook's), [engine_pfm] or [engine_ref]; [engine_pfm] before
    any. *)

val last_span : t -> int option
(** Span id of the most recent decision; [None] when spans were off. *)

val last_span_id : t -> int
(** {!last_span} unboxed: 0 for none. *)
