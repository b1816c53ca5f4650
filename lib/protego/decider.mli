(** The decision ladder in one call ({!decide}): the one implementation
    every filtered decision runs through, the LSM hooks
    ({!Pfm_dispatch}) and every decision-plane worker alike.  Below it,
    both paths register the four policy-state hooks with the same
    engine over one {!Request.t}; only the packet hook has its own.

    A hook consults a {!Decision_cache} table only if it registered one
    ({!hook}'s [?table]): then the ladder is table, then engine, the
    table memoizing the engine's verdicts stamped with the source
    generation [gen].  Only the packet hook registers a table ({!nf_key}):
    its compiled OUTPUT chain is linear in the rule count, while a
    request hook's program decides with one switch dispatch and a few
    instructions, about what a table lookup costs, so a request hook
    runs its engine directly.  No hook has a front slot.  A table holds
    only {e true} verdicts; record mode flips a would-deny afterwards
    ({!flip}).  A decider is single-threaded: each plane worker owns
    one. *)

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

val nf_key : Decision_cache.Key.t -> Pfm.ctx -> unit
(** The packet hook's table key, the one table key any hook registers:
    the integer fields of its {!Protego_filter.Pfm_compile.packet_ctx},
    no phase (chains carry no phase guards). *)

(** {1 Deciders and hooks} *)

type engine = [ `Pfm | `Ref ]

type stats = private {
  mutable evals : int;   (** engine evaluations (table misses) *)
  mutable allow : int;
  mutable deny : int;
  mutable reject : int;
}
(** Per-hook engine counters: the LSM's filter_stats and the plane's
    per-hook lines.  A hook without a table serves every decision from
    its engine, so there they count its decisions too. *)

type t
type ('e, 'a) hook
(** One hook's table (if it has one), latency series, counters and
    engine; ['a] is the raw argument value it decides, ['e] the
    environment the engine evaluates in. *)

val create : trace:Trace.t -> t
(** A decider recording into [trace] (it becomes the tracer's
    {!Trace.on_arm} listener).  Record mode off. *)

val hook :
  t -> kind ->
  ?table:Decision_cache.t * (Decision_cache.Key.t -> int -> 'a -> unit) ->
  ('e -> engine -> phase:int -> 'a -> Pfm.verdict) ->
  ('e, 'a) hook
(** [hook d kind ?table eval] registers a hook and its latency series,
    in call order: [cache] (with a table only), [pfm], [ref].
    [eval env engine ~phase raw] is the hook's engine: the compiled
    program or the reference walk, as [engine] says.

    [table = (cache, key)] puts [cache] in front of the engine, under
    the hook's name: [key k phase raw] encodes the table key into the
    hook's emptied scratch key [k], and runs only while the cache is
    enabled.  Only the packet hook passes one ([scripts/ci.sh --fast]
    fails on another in [lib/]). *)

val trace : t -> Trace.t
val kind : ('e, 'a) hook -> kind
val stats : ('e, 'a) hook -> stats
val reset_stats : ('e, 'a) hook -> unit

(** {1 The ladder} *)

val decide :
  t -> ('e, 'a) hook -> 'e -> gen:int -> subject:int -> phase:int ->
  engine:engine -> 'a -> Pfm.verdict
(** [decide d h env ~gen ~subject ~phase ~engine raw]: the true verdict
    for [raw].
    - {b Table} (a hook that registered one): an entry for the hook's
      key of [raw] under [subject], stamped [gen].
    - {b Engine}: the hook's engine in [env], memoized in the table if
      the hook has one.
    [gen] is the generation of the source the hook reads; [subject] and
    [phase] key the table, and [phase] rides into the engine.

    A traced decision's span carries a [slot], a [table] and an
    [engine] mark, in that order, each the offset from the decision's
    start at which the rung was passed; a rung the hook lacks (the
    front slot is gone from every hook, the table from all but the
    packet hook) is marked zero-width at the start, so readers that
    classify spans by those three names keep working.  A table hit has
    no [engine] mark. *)

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
