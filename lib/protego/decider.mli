(** The decision ladder — front slot, then {!Decision_cache} table, then
    engine — in the one implementation every filtered decision runs
    through: the LSM hooks ({!Pfm_dispatch}) and every decision-plane
    worker alike.  Below it, both paths register the four policy-state
    hooks with the same key and engine over one {!Request.t}; only the
    packet hook has its own ({!nf_key}).

    The slot is compared by {e physical} identity of the raw arguments
    (sound: they are immutable) and stamped with the cache epoch plus
    one caller-supplied [stamp]: the source generation on the LSM path,
    the snapshot epoch on a plane worker.  Table entries are stamped
    with the source generation [gen].  The caller's lifecycle phase
    index keys both, so a phase transition strands exactly the
    transitioning subject's cached verdicts.  Caches and slots hold only
    {e true} verdicts; record mode flips a would-deny afterwards
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
(** The packet hook's table key: the integer fields of its
    {!Protego_filter.Pfm_compile.packet_ctx}, no phase (chains carry no
    phase guards). *)

(** {1 Deciders and hooks} *)

type engine = [ `Pfm | `Ref ]

type stats = private {
  mutable served : int;        (** decisions served, by any rung *)
  mutable served_allow : int;
  mutable served_deny : int;   (** deny + reject *)
  mutable evals : int;         (** engine evaluations (table misses) *)
  mutable eval_allow : int;
  mutable eval_deny : int;
  mutable eval_reject : int;
}
(** Per-hook counters.  The LSM's filter_stats shows the engine ones;
    the plane shows the served ones. *)

type t
type ('e, 'a) hook
(** One hook's front slot, cache-table hook, latency series, counters
    and engine; ['a] is the raw argument value the slot holds, ['e] the
    environment the engine evaluates in. *)

val create : cache:Decision_cache.t -> trace:Trace.t -> t
(** A decider serving through [cache] and recording into [trace] (it
    becomes the tracer's {!Trace.on_arm} listener).  Record mode off. *)

val hook :
  t -> kind -> key:(Decision_cache.Key.t -> int -> 'a -> unit) ->
  eval:('e -> engine -> phase:int -> 'a -> Pfm.verdict) ->
  ('e, 'a) hook
(** Register a hook: its cache-table hook and its [cache]/[pfm]/[ref]
    latency series, in call order.  [key k phase raw] encodes the table
    key into the decider's emptied scratch key [k]; it runs only on a
    slot miss while the cache is enabled.
    [eval env engine ~phase raw] is the hook's engine: the compiled
    program or the reference walk, as [engine] says.  The subject keys
    the cache and the slot only: an engine that reads it finds it in
    [raw] (a {!Request.t} carries its own). *)

val cache : t -> Decision_cache.t
val trace : t -> Trace.t
val kind : ('e, 'a) hook -> kind
val stats : ('e, 'a) hook -> stats
val reset_stats : ('e, 'a) hook -> unit

val hits : ('e, 'a) hook -> int
(** Front-slot plus table hits, as the cache's per-hook line counts them. *)

(** {1 The ladder} *)

val probe :
  t -> ('e, 'a) hook -> stamp:int -> gen:int -> subject:int -> phase:int ->
  'a option
(** Open a decision: start its clock (while traced), remember its
    scalars for the {!hit} or {!miss} that must follow, and return the
    slot's raw arguments when the slot is fresh for them — cache
    enabled, same cache epoch, [stamp], [subject] and [phase]. *)

val hit : t -> ('e, 'a) hook -> Pfm.verdict
(** Serve the probed slot (counted as a cache hit). *)

val miss : t -> ('e, 'a) hook -> 'e -> raw:'a -> engine:engine -> Pfm.verdict
(** Serve the probed decision off the table, or else by running the
    hook's engine in the given environment, memoizing the result; then
    refill the slot with [raw] (skipped while the cache is disabled, so a
    bypassed decision is never replayed after re-enabling). *)

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
    {!Protego_journal.Journal.engine_cache}, [engine_pfm] or
    [engine_ref]; [engine_pfm] before any. *)

val last_span : t -> int option
(** Span id of the most recent decision; [None] when spans were off. *)

val last_span_id : t -> int
(** {!last_span} unboxed: 0 for none. *)
