(** The decision cache: a fixed-capacity, generation-stamped memo table
    that fronts the packet hook's engine in the {!Decider} ladder.

    A hook's decision is a pure function of (the source it reads,
    subject, argument tuple), so its verdict — allow and deny alike —
    can be memoized; the hook derives its errno from it.  A hook uses a
    table only if it registers one with {!Decider.hook}, and only the
    packet hook does: its compiled chain runs linearly in the rule
    count, while a request hook's program decides in a few instructions,
    no dearer than a lookup.

    {b Keys are the raw arguments, encoded.}  An entry is keyed by the
    hook, the subject and a {!Key}: the caller's argument tuple written
    as zigzag varint fields into a scratch buffer the caller owns and
    reuses.  Varints are self-delimiting, so the encoding is injective
    for a fixed field layout and two different tuples never share an
    entry.  A lookup hashes the key once and compares stored bytes in
    place.

    {b Entries are slots in parallel arrays.}  Int arrays hold each
    slot's hash, hook id, subject, generation, verdict code, LRU links
    and bucket chain; each slot owns a key buffer, which an insert reuses
    and replaces only for a longer key than it has held.  So a hit and a
    steady-state insert allocate nothing.  A new table holds no slots;
    the arrays and the bucket heads grow by doubling up to the capacity.

    {b Invalidation is lazy, not a flush.}  An entry is stamped with the
    generation of the source its hook read when it was inserted (for
    the packet hook, {!Protego_net.Netfilter.generation}, which every
    chain edit bumps).  A lookup that finds another generation treats
    the entry as a miss and evicts it ("stale eviction"); nothing is
    scanned at reload time.

    Capacity is fixed at creation; when full, the least-recently-used entry
    is evicted ("capacity eviction").  A hit refreshes recency.

    {b One owner.}  A table belongs to the LSM dispatcher that created
    it (decision-plane workers keep none) and is not safe to share
    between domains.

    The table is observable and controllable through
    [/proc/protego/cache_stats] (see {!render} / {!handle_write}). *)

module Pfm = Protego_filter.Pfm

type hook = private {
  hid : int;                (** dense id, assigned at registration *)
  hname : string;
  mutable h_hits : int;
  mutable h_misses : int;   (** includes stale lookups *)
  mutable h_stale : int;
}
(** Per-hook counters.  Obtain via {!register}; the dispatcher keeps the
    record and passes it back on every lookup so the hot path never
    resolves a hook by name. *)

(** A reusable key buffer.  Writers append fields; the layout (which
    fields, in which order) is the caller's, fixed per hook. *)
module Key : sig
  type t

  val create : unit -> t

  val reset : t -> unit
  (** Empty the key, keeping its buffer: a key rewritten at a size it
      has reached before does not allocate. *)

  val int : t -> int -> unit
  (** A zigzag LEB128 varint: 1 byte for [-64..63], at most 9. *)

  val contents : t -> string
end

type t

val create : ?capacity:int -> unit -> t
(** Enabled, empty, zeroed stats.  [capacity] (default 1024 entries) is
    clamped to [>= 1]. *)

val register : t -> string -> hook
(** Register a hook name (idempotent: re-registering returns the existing
    record).  Registration order fixes the order of per-hook lines in
    {!render}. *)

val length : t -> int

val enabled : t -> bool
val set_enabled : t -> bool -> unit
(** Disabled: {!find} always misses and {!add} is a no-op, without touching
    any counter — a pure bypass.  Entries already cached are kept; their
    generation stamps keep them safe to serve after re-enabling. *)

(** {1 The hot path} *)

val find :
  t -> hook -> subject:int -> key:Key.t -> gen:int ->
  Pfm.verdict option
(** [Some verdict] on a fresh hit; a hit allocates nothing.  The cache
    keeps no errno: the hook derives it from the verdict.  [None] on a miss — including a generation
    mismatch ([gen] is not the one the entry was stamped with), which
    also evicts the stale entry and counts under [stale].  The caller
    owns [key] and may reuse it across calls; it is copied on insertion,
    compared in place here. *)

val add :
  t -> hook -> subject:int -> key:Key.t -> gen:int ->
  verdict:Pfm.verdict -> unit
(** Insert (or refresh) the memo for a decision just computed by an
    engine.  Evicts the least-recently-used entry when at capacity.  Right
    after a {!find} of the same, unrewritten [key] for the same hook and
    subject missed, the insert reuses that lookup's hash and does not
    search again. *)

val epoch : t -> int
(** Bumped whenever memoized entries are dropped wholesale ({!clear} /
    {!reset} / the ["reset"] command): the epoch a decision span
    carries ({!Trace.span}'s [sp_epoch]). *)

(** {1 Stats and control} *)

val hits : t -> int
val misses : t -> int
(** Lookups not served from cache — true misses plus stale evictions. *)

val stale_evictions : t -> int
val capacity_evictions : t -> int
val hook_stats : t -> hook list
(** Registration order. *)

val clear : t -> unit
(** Drop every entry; counters survive. *)

val reset : t -> unit
(** {!clear} plus zero every counter (global and per-hook). *)

val render : t -> string
(** The /proc/protego/cache_stats grammar:
    {v
    cache <on|off> capacity <n> entries <n>
    hits <n> misses <n> stale <n> evicted <n>
    hook <name> hits <n> misses <n> stale <n>
    v}
    with one [hook] line per registered hook, in registration order. *)

val handle_write : t -> string -> (unit, string) result
(** ["enable on"], ["enable off"], ["reset"]; anything else errors. *)
