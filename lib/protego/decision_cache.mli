(** The hot-path decision cache: a fixed-capacity, generation-stamped memo
    table, the middle rung of the {!Decider} ladder.

    A filtered hook's decision is a pure function of (policy sources it
    reads, subject credential key, argument tuple), so its verdict is
    memoized — positive (Allow) and negative (Deny/Reject) alike.  Only
    the verdict is stored: the hook derives its errno from it.

    {b Keys are the raw arguments, encoded.}  An entry is keyed by the
    hook, the subject and a {!Key}: the caller's argument tuple written as
    fields (zigzag varint integers, length-prefixed strings, at most one
    bare string last) into a scratch buffer the caller owns and reuses.  The
    encoding is injective for a fixed field layout, so two different
    tuples never share an entry, whatever bytes their strings hold.  A
    lookup hashes the key once and compares stored bytes in place.

    {b Entries are slots in parallel arrays.}  Int arrays hold each
    slot's hash, hook id, subject, generation, verdict code, LRU links
    and bucket chain; each slot owns a key buffer, which an insert reuses
    and replaces only for a longer key than it has held.  So a hit and a
    steady-state insert allocate nothing.  A new table holds no slots;
    the arrays and the bucket heads grow by doubling up to the capacity.

    {b Invalidation is lazy and per-source, not a global flush.}  Every
    policy source carries a generation counter ({!Policy_state.generation});
    a cache entry is stamped with the generation of the source its hook
    reads at insertion time.  A lookup compares the entry's generation
    against the current one and treats a mismatch as a miss, evicting the
    entry ("stale eviction").  A write to [/proc/protego/bind_map] thus
    invalidates only bind entries — cached mount verdicts survive — and
    nothing is scanned eagerly at reload time.

    Capacity is fixed at creation; when full, the least-recently-used entry
    is evicted ("capacity eviction").  A hit refreshes recency.

    {b One owner domain.}  A table belongs to one domain: the LSM
    dispatcher's, or one plane worker's.  Only that domain looks up,
    inserts or clears; {!epoch} is the one value another domain may read, and
    the counters are read elsewhere only while the owner is idle (a
    plane's stats between runs).

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

  val string : t -> string -> unit
  (** A varint length, then the bytes. *)

  val last_string : t -> string -> unit
  (** The bytes alone: the field runs to the end of the key, so it must
      be the last one written. *)

  val contents : t -> string
end

type t

val default_capacity : int
(** 1024 entries. *)

val create : ?capacity:int -> unit -> t
(** Enabled, empty, zeroed stats.  [capacity] is clamped to [>= 1]. *)

val register : t -> string -> hook
(** Register a hook name (idempotent: re-registering returns the existing
    record).  Registration order fixes the order of per-hook lines in
    {!render}. *)

val capacity : t -> int
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

(** {1 Front slots}

    {!Decider} keeps a one-entry front slot per hook ahead of this table.
    A slot is only served while {!epoch} still has the value the slot was
    stamped with, and a slot hit is counted here like any other hit. *)

val epoch : t -> int
(** Changes whenever memoized entries are dropped wholesale ({!clear} /
    {!reset} / the ["reset"] command) — front slots stamped with an older
    epoch must not be served. *)

val record_hit : t -> hook -> unit
(** Count a front-slot hit in the global and per-hook counters. *)

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
