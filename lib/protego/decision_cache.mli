(** The decision cache: the packet hook's fixed-capacity,
    generation-stamped memo table, in front of its compiled chain
    ({!Decider.decide_cached}).

    A packet's verdict — accept and drop alike — is a pure function of
    the chain and the packet's PFM context, so it can be memoized.  Only
    the netfilter OUTPUT hook has a table: its compiled chain tests every
    rule outside a run of singleton-valued rules in turn, while a
    request hook's program decides in a few instructions, no dearer than
    a lookup.

    {b Keys are the context's ints.}  An entry is keyed by the [int
    array] of {!Protego_filter.Pfm_compile.packet_ctx}, all
    {!Protego_filter.Pfm_compile.packet_ints} of them.  A lookup hashes
    the ints once and compares them one by one against the slot's stored
    copy, so two different contexts never share an entry.

    {b Entries are slots in parallel arrays.}  Int arrays hold each
    slot's hash, generation, verdict code, LRU links and bucket chain,
    and one flat int array holds every slot's key, nine ints apiece.
    An insert copies the key into the slot it takes, so a hit and an
    insert allocate nothing.  A new table holds no slots; the arrays and
    the bucket heads grow by doubling up to the capacity.

    {b Invalidation is lazy, not a flush.}  An entry is stamped with the
    chain's generation ({!Protego_net.Netfilter.generation}, which every
    chain edit bumps) when it is inserted.  A lookup that finds another
    generation treats the entry as a miss and evicts it ("stale
    eviction"); nothing is scanned at reload time.

    Capacity is fixed at creation; when full, the least-recently-used entry
    is evicted ("capacity eviction").  A hit refreshes recency.

    {b One owner.}  A table belongs to the LSM dispatcher that created
    it (decision-plane workers keep none) and is not safe to share
    between domains.

    The table is observable and controllable through
    [/proc/protego/cache_stats] (see {!render} / {!handle_write}). *)

module Pfm = Protego_filter.Pfm

type t

val create : ?capacity:int -> unit -> t
(** Enabled, empty, zeroed stats.  [capacity] (default 1024 entries) is
    clamped to [>= 1]. *)

val length : t -> int

val enabled : t -> bool
val set_enabled : t -> bool -> unit
(** Disabled: {!find} always misses and {!add} is a no-op, without touching
    any counter — a pure bypass.  Entries already cached are kept; their
    generation stamps keep them safe to serve after re-enabling. *)

(** {1 The hot path} *)

val find : t -> key:int array -> gen:int -> Pfm.verdict option
(** [Some verdict] on a fresh hit; a hit allocates nothing.  The cache
    keeps no errno: the hook derives it from the verdict.  [None] on a
    miss — including a generation mismatch ([gen] is not the one the
    entry was stamped with), which also evicts the stale entry and counts
    under [stale].  [key] must hold
    {!Protego_filter.Pfm_compile.packet_ints} ints ([Invalid_argument]
    otherwise); it is read, never kept. *)

val add : t -> key:int array -> gen:int -> verdict:Pfm.verdict -> unit
(** Insert (or refresh) the memo for a decision just computed by an
    engine, copying [key]'s ints into the table.  Evicts the
    least-recently-used entry when at capacity. *)

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

val clear : t -> unit
(** Drop every entry; counters survive. *)

val reset : t -> unit
(** {!clear} plus zero every counter. *)

val render : t -> string
(** The /proc/protego/cache_stats grammar:
    {v
    cache <on|off> capacity <n> entries <n>
    hits <n> misses <n> stale <n> evicted <n>
    hook nf_output hits <n> misses <n> stale <n>
    v}
    The [hook] line names the table's one user and repeats the global
    counters. *)

val handle_write : t -> string -> (unit, string) result
(** ["enable on"], ["enable off"], ["reset"]; anything else errors. *)
