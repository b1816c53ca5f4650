(** Immutable, epoch-stamped policy snapshots and their single-writer
    publication point — the RCU analogue the parallel decision plane
    reads through.

    A {!t} freezes everything a decision needs — the policy lists, the
    per-source generation vector, and the compiled PFM programs — into a
    value that is never mutated after {!freeze} returns.  Publication is
    one [Atomic.set] of a pointer ({!publish}); acquisition is one
    [Atomic.get] ({!current}).  Readers therefore never lock, never see
    a half-updated policy, and never observe generation/rule skew: a
    snapshot's programs were compiled from exactly the rules its
    generation vector stamps (the program store is keyed by the rule
    values themselves).  Memory-model details and the
    linearizability claim are in DESIGN.md §6. *)

module PS = Protego_core.Policy_state
module Pfm = Protego_filter.Pfm

(** The four compiled programs of the plane-served hooks.  The netfilter
    hook is deliberately absent: its chain lives on the machine, not in
    [Policy_state], so it stays on the sequential dispatcher. *)
type progs = {
  p_mount : Pfm.program;
  p_umount : Pfm.program;
  p_bind : Pfm.program;
  p_ppp : Pfm.program;
}

type t = private {
  epoch : int;        (** publication counter, 0 for the initial snapshot *)
  gens : int array;   (** generation vector at freeze, {!PS.source_index} order *)
  frozen : PS.t;      (** private copy of the live state; never mutated *)
  progs : progs;
      (** the program store's programs for [frozen]'s source values
          ({!PS.program}): a source unchanged since an earlier snapshot
          shares that snapshot's program physically.  Shared, so never
          evaluated in place — see {!clone_progs}. *)
}

val freeze : epoch:int -> PS.t -> t
(** {!PS.copy} the live state, snapshot the generation vector, and take
    the four programs from the state's program store, which compiles
    only for a source whose value changed — nothing after a bare
    generation bump or after a gated /proc write (the gate compiled
    it), one or two programs after a direct {!PS.set}. *)

val clone_progs : ?prev:t * progs -> t -> progs
(** Per-domain copies of the snapshot's programs ({!Pfm.clone}): the
    instruction arrays and dispatch tables are shared (read-only under
    evaluation), the mutable execution counters ([counters], [retired])
    are fresh, so domains never write to a shared program.  With
    [~prev:(old, mine)] — the snapshot a worker served before and its
    clones of it — a program [t] shares physically with [old] keeps the
    worker's clone [mine], so a publish after a bare reload clones
    nothing. *)

val program : progs -> PS.program_kind -> Pfm.program
(** One program of a set, by the kind that decides a request
    ({!Protego_core.Request.program_kind}). *)

val gen_for : t -> PS.source -> int
(** The frozen generation of one source. *)

(** {1 Publication} *)

type pub
(** The publication point: one atomic pointer to the current snapshot.
    Publication is single-writer — /proc writes and reload actions are
    serialized by the caller (in the simulated kernel they already are);
    readers are unrestricted. *)

val make : ?history:int -> PS.t -> pub
(** Freeze [st] at epoch 0 and publish it.  [history] (default 1024,
    min 1) bounds the publication history {!at_epoch} serves: only the
    newest [history] epochs are retained, so a reload-storm workload or
    a long-lived plane cannot grow memory without limit. *)

val current : pub -> t
(** The latest published snapshot — a single [Atomic.get]. *)

val at_epoch : pub -> int -> t option
(** The snapshot published at a given epoch, from the bounded
    publication history (the newest [history] epochs; [None] for evicted
    or unknown epochs — a replay tolerates this via
    [Replay.rp_missing_epochs]).  What lets a journal replay re-execute
    an epoch-stamped decision against exactly the policy that served
    it.  Like publication, history maintenance is single-writer;
    lookups are meant for quiescent replay, not mid-publish racing. *)

val publish : pub -> PS.t -> t
(** Build-then-swap: freeze [st] at [epoch (current pub) + 1], then
    atomically replace the pointer.  Returns the new snapshot.  [st] is
    only read: a source changes only through {!PS.set}, which bumps its
    generation, so the frozen vector stamps exactly the frozen values. *)

val stale : pub -> PS.t -> bool
(** Would {!publish} produce a snapshot with a different generation
    vector?  True when any source generation moved since the current
    snapshot froze. *)
