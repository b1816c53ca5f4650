(** The parallel decision plane: sharded multi-domain dispatch over
    epoch-published policy snapshots.

    The sequential dispatcher ({!Protego_core.Pfm_dispatch}) serves one
    caller at a time over global mutable state.  A real LSM answers the
    same hooks concurrently from every CPU; this module is that shape on
    OCaml 5 Domains.  Each worker domain owns one
    {!Protego_core.Decider} — the same ladder the LSM hooks run, which
    for these four request hooks is the compiled engine alone (no hook
    keeps a front slot, and a worker builds no decision table) — plus
    private compiled programs (counters and all), private latency
    histograms and a private journal term, so the warm path shares
    {e nothing} writable between domains.  The only cross-domain
    communication on a decision is one [Atomic.get] of the current
    {!Snapshot.t}.  Policy changes
    build a new snapshot off to the side and swap the pointer
    ({!publish}); in-flight decisions finish against whichever snapshot
    they acquired, so every verdict is consistent with exactly one
    published policy — never a torn mix (DESIGN.md §6).

    Audit: the plane's default sink is the lock-free binary journal
    ({!Protego_journal.Journal}) — each worker holds a private {e term}
    of the plane's journal and encodes every decision in place with one
    segment-granular atomic claim amortized over thousands of records;
    after a run the epoch/sequence stamps let {!Protego_journal.
    Journal.stitch} reconstruct the total submission order without a
    merge barrier (DESIGN.md §8).  Requests are partitioned round-robin, so worker
    [w] of [d] owns exactly the sequence numbers congruent to [w] mod
    [d] — zero lost, zero duplicated, by construction (and by test). *)

module PS = Protego_core.Policy_state
module Pfm = Protego_filter.Pfm

(** {1 Requests}

    The plane decides {!Protego_core.Request.t} values, re-exported here
    with their constructors ([Plane.Mount {...}] and friends).  Their
    PFM context and reference verdict are {!Protego_core.Request}'s,
    shared with the LSM dispatcher: a worker registers its four hooks
    with {!Protego_core.Request.eval} and no table, and differs only in
    where the program comes from — its clones of its snapshot's programs
    ({!Snapshot.clone_progs}), never the policy state's program store.

    The reference oracle lives there too: a decision served against a
    snapshot must agree with {!Protego_core.Request.oracle} over the
    snapshot's [frozen] state, under the outcome's [o_phase].  A
    journaled decision decodes back into its request with
    {!Protego_core.Request.of_journal}, and
    {!Protego_core.Request.expected} gives the verdict and errno its
    record must carry. *)

include module type of struct include Protego_core.Request.Value end

type outcome = {
  o_verdict : Pfm.verdict;
  o_errno : Protego_base.Errno.t option;
  o_epoch : int;  (** epoch of the snapshot that served the decision *)
  o_phase : int;
      (** {!Protego_base.Phase.index} of the subject's lifecycle phase
          the decision was served under *)
}

type run_result = {
  rr_outcomes : outcome array;
      (** one per request, submission order; [[||]] when collection was
          disabled *)
  rr_audit : Protego_journal.Journal.decision array;
      (** the run's journal trail, {!Protego_journal.Journal.stitch}ed:
          strictly ascending [d_seq] = 0..n-1 (the submission index);
          decode a request with {!Protego_core.Request.of_journal}.
          [[||]] with audit off, without collection,
          or when the trail degraded (see [rr_audit_lost]) *)
  rr_audit_lost : string option;
      (** [Some reason] when the run's journaled trail could not be
          stitched because wraparound overwrote part of it (the run
          outgrew the journal, or un-rotated prior runs filled it);
          outcomes are still complete.  [None] for a complete trail. *)
  rr_wall_ns : int;  (** whole-run wall time; 0 without a clock *)
  rr_min_op_ns : float array;
      (** per worker: minimum per-decision cost over timed batches of
          its slice — the contention-free cost of its warm path.
          [infinity] without a clock or for an empty slice. *)
}

type audit_mode = [ `Off | `Journal ]
(** What records decisions during {!run}: nothing, or the binary journal
    (default). *)

val audit_mode_name : audit_mode -> string

type t

val create :
  ?domains:int -> ?journal_seg_bytes:int -> ?journal_segments:int -> PS.t -> t
(** A plane over the live state, initial snapshot published at epoch 0.
    [domains] defaults to 1 and is clamped to
    [1..min 64 journal_segments] — each worker's journal term
    owns a whole segment, so the journal geometry bounds the domain
    count.  [journal_seg_bytes] (default 256 KiB) and [journal_segments]
    (default 32) size the audit journal; both must be powers of two
    (see {!Protego_journal.Journal.create}). *)

val plane_max_domains : t -> int
(** [min 64 (journal segments)]: the effective domain ceiling
    of this plane's geometry. *)

val domains : t -> int
val set_domains : t -> int -> unit
(** Clamped to [1..plane_max_domains]; workers are recreated (their
    counters reset) and the replaced workers' journal terms
    are retired (padded out and deregistered), so repeated domain
    changes neither inflate journal stats nor pin half-filled
    segments.  Raises [Invalid_argument] while a run (real or
    simulated) is in flight — racing a worker-array swap against live
    workers would hand decisions to orphaned terms. *)

val engine : t -> [ `Pfm | `Ref ]
val set_engine : t -> [ `Pfm | `Ref ] -> unit

val set_clock : t -> (unit -> int) -> unit
(** Install a monotonic nanosecond clock: arms wall/batch timing and the
    per-worker latency histograms (sampled, 1 in 64 decisions). *)

val state : t -> PS.t
val current : t -> Snapshot.t
val publish : t -> Snapshot.t
(** Unconditionally freeze the live state and swap it in. *)

val refresh : t -> Snapshot.t
(** {!publish} only if the live state drifted from the current snapshot
    ({!Snapshot.stale}); otherwise the current snapshot unchanged. *)

val decide : t -> request -> outcome
(** One decision on worker 0, after a {!refresh} — the deterministic
    sequential entry point tests and the /proc surface use.  Journals
    nothing. *)

val run :
  t -> ?collect:bool -> ?reloads:(int * (unit -> unit)) list ->
  request array -> run_result
(** Drive the whole request array through the plane, round-robin across
    [domains t] workers (request [i] goes to worker [i mod d]).  With
    one domain the run is inline and deterministic; otherwise one
    OCaml domain is spawned per worker.  [collect:false] skips the
    outcome array and the [rr_audit] reconstruction (bench mode; the
    journal still records every decision — {!Replay.replay_run}
    stitches and checks it afterwards).  [reloads] are [(threshold, action)]
    pairs: each action fires once, off the coordinating domain, as soon
    as the total completed-decision count reaches its threshold (with
    one domain: exactly at that submission index).  Actions typically
    mutate the live state and {!publish}. *)

val runs : t -> int
(** Completed {!run} invocations since creation/reset. *)

(** {1 Per-subject lifecycle phases}

    The plane's analogue of the LSM's per-task phase
    (DESIGN.md §11): a fixed table of atomics indexed
    [subject mod phase_slots], read once per decision.  The phase
    selects the per-phase ladder in the compiled programs, so a
    transition changes exactly the transitioning subject's verdicts on
    its next decision — no flush, no epoch bump. *)

val subject_phase : t -> subject:int -> Protego_base.Phase.t

val set_subject_phase :
  t -> subject:int -> Protego_base.Phase.t -> (unit, string) result
(** Tighten-only join: the subject's phase advances to the given phase
    or stays put.  An attempted move {e backward} returns [Error] and
    changes nothing — the caller (the LSM, the /proc surface) maps it
    to EPERM plus an audit record.  Safe to call from a reload action
    while a run is in flight: workers pick the new phase up on their
    next decision for that subject. *)

val reset_phases : t -> unit
(** Every subject back to {!Protego_base.Phase.initial} — part of the
    ["reset"] /proc command, for between-run reuse only. *)

(** {1 Simulation hooks}

    The deterministic simulator ({!Protego_sim.Sim}) drives the plane's
    workers one decision at a time from a single domain, so every
    interleaving is a scheduler choice rather than a thread race.  These
    entry points expose exactly the per-worker steps {!run} performs
    internally; they must only be called between {!sim_begin} and
    {!sim_end}, never concurrently with {!run}. *)

val running : t -> bool
(** A run — real ({!run}) or simulated ({!sim_begin}) — is in flight. *)

val sim_begin : t -> int
(** Mark a simulated run in flight and return its run id (the stamp
    {!decide_on} outcomes should be journaled under).  Raises
    [Invalid_argument] if a run is already in flight. *)

val sim_end : t -> unit
(** End the simulated run and count it in {!runs}. *)

val decide_on : t -> worker:int -> request -> outcome
(** One decision on the given worker against the currently published
    snapshot — the exact {!Protego_core.Decider} ladder a run step
    executes, without the surrounding refresh.  Raises
    [Invalid_argument] for a worker outside [0..domains-1]. *)

val decide_against : t -> worker:int -> Snapshot.t -> request -> outcome
(** Like {!decide_on} but against an explicit snapshot — the simulator's
    stale-read fault injection point. *)

val journal_decision :
  t -> worker:int -> run:int -> seq:int -> request -> outcome -> unit
(** Claim-and-encode one decision into the worker's journal term, as a
    run's audit step does.  Raises [Failure] on writer overrun. *)

val worker_term : t -> int -> Protego_journal.Journal.term
(** The worker's journal write handle — the simulator's crash injection
    leaves an unpadded claim on it to exercise torn-tail recovery. *)

(** {1 Audit journal} *)

val audit_mode : t -> audit_mode
val set_audit_mode : t -> audit_mode -> unit

val record_mode : t -> bool

val set_record_mode : t -> bool -> unit
(** Permissive record mode ({!Protego_core.Decider.flip}).  While on, a
    request the engine would deny or reject is {e served} as an allow
    (outcomes, audit) but journaled with the distinct verdict code 3
    ("recorded") — the raw material the policy synthesizer generalizes
    from.  @raise Invalid_argument if a run is in flight. *)

val journal : t -> Protego_journal.Journal.t
(** The plane's current journal (replaced by {!rotate_journal}). *)

val rotations : t -> int
(** Journal rotations since creation/reset. *)

val rotate_journal : t -> unit
(** Swap in a fresh journal of the same geometry and re-attach every
    worker's term to it; the old journal is dropped.  Counted by
    {!rotations}. *)

val reset_journal : t -> unit
(** {!rotate_journal} and zero the rotation counter. *)

val snapshot_at : t -> int -> Snapshot.t option
(** The snapshot published at a given epoch ({!Snapshot.at_epoch}) —
    what a journal replay evaluates epoch-stamped decisions against. *)

(** {1 Merged statistics and /proc/protego/plane} *)

type hook_totals = {
  ht_decisions : int;
  ht_allow : int;
  ht_deny : int;  (** deny + reject *)
  ht_evals : int;
      (** engine evaluations: every decision, as a worker keeps no
          table *)
  ht_hits : int;  (** table hits: always 0, as a worker keeps no table *)
}

val hook_stats : t -> (string * hook_totals) list
(** Summed across workers, hook order. *)

val render : t -> string
(** {v
    plane domains <d> engine <pfm|ref> epoch <e> runs <n>
    audit mode <m> records <n> live <n> dropped <n> rotations <n>
    worker <i> decisions <n>
    hook <name> decisions <n> allow <n> deny <n>
    latency hook <name> count <n> p50 <ns> p90 <ns> p99 <ns>
    v}
    [latency] lines only for hooks with sampled observations (needs a
    clock); histograms are summed across workers before the percentile
    walk. *)

val handle_write : t -> string -> (unit, string) result
(** ["domains <n>"], ["engine pfm|ref"], ["publish"],
    ["audit off|journal"],
    ["phase <subject> setup|serving|steady"] (tighten-only; loosening
    errors), ["reset"] (fresh workers with zeroed counters, phases back
    to initial, fresh journal); anything else errors. *)

val install_proc :
  Protego_kernel.Ktypes.machine -> t -> unit
(** Install [/proc/protego/plane] and [/proc/protego/journal] (both
    root-only, 0600): reads render, writes dispatch to {!handle_write}
    for the plane file (EINVAL + dmesg on parse errors).  The journal
    file reads as a [journal mode <m> rotations <n>] line, then
    {!Protego_journal.Journal.render_stats}; it takes ["rotate"] and
    ["reset"], and anything else errors. *)
