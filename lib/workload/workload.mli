(** Deterministic decision-plane workload generator.

    Produces a replayable schedule of {!Protego_plane.Plane.request}
    values — seeded PRNG, no wall clock, no ambient state — with:

    - a {b zipfian} popularity distribution over an interned request
      pool per hook (a few requests dominate, the tail is long: what a
      real hook sees; request values are physically shared);
    - a configurable {b hook mix} (mount/umount/bind/ppp weights) and
      zipfian subject skew;
    - {b phases}: [Steady] (mostly grants), [Deny_flood] (a burst of
      denials), [Audit_heavy] (every request carries ~160-byte object
      strings drawn against gated long-path rules — the journal
      encoder's worst case; the long rules only enter the policy when a
      heavy phase is present, so other schedules are unchanged), and
      [Reload_storm] (policy republication every [period] requests —
      the snapshot-churn worst case), and [Phase_storm] (a
      lifecycle-phase advance for one subject every [period] requests —
      phase-keyed cache invalidation racing the decision path).  Storm
      reloads are generation bumps, i.e. semantics preserving: every
      verdict stays equal to the fixed-policy oracle, which is what
      lets differential tests run under storms;
    - {b open or closed} loop shape: [`Open] draws one global arrival
      stream (workers share it round-robin); [`Closed] gives each of
      [workers] simulated callers its own stream, interleaved at its
      worker's stride.

    The same [spec] and [workers] always generate the same schedule —
    [generate] is a pure function, tested structurally. *)

module PS = Protego_core.Policy_state
module Plane = Protego_plane.Plane

type phase =
  | Steady
  | Deny_flood
  | Audit_heavy
  | Reload_storm of { period : int }
  | Phase_storm of { period : int }

type spec = {
  seed : int;
  subjects : int;        (** distinct caller uids, zipf-ranked *)
  zipf_s : float;        (** zipf exponent for pools and subjects *)
  rules : int;           (** synthetic rules per policy source *)
  pool : int;            (** interned requests per hook per polarity *)
  mix : int * int * int * int;  (** mount/umount/bind/ppp weights *)
  loop : [ `Open | `Closed ];
  phases : (phase * int) list;  (** (phase, request count), in order *)
}

val default : ?seed:int -> ?phases:(phase * int) list -> unit -> spec
(** 16 subjects, zipf 1.1, 64 rules, 256-request pools, mix 4:2:3:1,
    open loop, one 10k [Steady] phase, seed 42. *)

val install_policy : spec -> PS.t -> unit
(** Install the synthetic policy the generated requests are built
    against (mount whitelist [/dev/wl<i> -> /media/wl<i>], bind map
    ports [1000+<i>], ppp device whitelist) and bump the written
    sources' generations.  Must be called on the plane's live state
    before running a schedule, or every request denies. *)

type schedule = {
  s_requests : Plane.request array;
  s_reloads : (int * PS.source) list;
      (** (completed-count threshold, source whose generation to bump)
          — from [Reload_storm] phases, ascending.  The runner turns
          each into a bump + publish action. *)
  s_phase_steps : (int * int) list;
      (** (completed-count threshold, subject) pairs from [Phase_storm]
          phases, ascending — the runner advances that subject's
          lifecycle phase one step forward
          ({!Protego_plane.Plane.set_subject_phase}; saturating at the
          final phase).  The synthetic rules are all [Always]-guarded,
          so the storm is verdict-preserving: it stresses the
          per-subject phase table, not the policy. *)
}

val generate : spec -> workers:int -> schedule
(** Deterministic in [spec] and [workers].  [workers] only matters for
    [`Closed] loops (per-caller stream interleaving). *)
