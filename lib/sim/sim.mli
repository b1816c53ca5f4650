(** Deterministic simulation of the decision plane and the LSM-side
    dispatcher.

    The simulator owns {e all} nondeterminism: it runs on a single
    OCaml domain and drives the plane's workers as step functions —
    every decision, publish, reload, journal append, crash, duplicate
    append, journal flood and chain edit is a scheduler-chosen
    event drawn from one splitmix64 stream.  A seeded run is therefore
    bit-replayable from [(seed, spec)] alone, and every run records the
    action script it executed, so the exact interleaving replays
    byte-for-byte {e without} the seed ({!Scripted}) — which is what
    makes shrinking ({!Shrink}) and pinned regression schedules
    possible.  Architecture and fault taxonomy: DESIGN.md §10. *)

module PS = Protego_core.Policy_state
module Plane = Protego_plane.Plane
module J = Protego_journal.Journal

(** {1 Specs} *)

type lane =
  | Lane_plane  (** virtual plane workers over Plane/Snapshot/Journal *)
  | Lane_dispatch
      (** the sequential dispatcher ({!Protego_core.Pfm_dispatch}): the
          generated workload's requests, or nf probe batteries (golden),
          with edits of the netfilter OUTPUT chain *)

(** Injected fault classes; each instance is drawn from the seeded plan
    (or scripted explicitly) and recorded in the trace. *)
type fault_kind =
  | F_crash  (** kill a worker mid-record: torn, unpadded journal tail *)
  | F_stale  (** serve one decision against the run-start snapshot *)
  | F_dup    (** re-append a worker's last journaled decision *)
  | F_drop   (** a reload mutates the live state but never publishes *)
  | F_delay  (** a reload's publish is deferred to a later flush step *)
  | F_wrap   (** flood the journal until wraparound overruns a laggard *)

type spec = {
  sp_lane : lane;
  sp_golden : bool;
      (** replay the legacy hand-fixed interleaving fixture (1 worker,
          probe batteries: the P1/P2/P3 scripts, or three chain edits)
          instead of a generated workload *)
  sp_seed : int;      (** scheduler seed (Seeded mode only) *)
  sp_workers : int;   (** virtual plane workers *)
  sp_steps : int;     (** workload length (requests) *)
  sp_reloads : int;   (** reload budget *)
  sp_edits : int;     (** chain edit budget (dispatch lane, non-golden) *)
  sp_wseed : int;     (** workload generator seed *)
  sp_flood : bool;    (** Deny_flood workload phase instead of Steady *)
  sp_seg_bytes : int; (** journal segment bytes (power of two, >= 4096) *)
  sp_segments : int;  (** journal segments (power of two) *)
  sp_phases : bool;
      (** schedule lifecycle phase steps ([phases=on]): the scheduler
          advances workload subjects through the tighten-only phase
          lattice while decisions race the phase-keyed caches *)
  sp_faults : (fault_kind * int) list;  (** fault instances per class *)
}

val default : spec
(** plane lane, non-golden, seed 1, 2 workers, 64 steps, 3 reloads,
    wseed 42, 4 KiB x 8 segments, no faults. *)

val spec_to_string : spec -> string
(** Canonical one-line form, e.g.
    [lane=plane,golden=0,seed=1,...,faults=crash:1;wrap:1]. *)

val spec_of_string : string -> (spec, string) result
(** Parse fields over {!default}; unknown fields error. *)

val has_fault : fault_kind -> spec -> bool

(** {1 Actions}

    The scheduler's event alphabet.  A seeded run records the script it
    executed; a scripted run executes the script verbatim, silently
    skipping actions that are not executable at their position (dead
    worker, exhausted budget, ...) — skipped actions are not recorded,
    so the recorded script of any run replays identically (see
    {!mode}). *)

type action =
  | Decide of int      (** worker [w] serves its next request *)
  | Reload             (** mutate live policy, bump, publish *)
  | Reload_dropped     (** F_drop: mutate + bump, no publish *)
  | Reload_delayed     (** F_delay: mutate + bump, publish at [Flush] *)
  | Flush              (** publish a delayed reload *)
  | Crash of int       (** F_crash: decide, leave torn claim, kill worker *)
  | Stale of int       (** F_stale: decide against the run-start snapshot *)
  | Dup of int         (** F_dup: re-journal the worker's last decision *)
  | Flood              (** F_wrap: kaudit-flood the journal to overrun *)
  | Edit               (** next edit of the netfilter OUTPUT chain *)
  | Probe              (** golden dispatch lane: one nf probe battery *)
  | Phase_step of int
      (** advance subject [s]'s lifecycle phase one step forward
          (plane lane, [sp_phases] specs only) *)

val action_of_string : string -> (action, string) result
(** One script token: [d<w>], [r], [r-], [r+], [f], [c<w>], [s<w>],
    [u<w>], [w], [e], [p], [h<s>]. *)

val script_to_string : action list -> string
(** Dot-joined tokens; the empty script renders as ["-"]. *)

val script_of_string : string -> (action list, string) result

(** {1 Events}

    The observable trace, over which {!Prop} properties are evaluated.
    Two runs of the same [(spec, mode)] produce identical traces. *)

type event =
  | E_decide of {
      d_worker : int;
      d_seq : int;        (** submission index into the request array *)
      d_hook : int;       (** {!Protego_core.Request.index} *)
      d_verdict : int;    (** 0 deny / 1 allow / 2 reject *)
      d_errno : int;      (** 0 for none *)
      d_epoch : int;      (** snapshot epoch that served the decision *)
      d_phase : int;      (** lifecycle phase index the decision was
                              served under (0 before any step) *)
      d_live_ok : bool;   (** verdict agreed with the live-state oracle *)
      d_journaled : bool; (** committed to the worker's journal term *)
      d_stale : bool;     (** served via F_stale injection *)
      d_torn : bool;      (** F_crash left this record torn *)
    }
  | E_phase of { h_subject : int; h_from : int; h_to : int }
      (** a subject's lifecycle phase advanced (indices) *)
  | E_mutate of { m_label : string }   (** live policy mutated + bumped *)
  | E_publish of { p_epoch : int }     (** snapshot published *)
  | E_crash of { c_worker : int }
  | E_dup of { u_worker : int; u_seq : int }
  | E_flood of { f_bytes : int; f_overrun : bool }
  | E_overrun of { o_worker : int }    (** journal writer overrun; -1 = flood *)
  | E_edit of {
      e_label : string;  (** which chain edit *)
      e_proved : bool;
          (** after the edit and one nf decision,
              {!Protego_analysis.Pfm_equiv.prove} of the program the
              hook serves against
              {!Protego_filter.Pfm_compile.netfilter_linear} of the live
              chain returned [Equal] *)
    }
  | E_nf of { n_port : int; n_ok : bool }   (** probe vs Netfilter.walk *)
  | E_pd of { pd_seq : int; pd_ok : bool }  (** dispatcher vs live oracle *)

type ctx = {
  x_spec : spec;
  x_script : action list;  (** the actions actually executed, in order *)
  x_trace : event array;
  x_plane : Plane.t option;  (** plane lane only *)
  x_run : int;               (** journal run stamp of this simulation *)
  x_requests : Plane.request array;
  x_journal : J.decision list;  (** this run's journaled decisions *)
  x_dropped : int;              (** journal records lost to wraparound *)
}

val trace_to_string : ctx -> string
(** One line per event — the bit-replayability
    witness: equal strings iff equal traces. *)

(** How {!run} chooses actions.  One driver serves both modes and
    every lane; a lane gives it, per action, one guard and one effect,
    and the guard reads lane state only.
    - [Scripted script] steps each action of [script] in order: one
      whose guard holds runs, any other is skipped.  No seeded budget
      applies: a script may inject any fault, or probe the golden
      dispatch lane, as often as its guards allow.
    - [Seeded] draws from the lane's weighted offers with the
      [sp_seed] stream until none is left.  Only actions whose guard
      holds are offered, so each draw runs.  Seeded-only budgets live
      in the offers: the spec's fault instances (each offered until
      drawn once) and the golden dispatch lane's 3 probes.
    Both record exactly the actions that ran, in order ([x_script]);
    replaying that record as [Scripted] meets the same guards in the
    same states and reproduces the trace. *)
type mode = Seeded | Scripted of action list

val run : spec -> mode -> ctx
(** Execute one simulation.  Raises [Invalid_argument] if the journal
    geometry cannot host every worker term (plus the flood term under
    [F_wrap]). *)

(** {1 Golden fixtures}

    The 20 hand-fixed merge orders of the legacy interleaving harness,
    pinned as named scripts ([("P1DP2DP3D", [...]), ...]).  Run them
    with [{default with sp_golden = true}]. *)

val interleavings : 'a list -> 'a list -> 'a list list
(** All merge orders preserving the relative order within each list. *)

val golden_plane_scripts : (string * action list) list

val golden_plane_setup : PS.t -> unit
(** Install the golden initial policy (cdrom mountable bare, port 777
    tcp to exim) — exported so parity tests can mirror the fixture on a
    scratch state. *)

val golden_plane_flip : int -> PS.t -> string
(** Apply golden reload [k] (0..2) and return its label (P1/P2/P3). *)
