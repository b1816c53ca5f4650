(** LTL-ish temporal properties over a simulation trace.

    Each property is a named, post-hoc check over {!Sim.ctx} — the
    event trace, the run's journal records, and the plane's snapshot
    history.  [p_applies] names the spec shapes the property is an
    invariant of: sweeps check only applicable properties, so a spec
    that deliberately injects a fault (say [F_drop]) is not failed for
    the very behaviour it injects — the broken property is instead
    selected explicitly by that fault's catch test and shrunk
    ({!Shrink}).  Property language rationale: DESIGN.md §10. *)

type outcome = Holds | Violated of { at : int; why : string }
(** [at] is the index of the offending event in the trace (0 for
    whole-trace violations such as a journal phantom). *)

val outcome_to_string : outcome -> string

type t = {
  p_name : string;
  p_applies : Sim.spec -> bool;
  p_eval : Sim.ctx -> outcome;
}

(** {1 Combinators} *)

val always :
  string -> applies:(Sim.spec -> bool) -> (Sim.ctx -> Sim.event -> bool) ->
  why:(Sim.ctx -> Sim.event -> string) -> t

(** {1 The registry}

    Plane lane: ["epoch-monotone"], ["verdict-matches-epoch"],
    ["live-oracle"], ["reload-acked"],
    ["no-decide-under-pending-mutate"], ["phase-monotone"] (lifecycle
    steps only tighten), ["phase-consistent"] (every decision is served
    at its subject's current phase — with monotonicity, no verdict is
    ever served under a later-loosened phase), ["journal-faithful"],
    ["replay-clean"], ["no-torn"], ["all-journaled"], ["no-overrun"].
    Dispatch lane: ["nf-oracle"], ["pd-oracle"], ["nf-proved"]. *)

val all : t list

val applicable : Sim.spec -> t list

val find : string -> (t, string) result

val check : Sim.ctx -> t list -> (t * outcome) list
