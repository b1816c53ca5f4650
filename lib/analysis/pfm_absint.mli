(** Forward abstract interpretation of {!Pfm} programs.

    Computes, in a single pass (verified programs jump forward only, so
    program order is topological and join doubles as the widening),
    per-instruction reachability and verdict reachability under an
    interval / constant-set domain for integer fields and a finite
    string-set domain for string fields.  Because the machine has no
    arithmetic, accumulators always alias context fields; the analysis
    tracks that aliasing so branch refinements persist across reloads —
    this is what exposes shadowed whitelist entries as dead code.

    {b Soundness}: the analysis {e over}-approximates reachability.
    Abstractly unreachable therefore means definitely dead;
    [never_allows]/[always_allows] are likewise definite.  The converse
    direction (abstractly reachable implies an input exists) does not
    hold and is never claimed.  The differential fuzz suite checks the
    sound direction against runtime instruction counters. *)

module Pfm = Protego_filter.Pfm

(** {1 Abstract values} (exposed for tests and diagnostics) *)

module ISet : Set.S with type elt = int
module SSet : Set.S with type elt = string

type iv =
  | Ibot                  (** no value (infeasible) *)
  | Iset of ISet.t        (** one of a finite set *)
  | Irange of int * int   (** inclusive interval *)
  | Inot of ISet.t        (** anything but a finite set; [Inot {}] is top *)

type sv = Sbot | Sset of SSet.t | Snot of SSet.t

val ijoin : iv -> iv -> iv
val imeet : iv -> iv -> iv
val sjoin : sv -> sv -> sv
val smeet : sv -> sv -> sv
val iv_to_string : iv -> string
val sv_to_string : sv -> string

(** {1 Analysis} *)

(** What the analysis keeps: facts, not per-pc abstract states (a
    pc's disjuncts are released once it is processed, and a [Ret] pc
    never holds any — an edge into it only marks it reachable and its
    verdict reachable). *)
type summary = {
  program : Pfm.program;
  reachable : bool array;
  allow_reachable : bool;
  deny_reachable : bool;
  reject_reachable : bool;
  const_branches : (int * bool) list;
      (** [Jif]s with exactly one feasible outcome: [(pc, outcome)] *)
}

val analyze : ?max_disjuncts:int -> Pfm.program -> summary
(** Total on any program; invalid (backward / out-of-range) edges are
    treated as absent, matching the verifier's flow pass.

    First-match compilation makes merge points disjunctive ("some
    earlier test failed"), so the analysis is path-sensitive up to
    [max_disjuncts] states per program point (default 64); beyond that
    it joins, losing precision but never soundness.  Verdict ([Ret])
    points have no successor and keep no states, so they never join. *)

val verdict_reachable : summary -> Pfm.verdict -> bool

val never_allows : summary -> bool
(** Definite: no input makes the program return [Allow]. *)

val always_allows : summary -> bool
(** Definite: no input makes the program return [Deny] or [Reject]. *)

val dead_pcs : summary -> int list

(** {1 Provenance}

    The [(pc, text)] notes returned by the [Pfm_compile.*_notes]
    compilers mark where each declarative rule's code begins; a note's
    extent runs to the next note (or the program end). *)

val note_ranges : notes:(int * string) list -> int -> (int * int * string) list
(** Each note's inclusive extent [(first, last, text)] within a program
    of the given length. *)

val attribute : notes:(int * string) list -> int -> string option
(** The note owning [pc], if any. *)
