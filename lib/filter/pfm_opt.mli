(** Profile-guided recompilation of {!Pfm} programs.

    [optimize p] inspects the per-instruction counters [p] has retired
    and rebuilds hot structures:

    - {b eq-cascade → switch}: a first-match cascade of ≥4
      equality tests on one field (the shape the netfilter compiler
      emits for per-port rules) becomes one [Iswitch]; rule bodies are
      kept, and their "continue scanning" edges collapse to the
      cascade's fall-out target, which is sound because the keys are
      distinct and context fields never change mid-evaluation.
    - {b CIDR-trie lowering}: a cascade of ≥4 disjoint prefix
      [Masked_eq] tests on one field is re-dispatched through a
      one-level radix on the top octet ([Masked_eq] with mask
      [0xff000000]), groups ordered by observed heat.  Only masked
      tests are emitted, so the equivalence prover's masked-literal
      domain proves the rewrite exactly.
    - {b hot-rule reordering}: shorter cascades of pairwise-disjoint
      tests are reordered hottest-first (first-match-safe because
      disjoint tests cannot both match).
    - {b switch re-bucketing}: when one case of an [Iswitch]/[Sswitch]
      absorbs more than half the traffic, a single equality test on
      the hot key is hoisted in front of the table lookup (the first
      such case in key order, if several tie).

    The rewritten program is {e not} verified or proven here: the
    caller must gate installation on {!Pfm.verify} and
    [Pfm_equiv.prove] (see {!Pfm_dispatch}).  [optimize] itself never
    raises; structurally unsafe candidates (shared heads, jumps into
    rule interiors from outside, overlapping tests) are skipped. *)

type report = {
  applied : (string * string) list;  (** (pass name, detail) per rewrite *)
  before_insns : int;
  after_insns : int;
}

val optimize : Pfm.program -> (Pfm.program * report) option
(** [None] when no pass applies.  The result is named
    [p.pname ^ "+opt"] and starts with fresh counters. *)

val report_to_string : report -> string
