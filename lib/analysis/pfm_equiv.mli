(** Symbolic equivalence prover for {!Pfm} programs.

    [prove p q] decides whether two {e verified} programs produce the
    same verdict on every context, by symbolically executing the {b
    product} of the two control-flow graphs: a product state is a pair
    of program counters plus one shared constraint store over the
    context fields (both programs read the same [ctx], so a branch
    refinement made while walking one program immediately constrains
    the paths still open in the other).  Verified programs only jump
    forward, so product nodes are explored in topological order with a
    bounded number of path disjuncts kept per node ([max_disjuncts]);
    beyond the bound, paths are joined — losing precision, never
    soundness.

    The constraint domain extends {!Pfm_absint}'s interval /
    constant-set / string-set lattice ([iv]/[sv] are reused as the
    base) with what equivalence proofs over compiled policies need and
    dead-code analysis does not: excluded ranges (negated
    [In_range]), forced and forbidden masked-bit literals
    ([Masked_eq]/[All_bits], the CIDR tests), required and forbidden
    string prefixes ([Str_prefix]), and inter-field
    equalities ([Eq_field]).

    {b Verdicts are three-valued and definite only on two of them:}

    - [Equal] is a {e proof}: every divergent product leaf (a pair of
      [Ret]s with different verdicts) was shown infeasible — its
      constraint store has a definitely-empty concretization.  Since
      every hook derives errno from the verdict alone
      ([Decider.errno] is a function of hook and verdict), verdict
      equality implies (verdict, errno) equality.
    - [Not_equal cx] is a {e witness}: [cx.cx_ctx] was replayed
      through both programs with {!Pfm.eval} and really diverged —
      never a "trust me" verdict.  Replay happens on counter-isolated
      copies, so proving does not perturb the profile counters of live
      programs.
    - [Unknown] means the prover ran out of budget, or found an
      abstractly-feasible divergence it could not concretize.  A caller
      that gates on a proof must treat [Unknown] as a refusal. *)

module Pfm = Protego_filter.Pfm

type counterexample = {
  cx_ctx : Pfm.ctx;          (** input on which the programs diverge *)
  cx_left : Pfm.verdict;     (** what the left program returns on it *)
  cx_right : Pfm.verdict;
}

type result =
  | Equal
  | Not_equal of counterexample
  | Unknown of string        (** reason: budget, or unconcretized paths *)

val prove :
  ?max_disjuncts:int -> ?max_nodes:int ->
  Pfm.program -> Pfm.program -> result
(** [max_disjuncts] (default 4096) bounds the path disjuncts kept per
    product node before joining; [max_nodes] (default 500_000) bounds
    the total disjuncts processed.  A straight-line netfilter chain
    tests each rule's matches in turn, so the paths into a rule
    multiply with the tests before it; against a chain compiled with a
    port switch, 256 joined paths of some 6-rule chains into [Unknown],
    which 1,024 already proves.  Programs that fail {!Pfm.verify}
    yield [Unknown] (the prover's refinement rules assume the
    verifier's accumulator-initialization invariant).  The two
    programs may declare different arities; the witness context is as
    wide as the wider of the two. *)

val result_to_string : result -> string
(** ["equal"], ["not-equal (ints=[..] strs=[..] left=.. right=..)"] or
    ["unknown: <reason>"]. *)
