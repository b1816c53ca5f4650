(** Compilers from the declarative Protego policy sources into verified
    {!Pfm} programs, plus the per-hook context (field-layout) contracts.

    Each compiler emits a program, runs the {!Pfm.verify} pass on it, and
    raises [Invalid_argument] if its own output does not verify — a
    compiler bug, never a policy error.  The compiled program is
    behaviourally identical to the reference list walk it replaces
    (first-match semantics, including the subtleties: the mount flags of
    the {e first} matching whitelist entry decide, a bind-map entry with
    the right port and protocol but wrong binary denies without trying
    later entries, and a netfilter rule with no matches terminates the
    chain).  Equality is enforced by the differential fuzz suite.

    Field layouts (the contract between [*_ctx] builders and compilers):

    - mount:   strs = [| source; target; fstype |],
               ints = [| phase; flags mask |]
    - umount:  strs = [| target |], ints = [| phase; mounting uid; ruid |]
    - bind:    strs = [| exe |],
               ints = [| phase; port; proto (6/17); caller uid |]
    - packet:  ints = [| proto code; src; dst; src port; dst port;
                         icmp code; syn flag; origin; owner uid |]
    - ppp:     strs = [| device |], ints = [| phase; option-is-safe flag |]

    Every task-scoped hook context leads with the calling task's
    lifecycle phase index ({!Protego_base.Phase.index}) in [ints.(0)];
    packets are not tasks, so the netfilter layout has no phase field.
    When no rule of a policy carries a phase guard the compilers emit no
    phase instructions at all — unphased policies compile to the same
    instruction stream as before the lifecycle dimension existed.  When
    at least one rule is guarded, the production compilers prefix a
    leading [iswitch] on the phase field whose cases are per-phase
    specializations of the ladder (out-of-range phase values deny); the
    linear compilers clamp the phase once and re-check each rule's guard
    inline, so the prover relates two structurally different derivations
    of the same per-phase semantics.

    Missing integer fields (no port, no icmp type, kernel-origin owner)
    are encoded as [min_int], which no whitelist immediate can equal. *)

module Ktypes = Protego_kernel.Ktypes
module Netfilter = Protego_net.Netfilter
module Packet = Protego_net.Packet
module Phase = Protego_base.Phase
module Bindconf = Protego_policy.Bindconf
module Pppopts = Protego_policy.Pppopts

(** {1 Mount / umount whitelist} *)

(** A mirror of [Policy_state.mount_rule] (which lives above this library
    in the dependency order). *)
type mount_rule = {
  fm_source : string;
  fm_target : string;
  fm_fstype : string;
  fm_flags : Ktypes.mount_flag list;
  fm_user_only : bool;  (** [`User]: only the mounting user may unmount *)
  fm_phase : Phase.guard;  (** lifecycle window the rule is active in *)
}

val flags_mask : Ktypes.mount_flag list -> int
(** ro=1, nosuid=2, nodev=4, noexec=8. *)

val flags_of_mask : int -> Ktypes.mount_flag list
(** The canonical flag list of a mask (the inverse of {!flags_mask} up
    to order and duplicates) — what journal records carry decoded. *)

val mount_rule_text : mount_rule -> string
(** ["allow <source> <target> <fstype>[ <guard>]"] — the form used in
    provenance notes and lint findings. *)

val mount : ?phase:Phase.t -> mount_rule list -> Pfm.program
(** Hash-dispatches on the source device, then checks target, fstype
    (honouring the ["auto"] wildcard on either side) and required flags of
    the first matching rule.  With [?phase], compiles the residual policy
    one phase sees — guards resolved statically, no dispatch emitted (the
    per-phase program the lint layer feeds to the abstract interpreter). *)

val mount_notes :
  ?phase:Phase.t -> mount_rule list -> Pfm.program * (int * string) list
(** Like {!mount} but also returns provenance notes: [(pc, rule text)]
    pairs marking where each declarative rule's code begins, for the
    static analyzer to attribute findings on compiled code back to rules.
    Every compiler has a [*_notes] sibling with the same contract. *)

val mount_ctx :
  phase:int -> source:string -> target:string -> fstype:string ->
  flags:Ktypes.mount_flag list -> Pfm.ctx

val mount_into :
  Pfm.ctx -> phase:int -> source:string -> target:string -> fstype:string ->
  flags:Ktypes.mount_flag list -> unit
(** Rewrite a context {!mount_ctx} built, in place: an evaluator that
    keeps one context per hook refills it per decision and allocates
    nothing.  Each request hook's builder has such an [*_into]
    sibling. *)

val umount : ?phase:Phase.t -> mount_rule list -> Pfm.program
(** Hash-dispatches on the mount target; [`Users] rules allow anyone,
    [`User] rules require the caller to be the mounting user. *)

val umount_notes :
  ?phase:Phase.t -> mount_rule list -> Pfm.program * (int * string) list

val umount_ctx :
  phase:int -> target:string -> mounted_by:int -> ruid:int -> Pfm.ctx

val umount_into :
  Pfm.ctx -> phase:int -> target:string -> mounted_by:int -> ruid:int -> unit

(** {1 Bind map} *)

val bind : ?phase:Phase.t -> Bindconf.entry list -> Pfm.program
(** Hash-dispatches on the port number; the matching entry's binary and
    owner must both agree or the bind is denied. *)

val bind_notes :
  ?phase:Phase.t -> Bindconf.entry list -> Pfm.program * (int * string) list

val bind_ctx :
  phase:int -> port:int -> proto:Bindconf.proto -> exe:string -> uid:int ->
  Pfm.ctx

val bind_into :
  Pfm.ctx -> phase:int -> port:int -> proto:Bindconf.proto -> exe:string ->
  uid:int -> unit

(** {1 Netfilter chains} *)

val verdict_of_netfilter : Netfilter.verdict -> Pfm.verdict
val netfilter_of_verdict : Pfm.verdict -> Netfilter.verdict

val netfilter : rules:Netfilter.rule list -> policy:Netfilter.verdict -> Pfm.program
(** First-match-wins translation of a chain; the chain policy becomes
    the final verdict.  Each run of four or more consecutive rules whose
    first non-trivial match pins one int field to pairwise distinct
    values ([--dport N], an owner uid, an icmp type, ...) is dispatched
    through one [iswitch] on that field: a case runs the rest of its
    rule's matches in order, and any failure, like the default, jumps to
    the code after the run (distinct values make the run's rules
    mutually exclusive).  A repeated value ends the run.  Every other
    rule is tested in turn.  Rules behind a match-anything rule (one
    whose every match is trivially true, e.g. only /0 prefixes) are dead
    in the reference walk and are not emitted. *)

val netfilter_notes :
  rules:Netfilter.rule list -> policy:Netfilter.verdict ->
  Pfm.program * (int * string) list
(** One note per emitted rule: a run's first rule at its dispatch, the
    others at their case bodies. *)

val packet_ctx : Packet.t -> origin:Packet.origin -> Pfm.ctx

val packet_into : Pfm.ctx -> Packet.t -> origin:Packet.origin -> unit
(** Refill a {!packet_ctx} in place, allocating nothing. *)

val packet_ints : int
(** The length of a packet context's [ints]: 9. *)

(** {1 Safe-ioctl (pppd modem options) whitelist} *)

val ppp_ioctl : ?phase:Phase.t -> Pppopts.t -> Pfm.program
(** Allows a modem-configuration ioctl iff the device is whitelisted by an
    [allow-device] directive active in the task's phase and the requested
    option is intrinsically safe ({!Protego_net.Ppp.option_is_safe}). *)

val ppp_ioctl_notes :
  ?phase:Phase.t -> Pppopts.t -> Pfm.program * (int * string) list

val ppp_ctx : phase:int -> device:string -> opt:Protego_net.Ppp.option_ -> Pfm.ctx

val ppp_into :
  Pfm.ctx -> phase:int -> device:string -> opt:Protego_net.Ppp.option_ -> unit

(** {1 Reference (linear) compilers}

    Straight-line transliterations of each policy in declaration order
    with no hash dispatch or grouping — an independently-derived second
    program per source.  [protego-lint --prove] and the equivalence
    suites run [Pfm_equiv.prove] between each production program and
    its linear sibling: if the production compiler's dispatch structure
    ever drifts from first-match semantics, the prover produces a
    replayable counterexample instead of a silent divergence.
    [netfilter_linear] tests every rule in turn, with no switch, and
    additionally reverses each rule's match conjunction (semantically
    free) so the two instruction streams are genuinely different. *)

val mount_linear : mount_rule list -> Pfm.program
val umount_linear : mount_rule list -> Pfm.program
val bind_linear : Bindconf.entry list -> Pfm.program
val netfilter_linear :
  rules:Netfilter.rule list -> policy:Netfilter.verdict -> Pfm.program
val ppp_linear : Pppopts.t -> Pfm.program
