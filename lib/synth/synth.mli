(** Policy synthesis from recorded traffic (DESIGN.md §12).

    The input is an audit journal of decision records (including the
    verdict-3 "recorded" entries a permissive record-mode run leaves):
    a plane's, or a machine's, whose LSM hooks write one typed record
    per decided mount, umount, bind and (in record mode) ppp ioctl and
    netfilter OUTPUT decision — {!Lsm_record} drives such a run.  The
    output is a set of
    minimal policy sources (mount whitelist, bind map, ppp options,
    netfilter Output chain) that

    - {b admit} every observed request that {e any} strict-lint-clean
      policy could admit (requests no clean policy can admit — a mount
      without nosuid, an unprivileged bind port, an unsafe ppp option —
      are reported as inadmissible with the lint code that forces the
      exclusion, never silently admitted);
    - stay inside a {b false-allow budget}: every generalization step
      (fstype wildcard, device glob, port range, CIDR block, the
      any-port rule a raw socket's portless TCP/UDP payload needs)
      carries a measured admitted-but-unobserved volume and is applied
      only while the running total fits the budget (netfilter ports are
      grouped by destination, so every admitted (destination, port)
      pair is observed or counted in an applied step);
    - carry {b downward-closed phase guards} ([phase<=p] for the widest
      observed phase, [Always] when observed through the final phase) —
      PL-PH001 cannot fire on synthesized output by construction;
    - are emitted in a {b canonical order}, so re-synthesizing the same
      journal is byte-identical. *)

module PS = Protego_core.Policy_state
module Bindconf = Protego_policy.Bindconf
module Pppopts = Protego_policy.Pppopts
module Netfilter = Protego_net.Netfilter
module Journal = Protego_journal.Journal

(** {1 Observations} *)

type obs = {
  ob_subject : int;      (** the record's [d_subject] *)
  ob_phase : int;        (** widest phase index this tuple was seen in *)
  ob_req : Journal.req;
      (** the journal's own request, all five hooks.  Typed fields and
          verdicts come through the one decoder,
          {!Protego_core.Request.of_journal} (with [ob_subject]); an nf
          request is a packet and decodes to none. *)
  ob_count : int;        (** occurrences *)
  ob_recorded : int;     (** of which were would-denies (recorded/denied) *)
}

val desc_of_req : Journal.req -> string
(** Canonical one-line [hook key=value ...] rendering (stable sort key
    and report line). *)

val observations : Journal.entry list -> obs list
(** Aggregate journal entries into canonical observation tuples, sorted
    by descriptor.  Decision records, plane or LSM, contribute
    regardless of verdict (an enforce-mode deny is demand too); kaudit
    entries contribute nothing. *)

(** {1 Synthesis} *)

type step = {
  g_desc : string;   (** what was generalized, human-readable *)
  g_cost : int;      (** admitted-but-unobserved volume in the modeled universe *)
  g_applied : bool;  (** false: skipped because the budget ran out *)
}

type result = {
  r_mounts : PS.mount_rule list;
  r_binds : Bindconf.entry list;
  r_ppp : Pppopts.t;
  r_nf_rules : Netfilter.rule list;
  r_nf_policy : Netfilter.verdict;
  r_steps : step list;
  r_inadmissible : (string * string) list;
      (** (descriptor, reason with lint code) — observed demand no
          strict-clean policy can admit *)
  r_budget : int;
  r_used : int;          (** total applied generalization cost *)
  r_observed : int;      (** aggregated observation tuples *)
}

val synthesize : ?budget:int -> obs list -> result
(** [budget] (default 64) caps the total admitted-but-unobserved volume
    of applied generalizations. *)

val report : result -> string
(** Deterministic coverage report: per-hook admitted/inadmissible
    counts, every inadmissible observation with its reason, every
    generalization step with its cost, and the budget accounting. *)

(** {1 Output files} *)

val mounts_text : result -> string
val binds_text : result -> string
val ppp_text : result -> string
val chain_text : result -> string

val write_dir : string -> result -> unit
(** Write [mount_whitelist], [bind.map], [options.ppp], [output.chain]
    and [coverage.report] under an existing directory. *)

(** {1 Verification} *)

val admits : result -> obs -> bool
(** Replay one observation against the synthesized policy itself, via
    the reference oracle enforcement uses: a policy-hook request
    decoded by {!Protego_core.Request.of_journal} goes to
    {!Protego_core.Request.oracle} under the observation's phase; an nf
    observation is the packet its record describes, walked through
    the synthesized chain ({!Netfilter.walk}).  A raw socket's portless
    TCP/UDP payload is rebuilt as that payload, so a rule that matches
    on a port does not admit it. *)

val verify : obs list -> result -> (string * string) list
(** The closed-loop check: for every observation, the synthesized
    policy's verdict must equal its admissibility classification —
    admissible demand replays with zero false denies, inadmissible
    demand stays denied.  Returns mismatches as
    [(descriptor, explanation)]; empty means verified. *)
