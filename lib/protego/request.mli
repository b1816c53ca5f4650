(** One policy-state request and everything derived from it: what the
    four [Policy_state]-backed hooks (mount, umount, bind, ppp ioctl)
    decide, on either path.  The LSM dispatcher ({!Pfm_dispatch}) and
    every decision-plane worker ([Protego_plane.Plane]) register their
    {!Decider} hooks with {!key} and {!eval}, so a hook's table key, PFM
    context, reference verdict and journal records are written once,
    here.  The netfilter OUTPUT hook decides a packet against the
    machine's chain instead. *)

module Pfm = Protego_filter.Pfm

(** The constructors, in a module of their own so that
    [Protego_plane.Plane] re-exports them by [include].  Arguments mirror
    the LSM hook signatures; [subject] is the caller's uid (ruid for
    umount).  A front slot compares requests by physical identity, so
    generators should intern and reuse request values. *)
module Value : sig
  type request =
    | Mount of {
        subject : int;
        source : string;
        target : string;
        fstype : string;
        flags : Protego_kernel.Ktypes.mount_flag list;
      }
    | Umount of { subject : int; target : string; mounted_by : int }
    | Bind of {
        subject : int;
        port : int;
        proto : Protego_policy.Bindconf.proto;
        exe : string;
      }
    | Ppp_ioctl of {
        subject : int;
        device : string;
        opt : Protego_net.Ppp.option_;
      }
end

include module type of struct include Value end

type t = request

val count : int
(** 4 request hooks. *)

val index : t -> int
(** 0 mount, 1 umount, 2 bind, 3 ppp_ioctl. *)

val kind_of_index : int -> Decider.kind

val subject : t -> int
(** The cache subject, and the key of the plane's phase table. *)

val source_of_index : int -> Policy_state.source
(** The source whose generation stamps the hook's cached verdicts:
    [Mounts] (mount, umount), [Binds] or [Ppp]. *)

val program_kind : t -> Policy_state.program_kind

val deny_errno : t -> Protego_base.Errno.t
(** {!Decider.deny_errno} of the hook: every request hook has one. *)

val key : Decision_cache.Key.t -> int -> t -> unit
(** [key k phase req]: the table key, phase index first, into [k].  All
    fields but a trailing string are self-delimiting varints, so the
    encoding is injective, and for strings under 16 KiB it is no longer
    than the fields joined with separators.  The table keys the subject
    itself; flags canonicalize to their mask, a ppp option to its
    intrinsic-safety bit (all the decision reads). *)

val ctx : phase:int -> t -> Pfm.ctx
(** The PFM context ({!Protego_filter.Pfm_compile.mount_ctx} and
    friends) for the program of {!program_kind}. *)

val oracle : ?phase:Protego_base.Phase.t -> Policy_state.t -> t -> bool
(** The reference verdict: {!Policy_state.mount_decision} and friends.
    [?phase] keeps only rules active in that lifecycle phase.  This is
    the one caller of those four decision procedures in [lib/]
    ([scripts/ci.sh --fast] greps for another); replay, the simulator,
    the synthesizer's verify and the tests all judge a request here. *)

val eval :
  state:('e -> Policy_state.t) ->
  run:('e -> Policy_state.program_kind -> Pfm.ctx -> Pfm.verdict) ->
  'e -> Decider.engine -> phase:int -> t -> Pfm.verdict
(** A request hook's engine, for {!Decider.hook}'s [~eval]: [`Ref] runs
    the {!oracle} over [state env], [`Pfm] runs [run env kind ctx] on
    the request's {!program_kind} and {!ctx}.

    [run] is where the program comes from, and that stays per path on
    purpose.  The dispatcher clones the program store's program for the
    live source value ({!Policy_state.program}).  A plane worker runs its
    clones of its snapshot's programs and must never read the store: a
    worker serving an older snapshot would make the store compile that
    value under its mutex and evict the live program. *)

(** {1 Journal records}

    The two encoders and the one decoder of a request's journal records
    sit together here, so what a record stores and what it decodes to
    are written side by side.  Both encoders store the same lossy codes
    as {!key}: a mount's flag mask (a kind-3 record its flag codes, in
    the caller's order), a bind's protocol code (0 tcp, 1 udp) and a ppp
    option's intrinsic-safety bit.  Neither allocates. *)

val append :
  Protego_journal.Journal.term -> seq:int -> run:int -> epoch:int ->
  phase:int -> verdict:int -> errno:int -> t -> unit
(** A kind-1 (decision-plane) record of a decision of [req] into a
    worker's journal term: {!Protego_journal.Journal.append_mount} and
    friends.  [verdict] and [errno] are journal codes (0 deny, 1 allow,
    2 reject, 3 recorded; 0 for no errno). *)

val sink :
  Protego_journal.Journal.sink -> time:float -> pid:int -> uid:int ->
  phase:int -> engine:int -> span:int -> verdict:int -> record:bool -> t ->
  unit
(** A kind-3 (LSM) record of a hook's decision of [req] into the
    kernel audit sink: {!Protego_journal.Journal.sink_mount} and
    friends, for the calling task's [time], [pid], real [uid] and
    [phase] index, the serving [engine] code, the [span] id (0 for
    none), the [verdict] (0 deny, 1 allow, 3 recorded) and whether
    [record] mode was on.  A ppp record ignores [record]: the hook
    writes one only in record mode, and the record says so. *)


val of_journal : subject:int -> Protego_journal.Journal.req -> t option
(** The request a journal record encodes, [subject] being the record's
    [d_subject]; the serving phase is the record's [d_phase].  This is
    the only decoder from the journal's wire request to a request:
    replay (and the simulator's replay property through it), the
    synthesizer and the tests call it.  [None] only for [Nf], a packet,
    which is not a request.

    Two steps lose information, and neither changes what the request
    decides:
    - {b Mount flags.}  A record stores their mask (a plane record the
      mask itself; an LSM record its flag codes, whose union [d_req]
      carries).  The request gets {!Protego_filter.Pfm_compile.
      flags_of_mask} of it: each flag once, in the canonical order
      readonly, nosuid, nodev, noexec.  The caller's order and repeats
      are gone; the {!key} (the mask) and the {!oracle} (set inclusion
      against a rule's required flags) read only the set.
    - {b The ppp option.}  A record stores only its intrinsic-safety bit.
      The request gets a representative of that class:
      [Ppp.Accomp] if safe, [Ppp.Default_route] if not.  The {!key} and
      the {!oracle} read only that bit.

    A bind record's protocol code 1 is UDP, anything else TCP. *)

val expected :
  Policy_state.t -> phase:int -> recorded:bool -> t -> int * int
(** [expected st ~phase ~recorded req]: the journal verdict and errno
    codes a decision of [req] served under phase index [phase] must
    carry, by the {!oracle} over [st] (a snapshot's [frozen] state, for
    a plane decision).  An allow is [(1, 0)].  A denial is [(0, errno)]
    with the hook's {!deny_errno}, unless [recorded]: record mode serves
    a would-deny as an allow and journals it as verdict 3 ("recorded")
    with no errno, so a recorded denial is [(3, 0)].  Replay, the
    simulator's verdict property and the interleaving tests judge a
    decision with it. *)
