(** Security audit records (modelled on the LSM audit facility).

    Policy modules emit a record for each interesting decision.  Since
    the journal subsystem landed, emission encodes straight into the
    machine's binary audit journal ({!Protego_journal.Journal.sink}) —
    zero heap records on the emit path — and this module is the decoded
    {e ring view} over the journal tail: the newest {!capacity} records,
    readable through a /proc file the policy module installs and
    queryable from tests.  Records pushed out of the view (by the ring
    bound or by journal wraparound) are counted, not silently lost:
    {!dropped} and the [dropped=<n>] summary line of {!render} surface
    them. *)

type record = Ktypes.audit_record = {
  au_time : float;
  au_pid : Ktypes.pid;
  au_uid : Ktypes.uid;     (** real uid of the subject *)
  au_op : string;          (** e.g. "mount", "bind", "setuid" *)
  au_obj : string;         (** the object, e.g. "/media/cdrom", "port 25" *)
  au_allowed : bool;
  au_engine : string option;
      (** what served the decision for filter-machine-backed hooks
          (["cache"], ["pfm"] or ["ref"]); [None] for unfiltered decisions *)
  au_span : int option;
      (** trace span id of the decision when span recording was on
          (see [Protego.Trace]); correlates the record with
          /proc/protego/trace *)
}

val emit :
  ?engine:string ->
  Ktypes.machine -> Ktypes.task -> op:string -> obj:string -> allowed:bool ->
  unit
(** [engine] tags the record with the evaluating engine; it appears as
    [engine=<e>] at the end of the rendered line. *)

(** {1 LSM decisions}

    The filter-backed hooks write one typed kind-3 decision record each
    through the encoder beside the request decoder
    ([Protego_core.Request.sink], over
    {!Protego_journal.Journal.sink_mount} and friends): the task's time,
    pid, real uid and phase, the subject the decision was keyed on, the
    serving engine code, the span id (0 for none), the verdict (0 deny,
    1 allow, 3 recorded), whether record mode was on, and the raw
    arguments.  Nothing is formatted on this path: {!records} and
    {!render} rebuild each record's text — the [mount]/[umount]/[bind]
    line with its [engine=] and [span=] tags, preceded in record mode by
    its [record-<hook>] descriptor line.  A ppp ioctl and a netfilter
    OUTPUT decision leave a record only in record mode, and render as
    their descriptor alone. *)

val decision_nf :
  Ktypes.machine -> Ktypes.task -> engine:int -> span:int -> verdict:int ->
  Protego_net.Packet.t -> Protego_net.Packet.origin -> unit
(** {!Protego_journal.Journal.sink_nf}.  The hook has no calling task,
    so [task] is the kernel task; the record renders as a [record-nf]
    descriptor with [phase=-].  A packet is not a request, so this
    hook keeps its own writer. *)

(** {1 The ring view} *)

val records : Ktypes.machine -> record list
(** Oldest first. *)

val denials : Ktypes.machine -> record list

val by_engine : Ktypes.machine -> string -> record list
(** Records tagged [engine=<e>], oldest first. *)

val clear : Ktypes.machine -> unit
(** Fresh journal; the emit and drop counters restart. *)

val dropped : Ktypes.machine -> int
(** Records emitted but no longer in the ring view — pushed out by the
    {!capacity} bound or overwritten by journal wraparound. *)

val render : Ktypes.machine -> string
(** One line per record, auditd-style, then a
    [type=SUMMARY msg=audit: records=<n> dropped=<n>] line. *)

val capacity : int
(** Ring-view bound (oldest records leave the view beyond it — and are
    counted by {!dropped}). *)
