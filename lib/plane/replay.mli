(** Total-order journal replay: re-execute journaled decisions against
    the epoch-stamped snapshots that served them and diff the outcome
    record-for-record.

    A journal {!Protego_journal.Journal.decision} carries everything a
    re-evaluation needs: the request arguments, the subject, and the
    epoch of the snapshot that produced the verdict.  Replay looks each
    epoch up in the plane's publication history
    ({!Snapshot.at_epoch}), evaluates the reference oracle of the
    matching hook, and compares verdict and errno to what the journal
    recorded.  Any mismatch means either a torn record the commit
    protocol failed to suppress, a decision served against a snapshot
    other than the one it stamped, or an engine/oracle divergence —
    all reportable, none silently absorbed. *)

module J = Protego_journal.Journal

type mismatch = {
  mm_seq : int;        (** submission index of the divergent record *)
  mm_field : string;   (** ["verdict"], ["errno"], ["request"] (nf) *)
  mm_expected : string;
  mm_got : string;
}

type report = {
  rp_total : int;      (** decisions replayed *)
  rp_matched : int;    (** decisions whose verdict and errno both matched *)
  rp_mismatches : mismatch list;  (** submission order *)
  rp_missing_epochs : int list;
      (** epochs stamped in the journal but absent from the snapshot
          history — their records are skipped, not counted as matched *)
}

val replay :
  snapshot_of_epoch:(int -> Snapshot.t option) -> J.decision array -> report
(** Re-evaluate every decision against the snapshot its epoch stamp
    names: the record decodes with {!Protego_core.Request.of_journal},
    and {!Protego_core.Request.expected} over the snapshot's frozen
    state, under the record's phase, gives the verdict and errno it
    must carry (a record-mode record, verdict 3, matches a reference
    denial with no errno).  An LSM nf record, which decodes to no
    request, is a ["request"] mismatch. *)

val replay_run : Plane.t -> run:int -> count:int -> report
(** Stitch run [run] ([count] requests) out of the plane's journal and
    {!replay} it against the plane's snapshot history.  Raises
    [Failure] if the stitch finds missing or duplicated records. *)

val render : report -> string
(** Human-readable summary: one header line, then one line per mismatch
    and per missing epoch. *)
