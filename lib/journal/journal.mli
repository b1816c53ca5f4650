(** Lock-free append-only binary audit journal.

    An Aeron-style log over a fixed ring of power-of-two [Bytes]
    segments.  Writers never lock and never allocate on the hot path:
    each writer holds a {e term}, claims whole segments from the shared
    logical tail with a single [Atomic.fetch_and_add], and bump-allocates
    records inside its current segment with plain (domain-private)
    arithmetic — so the common-case append touches no shared state at
    all.  A record becomes visible by {e commit}: the body is filled
    first, then a one-word length-prefix header is written over the
    record's first four bytes.  Readers treat a zero/invalid header as
    the in-flight tail of that segment and stop scanning it, so they can
    never observe a torn record (binary format and the memory-model
    argument: DESIGN.md §8).

    The logical tail grows forever; physical segment [l mod segments]
    backs logical segment [l].  Once the tail passes [capacity], the
    oldest segments are overwritten ({e laps}); records written minus
    records still decodable is the journal's drop count, surfaced by
    {!dropped} and in {!render_stats}.

    Three record kinds share the store (layouts: DESIGN.md §8):

    {v
    kind  written by                      decodes to
    1     a Plane worker, per request     Decision (d_lsm = None)
    2     Audit.emit, per kernel event    Kaudit
    3     an LSM hook, per decided        Decision (d_lsm = Some _),
          mount / umount / bind, and per  run lsm_run, the sink's seq
          ppp ioctl and nf decision
          in record mode
    v}

    Reqtags: 0 mount, 1 umount, 2 bind, 3 ppp, 4 nf (kind 3 only).

    Plane decision records are stamped with run / submission sequence /
    snapshot epoch / serving phase; the first three are what let
    {!stitch} rebuild one total submission order from per-domain terms
    without any merge barrier.  LSM decision records carry the request's
    raw arguments and fixed fields only; the [Audit] ring view rebuilds
    their audit text on read. *)

type t
type term

val create : ?seg_bytes:int -> ?segments:int -> unit -> t
(** [seg_bytes] (default 65536) and [segments] (default 16) must both be
    powers of two; [seg_bytes >= 4096].  Raises [Invalid_argument]
    otherwise.  Segments are zeroed at creation (and re-zeroed by their
    owning term on every wrap lap), so a reader can always distinguish
    committed records from virgin space. *)

val seg_bytes : t -> int
val segments : t -> int

val capacity : t -> int
(** [seg_bytes * segments]: bytes of live window. *)

val tail : t -> int
(** Logical bytes claimed so far (a multiple of [seg_bytes]). *)

val term : t -> domain:int -> term
(** A writer handle for one domain.  Terms must not be shared between
    domains.  Each active term owns one whole segment at a time, so a
    journal serves at most [segments] concurrent terms: registering
    more raises [Invalid_argument] ({!retire} frees a slot).  A term
    lagging a full capacity lap behind the shared tail is a {e writer
    overrun}: the overrunning claim raises [Failure] rather than
    zero-filling the laggard's live segment under it. *)

val retire : term -> unit
(** Deregister a term: pad out the unwritten remainder of its active
    segment, release the segment, and fold the term's counters into the
    journal-wide totals ({!records_written}, {!stats}).  Idempotent; the
    term must not be used afterwards. *)

(** {1 Zero-allocation appenders}

    Each appender claims space in the term's current segment (claiming a
    fresh segment — and padding out the remainder — when the record does
    not fit), writes fixed-width fields and length-prefixed inline
    strings directly into the store, and commits.  Strings are truncated
    to 255 bytes.  No OCaml heap allocation occurs.

    Decision fields: [verdict] is 0 deny / 1 allow / 2 reject / 3
    recorded; [errno] is 0 for none, else {!Protego_base.Errno.to_code};
    [phase] is the {!Protego_base.Phase.index} the decision was served
    under; [flags] is the compiled mount-flag mask; [proto] is 0 tcp /
    1 udp. *)

val append_mount :
  term -> seq:int -> run:int -> epoch:int -> phase:int -> subject:int ->
  verdict:int -> errno:int -> source:string -> target:string ->
  fstype:string -> flags:int -> unit

val append_umount :
  term -> seq:int -> run:int -> epoch:int -> phase:int -> subject:int ->
  verdict:int -> errno:int -> target:string -> mounted_by:int -> unit

val append_bind :
  term -> seq:int -> run:int -> epoch:int -> phase:int -> subject:int ->
  verdict:int -> errno:int -> port:int -> proto:int -> exe:string -> unit

val append_ppp :
  term -> seq:int -> run:int -> epoch:int -> phase:int -> subject:int ->
  verdict:int -> errno:int -> device:string -> safe:bool -> unit

val append_kaudit :
  term -> time:float -> pid:int -> uid:int -> op:string -> obj:string ->
  allowed:bool -> engine:string option -> span:int option -> unit
(** Kernel audit record ({!Protego_kernel.Audit} storage).  [engine] is
    encoded as an inline string, [""] meaning [None]. *)

(** {1 LSM decision records}

    Written by the kernel audit sink's appenders ({!sink_mount} and
    friends below).  [engine] is what served the decision: *)

val engine_cache : int
val engine_pfm : int
val engine_ref : int

val engine_name : int -> string
(** ["cache"], ["pfm"] or ["ref"] for the three engine codes. *)

val lsm_run : int
(** The run every LSM decision record decodes with (0); its [d_seq] is
    the sink's own count, contiguous from 0 since the sink was created
    or last cleared. *)

(** {1 Decoding} *)

(** Who built a packet's headers: the kernel stack or a raw/packet socket. *)
type nf_origin = [ `Kernel | `Raw | `Packet ]

type req =
  | Mount of { source : string; target : string; fstype : string; flags : int }
  | Umount of { target : string; mounted_by : int }
  | Bind of { port : int; proto : int; exe : string }
  | Ppp of { device : string; safe : bool }
  | Nf of { origin : nf_origin; proto : Protego_net.Packet.proto;
            dst : Protego_net.Ipaddr.t; dport : int option;
            icmp : Protego_net.Packet.icmp_type option }
      (** LSM only; [d_subject] is the origin's uid (0: kernel stack) *)

(** The LSM-origin fields of a kind-3 record. *)
type lsm = {
  l_time : float;      (** machine clock at the decision *)
  l_pid : int;
  l_uid : int;         (** real uid of the calling task *)
  l_engine : int;      (** {!engine_cache}, {!engine_pfm} or {!engine_ref} *)
  l_span : int option; (** trace span id, when spans were on *)
  l_record : bool;     (** record mode was on *)
  l_flags : int list;
      (** mount only: the request's flag codes in the caller's order
          (repeats kept; [d_req]'s mask is their union); [] otherwise *)
}

type decision = {
  d_seq : int;
  d_run : int;
  d_epoch : int;   (** snapshot epoch; 0 on an LSM record *)
  d_domain : int;  (** plane worker; 0 on an LSM record *)
  d_subject : int;
  d_verdict : int;
  d_errno : int;   (** on an LSM record, derived from the verdict and hook *)
  d_phase : int;  (** {!Protego_base.Phase.index} it was served under *)
  d_req : req;
  d_lsm : lsm option;  (** [Some] exactly for a kind-3 (LSM) record *)
}

type kaudit = {
  k_time : float;
  k_pid : int;
  k_uid : int;
  k_allowed : bool;
  k_op : string;
  k_obj : string;
  k_engine : string option;
  k_span : int option;
}

type entry = Decision of decision | Kaudit of kaudit

val iter : t -> (entry -> unit) -> unit
(** Committed records of the live window, oldest claimed segment first,
    in-segment order.  Within one segment this is that term's append
    order; across segments it is claim order.  Scanning a segment stops
    at the first uncommitted or invalid header (the in-flight tail); a
    concurrent writer's unfinished records are simply not yet visible.
    Intended for quiescent reads (after a run, or [Domain.join]);
    mid-run reads are best-effort. *)

val entries : t -> entry list
val decisions : t -> decision list

val records_written : t -> int
(** Total committed records over all terms (active and retired) since
    creation, padding records excluded — including those already
    overwritten by laps. *)

val live_entries : t -> int
(** Records currently decodable ({!iter} count). *)

val dropped : t -> int
(** [records_written - live_entries]: records lost to wraparound. *)

type stats = {
  s_seg_bytes : int;
  s_segments : int;
  s_capacity : int;
  s_tail : int;
  s_laps : int;       (** completed capacity wraps of the logical tail *)
  s_terms : int;      (** active terms; retired terms' counters stay folded
                          into [s_records]/[s_bytes]/[s_padding] *)
  s_records : int;    (** committed records, padding excluded *)
  s_bytes : int;      (** committed record bytes, padding included *)
  s_padding : int;    (** padding records written at segment ends *)
  s_live : int;
  s_dropped : int;
}

val stats : t -> stats

val render_stats : t -> string
(** Two ["journal ..."] key/value lines, one field layout forever. *)

val stitch :
  t -> run:int -> base:int -> count:int -> (decision array, string) result
(** Reconstruct the total submission order of one plane run: collect the
    live decisions stamped [run] with [base <= d_seq < base + count] and
    place each at index [d_seq - base].  Errors on a duplicate sequence
    number or on any missing (lost) record — the zero-lost,
    zero-duplicated guarantee is checked, not assumed. *)

val phase_name : decision -> string
(** The serving phase's name; ["-"] on an nf record (packets have none). *)

val entry_to_string : entry -> string
(** One-line rendering for the CLI ([protego-journal dump]). *)

val proto_name : int -> string
(** ["tcp"] for 0, ["udp"] otherwise. *)

val origin_name : nf_origin -> string
(** ["kernel"], ["raw"] or ["packet"]. *)

val nf_fields :
  origin:nf_origin -> proto:Protego_net.Packet.proto ->
  dst:Protego_net.Ipaddr.t -> dport:int option ->
  icmp:Protego_net.Packet.icmp_type option -> string
(** ["proto=P dst=A dport=N|- origin=O icmp=T|-"], as in [record-nf]. *)

val verdict_name : int -> string
(** ["deny"], ["allow"], ["reject"] or ["recorded"] for codes 0-3. *)

val errno_name : int -> string
(** The errno's name, or ["-"] for 0 (no errno). *)

(** {1 Persistence} *)

val save : t -> string -> unit
(** Write the whole store (the [PJRNL2] magic, header, term counters,
    raw segments) to a file; the format is what {!load} and the
    [protego-journal] CLI read. *)

val load : string -> (t, string) result
(** Read an image written by {!save}.  Only the [PJRNL2] record layout
    is accepted; an image of another version, a malformed header, a
    truncated file, or any committed record that does not decode (an
    unknown kind or reqtag, a string past the record end, an
    out-of-range verdict, proto, ppp safety bit, phase or kaudit
    allowed bit; on an LSM record also an engine code, mode byte or
    flag code out of range, a verdict that contradicts the record-mode
    bit, a ppp or nf record outside record mode, or an nf origin,
    proto code, dport flag or ICMP type code out of range) is an
    [Error].  On [Ok],
    {!iter}, {!entries} and {!stitch} cannot raise on the image's
    records. *)

(** {1 Test hooks}

    The torn-record suites need to place a claim without committing it. *)

val unsafe_claim : term -> int -> int
(** Claim [len] bytes (8-aligned, min 8) in the term's current segment
    without writing anything; returns the logical offset.  The region
    stays invisible to readers until {!commit}. *)

val commit : t -> at:int -> len:int -> padding:bool -> unit
(** Write the header word for a claim obtained from {!unsafe_claim}. *)

(** {1 Kernel audit sink}

    A journal, one term, and two counters bundled for
    {!Protego_kernel.Ktypes.machine} (which cannot depend on the kernel
    [Audit] module's own types). *)

type sink = {
  mutable sk_journal : t;
  mutable sk_term : term;
  mutable sk_emitted : int;
      (** audit-view records emitted: one per kaudit record, one per LSM
          record, plus one more for a record-mode mount, umount or bind
          (its [record-<hook>] line) *)
  mutable sk_seq : int;  (** the next LSM record's [d_seq] *)
}

val sink : ?seg_bytes:int -> ?segments:int -> unit -> sink
val sink_emit :
  sink -> time:float -> pid:int -> uid:int -> op:string -> obj:string ->
  allowed:bool -> engine:string option -> span:int option -> unit

(** The LSM decision appenders.  Each writes one kind-3 record with the
    next seq and counts it in [sk_emitted] as above; like every
    appender they allocate nothing.  [verdict] is 0 deny, 1 allow or 3
    recorded; [record] says record mode was on; [span] is 0 for none;
    [phase] and [engine] as in {!lsm}.  The ppp and nf records are
    written only in record mode, so they take no [record]. *)

val sink_mount :
  sink -> time:float -> pid:int -> uid:int -> subject:int -> phase:int ->
  engine:int -> span:int -> verdict:int -> record:bool -> source:string ->
  target:string -> fstype:string -> flags:'f list -> flag_code:('f -> int) ->
  unit
(** [flag_code] maps each flag to its code, 0..15, the bit it sets in
    the decoded mask. *)

val sink_umount :
  sink -> time:float -> pid:int -> uid:int -> subject:int -> phase:int ->
  engine:int -> span:int -> verdict:int -> record:bool -> target:string ->
  mounted_by:int -> unit

val sink_bind :
  sink -> time:float -> pid:int -> uid:int -> subject:int -> phase:int ->
  engine:int -> span:int -> verdict:int -> record:bool -> port:int ->
  proto:int -> exe:string -> unit

val sink_ppp :
  sink -> time:float -> pid:int -> uid:int -> subject:int -> phase:int ->
  engine:int -> span:int -> verdict:int -> device:string -> safe:bool -> unit

val sink_nf :
  sink -> time:float -> pid:int -> uid:int -> engine:int -> span:int ->
  verdict:int -> Protego_net.Packet.t -> Protego_net.Packet.origin -> unit
(** Reqtag 4, a netfilter OUTPUT decision: the packet's origin, protocol,
    destination, destination port and ICMP type (the port and an other
    protocol's number stored as 16 bits); the subject is the origin's
    uid (0 for the kernel stack) and the phase 0. *)

val sink_clear : ?seg_bytes:int -> ?segments:int -> sink -> unit
(** Fresh journal and term, of the given geometry (default: the current
    one); both counters restart at zero. *)
