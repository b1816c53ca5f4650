(** Decision tracing and latency histograms for the filtered hooks.

    Two instruments, one per question:

    - {b Latency histograms} answer "where does a decision spend its
      time, statistically?".  Every (hook, engine) pair the dispatcher
      registers owns a log₂-bucketed histogram of per-decision latency;
      p50/p90/p99 are derived on read.  There is no user-facing toggle —
      histograms are always on — but they only see decisions while the
      tracer is {e armed} (a clock source is installed, or spans are
      on).  The stock simulator image has no nanosecond clock, so its
      hot path stays uninstrumented until a harness installs one with
      {!set_clock}; the bench and the tests do.

    - {b Spans} answer "what happened on {e this} decision?".  When
      enabled (opt-in, off by default), each decision records a span —
      hook, serving engine, verdict, errno, generation and epoch
      stamps, and per-stage marks ([slot], [table], [engine]; a rung
      the hook lacks is marked zero-width, see {!Decider.decide})
      — into a fixed-capacity ring buffer, and the decision's audit
      record carries the span id.

    Both are exposed through /proc/protego: [latency] (render +
    ["reset"]) and [trace] (render, ["on"], ["off"], ["reset"],
    ["capacity <n>"]).  Rationale for the asymmetry in DESIGN.md §5e. *)

module Pfm = Protego_filter.Pfm

type t

val create : ?span_capacity:int -> unit -> t
(** Unarmed (null clock), spans off, empty ring ({!default_span_capacity}
    slots), zeroed histograms. *)

val default_span_capacity : int
(** 256 spans. *)

val max_span_capacity : int
(** 65,536: the largest ring a [capacity] write may ask for. *)

(** {1 Clock}

    The tracer reads time through a pluggable nanosecond clock.  The
    default is the {e null clock} ([fun () -> 0]): with it the tracer is
    unarmed and the dispatcher skips instrumentation entirely, so an
    image that never installs a clock pays only a couple of loads and a
    predictable branch per decision. *)

val set_clock : t -> (unit -> int) -> unit
(** Install a monotonic nanosecond clock and arm the tracer. *)

val now : t -> int
(** Read the installed clock (0 under the null clock). *)

val armed : t -> bool
(** A real clock is installed, or spans are on.  The dispatcher's
    per-decision gate: nothing below is consulted while unarmed. *)

val on_arm : t -> (bool -> unit) -> unit
(** Register the single armed-state listener (replacing any previous
    one) and invoke it immediately with the current state.  The
    dispatcher mirrors the flag into its own record so the per-decision
    gate reads an already-hot cache line. *)

(** {1 Latency histograms} *)

type key = private {
  k_hook : string;
  k_engine : string;                (** ["cache"], ["pfm"] or ["ref"] *)
  k_buckets : int array;            (** [bucket_count] log₂ buckets *)
  mutable k_count : int;
  mutable k_max : int;              (** largest observed latency, ns *)
}
(** One histogram.  Obtain via {!register}; the dispatcher keeps the
    record so the hot path never resolves a series by name. *)

val bucket_count : int
(** 63: enough for any OCaml int latency. *)

val bucket_index : int -> int
(** [bucket_index ns]: 0 for [ns <= 0]; otherwise bucket [i >= 1] holds
    latencies in [2{^i-1} .. 2{^i}-1] ns (clamped to the top bucket). *)

val bucket_upper : int -> int
(** Upper bound of a bucket, the value percentiles report: 0 for bucket
    0, [2{^i}-1] otherwise (the top bucket reports [max_int]). *)

val register : t -> hook:string -> engine:string -> key
(** Idempotent per (hook, engine); registration order fixes the order of
    lines in {!render_latency}. *)

val observe : key -> ns:int -> unit
(** Count one decision latency. *)

val keys : t -> key list
(** Registration order. *)

val buckets : key -> int array
(** A copy of the bucket counts, for tests and reports. *)

val percentile : key -> pct:int -> int
(** [percentile k ~pct] for [pct] in [1..100]: the {!bucket_upper} of
    the bucket containing the [ceil (count * pct / 100)]-th smallest
    observed latency; 0 when the histogram is empty. *)

val sum : hook:string -> engine:string -> key list -> key
(** A fresh, unregistered histogram holding the bucket-wise sum of
    [keys] (counts added, maximum of the maxima) — how per-worker
    histograms of one series merge before a {!percentile} walk. *)

val reset_latency : t -> unit
(** Zero every histogram (buckets, counts, maxima); keys survive. *)

(** {1 Spans} *)

type span = {
  sp_id : int;                      (** unique, monotonic, never reused *)
  sp_hook : string;
  sp_engine : string;               (** what served the decision *)
  sp_verdict : Pfm.verdict;
  sp_errno : Protego_base.Errno.t option;
  sp_gen : int;                     (** generation stamp of the decision *)
  sp_epoch : int;  (** epoch of the hook's table; 0 without one *)
  sp_start : int;                   (** clock value at decision entry *)
  sp_ns : int;                      (** total latency *)
  sp_stages : (string * int) list;
      (** (stage, offset from [sp_start]) pairs in execution order:
          ["slot"], ["table"], ["engine"] — present as far as the
          decision got (a table hit has no ["engine"]).  A rung the
          hook lacks is marked at offset 0. *)
}

val spans_enabled : t -> bool
val set_spans : t -> bool -> unit
(** Enabling spans arms the tracer even under the null clock (offsets
    then read 0 but ordering and metadata remain). *)

val span_capacity : t -> int
val set_span_capacity : t -> int -> unit
(** Reallocate the ring (existing spans are dropped; ids keep
    counting).  Clamped to [1..max_span_capacity]. *)

val record_span :
  t -> hook:string -> engine:string -> verdict:Pfm.verdict ->
  errno:Protego_base.Errno.t option -> gen:int -> epoch:int ->
  start:int -> finish:int -> stages:(string * int) list -> int option
(** [Some id] when spans are on (overwriting the oldest span once the
    ring is full); [None] — and no work — when off. *)

val spans : t -> span list
(** Oldest first; at most {!span_capacity} of them. *)

val reset_spans : t -> unit
(** Drop every span.  Ids are {e not} reset: a span id in an audit
    record stays unambiguous across resets. *)

(** {1 /proc/protego/trace} *)

val render_trace : t -> string
(** {v
    trace <on|off> capacity <n> spans <n> next <id>
    span <id> hook <h> engine <e> verdict <v> errno <E|-> gen <g> epoch <ep> start <t> ns <n> stages <s>+<off>[,...]|-
    v}
    spans oldest first. *)

val handle_trace_write : t -> string -> (unit, string) result
(** ["on"], ["off"], ["reset"], ["capacity <n>"] with [n] in
    [1..max_span_capacity]; anything else errors (EINVAL from the /proc
    handler). *)

(** {1 /proc/protego/latency} *)

val render_latency : t -> string
(** {v
    latency series <n> buckets log2
    hook <h> engine <e> count <n> p50 <ns> p90 <ns> p99 <ns> max <ns>
    v}
    one line per registered (hook, engine), registration order. *)

val handle_latency_write : t -> string -> (unit, string) result
(** ["reset"]; anything else errors. *)
