(** The machine-readable bench report ([BENCH_protego.json]).

    [bench/main.exe --json] emits one of these; [bin/bench_gate.exe]
    validates it structurally and compares it against the committed
    [bench/baseline.json].  The schema is versioned so the gate can
    refuse a report it does not understand instead of silently passing.

    Shape (schema version 1):
    {v
    { "schema_version": 1,
      "tool": "protego-bench",
      "environment": { "ocaml_version": "5.1.1",
                       "recommended_domain_count": "8", ... },
      "scenarios": [ { "name": "filter:mount",
                       "metrics": { "ref_ns": 410.2, "pfm_ns": 217.8,
                                    "speedup": 1.88 } }, ... ],
      "latency":   [ { "hook": "mount", "engine": "cache", "count": 4096,
                       "p50_ns": 15, "p90_ns": 31, "p99_ns": 63,
                       "max_ns": 180 }, ... ],
      "cache":     { "hits": 4095, "misses": 1, "hit_ratio": 0.9997,
                     "stale_evictions": 0, "capacity_evictions": 0 } }
    v}
    Metric names ending in [_ns] are per-operation latencies in
    nanoseconds — the regression gate compares exactly those; ratios
    ([speedup], [hit_ratio]) and counts are informational. *)

type scenario = {
  sc_name : string;                   (** e.g. ["filter:mount"], ["cache:nf_output"] *)
  sc_metrics : (string * float) list; (** name -> value; [*_ns] are gated *)
}

type latency_row = {
  lt_hook : string;
  lt_engine : string;
  lt_count : int;
  lt_p50 : int;
  lt_p90 : int;
  lt_p99 : int;
  lt_max : int;
}

type cache_stats = {
  cs_hits : int;
  cs_misses : int;
  cs_hit_ratio : float;               (** hits / lookups; 0 when no lookups *)
  cs_stale : int;
  cs_capacity : int;
}

type t = {
  scenarios : scenario list;
  latency : latency_row list;
  cache : cache_stats;
  environment : (string * string) list;
      (** free-form provenance for the run ([ocaml_version],
          [recommended_domain_count], plane domain counts, ...);
          informational — never gated, optional on read (reports
          predating the key load as [[]]) *)
}

val to_json : t -> Json.t

val validate : t -> (unit, string list) result
(** The structural assertions CI runs on a freshly generated report:
    at least one scenario; every metric finite and non-negative; every
    [*_ns] metric strictly positive; latency rows non-empty with
    positive counts and [p50 <= p90 <= p99 <= max]; cache hit ratio in
    [0..1]. *)

val compare_baseline :
  current:t -> baseline:t -> tolerance:float -> (unit, string list) result
(** The regression gate: every [*_ns] metric in [baseline] must exist
    in [current] and satisfy [current <= tolerance * baseline].
    Metrics absent from the baseline (new scenarios) pass — the
    baseline ratchets forward when it is regenerated, not here. *)

val load_file : string -> (t, string) result
(** Read, parse and shape-check a report (schema version, required
    keys, field types); {!validate} adds the semantic checks. *)
