(* One benchmark run: one workload, one seed, untraced (end-to-end
   metrics) or traced (per-layer metrics).

     suite.exe --workload lsm-hot --seed 42 --seconds 20 --trace 0

   All load comes from this one thread.  The run sets up several times
   (set-up time is a metric), warms up, then measures closed-loop rounds
   of 250 ms with host-speed calibration chunks interleaved (see Meter).
   Every line it prints names a value and its unit; the last line is one
   JSON object with the run's verdict and metrics. *)

let round_ns = 250_000_000
let setups = 11

let workloads = [ "lsm-hot"; "lsm-wide"; "policy-churn"; "plane-storm" ]

(* The gated metrics.  The 99.9th percentile op latency and the 90th
   percentile reload are printed as [detail] lines: their run-to-run
   spreads reached 27% and 13% under heavy host contention. *)
let end_to_end = [ "setup_s"; "ops_per_s"; "op_p50_ns"; "reload_p50_us"; "heap_live_mb" ]

(* The per-layer metrics every workload measures; the workload-specific
   breakdown is printed as [detail] lines. *)
let per_layer =
  [ "trace.ops_per_s"; "trace.op_ns"; "trace.op_p999_ns"; "decision.ns"; "decision.hit_ratio";
    "decision.engine_ratio"; "decision.share"; "lsm.share"; "syscall.share";
    "journal.encode_ns"; "journal.records_per_op"; "journal.bytes_per_record";
    "gc.minor_words_per_op"; "gc.minor_collections_per_kop"; "gc.major_words_per_op";
    "pfm.eval_ns"; "pfm.insns_per_eval"; "policy.parse_ns"; "policy_lint.gate_ns";
    "pfm_compile.compile_ns"; "snapshot.publish_ns"; "additivity.max_err"; "reload.count" ]

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("lsmbench: " ^ msg);
      exit 2)
    fmt

let setup ~workload ~seed ~trace =
  match workload with
  | "lsm-hot" -> Lsm_work.(work (setup ~shape:Hot ~seed ~trace))
  | "lsm-wide" -> Lsm_work.(work (setup ~shape:Wide ~seed ~trace))
  | "policy-churn" -> Lsm_work.(work (setup ~shape:Churn ~seed ~trace))
  | "plane-storm" -> Plane_work.(work (setup ~seed ~trace))
  | w -> die "unknown workload %S (one of %s)" w (String.concat ", " workloads)

(* Set up [setups] times, each from a collected heap; returns each
   set-up's raw ns with the mean of the whole-kernel calibrations either
   side, and the last instance. *)
let timed_setups ~workload ~seed ~trace =
  let samples = ref [] and inst = ref None in
  for _ = 1 to setups do
    inst := None;
    Gc.full_major ();
    let c0 = Meter.calibrate () in
    let t0 = Meter.now () in
    let w = setup ~workload ~seed ~trace in
    let dt = float_of_int (Meter.now () - t0) in
    let c1 = Meter.calibrate () in
    samples := (dt, (c0 +. c1) /. 2.) :: !samples;
    inst := Some w
  done;
  (List.rev !samples, Option.get !inst)

(* How set-up time follows the calibration kernel across the host's speed
   modes: when the slow mode slowed the kernel 1.78x, set-up slowed 1.39x
   (lsm-hot), 1.48x (lsm-wide) and 1.35x (plane-storm), i.e. by the
   kernel's slowdown to the power 0.57, 0.70 and 0.52; its large fresh
   allocations are not CPU-bound.  Scaled by the kernel's whole slowdown,
   a slow-mode set-up read 16-23% low; scaled by its 0.6th power, within
   5%. *)
let setup_elasticity = 0.6

(* Median set-up time in reference seconds. *)
let setup_seconds samples =
  Meter.median
    (List.map
       (fun (dt, c) -> dt *. ((Meter.calib_ref_ns /. c) ** setup_elasticity) /. 1e9)
       samples)

(* Closed loop for [until] ns with a calibration chunk every
   [Meter.chunk_every_ns]: returns ops counted, their wall time (untimed
   [after_op] checks and the chunks excluded), the raw latency histogram
   and the chunks' mean, in whole-kernel ns. *)
let drive (w : Work.t) until =
  let t_prev = ref (Meter.now ()) and ops = ref 0 and wall = ref 0 in
  let r0 = !t_prev in
  let next_chunk = ref r0 and chunks = ref 0. and nchunks = ref 0 in
  let hist = Meter.Hist.create () in
  while !t_prev - r0 < until do
    if !t_prev >= !next_chunk then begin
      chunks := !chunks +. Meter.chunk ();
      incr nchunks;
      t_prev := Meter.now ();
      next_chunk := !t_prev + Meter.chunk_every_ns
    end;
    let lat = w.Work.op () in
    let t1 = Meter.now () in
    wall := !wall + (t1 - !t_prev);
    if not (Float.is_nan lat) then Meter.Hist.add hist lat;
    ops := !ops + w.Work.per_op;
    match w.Work.after_op with
    | None -> t_prev := t1
    | Some f ->
        f ();
        t_prev := Meter.now ()
  done;
  (!ops, !wall, hist, !chunks /. float_of_int !nchunks)

type round = {
  ops : int;
  rate : float;  (* ops/s, reference *)
  raw_rate : float;
  calib : float;  (* the round's chunk mean, whole-kernel ns *)
  reloads : float list;  (* raw ns *)
  minor_collections : int;
  major_words : float;
}

let scale r = Meter.calib_ref_ns /. r.calib

(* One calibrated round of [w], [ns] long; its op latencies go into
   [lat], scaled to reference ns. *)
let round ?(ns = round_ns) ~lat (w : Work.t) =
  let g0 = Gc.quick_stat () in
  let ops, wall, hist, calib = drive w ns in
  let g1 = Gc.quick_stat () in
  w.Work.end_round ();
  let raw_rate = float_of_int ops /. float_of_int wall *. 1e9 in
  let r =
    { ops; rate = raw_rate *. calib /. Meter.calib_ref_ns; raw_rate; calib;
      reloads = w.Work.take_reloads ();
      minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
      major_words = g1.Gc.major_words -. g0.Gc.major_words }
  in
  Meter.Hist.add_scaled lat hist (scale r);
  r

(* Workloads without admin writes of their own measure reload latency
   with a short round of admin writes after each measured round.  Spread
   over the whole run, the writes meet the same mix of host speed modes
   as the ops: a 512-rule reload calibrates ~10% apart in the two modes,
   so writes bunched in one stretch of the run would report its mode. *)
let probe_round_ns = 50_000_000

(* Op latency percentiles are taken per window of [n / windows] rounds,
   and the run reports their median over windows.  A window, not a round:
   a plane-storm round holds only 1-2k ops, too few for its own 99.9th
   percentile.  A median over windows, not one pool for the run: in some
   plane-storm runs a stretch of host contention the calibration did not
   see (memory-bound slices slow, the kernel does not) put enough slow
   slices in the pool to move its 99.9th percentile 10x. *)
let windows = 10

type window = { p50 : float; p999 : float; samples : int }

(* Warm up, then [n] measured rounds, each followed, with [probe], by a
   probe-write round.  Returns both lists of rounds, in order, and the
   windows' op latency percentiles in reference ns. *)
let measure (w : Work.t) ~warmup_ns ~n ~probe =
  ignore (drive w warmup_ns);
  w.Work.end_round ();
  ignore (w.Work.take_reloads ());
  w.Work.trace_round ~scale:None;
  let probe_w =
    match w.Work.probe_reload with
    | Some write when probe ->
        Some { w with Work.op = (fun () -> write (); nan); per_op = 1; after_op = None }
    | _ -> None
  in
  let lat = Meter.Hist.create () and per_window = max 1 (n / windows) in
  let rounds = ref [] and probes = ref [] and wins = ref [] in
  for i = 1 to n do
    let r = round ~lat w in
    w.Work.trace_round ~scale:(Some (scale r));
    rounds := r :: !rounds;
    Option.iter (fun pw -> probes := round ~ns:probe_round_ns ~lat pw :: !probes) probe_w;
    if i mod per_window = 0 then begin
      wins :=
        { p50 = Meter.Hist.quantile lat 0.5; p999 = Meter.Hist.quantile lat 0.999;
          samples = lat.Meter.Hist.n }
        :: !wins;
      Meter.Hist.clear lat
    end
  done;
  (List.rev !rounds, List.rev !probes, List.rev !wins)

(* A percentile of every reload of [rounds], each scaled by its round's
   calibration.  Pooled, not a median over rounds: a probe round holds
   only a few writes of a 512-rule policy. *)
let reload_percentile rounds p =
  Meter.percentile (List.concat_map (fun r -> List.map (fun x -> x *. scale r) r.reloads) rounds) p

let json_number v = Printf.sprintf "%.17g" v

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 20. and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics") ]
    (fun a -> die "unexpected argument %S" a)
    "suite.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then
    die "--workload must be one of %s" (String.concat ", " workloads);
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  let traced = !trace = 1 in
  (* Pin the modelled user/kernel mode-switch cost, so a change to the
     simulator's default moves the cost model, not this benchmark. *)
  Protego_kernel.Syscall.set_trap_iterations 400;
  let setup_samples, w = timed_setups ~workload:!workload ~seed:!seed ~trace:traced in
  let measure_ns = int_of_float (!seconds *. 1e9) in
  let warmup_ns = if !seconds >= 5. then 2_000_000_000 else measure_ns * 3 / 10 in
  let rounds, probes, wins =
    measure w ~warmup_ns ~n:(max 1 (measure_ns / round_ns)) ~probe:(not traced)
  in
  let reload_rounds = if probes = [] then rounds else probes in
  let rate = Meter.median (List.map (fun r -> r.rate) rounds) in
  let op_p50 = Meter.median (List.map (fun x -> x.p50) wins) in
  let op_p999 = Meter.median (List.map (fun x -> x.p999) wins) in
  let reload_p50 = reload_percentile reload_rounds 50. in
  let reload_p90 = reload_percentile reload_rounds 90. in
  let reload_samples = List.fold_left (fun acc r -> acc + List.length r.reloads) 0 reload_rounds in
  (* Live heap after the run: what the program keeps (caches, journals,
     snapshot history).  The peak heap size would follow the GC's growth
     steps, which land ~25% apart from run to run. *)
  Gc.full_major ();
  let heap_mb = float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6 in
  let wanted, all =
    if not traced then
      ( end_to_end,
        [ ("setup_s", setup_seconds setup_samples, "s");
          ("ops_per_s", rate, "ops/s");
          ("op_p50_ns", op_p50, "ns");
          ("op_p999_ns", op_p999, "ns");
          ("reload_p50_us", reload_p50 /. 1e3, "us");
          ("reload_p90_us", reload_p90 /. 1e3, "us");
          ("heap_live_mb", heap_mb, "MB") ] )
    else
      let sum f = List.fold_left (fun acc r -> acc +. f r) 0. rounds in
      let ops = sum (fun r -> float_of_int r.ops) in
      ( per_layer,
        w.Work.layers ()
        @ [ ("trace.ops_per_s", rate, "ops/s");
            ("trace.op_p999_ns", op_p999, "ns");
            ("gc.minor_collections_per_kop",
             Work.ratio (sum (fun r -> float_of_int r.minor_collections)) (ops /. 1e3), "count");
            ("gc.major_words_per_op", Work.ratio (sum (fun r -> r.major_words)) ops, "words");
            ("reload.count", sum (fun r -> float_of_int (List.length r.reloads)), "count") ] )
  in
  List.iter
    (fun (name, v, u) ->
      if not (List.mem name wanted) then Printf.printf "detail %s %s %s\n" name (json_number v) u)
    all;
  let metrics =
    List.map
      (fun name ->
        match List.find_opt (fun (n, _, _) -> n = name) all with
        | Some m -> m
        | None -> die "metric %s was not measured" name)
      wanted
  in
  Printf.printf "env workload %s\nenv seed %d\nenv seconds %g\nenv trace %d\n" !workload !seed
    !seconds !trace;
  Printf.printf "env ocaml_version %s\nenv recommended_domain_count %d\n" Sys.ocaml_version
    (Domain.recommended_domain_count ());
  Printf.printf "env trap_iterations 400\nenv calib_ref_ns %s\n" (json_number Meter.calib_ref_ns);
  let csv f l = String.concat "," (List.map (fun x -> Printf.sprintf "%.0f" (f x)) l) in
  Printf.printf "env setup_raw_ms %s\nenv setup_calib_ns %s\n"
    (csv (fun (dt, _) -> dt /. 1e6) setup_samples) (csv snd setup_samples);
  Printf.printf "env calib_ns %s\nenv round_raw_ops_per_s %s\nenv round_ops_per_s %s\n"
    (csv (fun r -> r.calib) rounds) (csv (fun r -> r.raw_rate) rounds) (csv (fun r -> r.rate) rounds);
  if probes <> [] then Printf.printf "env probe_calib_ns %s\n" (csv (fun r -> r.calib) probes);
  Printf.printf "env window_op_samples %s\nenv window_p50_ns %s\nenv window_p999_ns %s\n"
    (csv (fun x -> float_of_int x.samples) wins) (csv (fun x -> x.p50) wins) (csv (fun x -> x.p999) wins);
  Printf.printf "env rounds %d\nenv reload_samples %d\n" (List.length rounds) reload_samples;
  List.iter
    (fun (name, v, u) ->
      if not (Float.is_finite v) then die "metric %s was not measured" name;
      Printf.printf "metric %s %s %s\n" name (json_number v) u)
    metrics;
  let attempted = w.Work.attempted () and failed = w.Work.failed () in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0 && attempted > 0) attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, u) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) u)
          metrics))
