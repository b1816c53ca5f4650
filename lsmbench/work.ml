(* What the round loop in [Suite] needs from a workload, plus the helpers
   the workloads share. *)

type t = {
  op : unit -> float;
      (** Run one op: its timed latency in raw ns per counted op, or [nan]
          when the op produced no sample (it raised). *)
  per_op : int;  (** ops counted per call of [op] *)
  after_op : (unit -> unit) option;
      (** Untimed correctness check after each op, outside the round's
          counted time. *)
  end_round : unit -> unit;
      (** Correctness checks and housekeeping after a round, untimed. *)
  take_reloads : unit -> float list;
      (** Raw ns of the policy reloads made since the last call. *)
  probe_reload : (unit -> unit) option;
      (** Workloads without reloads of their own: one admin write, made
          in short rounds between the measured rounds, so every workload
          reports reload latency on its own policy.  Its latency goes to
          [take_reloads]. *)
  attempted : unit -> int;
  failed : unit -> int;
  trace_round : scale:float option -> unit;
      (** Traced runs: fold the round's spans into the run's totals,
          scaled to reference ns, or discard them ([None], the
          warm-up). *)
  layers : unit -> (string * float * string) list;
      (** Traced runs: per-layer metrics (name, value, unit), times in
          reference ns. *)
}

(* copy_from_user: every call hands the kernel freshly allocated argument
   strings, as a real syscall's copy-in does. *)
let fresh s = String.sub s 0 (String.length s)

let matches (expect : Protego_base.Errno.t option) (r : (_, Protego_base.Errno.t) result) =
  match (expect, r) with
  | None, Ok _ -> true
  | Some e, Error e' -> e = e'
  | None, Error _ | Some _, Ok _ -> false

(* Zipf(s) over ranks 0..n-1: CDF plus binary search. *)
let zipf_cdf n s =
  let w = Array.init n (fun r -> 1. /. (float_of_int (r + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_draw cdf rng =
  let u = Protego_workload.Prng.float rng in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* Mean ns of [f] over repeated calls for 20 ms (at least three calls),
   scaled to reference ns by a calibration taken just before. *)
let time_offline f =
  let scale = Meter.calib_ref_ns /. Meter.calibrate () in
  let t0 = Meter.now () in
  let n = ref 0 in
  while !n < 3 || Meter.now () - t0 < 20_000_000 do
    f ();
    incr n
  done;
  float_of_int (Meter.now () - t0) /. float_of_int !n *. scale

let ratio a b = if b = 0. then 0. else a /. b

module PS = Protego_core.Policy_state
module PD = Protego_core.Pfm_dispatch
module Pfm = Protego_filter.Pfm
module Compile = Protego_filter.Pfm_compile

(* The compiled engine on a workload's own requests: each (program,
   context) pair evaluated outside the ladder.  Reference ns and
   instructions retired, per evaluation. *)
let engine_cost (ctxs : (Pfm.program * Pfm.ctx) array) =
  let evals = ref 0 and insns = ref 0 in
  let pass () =
    Array.iter
      (fun ((p : Pfm.program), c) ->
        let r0 = p.Pfm.retired in
        ignore (Pfm.eval p c);
        insns := !insns + (p.Pfm.retired - r0))
      ctxs;
    evals := !evals + Array.length ctxs
  in
  let per_pass = time_offline pass in
  [ ("pfm.eval_ns", per_pass /. float_of_int (Array.length ctxs), "ns");
    ("pfm.insns_per_eval", ratio (float_of_int !insns) (float_of_int !evals), "count") ]

(* The reload pipeline's stages on the workload's current policy: parse
   the mount whitelist and bind map texts, the load-time lint gate,
   compile the mount/umount/bind programs, publish a plane snapshot. *)
let reload_stages ?chains dispatcher (st : PS.t) publish =
  let mount_text = PS.mounts_to_string st.PS.mounts in
  let bind_text = Protego_policy.Bindconf.to_string st.PS.binds in
  let rules =
    List.map
      (fun (r : PS.mount_rule) ->
        { Compile.fm_source = r.PS.mr_source; fm_target = r.PS.mr_target;
          fm_fstype = r.PS.mr_fstype; fm_flags = r.PS.mr_flags;
          fm_user_only = r.PS.mr_mode = `User; fm_phase = r.PS.mr_phase })
      st.PS.mounts
  in
  [ ("policy.parse_ns",
     time_offline (fun () ->
         ignore (PS.parse_mounts mount_text);
         ignore (Protego_policy.Bindconf.parse bind_text)), "ns");
    ("policy_lint.gate_ns",
     time_offline (fun () ->
         ignore (PD.check_policy_load dispatcher ?chains st ~sources:[ "mounts"; "binds" ])),
     "ns");
    ("pfm_compile.compile_ns",
     time_offline (fun () ->
         ignore (Compile.mount rules);
         ignore (Compile.umount rules);
         ignore (Compile.bind st.PS.binds)), "ns");
    ("snapshot.publish_ns", time_offline publish, "ns") ]
