(* plane-storm: the parallel decision plane's copy of the ladder, run
   inline at one domain with the journal on, plus snapshot publishes.

   A 200k-request Workload schedule (Steady 60%, Reload_storm{500} 20%,
   Phase_storm{1000} 10%, Deny_flood 10%) is cut into 100-request
   slices; one op is one [Plane.run] over a slice, reported per decision.
   After every run the journaled trail is replayed against the
   epoch-stamped snapshots: any mismatch or lost record is a failure.

   One domain because two cores cannot host two workers plus the
   run's coordinator, which busy-waits beside them: on the reference
   host (2 vCPUs) a 100k-request steady run with the journal on decided
   0.78-1.03M requests/s at two domains against 1.84-2.02M at one. *)

module PS = Protego_core.Policy_state
module PD = Protego_core.Pfm_dispatch
module Plane = Protego_plane.Plane
module Snapshot = Protego_plane.Snapshot
module Replay = Protego_plane.Replay
module Workload = Protego_workload.Workload
module J = Protego_journal.Journal
module Phase = Protego_base.Phase
module Compile = Protego_filter.Pfm_compile

let batch = 100

type action = Reload of PS.source | Phase_step of int

(* Traced-run totals; times in raw ns within a round, reference ns once
   merged into the run's totals. *)
type acc = {
  mutable decisions : int;
  mutable op : float;  (* decide + journal *)
  mutable dec : float;  (* the ladder: Plane.decide_on *)
  mutable enc : float;  (* Plane.journal_decision *)
  mutable slice : float;  (* whole slices, reload actions excluded *)
  mutable alloc : float;  (* minor words in decide + journal *)
  mutable stitch : float;
  mutable replay : float;
  mutable records : int;
  mutable served : int;  (* the plane's own counters *)
  mutable hits : int;
  mutable evals : int;
}

let acc () =
  { decisions = 0; op = 0.; dec = 0.; enc = 0.; slice = 0.; alloc = 0.; stitch = 0.;
    replay = 0.; records = 0; served = 0; hits = 0; evals = 0 }

let merge ~into a s =
  into.decisions <- into.decisions + a.decisions;
  into.op <- into.op +. (a.op *. s);
  into.dec <- into.dec +. (a.dec *. s);
  into.enc <- into.enc +. (a.enc *. s);
  into.slice <- into.slice +. (a.slice *. s);
  into.alloc <- into.alloc +. a.alloc;
  into.stitch <- into.stitch +. (a.stitch *. s);
  into.replay <- into.replay +. (a.replay *. s);
  into.records <- into.records + a.records;
  into.served <- into.served + a.served;
  into.hits <- into.hits + a.hits;
  into.evals <- into.evals + a.evals

type tracer = {
  mutable round : acc;
  total : acc;
  probe_alloc : float;
  mutable stats0 : int * int * int;  (* plane decisions, hits, evals at the round's start *)
}

type t = {
  st : PS.t;
  plane : Plane.t;
  batches : Plane.request array array;
  actions : (int * action) list array;  (* per slice: (offset, action), ascending *)
  mutable next : int;
  mutable pending : int option;  (* run id awaiting its replay check *)
  mutable attempted : int;
  mutable failed : int;
  mutable reloads : float list;
  mutable acting : int;  (* ns of reload and phase actions in the current slice *)
  tracer : tracer option;
}

let setup ~seed ~trace =
  let spec =
    Workload.default ~seed
      ~phases:
        [ (Workload.Steady, 120_000);
          (Workload.Reload_storm { period = 500 }, 40_000);
          (Workload.Phase_storm { period = 1000 }, 20_000);
          (Workload.Deny_flood, 20_000) ]
      ()
  in
  let st = PS.create () in
  Workload.install_policy spec st;
  (* A 32 KiB journal holds the last slice's records whole, which is all
     the replay check reads. *)
  let plane = Plane.create ~domains:1 ~journal_seg_bytes:4096 ~journal_segments:8 st in
  let sched = Workload.generate spec ~workers:1 in
  let reqs = sched.Workload.s_requests in
  let n = Array.length reqs / batch in
  let actions = Array.make n [] in
  let add th a = actions.(th / batch) <- (th mod batch, a) :: actions.(th / batch) in
  List.iter (fun (th, src) -> if th < n * batch then add th (Reload src)) sched.Workload.s_reloads;
  List.iter
    (fun (th, subject) -> if th < n * batch then add th (Phase_step subject))
    sched.Workload.s_phase_steps;
  let actions = Array.map (List.stable_sort (fun (a, _) (b, _) -> compare a b)) actions in
  let tracer =
    if not trace then None
    else
      Some
        { round = acc (); total = acc (); probe_alloc = Meter.probe_alloc ();
          stats0 = (0, 0, 0) }
  in
  { st; plane; batches = Array.init n (fun b -> Array.sub reqs (b * batch) batch); actions;
    next = 0; pending = None; attempted = 0; failed = 0; reloads = []; acting = 0; tracer }

(* Reloads are generation bumps plus a publish and phase steps advance one
   subject: both verdict-preserving, so the replay oracle still holds.
   Their time is kept out of the slice's decision latency, as an admin
   write is kept out of the syscall workloads' op latency. *)
let act t a =
  let t0 = Meter.now () in
  (match a with
   | Reload src ->
       PS.bump_generation t.st src;
       ignore (Plane.publish t.plane)
   | Phase_step subject ->
       let next = Phase.succ (Plane.subject_phase t.plane ~subject) in
       ignore (Plane.set_subject_phase t.plane ~subject next));
  let dt = Meter.now () - t0 in
  t.acting <- t.acting + dt;
  match a with
  | Reload _ -> t.reloads <- float_of_int dt :: t.reloads
  | Phase_step _ -> ()

(* The traced run drives the same slice through the plane's simulation
   entry points — the exact per-request steps of [Plane.run] — so the
   bench can time the ladder and the journal encode apart. *)
let traced_slice t tc b =
  let reqs = t.batches.(b) in
  let a = tc.round in
  let run = Plane.sim_begin t.plane in
  let acts = ref t.actions.(b) in
  let j0 = J.records_written (Plane.journal t.plane) in
  let b0 = Meter.now () in
  let dec = ref 0 and enc = ref 0 and alloc = ref 0. in
  for i = 0 to batch - 1 do
    let rec fire () =
      match !acts with
      | (off, x) :: rest when off = i ->
          act t x;
          acts := rest;
          fire ()
      | _ -> ()
    in
    fire ();
    let req = reqs.(i) in
    let a0 = Gc.minor_words () in
    let t0 = Meter.now () in
    let o = Plane.decide_on t.plane ~worker:0 req in
    let t1 = Meter.now () in
    Plane.journal_decision t.plane ~worker:0 ~run ~seq:i req o;
    let t2 = Meter.now () in
    alloc := !alloc +. (Gc.minor_words () -. a0 -. tc.probe_alloc);
    dec := !dec + (t1 - t0);
    enc := !enc + (t2 - t1)
  done;
  a.slice <- a.slice +. float_of_int (Meter.now () - b0 - t.acting);
  Plane.sim_end t.plane;
  a.alloc <- a.alloc +. !alloc;
  a.dec <- a.dec +. float_of_int !dec;
  a.enc <- a.enc +. float_of_int !enc;
  a.op <- a.op +. float_of_int (!dec + !enc);
  a.decisions <- a.decisions + batch;
  a.records <- a.records + (J.records_written (Plane.journal t.plane) - j0);
  run

let op t () =
  let b = t.next in
  t.next <- (if b + 1 = Array.length t.batches then 0 else b + 1);
  if b = 0 then begin
    (* A new pass over the schedule starts from initial phases and an
       empty journal. *)
    Plane.reset_phases t.plane;
    Plane.reset_journal t.plane
  end;
  t.attempted <- t.attempted + batch;
  t.acting <- 0;
  try
    let t0 = Meter.now () in
    let run =
      match t.tracer with
      | None ->
          let reloads = List.map (fun (off, a) -> (off, fun () -> act t a)) t.actions.(b) in
          ignore (Plane.run t.plane ~collect:false ~reloads t.batches.(b));
          Plane.runs t.plane - 1
      | Some tc -> traced_slice t tc b
    in
    let dt = Meter.now () - t0 - t.acting in
    t.pending <- Some run;
    float_of_int dt /. float_of_int batch
  with e ->
    Printf.eprintf "lsmbench: plane run raised %s\n%!" (Printexc.to_string e);
    t.failed <- t.failed + batch;
    nan

(* Untimed: replay the slice just run.  Every decision must be journaled
   once and match the reference oracle of the snapshot it names. *)
let after_op t () =
  match t.pending with
  | None -> ()
  | Some run -> (
      t.pending <- None;
      try
        let s0 = Meter.now () in
        (match t.tracer with
         | Some tc ->
             ignore (J.stitch (Plane.journal t.plane) ~run ~base:0 ~count:batch);
             tc.round.stitch <- tc.round.stitch +. float_of_int (Meter.now () - s0)
         | None -> ());
        let r0 = Meter.now () in
        let rp = Replay.replay_run t.plane ~run ~count:batch in
        (match t.tracer with
         | Some tc -> tc.round.replay <- tc.round.replay +. float_of_int (Meter.now () - r0)
         | None -> ());
        if rp.Replay.rp_matched <> batch then begin
          Printf.eprintf "lsmbench: replay of run %d: %s%!" run (Replay.render rp);
          t.failed <- t.failed + (batch - rp.Replay.rp_matched)
        end
      with Failure msg ->
        Printf.eprintf "lsmbench: replay of run %d failed: %s\n%!" run msg;
        t.failed <- t.failed + batch)

let take_reloads t () =
  let r = t.reloads in
  t.reloads <- [];
  r

let plane_counts t =
  List.fold_left
    (fun (d, h, e) (_, (s : Plane.hook_totals)) ->
      (d + s.Plane.ht_decisions, h + s.Plane.ht_hits, e + s.Plane.ht_evals))
    (0, 0, 0) (Plane.hook_stats t.plane)

let trace_round t ~scale =
  match t.tracer with
  | None -> ()
  | Some tc ->
      let ((d1, h1, e1) as now) = plane_counts t in
      let d0, h0, e0 = tc.stats0 in
      let a = tc.round in
      a.served <- d1 - d0;
      a.hits <- h1 - h0;
      a.evals <- e1 - e0;
      Option.iter (merge ~into:tc.total a) scale;
      tc.stats0 <- now;
      tc.round <- acc ()

let layers t () =
  match t.tracer with
  | None -> []
  | Some tc ->
      let a = tc.total in
      let n = float_of_int a.decisions and served = float_of_int a.served in
      let progs = (Plane.current t.plane).Snapshot.progs in
      let ctxs =
        Array.concat (Array.to_list (Array.sub t.batches 0 16))
        |> Array.map (function
             | Plane.Mount { source; target; fstype; flags; _ } ->
                 (progs.Snapshot.p_mount, Compile.mount_ctx ~phase:0 ~source ~target ~fstype ~flags)
             | Plane.Umount { subject; target; mounted_by } ->
                 (progs.Snapshot.p_umount,
                  Compile.umount_ctx ~phase:0 ~target ~mounted_by ~ruid:subject)
             | Plane.Bind { subject; port; proto; exe } ->
                 (progs.Snapshot.p_bind, Compile.bind_ctx ~phase:0 ~port ~proto ~exe ~uid:subject)
             | Plane.Ppp_ioctl { device; opt; _ } ->
                 (progs.Snapshot.p_ppp, Compile.ppp_ctx ~phase:0 ~device ~opt))
      in
      let js = J.stats (Plane.journal t.plane) in
      [ ("trace.op_ns", Work.ratio a.op n, "ns");
        ("decision.ns", Work.ratio a.dec n, "ns");
        ("decision.hit_ratio", Work.ratio (float_of_int a.hits) served, "fraction");
        ("decision.engine_ratio", Work.ratio (float_of_int a.evals) served, "fraction");
        ("decision.share", Work.ratio a.dec a.op, "fraction");
        ("lsm.share", 0., "fraction");
        ("syscall.share", 0., "fraction");
        ("journal.encode_ns", Work.ratio a.enc n, "ns");
        ("journal.records_per_op", Work.ratio (float_of_int a.records) n, "count");
        ("journal.bytes_per_record",
         Work.ratio (float_of_int js.J.s_bytes) (float_of_int js.J.s_records), "B");
        ("gc.minor_words_per_op", Work.ratio a.alloc n, "words");
        (* Per-decision spans against the slices around them, reload
           actions excepted: the gap is the loop between decisions. *)
        ("additivity.max_err", Work.ratio (Float.abs (a.slice -. a.op)) a.slice, "fraction");
        ("journal.stitch_ns_per_record", Work.ratio a.stitch n, "ns");
        ("replay.ns_per_record", Work.ratio a.replay n, "ns") ]
      @ Work.engine_cost ctxs
      @ Work.reload_stages (PD.create ()) t.st (fun () -> ignore (Plane.publish t.plane))

let work t =
  { Work.op = op t; per_op = batch; after_op = Some (after_op t); end_round = ignore;
    take_reloads = take_reloads t; probe_reload = None;
    attempted = (fun () -> t.attempted); failed = (fun () -> t.failed);
    trace_round = trace_round t; layers = layers t }
