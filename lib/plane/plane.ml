module PS = Protego_core.Policy_state
module Decider = Protego_core.Decider
module Trace = Protego_core.Trace
module Pfm = Protego_filter.Pfm
module Errno = Protego_base.Errno
module Phase = Protego_base.Phase
module J = Protego_journal.Journal

module Request = Protego_core.Request
include Request.Value

let hook_count = Request.count
let hook_name hi = Decider.kind_name (Request.kind_of_index hi)

type outcome = {
  o_verdict : Pfm.verdict;
  o_errno : Errno.t option;
  o_epoch : int;
  o_phase : int;
}

type run_result = {
  rr_outcomes : outcome array;
  rr_audit : J.decision array;
  rr_audit_lost : string option;
  rr_wall_ns : int;
  rr_min_op_ns : float array;
}

type audit_mode = [ `Off | `Journal ]

let audit_mode_name = function `Off -> "off" | `Journal -> "journal"

(* Everything a worker touches on a decision is domain-private; the only
   shared reads are the snapshot pointer and the live [t.engine]/clock
   configuration (constant during a run). *)
type worker = {
  w_id : int;
  mutable w_term : J.term;         (* this worker's journal write handle *)
  w_dec : Decider.t;               (* this worker's ladder *)
  w_hooks : (worker, request) Decider.hook array;  (* per hook *)
  mutable w_snap : Snapshot.t;
  mutable w_progs : Snapshot.progs;
  w_completed : int Atomic.t;      (* this run's progress, coordinator-read *)
  mutable w_min_op_ns : float;     (* min per-op cost over timed batches *)
  mutable w_sample : int;          (* latency sampling phase counter *)
  w_keys : Trace.key array;        (* per hook, engine "plane" *)
}

(* Each hook's source, as its index in a snapshot's generation vector. *)
let gens_index =
  Array.init hook_count (fun hi -> PS.source_index (Request.source_of_index hi))

let make_worker ~record journal id snap =
  let dec = Decider.create ~trace:(Trace.create ()) in
  Decider.set_record dec record;
  (* The shared engine against the snapshot the worker adopted for the
     decision ([decide_with] adopts before the ladder runs), on the
     worker's own clones of that snapshot's programs: never the policy
     state's program store, which a worker serving an older snapshot
     would make compile that older value and evict the live program. *)
  let eval =
    Request.eval
      ~state:(fun w -> w.w_snap.Snapshot.frozen)
      ~run:(fun w kind ctx -> Pfm.eval (Snapshot.program w.w_progs kind) ctx)
  in
  let hooks =
    Array.init hook_count (fun hi ->
        Decider.hook dec (Request.kind_of_index hi) eval)
  in
  let keys =
    Array.init hook_count (fun hi ->
        Trace.register (Decider.trace dec) ~hook:(hook_name hi) ~engine:"plane")
  in
  { w_id = id; w_term = J.term journal ~domain:id; w_dec = dec; w_hooks = hooks;
    w_snap = snap; w_progs = Snapshot.clone_progs snap;
    w_completed = Atomic.make 0; w_min_op_ns = infinity; w_sample = 0;
    w_keys = keys }

(* Per-subject lifecycle phases.  Subjects are uids; the table is a
   fixed array of atomics indexed [subject mod phase_slots], so workers
   read a subject's phase with one [Atomic.get] and a coordinator can
   advance it mid-run (a reload action) with release semantics — no
   locks, no resizes.  Slot aliasing between subjects further apart
   than the table merely conflates their phases (both only ever move
   forward), never loosens either. *)
let phase_slots = 1024

type t = {
  st : PS.t;
  pub : Snapshot.pub;
  phases : int Atomic.t array;   (* Phase.index per subject slot *)
  mutable domains : int;
  mutable workers : worker array;
  mutable engine : [ `Pfm | `Ref ];
  mutable clock : (unit -> int) option;
  mutable runs : int;
  mutable audit : audit_mode;
  mutable journal : J.t;
  mutable rotations : int;
  jseg_bytes : int;   (* journal geometry, reused on rotate *)
  jsegs : int;
  mutable running : bool;  (* a run (real or simulated) is in flight *)
}

let max_domains = 64

(* Each worker's journal term owns a whole segment, so a plane can never
   run more domains than its journal has segments. *)
let clamp_domains ~segments d = max 1 (min (min max_domains segments) d)

let create ?(domains = 1) ?(journal_seg_bytes = 262144)
    ?(journal_segments = 32) st =
  let pub = Snapshot.make st in
  let d = clamp_domains ~segments:journal_segments domains in
  let snap = Snapshot.current pub in
  let journal =
    J.create ~seg_bytes:journal_seg_bytes ~segments:journal_segments ()
  in
  { st; pub;
    phases = Array.init phase_slots (fun _ -> Atomic.make 0);
    domains = d;
    workers =
      Array.init d (fun i ->
          make_worker ~record:false journal i snap);
    engine = `Pfm; clock = None; runs = 0; audit = `Journal; journal;
    rotations = 0; jseg_bytes = journal_seg_bytes; jsegs = journal_segments;
    running = false }

let domains t = t.domains
let plane_max_domains t = min max_domains t.jsegs

let in_flight_msg op =
  Printf.sprintf
    "Plane.%s: a run is in flight; apply the change between runs" op

(* Record mode: engine verdicts other than Allow are served as Allow but
   journaled with the distinct verdict code 3 ("recorded"), so a
   permissive observation run captures exactly what enforcement would
   have denied without actually denying it.  Every worker's decider
   carries the flag; worker 0's is the plane's. *)
let record_mode t = Decider.record t.workers.(0).w_dec

let set_domains t d =
  if t.running then invalid_arg (in_flight_msg "set_domains");
  let record = record_mode t in
  let d = clamp_domains ~segments:t.jsegs d in
  (* The replaced workers' terms would otherwise stay registered on the
     journal forever (inflating stats and pinning half-filled
     segments): pad them out and deregister before attaching new ones. *)
  Array.iter (fun w -> J.retire w.w_term) t.workers;
  t.domains <- d;
  let snap = Snapshot.current t.pub in
  t.workers <-
    Array.init d (fun i -> make_worker ~record t.journal i snap)

let audit_mode t = t.audit
let set_audit_mode t m = t.audit <- m

let set_record_mode t on =
  if t.running then invalid_arg (in_flight_msg "set_record_mode");
  Array.iter (fun w -> Decider.set_record w.w_dec on) t.workers

let journal t = t.journal
let rotations t = t.rotations

(* Swap in a fresh journal and re-attach every worker's term to it.  The
   run counter keeps growing, so run stamps never collide across a
   rotation even though sequence numbers restart. *)
let rotate_journal t =
  let j = J.create ~seg_bytes:t.jseg_bytes ~segments:t.jsegs () in
  t.journal <- j;
  t.rotations <- t.rotations + 1;
  Array.iter (fun w -> w.w_term <- J.term j ~domain:w.w_id) t.workers

let reset_journal t =
  rotate_journal t;
  t.rotations <- 0

let snapshot_at t e = Snapshot.at_epoch t.pub e

let engine t = t.engine
let set_engine t e = t.engine <- e
let set_clock t f = t.clock <- Some f
let state t = t.st
let current t = Snapshot.current t.pub
let publish t = Snapshot.publish t.pub t.st

let refresh t =
  if Snapshot.stale t.pub t.st then publish t else Snapshot.current t.pub

let runs t = t.runs

(* --- per-subject phases ------------------------------------------------- *)

let phase_slot t subject = t.phases.((subject land max_int) mod phase_slots)

let subject_phase t ~subject = Phase.of_index (Atomic.get (phase_slot t subject))

(* Tighten-only: the phase index joins forward or stays put; an
   attempted loosening is reported, never applied (the LSM maps it to
   EPERM plus an audit record).  CAS loop because a reload action may
   race a concurrent advance of the same subject. *)
let set_subject_phase t ~subject ph =
  let target = Phase.index ph in
  let slot = phase_slot t subject in
  let rec go () =
    let cur = Atomic.get slot in
    if target < cur then
      Error
        (Printf.sprintf
           "phase: subject %d is at %s; moving back to %s would loosen"
           subject
           (Phase.to_string (Phase.of_index cur))
           (Phase.to_string ph))
    else if target = cur || Atomic.compare_and_set slot cur target then Ok ()
    else go ()
  in
  go ()

let reset_phases t = Array.iter (fun a -> Atomic.set a 0) t.phases

(* --- the decision ------------------------------------------------------- *)

let adopt w snap =
  if snap != w.w_snap then begin
    w.w_progs <- Snapshot.clone_progs ~prev:(w.w_snap, w.w_progs) snap;
    w.w_snap <- snap
  end

(* Serve one request on a worker against [snap] through the worker's
   decider, which runs the hook's engine: a worker keeps no table.  The
   subject's phase index [ph] is read once before the ladder: it selects
   the per-phase ladder inside the compiled programs (the leading
   dispatch field of the ctx). *)
let decide_with t w engine snap req =
  adopt w snap;
  let subject = Request.subject req in
  let ph = Atomic.get (phase_slot t subject) in
  let hi = Request.index req in
  let h = w.w_hooks.(hi) in
  let v =
    Decider.decide w.w_dec h w ~gen:snap.Snapshot.gens.(gens_index.(hi))
      ~phase:ph ~engine req
  in
  { o_verdict = v; o_errno = Decider.errno (Decider.kind h) v;
    o_epoch = snap.Snapshot.epoch; o_phase = ph }

let decide_one t w engine req =
  decide_with t w engine (Snapshot.current t.pub) req

let decide t req =
  ignore (refresh t);
  decide_one t t.workers.(0) t.engine req

(* --- audit journal ------------------------------------------------------ *)

(* Worker [w] of [d] owns exactly the sequence numbers congruent to
   [w] mod [d]. *)
let slice_len n d w = if w >= n then 0 else ((n - w - 1) / d) + 1

(* An outcome's journal codes; a decision that record mode flipped is
   journaled as verdict 3 ("recorded") with no errno. *)
let journal_append term ~run ~seq ~recorded req (o : outcome) =
  let verdict =
    if recorded then 3
    else
      match o.o_verdict with Pfm.Allow -> 1 | Pfm.Deny -> 0 | Pfm.Reject -> 2
  in
  let errno = match o.o_errno with None -> 0 | Some e -> Errno.to_code e in
  Request.append term ~seq ~run ~epoch:o.o_epoch ~phase:o.o_phase ~verdict
    ~errno req

(* --- the run loop ------------------------------------------------------- *)

let batch_len = 1024

let dummy_outcome =
  { o_verdict = Pfm.Deny; o_errno = None; o_epoch = -1; o_phase = 0 }

(* Process this worker's stride of [start, stop) in timed batches.
   [base] is the completed-count already published for earlier segments
   of the same run (one-domain runs are split at reload thresholds). *)
let worker_slice t w reqs ~start ~stop ~d ~engine ~clock ~collect ~outcomes
    ~base ~mode ~run_id =
  let i = ref start in
  let done_ = ref 0 in
  while !i < stop do
    let remaining = ((stop - !i - 1) / d) + 1 in
    let len = min batch_len remaining in
    let t0 = match clock with Some c -> c () | None -> 0 in
    for _ = 1 to len do
      let req = reqs.(!i) in
      let o =
        match clock with
        | Some c when w.w_sample land 63 = 0 ->
            let s0 = c () in
            let o = decide_one t w engine req in
            Trace.observe w.w_keys.(Request.index req) ~ns:(c () - s0);
            o
        | _ -> decide_one t w engine req
      in
      w.w_sample <- w.w_sample + 1;
      (* Record mode: the ladder returned the true verdict; a would-deny
         is served as Allow while the journal keeps the distinct
         "recorded" tag. *)
      let served = Decider.flip w.w_dec o.o_verdict in
      let recorded = Decider.last_recorded w.w_dec in
      let o =
        if recorded then { o with o_verdict = served; o_errno = None } else o
      in
      if collect then outcomes.(!i) <- o;
      (match mode with
       | `Off -> ()
       | `Journal -> journal_append w.w_term ~run:run_id ~seq:!i ~recorded req o);
      i := !i + d
    done;
    (match clock with
     | Some c ->
         let per = float_of_int (c () - t0) /. float_of_int len in
         if per < w.w_min_op_ns then w.w_min_op_ns <- per
     | None -> ());
    done_ := !done_ + len;
    Atomic.set w.w_completed (base + !done_)
  done

let run t ?(collect = true) ?(reloads = []) reqs =
  if t.running then failwith "Plane.run: a run is already in flight";
  ignore (refresh t);
  t.running <- true;
  Fun.protect ~finally:(fun () -> t.running <- false) @@ fun () ->
  let n = Array.length reqs in
  let d = t.domains in
  let ws = t.workers in
  let engine = t.engine in
  let clock = t.clock in
  let mode = t.audit in
  let run_id = t.runs in
  let outcomes = if collect then Array.make n dummy_outcome else [||] in
  Array.iter
    (fun w ->
      Atomic.set w.w_completed 0;
      w.w_min_op_ns <- infinity)
    ws;
  let reloads = List.sort (fun (a, _) (b, _) -> compare a b) reloads in
  let t0 = match clock with Some c -> c () | None -> 0 in
  if d = 1 then begin
    (* Inline and deterministic: split the stream at the reload
       thresholds, so an action fires exactly before the decision with
       its sequence number. *)
    let w = ws.(0) in
    let seg start stop =
      if start < stop then
        worker_slice t w reqs ~start ~stop ~d:1 ~engine ~clock ~collect
          ~outcomes ~base:start ~mode ~run_id
    in
    let pos = ref 0 in
    List.iter
      (fun (th, act) ->
        if th < n then begin
          seg !pos (max th !pos);
          pos := max th !pos;
          act ()
        end)
      reloads;
    seg !pos n
  end
  else begin
    let spawn w =
      Domain.spawn (fun () ->
          worker_slice t w reqs ~start:w.w_id ~stop:n ~d ~engine ~clock
            ~collect ~outcomes ~base:0 ~mode ~run_id)
    in
    let doms = Array.map spawn ws in
    (* Coordinate reloads off the published progress counters; a
       threshold past the end of the stream never fires. *)
    let pending = ref reloads in
    let finished () =
      Array.for_all (fun w -> Atomic.get w.w_completed >= slice_len n d w.w_id) ws
    in
    while not (finished ()) do
      (match !pending with
       | (th, act) :: rest
         when Array.fold_left (fun acc w -> acc + Atomic.get w.w_completed) 0 ws
              >= th ->
           act ();
           pending := rest
       | _ -> ());
      Domain.cpu_relax ()
    done;
    Array.iter Domain.join doms
  end;
  let wall = match clock with Some c -> c () - t0 | None -> 0 in
  t.runs <- t.runs + 1;
  (* Records lost to wraparound (the run outgrew the journal, or enough
     un-rotated prior runs preceded it) are a capacity condition, not a
     correctness failure: surface them in [rr_audit_lost] rather than
     throwing away the whole run's computed outcomes.  Any stitch error
     with nothing dropped is real corruption and still aborts. *)
  let audit, audit_lost =
    match mode with
    | _ when not collect -> ([||], None)
    | `Off -> ([||], None)
    | `Journal -> (
        (* the run's records in submission order: zero lost, zero
           duplicated — checked by the stitch, not assumed *)
        match J.stitch t.journal ~run:run_id ~base:0 ~count:n with
        | Ok a -> (a, None)
        | Error e when J.dropped t.journal > 0 -> ([||], Some e)
        | Error e -> failwith ("Plane.run: " ^ e))
  in
  { rr_outcomes = outcomes; rr_audit = audit; rr_audit_lost = audit_lost;
    rr_wall_ns = wall; rr_min_op_ns = Array.map (fun w -> w.w_min_op_ns) ws }

(* --- merged statistics and /proc -------------------------------------- *)

type hook_totals = {
  ht_decisions : int;
  ht_allow : int;
  ht_deny : int;
  ht_evals : int;
  ht_hits : int;
}

(* A worker keeps no table: every decision is an engine evaluation, and
   no hit is ever counted. *)
let hook_stats t =
  List.init hook_count (fun hi ->
      let sum f =
        Array.fold_left
          (fun acc w -> acc + f (Decider.stats w.w_hooks.(hi)))
          0 t.workers
      in
      let evals = sum (fun s -> s.Decider.evals) in
      ( hook_name hi,
        { ht_decisions = evals;
          ht_allow = sum (fun s -> s.Decider.allow);
          ht_deny = sum (fun s -> s.Decider.deny + s.Decider.reject);
          ht_evals = evals; ht_hits = 0 } ))

let engine_name t = match t.engine with `Pfm -> "pfm" | `Ref -> "ref"

let render t =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "plane domains %d engine %s epoch %d runs %d\n" t.domains
       (engine_name t)
       (Snapshot.current t.pub).Snapshot.epoch
       t.runs);
  let js = J.stats t.journal in
  Buffer.add_string b
    (Printf.sprintf
       "audit mode %s records %d live %d dropped %d rotations %d\n"
       (audit_mode_name t.audit) js.J.s_records js.J.s_live js.J.s_dropped
       t.rotations);
  Buffer.add_string b
    (Printf.sprintf "record %s\n" (if record_mode t then "on" else "off"));
  Array.iter
    (fun w ->
      Buffer.add_string b
        (Printf.sprintf "worker %d decisions %d\n" w.w_id
           (Array.fold_left
              (fun acc h -> acc + (Decider.stats h).Decider.evals)
              0 w.w_hooks)))
    t.workers;
  List.iter
    (fun (name, ht) ->
      Buffer.add_string b
        (Printf.sprintf "hook %s decisions %d allow %d deny %d\n" name
           ht.ht_decisions ht.ht_allow ht.ht_deny))
    (hook_stats t);
  for hi = 0 to hook_count - 1 do
    let k =
      Trace.sum ~hook:(hook_name hi) ~engine:"plane"
        (Array.to_list (Array.map (fun w -> w.w_keys.(hi)) t.workers))
    in
    if k.Trace.k_count > 0 then
      Buffer.add_string b
        (Printf.sprintf "latency hook %s count %d p50 %d p90 %d p99 %d\n"
           (hook_name hi) k.Trace.k_count
           (Trace.percentile k ~pct:50)
           (Trace.percentile k ~pct:90)
           (Trace.percentile k ~pct:99))
  done;
  Buffer.contents b

let handle_write t contents =
  match String.trim contents with
  | "publish" ->
      ignore (publish t);
      Ok ()
  | "reset" ->
      if t.running then
        Error "plane: a run is in flight; retry reset after it completes"
      else begin
        set_domains t t.domains;
        t.runs <- 0;
        reset_phases t;
        reset_journal t;
        Ok ()
      end
  | "engine pfm" -> set_engine t `Pfm; Ok ()
  | "engine ref" -> set_engine t `Ref; Ok ()
  | "record on" | "record off" ->
      let on = String.trim contents = "record on" in
      if t.running then
        Error "plane: a run is in flight; retry record toggle after it completes"
      else begin
        set_record_mode t on;
        Ok ()
      end
  | "audit off" -> set_audit_mode t `Off; Ok ()
  | "audit journal" -> set_audit_mode t `Journal; Ok ()
  | other -> (
      match String.split_on_char ' ' other with
      | [ "domains"; ns ] -> (
          match int_of_string_opt ns with
          | Some _ when t.running ->
              Error "plane: a run is in flight; retry after it completes"
          | Some d when d >= 1 && d <= plane_max_domains t ->
              set_domains t d;
              Ok ()
          | _ ->
              Error
                (Printf.sprintf "plane: domains must be 1..%d"
                   (plane_max_domains t)))
      | [ "phase"; subj; name ] -> (
          match (int_of_string_opt subj, Phase.of_string name) with
          | Some subject, Some ph -> set_subject_phase t ~subject ph
          | _ ->
              Error
                (Printf.sprintf
                   "plane: phase takes a subject and one of setup|serving|steady"))
      | _ -> Error ("plane: unknown command: " ^ other))

let render_journal t =
  Printf.sprintf "journal mode %s rotations %d\n%s" (audit_mode_name t.audit)
    t.rotations
    (J.render_stats t.journal)

let handle_journal_write t contents =
  match String.trim contents with
  | "rotate" -> rotate_journal t; Ok ()
  | "reset" -> reset_journal t; Ok ()
  | other -> Error ("journal: unknown command: " ^ other)

let install_proc m t =
  let open Protego_kernel in
  let kt = Machine.kernel_task m in
  ignore (Machine.mkdir_p m kt "/proc/protego" ());
  List.iter
    (fun (name, render, handle) ->
      ignore
        (Machine.add_vnode m kt ~path:("/proc/protego/" ^ name) ~mode:0o600
           ~read:(fun _m _t -> Ok (render t))
           ~write:(fun m _t contents ->
             match handle t contents with
             | Ok () -> Ok ()
             | Error msg ->
                 Ktypes.log_dmesg m "protego: %s" msg;
                 Error Errno.EINVAL)
           ()))
    [ ("plane", render, handle_write);
      ("journal", render_journal, handle_journal_write) ]

(* --- simulation hooks --------------------------------------------------- *)

let running t = t.running

let sim_begin t =
  if t.running then invalid_arg "Plane.sim_begin: a run is already in flight";
  t.running <- true;
  t.runs

let sim_end t =
  t.running <- false;
  t.runs <- t.runs + 1

let worker_of t i =
  if i < 0 || i >= t.domains then
    invalid_arg (Printf.sprintf "Plane: no such worker %d (domains %d)" i
                   t.domains);
  t.workers.(i)

let decide_on t ~worker req = decide_one t (worker_of t worker) t.engine req

let decide_against t ~worker snap req =
  decide_with t (worker_of t worker) t.engine snap req

let journal_decision t ~worker ~run ~seq req o =
  journal_append (worker_of t worker).w_term ~run ~seq ~recorded:false req o

let worker_term t i = (worker_of t i).w_term
