(* LTL-ish temporal properties over a simulation trace.  Each property
   names the spec shapes it applies to (so sweeps only check invariants
   the injected faults do not legitimately break) and evaluates post-hoc
   over the stitched event/journal trace. *)

module Plane = Protego_plane.Plane
module Request = Protego_core.Request
module Snapshot = Protego_plane.Snapshot
module Replay = Protego_plane.Replay
module J = Protego_journal.Journal

type outcome = Holds | Violated of { at : int; why : string }

type t = {
  p_name : string;
  p_applies : Sim.spec -> bool;
  p_eval : Sim.ctx -> outcome;
}

let outcome_to_string = function
  | Holds -> "holds"
  | Violated { at; why } -> Printf.sprintf "VIOLATED at event %d: %s" at why

(* --- combinators -------------------------------------------------------- *)

let always name ~applies pred ~why =
  { p_name = name; p_applies = applies;
    p_eval =
      (fun ctx ->
        let out = ref Holds in
        (try
           Array.iteri
             (fun i e ->
               if not (pred ctx e) then begin
                 out := Violated { at = i; why = why ctx e };
                 raise Exit
               end)
             ctx.Sim.x_trace
         with Exit -> ());
        !out) }

(* The fold is hidden behind the closure, so properties with state
   (last published epoch, pending-mutation count) stay declarative. *)
let always_fold name ~applies ~init ~step =
  { p_name = name; p_applies = applies;
    p_eval =
      (fun ctx ->
        let st = ref init in
        let out = ref Holds in
        (try
           Array.iteri
             (fun i e ->
               match step ctx !st e with
               | Ok st' -> st := st'
               | Error why ->
                   out := Violated { at = i; why };
                   raise Exit)
             ctx.Sim.x_trace
         with Exit -> ());
        !out) }

let leads_to name ~applies ~trigger ~ack ~why =
  { p_name = name; p_applies = applies;
    p_eval =
      (fun ctx ->
        let pending = ref None in
        Array.iteri
          (fun i e ->
            if trigger e then (if !pending = None then pending := Some i)
            else if ack e then pending := None)
          ctx.Sim.x_trace;
        match !pending with
        | None -> Holds
        | Some at -> Violated { at; why }) }

(* --- applicability helpers ---------------------------------------------- *)

let plane_lane sp = sp.Sim.sp_lane = Sim.Lane_plane
let dispatch_lane sp = sp.Sim.sp_lane = Sim.Lane_dispatch
let without fs sp = List.for_all (fun f -> not (Sim.has_fault f sp)) fs

(* --- plane-lane properties ---------------------------------------------- *)

(* always (decision.epoch >= last published epoch): a worker may never
   serve a decision against an epoch older than the last acked
   publication. *)
let epoch_monotone =
  always_fold "epoch-monotone"
    ~applies:(fun sp -> plane_lane sp && without [ Sim.F_stale ] sp)
    ~init:0
    ~step:(fun _ last e ->
      match e with
      | Sim.E_publish p -> Ok p.p_epoch
      | Sim.E_decide d ->
          if d.d_epoch >= last then Ok last
          else
            Error
              (Printf.sprintf
                 "decide w%d seq %d served epoch %d after publish of epoch %d"
                 d.d_worker d.d_seq d.d_epoch last)
      | _ -> Ok last)

(* always (verdict = snapshot_at(epoch) oracle verdict): whatever
   snapshot a decision stamps, its verdict and errno must reproduce
   against that snapshot's reference oracle. *)
let verdict_matches_epoch =
  always "verdict-matches-epoch" ~applies:plane_lane
    (fun ctx e ->
      match e with
      | Sim.E_decide d -> (
          match ctx.Sim.x_plane with
          | None -> true
          | Some plane -> (
              match Plane.snapshot_at plane d.d_epoch with
              | None -> false
              | Some snap ->
                  let verdict, errno =
                    Request.expected snap.Snapshot.frozen ~phase:d.d_phase
                      ~recorded:(d.d_verdict = 3) ctx.Sim.x_requests.(d.d_seq)
                  in
                  d.d_verdict = verdict && d.d_errno = errno))
      | _ -> true)
    ~why:(fun _ e ->
      match e with
      | Sim.E_decide d ->
          Printf.sprintf
            "decide w%d seq %d verdict %d errno %d disagrees with the epoch %d \
             snapshot oracle"
            d.d_worker d.d_seq d.d_verdict d.d_errno d.d_epoch
      | _ -> "")

(* always (verdict = live oracle): only meaningful when every mutation
   is published before the next decision can observe it. *)
let live_oracle =
  always "live-oracle"
    ~applies:(fun sp ->
      plane_lane sp && without [ Sim.F_stale; Sim.F_drop; Sim.F_delay ] sp)
    (fun _ e ->
      match e with Sim.E_decide d -> d.d_live_ok | _ -> true)
    ~why:(fun _ e ->
      match e with
      | Sim.E_decide d ->
          Printf.sprintf "decide w%d seq %d diverged from the live oracle"
            d.d_worker d.d_seq
      | _ -> "")

(* eventually (reload acked): every mutation is followed by a publish —
   no reload starves, even under a deny flood. *)
let reload_acked =
  leads_to "reload-acked"
    ~applies:(fun sp ->
      plane_lane sp && sp.Sim.sp_reloads > 0
      && without [ Sim.F_drop; Sim.F_delay ] sp)
    ~trigger:(function Sim.E_mutate _ -> true | _ -> false)
    ~ack:(function Sim.E_publish _ -> true | _ -> false)
    ~why:"a policy mutation was never acked by a publish"

(* No decision may land between a mutation and its publish: with prompt
   publication the pair is atomic in the trace; a delayed or dropped
   publish opens the window this property closes. *)
let no_decide_under_pending_mutate =
  always_fold "no-decide-under-pending-mutate"
    ~applies:(fun sp ->
      plane_lane sp && without [ Sim.F_drop; Sim.F_delay ] sp)
    ~init:0
    ~step:(fun _ pending e ->
      match e with
      | Sim.E_mutate _ -> Ok (pending + 1)
      | Sim.E_publish _ -> Ok 0
      | Sim.E_decide d ->
          if pending = 0 then Ok 0
          else
            Error
              (Printf.sprintf
                 "decide w%d seq %d served under %d unpublished mutation(s)"
                 d.d_worker d.d_seq pending)
      | _ -> Ok pending)

(* The journal is a faithful record: every journaled decision appears
   exactly once with the exact verdict/errno/epoch/domain and serving
   phase, nothing is duplicated, nothing appears that was never decided,
   and each term's records stay in append order. *)
let journal_faithful =
  { p_name = "journal-faithful";
    p_applies = (fun sp -> plane_lane sp && without [ Sim.F_dup ] sp);
    p_eval =
      (fun ctx ->
        let jds = ctx.Sim.x_journal in
        let by_seq = Hashtbl.create 64 in
        let dup = ref None in
        List.iter
          (fun (d : J.decision) ->
            if Hashtbl.mem by_seq d.J.d_seq && !dup = None then
              dup := Some d.J.d_seq
            else Hashtbl.replace by_seq d.J.d_seq d)
          jds;
        match !dup with
        | Some seq ->
            Violated
              { at = 0;
                why = Printf.sprintf "journal holds seq %d twice" seq }
        | None -> (
            (* per-domain append order *)
            let last_per_domain = Hashtbl.create 8 in
            let disorder = ref None in
            List.iter
              (fun (d : J.decision) ->
                (match Hashtbl.find_opt last_per_domain d.J.d_domain with
                | Some prev when prev >= d.J.d_seq && !disorder = None ->
                    disorder := Some (d.J.d_domain, prev, d.J.d_seq)
                | _ -> ());
                Hashtbl.replace last_per_domain d.J.d_domain d.J.d_seq)
              jds;
            match !disorder with
            | Some (dom, prev, seq) ->
                Violated
                  { at = 0;
                    why =
                      Printf.sprintf
                        "domain %d records reordered: seq %d after %d" dom seq
                        prev }
            | None ->
                let journaled_seqs = Hashtbl.create 64 in
                let out = ref Holds in
                (try
                   Array.iteri
                     (fun i e ->
                       match e with
                       | Sim.E_decide d when d.d_journaled && not d.d_torn -> (
                           Hashtbl.replace journaled_seqs d.d_seq ();
                           match Hashtbl.find_opt by_seq d.d_seq with
                           | None ->
                               if ctx.Sim.x_dropped = 0 then begin
                                 out :=
                                   Violated
                                     { at = i;
                                       why =
                                         Printf.sprintf
                                           "journaled decision seq %d missing \
                                            from the journal"
                                           d.d_seq };
                                 raise Exit
                               end
                           | Some jd ->
                               if
                                 jd.J.d_verdict <> d.d_verdict
                                 || jd.J.d_errno <> d.d_errno
                                 || jd.J.d_epoch <> d.d_epoch
                                 || jd.J.d_domain <> d.d_worker
                                 || jd.J.d_phase <> d.d_phase
                               then begin
                                 out :=
                                   Violated
                                     { at = i;
                                       why =
                                         Printf.sprintf
                                           "journal record seq %d disagrees \
                                            with the decision event"
                                           d.d_seq };
                                 raise Exit
                               end)
                       | _ -> ())
                     ctx.Sim.x_trace
                 with Exit -> ());
                (match !out with
                | Violated _ -> ()
                | Holds ->
                    List.iter
                      (fun (d : J.decision) ->
                        if
                          (not (Hashtbl.mem journaled_seqs d.J.d_seq))
                          && !out = Holds
                        then
                          out :=
                            Violated
                              { at = 0;
                                why =
                                  Printf.sprintf
                                    "journal holds phantom seq %d (never \
                                     decided)"
                                    d.J.d_seq })
                      jds);
                !out)) }

(* Total-order replay: every surviving journal record re-evaluates
   cleanly against the snapshot its epoch stamp names.  Holds under
   every fault class — torn records are suppressed, dropped records are
   absent, stale decisions stamped the epoch they actually used. *)
let replay_clean =
  { p_name = "replay-clean";
    p_applies = plane_lane;
    p_eval =
      (fun ctx ->
        match ctx.Sim.x_plane with
        | None -> Holds
        | Some plane -> (
            let rep =
              Replay.replay ~snapshot_of_epoch:(Plane.snapshot_at plane)
                (Array.of_list ctx.Sim.x_journal)
            in
            match (rep.Replay.rp_mismatches, rep.Replay.rp_missing_epochs) with
            | m :: _, _ ->
                Violated
                  { at = 0;
                    why =
                      Printf.sprintf "replay mismatch at seq %d (%s)"
                        m.Replay.mm_seq m.Replay.mm_field }
            | [], e :: _ ->
                Violated
                  { at = 0;
                    why =
                      Printf.sprintf "replay lost epoch %d from the history" e }
            | [], [] -> Holds)) }

(* always (phase steps move strictly forward): the tighten-only lattice
   admits no loosening — each E_phase advances its subject exactly from
   the phase the previous step left it in. *)
let phase_monotone =
  always_fold "phase-monotone" ~applies:plane_lane ~init:[]
    ~step:(fun _ phases e ->
      match e with
      | Sim.E_phase h ->
          let cur =
            match List.assoc_opt h.h_subject phases with
            | Some p -> p
            | None -> 0
          in
          if h.h_from = cur && h.h_to > h.h_from then
            Ok ((h.h_subject, h.h_to) :: List.remove_assoc h.h_subject phases)
          else
            Error
              (Printf.sprintf
                 "subject %d stepped %d -> %d while in phase %d: transitions \
                  must be monotone"
                 h.h_subject h.h_from h.h_to cur)
      | _ -> Ok phases)

(* always (decision served at the subject's current phase): combined
   with phase-monotone, no decision is ever served under a phase that
   is later loosened — the phase a verdict stamps can only tighten
   afterwards, never revert. *)
let phase_consistent =
  always_fold "phase-consistent" ~applies:plane_lane ~init:[]
    ~step:(fun ctx phases e ->
      match e with
      | Sim.E_phase h ->
          Ok ((h.h_subject, h.h_to) :: List.remove_assoc h.h_subject phases)
      | Sim.E_decide d ->
          let subject = Request.subject ctx.Sim.x_requests.(d.d_seq) in
          let cur =
            match List.assoc_opt subject phases with Some p -> p | None -> 0
          in
          if d.d_phase = cur then Ok phases
          else
            Error
              (Printf.sprintf
                 "decide w%d seq %d served subject %d under phase %d but the \
                  subject is in phase %d"
                 d.d_worker d.d_seq subject d.d_phase cur)
      | _ -> Ok phases)

(* No record is ever torn — except by an injected crash. *)
let no_torn =
  always "no-torn"
    ~applies:(fun sp -> plane_lane sp && without [ Sim.F_crash ] sp)
    (fun _ e -> match e with Sim.E_decide d -> not d.d_torn | _ -> true)
    ~why:(fun _ e ->
      match e with
      | Sim.E_decide d ->
          Printf.sprintf "decide w%d seq %d left a torn record" d.d_worker
            d.d_seq
      | _ -> "")

(* Every decision reaches the journal — except when a crash kills the
   worker mid-record or a wraparound flood overruns the writer. *)
let all_journaled =
  always "all-journaled"
    ~applies:(fun sp ->
      plane_lane sp && without [ Sim.F_crash; Sim.F_wrap ] sp)
    (fun _ e -> match e with Sim.E_decide d -> d.d_journaled | _ -> true)
    ~why:(fun _ e ->
      match e with
      | Sim.E_decide d ->
          Printf.sprintf "decide w%d seq %d was never journaled" d.d_worker
            d.d_seq
      | _ -> "")

(* The journal writer never overruns a lagging term. *)
let no_overrun =
  always "no-overrun"
    ~applies:(fun sp -> without [ Sim.F_wrap ] sp)
    (fun _ e ->
      match e with
      | Sim.E_overrun _ -> false
      | Sim.E_flood f -> not f.f_overrun
      | _ -> true)
    ~why:(fun _ _ -> "journal writer overran a lagging term")

(* --- dispatch-lane properties ------------------------------------------- *)

let nf_oracle =
  always "nf-oracle" ~applies:dispatch_lane
    (fun _ e -> match e with Sim.E_nf n -> n.n_ok | _ -> true)
    ~why:(fun _ e ->
      match e with
      | Sim.E_nf n ->
          Printf.sprintf "nf decision for port %d diverged from Netfilter.walk"
            n.n_port
      | _ -> "")

let pd_oracle =
  always "pd-oracle" ~applies:dispatch_lane
    (fun _ e -> match e with Sim.E_pd p -> p.pd_ok | _ -> true)
    ~why:(fun _ e ->
      match e with
      | Sim.E_pd p ->
          Printf.sprintf "dispatcher verdict for request %d diverged from the \
                          live oracle"
            p.pd_seq
      | _ -> "")

(* After every chain edit, the program the nf hook serves proves equal
   to the straight-line compile of the live chain, re-checked by the
   sim: the switch the compiler emits never changes a verdict, and the
   hook never serves a stale chain. *)
let nf_proved =
  always "nf-proved" ~applies:dispatch_lane
    (fun _ e -> match e with Sim.E_edit d -> d.e_proved | _ -> true)
    ~why:(fun _ e ->
      match e with
      | Sim.E_edit d ->
          Printf.sprintf
            "after edit %s the served nf program is not proved equal to \
             netfilter_linear of the live chain"
            d.e_label
      | _ -> "")

(* --- the registry ------------------------------------------------------- *)

let all =
  [ epoch_monotone; verdict_matches_epoch; live_oracle; reload_acked;
    no_decide_under_pending_mutate; phase_monotone; phase_consistent;
    journal_faithful; replay_clean; no_torn; all_journaled; no_overrun;
    nf_oracle; pd_oracle; nf_proved ]

let applicable sp = List.filter (fun p -> p.p_applies sp) all

let find name =
  match List.find_opt (fun p -> p.p_name = name) all with
  | Some p -> Ok p
  | None ->
      Error
        (Printf.sprintf "sim: unknown property %s (know: %s)" name
           (String.concat ", " (List.map (fun p -> p.p_name) all)))

let check ctx props = List.map (fun p -> (p, p.p_eval ctx)) props
