(* The parallel decision plane: snapshot lifecycle, sequential and
   N-domain differential correctness, audit-spool integrity, the
   workload generator's determinism, and /proc/protego/plane. *)

open Protego_kernel
open Ktypes
module Image = Protego_dist.Image
module PS = Protego_core.Policy_state
module Pfm = Protego_filter.Pfm
module Snapshot = Protego_plane.Snapshot
module Plane = Protego_plane.Plane
module Request = Protego_core.Request
module Replay = Protego_plane.Replay
module Workload = Protego_workload.Workload
module Prng = Protego_workload.Prng
module Errno = Protego_base.Errno
module J = Protego_journal.Journal

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A small but non-trivial synthetic policy + workload. *)
let spec ?(seed = 7) ?(phases = [ (Workload.Steady, 2_000) ]) () =
  { (Workload.default ~seed ~phases ()) with Workload.rules = 24; pool = 64 }

let fresh_state spec =
  let st = PS.create () in
  Workload.install_policy spec st;
  st

(* The uncached, unsnapshotted reference verdict straight off the live
   policy state — what every plane decision must agree with as long as
   reloads are semantics-preserving. *)
let oracle = Test_support.oracle
let snapshot_oracle = Test_support.snapshot_oracle

(* --- snapshot lifecycle ------------------------------------------------- *)

let test_freeze_publish () =
  let sp = spec () in
  let st = fresh_state sp in
  let pub = Snapshot.make st in
  let s0 = Snapshot.current pub in
  check_int "initial epoch" 0 s0.Snapshot.epoch;
  check_int "frozen mounts gen" (PS.generation st PS.Mounts)
    (Snapshot.gen_for s0 PS.Mounts);
  check_bool "not stale at rest" false (Snapshot.stale pub st);
  (* A /proc-style reload: set a source, republish. *)
  PS.set st
    (PS.Set_mounts
       [ { PS.mr_source = "/dev/cdrom"; mr_target = "/media/cdrom";
           mr_fstype = "iso9660"; mr_flags = []; mr_mode = `Users;
           mr_phase = PS.Phase.Always } ]);
  check_bool "stale after set" true (Snapshot.stale pub st);
  let s1 = Snapshot.publish pub st in
  check_int "epoch advanced" 1 s1.Snapshot.epoch;
  check_bool "published pointer" true (Snapshot.current pub == s1);
  (* The old snapshot is immutable: it still answers with the old policy. *)
  check_bool "old snapshot, old verdict" true
    (snapshot_oracle s0
       (Plane.Mount
          { subject = 0; source = "/dev/wl1"; target = "/media/wl1";
            fstype = "ext4"; flags = [] }));
  check_bool "old snapshot misses new rule" false
    (snapshot_oracle s0
       (Plane.Mount
          { subject = 0; source = "/dev/cdrom"; target = "/media/cdrom";
            fstype = "iso9660"; flags = [] }));
  check_bool "new snapshot, new verdict" true
    (snapshot_oracle s1
       (Plane.Mount
          { subject = 0; source = "/dev/cdrom"; target = "/media/cdrom";
            fstype = "iso9660"; flags = [] }))

(* [PS.set] is the one way a source changes: it bumps exactly the
   written source, which is all [Snapshot.stale] and [publish] read.  The
   load gate's [PS.candidate] touches neither the live state nor its
   vector. *)
let test_set_bumps_one () =
  let st = fresh_state (spec ()) in
  let pub = Snapshot.make st in
  let vector () = List.map (PS.generation st) PS.sources in
  let live = st.PS.binds in
  let before = vector () in
  let c = PS.candidate st (PS.Set_binds []) in
  check_bool "candidate holds the update" true (c.PS.binds = []);
  PS.bump_generation c PS.Binds;
  check_bool "live value untouched" true (st.PS.binds == live);
  check_bool "live vector untouched" true (vector () = before);
  check_bool "not stale after candidate" false (Snapshot.stale pub st);
  List.iter
    (fun (update, source) ->
      let before = vector () in
      PS.set st update;
      Alcotest.(check (list int))
        (PS.source_name source ^ ": only it bumped")
        (List.map2
           (fun s b -> if s = source then b + 1 else b)
           PS.sources before)
        (vector ());
      check_bool "stale after set" true (Snapshot.stale pub st);
      let snap = Snapshot.publish pub st in
      check_int "publish froze the new gen" (PS.generation st source)
        (Snapshot.gen_for snap source);
      check_bool "not stale after publish" false (Snapshot.stale pub st))
    [ (PS.Set_mounts st.PS.mounts, PS.Mounts); (PS.Set_binds [], PS.Binds);
      (PS.Set_delegation st.PS.delegation, PS.Delegation);
      (PS.Set_accounts (st.PS.users, st.PS.groups), PS.Accounts);
      (PS.Set_ppp st.PS.ppp, PS.Ppp) ]

let test_history_bound () =
  (* The publication history is a bounded window, not an unbounded log:
     under a reload storm only the newest [history] epochs stay
     reachable for replay, older ones report as missing. *)
  let sp = spec () in
  let st = fresh_state sp in
  let pub = Snapshot.make ~history:4 st in
  for _ = 1 to 10 do
    PS.bump_generation st PS.Mounts;
    ignore (Snapshot.publish pub st)
  done;
  check_int "current epoch" 10 (Snapshot.current pub).Snapshot.epoch;
  let has e =
    match Snapshot.at_epoch pub e with
    | Some s -> check_int "epoch lookup exact" e s.Snapshot.epoch; true
    | None -> false
  in
  check_bool "initial epoch evicted" false (has 0);
  check_bool "just outside the window" false (has 6);
  check_bool "oldest retained" true (has 7);
  check_bool "newest retained" true (has 10)

let test_atomic_generations () =
  (* The satellite contract: generation bumps are atomic increments, so
     concurrent bumps never lose updates. *)
  let st = PS.create () in
  let bumps = 1_000 in
  let dom () =
    Domain.spawn (fun () ->
        for _ = 1 to bumps do
          PS.bump_generation st PS.Mounts
        done)
  in
  let d1 = dom () and d2 = dom () in
  Domain.join d1;
  Domain.join d2;
  check_int "no lost bumps" (2 * bumps) (PS.generation st PS.Mounts)

(* --- program reuse across publishes ------------------------------------- *)

let progs_list (s : Snapshot.t) =
  let p = s.Snapshot.progs in
  [ ("mount", p.Snapshot.p_mount); ("umount", p.Snapshot.p_umount);
    ("bind", p.Snapshot.p_bind); ("ppp", p.Snapshot.p_ppp) ]

(* Which of [b]'s programs are physically [a]'s, by hook name. *)
let shared a b =
  List.map2 (fun (n, p) (_, q) -> (n, p == q)) (progs_list a) (progs_list b)

let check_shared what expect a b =
  Alcotest.(check (list (pair string bool))) what expect (shared a b)

(* A publish takes every program from the state's store, which compiles
   only a source value it has not seen: after a bare bump all four
   programs are shared with the previous snapshot, after a bind-map write
   only the bind program is new. *)
let test_publish_reuses_programs () =
  let st = fresh_state (spec ()) in
  let pub = Snapshot.make st in
  let s0 = Snapshot.current pub in
  let compiles = PS.compiles st in
  PS.bump_generation st PS.Mounts;
  PS.bump_generation st PS.Ppp;
  let s1 = Snapshot.publish pub st in
  check_shared "bare bump shares all four"
    [ ("mount", true); ("umount", true); ("bind", true); ("ppp", true) ] s0 s1;
  check_int "no compile" compiles (PS.compiles st);
  PS.set st (PS.Set_binds (List.tl st.PS.binds));
  let s2 = Snapshot.publish pub st in
  check_shared "Set_binds replaces only p_bind"
    [ ("mount", true); ("umount", true); ("bind", false); ("ppp", true) ] s1 s2;
  check_int "one compile" (compiles + 1) (PS.compiles st)

(* ABA: the mount whitelist set back to the value it had two epochs
   ago.  The store is keyed by the value, so whichever program serves it
   was compiled from that value, never B's; every plane verdict matches
   the reference oracle of the live policy in every epoch. *)
let test_aba_matches_oracle () =
  let sp = spec () in
  let st = fresh_state sp in
  let plane = Plane.create st in
  let reqs = (Workload.generate sp ~workers:1).Workload.s_requests in
  let a = st.PS.mounts in
  let b = List.filteri (fun i _ -> i mod 2 = 0) a in
  let check_all epoch =
    ignore (Plane.publish plane);
    Array.iteri
      (fun i req ->
        let o = Plane.decide plane req in
        if (o.Plane.o_verdict = Pfm.Allow) <> oracle st req then
          Alcotest.failf "epoch %d: decision %d disagrees with the oracle"
            epoch i)
      reqs
  in
  check_all 0;
  let p_a = (Plane.current plane).Snapshot.progs.Snapshot.p_mount in
  PS.set st (PS.Set_mounts b);
  check_all 1;
  let p_b = (Plane.current plane).Snapshot.progs.Snapshot.p_mount in
  check_bool "B has its own program" true (p_b != p_a);
  PS.set st (PS.Set_mounts a);
  check_all 2;
  check_bool "A back is not served B's program" true
    ((Plane.current plane).Snapshot.progs.Snapshot.p_mount != p_b)

(* Snapshot programs are the store's, shared by every worker and by the
   snapshots that follow: workers evaluate their own clones only. *)
let test_workers_leave_snapshot_programs () =
  let sp = spec () in
  let st = fresh_state sp in
  let plane = Plane.create ~domains:2 st in
  let snap = Plane.current plane in
  let sched = Workload.generate sp ~workers:2 in
  ignore (Plane.run plane sched.Workload.s_requests : Plane.run_result);
  let evals =
    List.fold_left (fun n (_, h) -> n + h.Plane.ht_evals) 0 (Plane.hook_stats plane)
  in
  check_bool "workers evaluated programs" true (evals > 0);
  List.iter
    (fun (name, (p : Pfm.program)) ->
      check_int (name ^ ": retired untouched") 0 p.Pfm.retired;
      check_bool (name ^ ": counters untouched") true
        (Array.for_all (( = ) 0) p.Pfm.counters))
    (progs_list snap)

(* 1,100 bare-bump publishes fill the 1,024-epoch history.  Each retained
   epoch pins its state copy, not four fresh programs, so the live heap
   barely grows, and decisions spread over the newest epochs still replay
   in full. *)
let test_bare_bump_storm_heap () =
  let sp = { (spec ()) with Workload.rules = 64 } in
  let st = fresh_state sp in
  let plane = Plane.create ~domains:1 st in
  let live_mb () =
    Gc.full_major ();
    float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6
  in
  let before = live_mb () in
  let reload () =
    PS.bump_generation st PS.Mounts;
    ignore (Plane.publish plane)
  in
  for _ = 1 to 1_100 do reload () done;
  let grown = live_mb () -. before in
  if grown >= 8. then
    Alcotest.failf "1,100 bare-bump publishes grew the live heap by %.1f MB" grown;
  let reqs = (Workload.generate sp ~workers:1).Workload.s_requests in
  let n = Array.length reqs in
  let reloads = List.init 8 (fun i -> ((i + 1) * n / 9, reload)) in
  ignore (Plane.run plane ~reloads reqs : Plane.run_result);
  let rep = Replay.replay_run plane ~run:0 ~count:n in
  check_int "every decision replays" n rep.Replay.rp_matched;
  check_bool "no mismatches" true (rep.Replay.rp_mismatches = []);
  check_bool "no missing epochs" true (rep.Replay.rp_missing_epochs = [])

(* --- sequential decide vs the oracle ------------------------------------ *)

let test_decide_matches_oracle () =
  let sp = spec () in
  let st = fresh_state sp in
  let plane = Plane.create st in
  let { Workload.s_requests; _ } = Workload.generate sp ~workers:1 in
  Array.iteri
    (fun i req ->
      let expect = oracle st req in
      let o1 = Plane.decide plane req in
      let o2 = Plane.decide plane req in
      check_bool
        (Printf.sprintf "decision %d" i)
        expect
        (o1.Plane.o_verdict = Pfm.Allow);
      check_bool
        (Printf.sprintf "decision %d warm repeat" i)
        expect
        (o2.Plane.o_verdict = Pfm.Allow);
      (match o1.Plane.o_errno with
       | Some _ when expect -> Alcotest.fail "errno on an allow"
       | None when not expect -> Alcotest.fail "no errno on a deny"
       | _ -> ());
      check_int (Printf.sprintf "decision %d epoch" i)
        (Plane.current plane).Snapshot.epoch o1.Plane.o_epoch)
    s_requests

let test_bind_errno () =
  let sp = spec () in
  let st = fresh_state sp in
  let plane = Plane.create st in
  let denied =
    Plane.decide plane
      (Plane.Bind
         { subject = 9999; port = 1000; proto = Protego_policy.Bindconf.Tcp;
           exe = "/usr/bin/rogue" })
  in
  Alcotest.(check (option (testable Errno.pp ( = ))))
    "bind denies with EACCES" (Some Errno.EACCES) denied.Plane.o_errno;
  let denied_mount =
    Plane.decide plane
      (Plane.Mount
         { subject = 1; source = "/dev/evil"; target = "/media/wl0";
           fstype = "ext4"; flags = [] })
  in
  Alcotest.(check (option (testable Errno.pp ( = ))))
    "mount denies with EPERM" (Some Errno.EPERM) denied_mount.Plane.o_errno

(* --- N-domain differential ---------------------------------------------- *)

let storm_phases =
  [ (Workload.Steady, 3_000);
    (Workload.Reload_storm { period = 500 }, 4_000);
    (Workload.Deny_flood, 2_000);
    (Workload.Steady, 2_000) ]

let run_with_reloads plane (sched : Workload.schedule) =
  let st = Plane.state plane in
  let reloads =
    List.map
      (fun (th, source) ->
        ( th,
          fun () ->
            PS.bump_generation st source;
            ignore (Plane.publish plane) ))
      sched.Workload.s_reloads
  in
  Plane.run plane ~reloads sched.Workload.s_requests

let test_differential_domains () =
  let sp =
    { (spec ~seed:11 ~phases:storm_phases ()) with Workload.loop = `Closed }
  in
  let n = List.fold_left (fun a (_, c) -> a + c) 0 storm_phases in
  let sched = Workload.generate sp ~workers:4 in
  check_int "schedule length" n (Array.length sched.Workload.s_requests);
  check_bool "storm produced reloads" true (sched.Workload.s_reloads <> []);
  (* Sequential reference: 1 domain, ref engine, same storms. *)
  let st_seq = fresh_state sp in
  let seq = Plane.create ~domains:1 st_seq in
  Plane.set_engine seq `Ref;
  let rr_seq = run_with_reloads seq sched in
  (* Parallel run: 4 domains, compiled engine, same storms. *)
  let st_par = fresh_state sp in
  let par = Plane.create ~domains:4 st_par in
  let rr_par = run_with_reloads par sched in
  check_int "outcome count" n (Array.length rr_par.Plane.rr_outcomes);
  Array.iteri
    (fun i (o : Plane.outcome) ->
      let s = rr_seq.Plane.rr_outcomes.(i) in
      if o.Plane.o_verdict <> s.Plane.o_verdict then
        Alcotest.failf "verdict divergence at %d" i;
      if o.Plane.o_errno <> s.Plane.o_errno then
        Alcotest.failf "errno divergence at %d" i;
      (* Storm reloads preserve semantics, so the fixed-policy oracle
         also holds, whatever snapshot epoch served the decision. *)
      let expect = oracle st_par sched.Workload.s_requests.(i) in
      if (o.Plane.o_verdict = Pfm.Allow) <> expect then
        Alcotest.failf "oracle divergence at %d" i)
    rr_par.Plane.rr_outcomes;
  (* Audit-spool integrity: exactly one record per request, in order. *)
  check_int "audit count" n (Array.length rr_par.Plane.rr_audit);
  Array.iteri
    (fun i (a : J.decision) ->
      if a.J.d_seq <> i then Alcotest.failf "audit seq hole at %d" i;
      let req = sched.Workload.s_requests.(i) in
      (match Request.of_journal ~subject:a.J.d_subject a.J.d_req with
       | Some r when Request.index r = Request.index req -> ()
       | _ -> Alcotest.failf "audit hook mismatch at %d" i);
      (* verdict 3 = "recorded": served as an allow under record mode *)
      if
        (a.J.d_verdict = 1 || a.J.d_verdict = 3)
        <> (rr_par.Plane.rr_outcomes.(i).Plane.o_verdict = Pfm.Allow)
      then Alcotest.failf "audit verdict mismatch at %d" i)
    rr_par.Plane.rr_audit;
  (* Merged per-hook stats add up across workers. *)
  let total =
    List.fold_left
      (fun acc (_, ht) -> acc + ht.Plane.ht_decisions)
      0 (Plane.hook_stats par)
  in
  check_int "per-hook decisions sum to the run" n total

(* A reload that flips semantics mid-flight: every verdict must match
   the snapshot its decision reports — old or new policy, never a torn
   mix of both. *)
let test_semantic_flip_never_torn () =
  let st = PS.create () in
  let rule flags =
    [ { PS.mr_source = "/dev/cdrom"; mr_target = "/media/cdrom";
        mr_fstype = "iso9660"; mr_flags = flags; mr_mode = `Users;
        mr_phase = PS.Phase.Always } ]
  in
  PS.set st (PS.Set_mounts (rule []));
  let plane = Plane.create ~domains:2 st in
  let snaps = Hashtbl.create 8 in
  let remember s = Hashtbl.replace snaps s.Snapshot.epoch s in
  remember (Plane.current plane);
  (* One interned request, asked 10k times across 2 domains. *)
  let req =
    Plane.Mount
      { subject = 1000; source = "/dev/cdrom"; target = "/media/cdrom";
        fstype = "iso9660"; flags = [] }
  in
  let reqs = Array.make 10_000 req in
  let flip flags () =
    PS.set st (PS.Set_mounts (rule flags));
    remember (Plane.publish plane)
  in
  let reloads =
    [ (2_000, flip [ Ktypes.Mf_nosuid ]); (5_000, flip []);
      (8_000, flip [ Ktypes.Mf_readonly ]) ]
  in
  let rr = Plane.run plane ~reloads reqs in
  remember (Plane.current plane);
  Array.iteri
    (fun i (o : Plane.outcome) ->
      match Hashtbl.find_opt snaps o.Plane.o_epoch with
      | None -> Alcotest.failf "decision %d stamped unknown epoch %d" i o.Plane.o_epoch
      | Some snap ->
          let expect = snapshot_oracle snap req in
          if (o.Plane.o_verdict = Pfm.Allow) <> expect then
            Alcotest.failf
              "decision %d torn: verdict disagrees with its epoch %d" i
              o.Plane.o_epoch)
    rr.Plane.rr_outcomes;
  (* Audit epochs agree with outcome epochs. *)
  Array.iteri
    (fun i (a : J.decision) ->
      if a.J.d_epoch <> rr.Plane.rr_outcomes.(i).Plane.o_epoch then
        Alcotest.failf "audit epoch mismatch at %d" i)
    rr.Plane.rr_audit

(* --- workload generator -------------------------------------------------- *)

let test_workload_deterministic () =
  let sp =
    { (spec ~seed:5 ~phases:storm_phases ()) with Workload.loop = `Closed }
  in
  let a = Workload.generate sp ~workers:4 in
  let b = Workload.generate sp ~workers:4 in
  check_bool "same spec, same schedule" true
    (a.Workload.s_requests = b.Workload.s_requests);
  check_bool "same spec, same reloads" true
    (a.Workload.s_reloads = b.Workload.s_reloads);
  let c = Workload.generate { sp with Workload.seed = 6 } ~workers:4 in
  check_bool "different seed, different schedule" false
    (a.Workload.s_requests = c.Workload.s_requests)

let test_workload_zipf_and_interning () =
  let sp = spec ~seed:3 () in
  let { Workload.s_requests; _ } = Workload.generate sp ~workers:1 in
  let n = Array.length s_requests in
  (* Interning: draws alias pool values, so the number of distinct
     physical requests is bounded by the pools, far below n. *)
  let distinct = ref [] in
  Array.iter
    (fun r -> if not (List.memq r !distinct) then distinct := r :: !distinct)
    s_requests;
  check_bool "interned pool"
    true
    (List.length !distinct <= 8 * sp.Workload.pool);
  (* Zipf: the hottest request dominates a uniform draw by a wide margin. *)
  let counts = Hashtbl.create 256 in
  Array.iter
    (fun r ->
      Hashtbl.replace counts (Obj.repr r)
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts (Obj.repr r))))
    s_requests;
  let hottest = Hashtbl.fold (fun _ c acc -> max c acc) counts 0 in
  check_bool "zipf head heat" true (hottest * sp.Workload.pool > 5 * n)

let test_workload_deny_flood () =
  let sp = spec ~seed:9 ~phases:[ (Workload.Deny_flood, 2_000) ] () in
  let st = fresh_state sp in
  let { Workload.s_requests; _ } = Workload.generate sp ~workers:1 in
  let denies =
    Array.fold_left
      (fun acc r -> if oracle st r then acc else acc + 1)
      0 s_requests
  in
  check_bool "flood mostly denies" true (denies * 2 > Array.length s_requests)

let test_workload_phase_storm () =
  let phases =
    [ (Workload.Steady, 1_000);
      (Workload.Phase_storm { period = 200 }, 2_000);
      (Workload.Steady, 1_000) ]
  in
  let sp = { (spec ~seed:13 ~phases ()) with Workload.loop = `Closed } in
  let a = Workload.generate sp ~workers:4 in
  let b = Workload.generate sp ~workers:4 in
  check_bool "phase steps deterministic" true
    (a.Workload.s_phase_steps = b.Workload.s_phase_steps);
  check_bool "storm produced phase steps" true
    (a.Workload.s_phase_steps <> []);
  List.iter
    (fun (th, s) ->
      check_bool "threshold inside the storm window" true
        (th > 1_000 && th < 3_000);
      check_bool "subject in range" true (s >= 0 && s < sp.Workload.subjects))
    a.Workload.s_phase_steps;
  (* The storm's rules are always-guarded, so the scheduled transitions
     are verdict-preserving: the fixed-policy oracle must hold for every
     outcome even as subjects advance mid-run (the transitions stress
     the per-subject phase table, not the semantics). *)
  let st = fresh_state sp in
  let plane = Plane.create ~domains:4 st in
  let reloads =
    List.map
      (fun (th, s) ->
        ( th,
          fun () ->
            let cur = Plane.subject_phase plane ~subject:s in
            let nxt = Protego_base.Phase.succ cur in
            if not (Protego_base.Phase.equal cur nxt) then
              match Plane.set_subject_phase plane ~subject:s nxt with
              | Ok () -> ()
              | Error e -> Alcotest.failf "phase step refused: %s" e ))
      a.Workload.s_phase_steps
  in
  let rr = Plane.run plane ~reloads a.Workload.s_requests in
  Array.iteri
    (fun i (o : Plane.outcome) ->
      let expect = oracle st a.Workload.s_requests.(i) in
      if (o.Plane.o_verdict = Pfm.Allow) <> expect then
        Alcotest.failf "oracle divergence at %d" i)
    rr.Plane.rr_outcomes

(* --- /proc/protego/plane ------------------------------------------------- *)

let contains = Test_support.contains

let test_proc_render_and_write () =
  let sp = spec () in
  let st = fresh_state sp in
  let plane = Plane.create st in
  check_bool "initial render" true
    (contains (Plane.render plane) "plane domains 1 engine pfm epoch 0 runs 0");
  Alcotest.(check (result unit string))
    "domains write" (Ok ())
    (Plane.handle_write plane "domains 4");
  check_int "domains applied" 4 (Plane.domains plane);
  Alcotest.(check (result unit string))
    "engine write" (Ok ())
    (Plane.handle_write plane "engine ref");
  check_bool "engine applied" true (Plane.engine plane = `Ref);
  Alcotest.(check (result unit string))
    "publish write" (Ok ())
    (Plane.handle_write plane "publish");
  check_int "publish bumped epoch" 1 (Plane.current plane).Snapshot.epoch;
  check_bool "bad domains rejected" true
    (Result.is_error (Plane.handle_write plane "domains 0"));
  check_bool "unknown command rejected" true
    (Result.is_error (Plane.handle_write plane "frobnicate"));
  ignore (Plane.run plane (Workload.generate sp ~workers:4).Workload.s_requests);
  check_int "runs counted" 1 (Plane.runs plane);
  Alcotest.(check (result unit string))
    "reset" (Ok ())
    (Plane.handle_write plane "reset");
  check_int "reset zeroed runs" 0 (Plane.runs plane)

let test_proc_in_image () =
  let img = Image.build Image.Protego in
  let m = img.Image.machine in
  m.password_source <- (fun _ -> None);
  let root = Image.login img "root" in
  (match Syscall.read_file m root "/proc/protego/plane" with
   | Ok s -> check_bool "image render" true (contains s "plane domains")
   | Error _ -> Alcotest.fail "cannot read /proc/protego/plane");
  (match Syscall.write_file m root "/proc/protego/plane" "domains 2" with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "cannot write /proc/protego/plane");
  (match Syscall.read_file m root "/proc/protego/plane" with
   | Ok s -> check_bool "domains visible" true (contains s "plane domains 2")
   | Error _ -> Alcotest.fail "cannot re-read /proc/protego/plane");
  (match Syscall.write_file m root "/proc/protego/plane" "bogus" with
   | Error Errno.EINVAL -> ()
   | _ -> Alcotest.fail "bogus write must be EINVAL");
  (* The plane serves decisions against the policy the LSM loaded. *)
  (match img.Image.plane with
   | None -> Alcotest.fail "Protego image has no plane"
   | Some plane ->
       let st = Plane.state plane in
       let req =
         Plane.Mount
           { subject = Image.alice_uid; source = "/dev/cdrom";
             target = "/media/cdrom"; fstype = "iso9660"; flags = [] }
       in
       let o = Plane.decide plane req in
       check_bool "plane agrees with the live policy" (oracle st req)
         (o.Plane.o_verdict = Pfm.Allow))

(* --- run timing ----------------------------------------------------------- *)

let test_timing_and_latency () =
  let sp = spec () in
  let st = fresh_state sp in
  let plane = Plane.create ~domains:2 st in
  (* A deterministic "clock": 10ns per read. *)
  Plane.set_clock plane (Test_support.counter_clock ());
  let rr = Plane.run plane (Workload.generate sp ~workers:2).Workload.s_requests in
  check_bool "wall time measured" true (rr.Plane.rr_wall_ns > 0);
  check_int "one min-op sample per worker" 2 (Array.length rr.Plane.rr_min_op_ns);
  Array.iter
    (fun ns -> check_bool "min op cost finite" true (Float.is_finite ns))
    rr.Plane.rr_min_op_ns;
  check_bool "latency lines rendered" true
    (contains (Plane.render plane) "latency hook")

(* --- in-flight reconfiguration guard ------------------------------------- *)

let test_set_domains_in_flight () =
  let sp = spec () in
  let st = fresh_state sp in
  let plane = Plane.create ~domains:2 st in
  (* A simulated run in flight: the worker-array swap must be refused. *)
  ignore (Plane.sim_begin plane : int);
  check_bool "running flagged" true (Plane.running plane);
  (try
     Plane.set_domains plane 4;
     Alcotest.fail "set_domains accepted mid-run"
   with Invalid_argument msg ->
     check_bool "error names the condition" true (contains msg "in flight"));
  (match Plane.handle_write plane "domains 4" with
   | Error msg ->
       check_bool "domains write refused" true (contains msg "in flight")
   | Ok () -> Alcotest.fail "domains write accepted mid-run");
  (match Plane.handle_write plane "reset" with
   | Error msg -> check_bool "reset refused" true (contains msg "in flight")
   | Ok () -> Alcotest.fail "reset accepted mid-run");
  (try
     ignore (Plane.run plane [||] : Plane.run_result);
     Alcotest.fail "a second run started mid-run"
   with Failure _ -> ());
  Plane.sim_end plane;
  check_bool "running cleared" false (Plane.running plane);
  Plane.set_domains plane 4;
  check_int "applied between runs" 4 (Plane.domains plane);
  (* A real run: a reload action racing set_domains is refused too.
     One domain takes the inline path, where the action fires exactly
     at its threshold — deterministically mid-run. *)
  Plane.set_domains plane 1;
  let trapped = ref None in
  let reloads =
    [ ( 100,
        fun () ->
          try Plane.set_domains plane 2
          with Invalid_argument m -> trapped := Some m ) ]
  in
  ignore
    (Plane.run plane ~reloads
       (Workload.generate sp ~workers:1).Workload.s_requests
      : Plane.run_result);
  (match !trapped with
   | Some m ->
       check_bool "mid-run set_domains trapped" true (contains m "in flight")
   | None -> Alcotest.fail "set_domains raced a live run unchecked");
  check_int "domains unchanged by the race" 1 (Plane.domains plane);
  check_bool "running cleared after the run" false (Plane.running plane)

(* --- bounded history vs journal replay ----------------------------------- *)

let test_replay_after_rotate_and_reset () =
  let sp = spec ~phases:[ (Workload.Steady, 500) ] () in
  let st = fresh_state sp in
  let plane = Plane.create ~domains:1 st in
  let reqs = (Workload.generate sp ~workers:1).Workload.s_requests in
  let n = Array.length reqs in
  ignore (Plane.run plane reqs : Plane.run_result);
  let rep = Replay.replay_run plane ~run:0 ~count:n in
  check_int "run 0 replays in full" n rep.Replay.rp_matched;
  check_bool "no mismatches" true (rep.Replay.rp_mismatches = []);
  check_bool "no missing epochs" true (rep.Replay.rp_missing_epochs = []);
  (* Rotation drops the records; the stitch must fail loudly, not
     return a partial trail. *)
  Plane.rotate_journal plane;
  (try
     ignore (Replay.replay_run plane ~run:0 ~count:n : Replay.report);
     Alcotest.fail "rotated-away run still replayable"
   with Failure _ -> ());
  (* A new run on the fresh journal replays; snapshot history survives
     the rotation (epochs are plane state, not journal state). *)
  ignore (Plane.run plane reqs : Plane.run_result);
  let rep1 = Replay.replay_run plane ~run:1 ~count:n in
  check_int "run 1 replays after rotation" n rep1.Replay.rp_matched;
  Plane.reset_journal plane;
  (try
     ignore (Replay.replay_run plane ~run:1 ~count:n : Replay.report);
     Alcotest.fail "reset journal still replayable"
   with Failure _ -> ())

let test_replay_missing_epochs () =
  (* A bounded history evicts the epoch a journaled decision stamps:
     replay must report the epoch as missing, not guess a snapshot. *)
  let sp = spec () in
  let st = fresh_state sp in
  let pub = Snapshot.make ~history:2 st in
  let d =
    { J.d_seq = 0; d_run = 0; d_epoch = 0; d_domain = 0; d_subject = 0;
      d_verdict = 1; d_errno = 0; d_phase = 0;
      d_req =
        J.Mount
          { source = "/dev/wl1"; target = "/media/wl1"; fstype = "ext4";
            flags = 0 };
      d_lsm = None }
  in
  (* Evict epoch 0 from the 2-deep window. *)
  for _ = 1 to 3 do
    PS.bump_generation st PS.Mounts;
    ignore (Snapshot.publish pub st : Snapshot.t)
  done;
  check_bool "epoch 0 evicted" true (Snapshot.at_epoch pub 0 = None);
  check_bool "window start retained" true (Snapshot.at_epoch pub 2 <> None);
  let rep = Replay.replay ~snapshot_of_epoch:(Snapshot.at_epoch pub) [| d |] in
  check_bool "epoch 0 reported missing" true
    (rep.Replay.rp_missing_epochs = [ 0 ]);
  check_int "the skipped record is not counted as matched" 0
    rep.Replay.rp_matched;
  check_bool "and not as mismatched" true (rep.Replay.rp_mismatches = [])

let suites =
  [ ("plane:snapshot",
     [ Alcotest.test_case "freeze and publish" `Quick test_freeze_publish;
       Alcotest.test_case "set bumps one source" `Quick test_set_bumps_one;
       Alcotest.test_case "bounded history" `Quick test_history_bound;
       Alcotest.test_case "atomic generations" `Quick test_atomic_generations ]);
    ("plane:programs",
     [ Alcotest.test_case "publish reuses unchanged programs" `Quick
         test_publish_reuses_programs;
       Alcotest.test_case "ABA mounts match the oracle" `Quick
         test_aba_matches_oracle;
       Alcotest.test_case "workers leave snapshot programs" `Quick
         test_workers_leave_snapshot_programs;
       Alcotest.test_case "bare-bump storm keeps the heap flat" `Quick
         test_bare_bump_storm_heap ]);
    ("plane:decide",
     [ Alcotest.test_case "sequential decide vs oracle" `Quick
         test_decide_matches_oracle;
       Alcotest.test_case "per-hook errnos" `Quick test_bind_errno ]);
    ("plane:differential",
     [ Alcotest.test_case "4-domain run equals sequential reference" `Quick
         test_differential_domains;
       Alcotest.test_case "semantic flip never torn" `Quick
         test_semantic_flip_never_torn ]);
    ("plane:guard",
     [ Alcotest.test_case "set_domains refused in flight" `Quick
         test_set_domains_in_flight ]);
    ("plane:replay",
     [ Alcotest.test_case "rotate and reset invalidate the stitch" `Quick
         test_replay_after_rotate_and_reset;
       Alcotest.test_case "evicted epochs reported missing" `Quick
         test_replay_missing_epochs ]);
    ("plane:workload",
     [ Alcotest.test_case "deterministic generation" `Quick
         test_workload_deterministic;
       Alcotest.test_case "zipf and interning" `Quick
         test_workload_zipf_and_interning;
       Alcotest.test_case "deny flood floods" `Quick test_workload_deny_flood;
       Alcotest.test_case "phase storm schedules verdict-preserving steps"
         `Quick test_workload_phase_storm ]);
    ("plane:proc",
     [ Alcotest.test_case "render and commands" `Quick
         test_proc_render_and_write;
       Alcotest.test_case "vnode in the image" `Quick test_proc_in_image ]);
    ("plane:capacity",
     [ Alcotest.test_case "timing and latency merge" `Quick
         test_timing_and_latency ]) ]
