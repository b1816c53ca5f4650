(* Lifecycle-phase edges: phase-keyed cache invalidation on the
   decision plane, in-flight multi-domain transitions, the tighten-only
   refusal paths (plane table, /proc/protego/phase, the load-time lint
   gate), the kernel's bind-then-drop story, and total-order replay of
   a journaled phase-crossing run. *)

open Protego_base
open Protego_kernel
module Image = Protego_dist.Image
module PS = Protego_core.Policy_state
module Pfm = Protego_filter.Pfm
module Bindconf = Protego_policy.Bindconf
module Plane = Protego_plane.Plane
module Request = Protego_core.Request
module Snapshot = Protego_plane.Snapshot
module Replay = Protego_plane.Replay
module J = Protego_journal.Journal

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let errno =
  Alcotest.testable (fun ppf e -> Fmt.string ppf (Errno.to_string e)) Errno.equal

let contains haystack needle =
  let nl = String.length needle in
  let rec go i =
    i + nl <= String.length haystack
    && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

(* A policy with one setup-only grant and one lifetime grant per hook,
   so a phase transition flips exactly the guarded verdicts. *)
let phased_state () =
  let st = PS.create () in
  PS.set st
    (PS.Set_mounts
       [ { PS.mr_source = "/dev/install"; mr_target = "/mnt/install";
           mr_fstype = "iso9660"; mr_flags = []; mr_mode = `Users;
           mr_phase = Phase.Upto Phase.Setup };
         { PS.mr_source = "/dev/cdrom"; mr_target = "/mnt/cdrom";
           mr_fstype = "iso9660"; mr_flags = []; mr_mode = `Users;
           mr_phase = Phase.Always } ]);
  PS.set st
    (PS.Set_binds
       [ { Bindconf.port = 25; proto = Bindconf.Tcp; exe = "/usr/sbin/exim4";
           owner = 10; phase = Phase.Upto Phase.Setup } ]);
  st

let setup_mount subject =
  Plane.Mount
    { subject; source = "/dev/install"; target = "/mnt/install";
      fstype = "iso9660"; flags = [] }

let lifetime_mount subject =
  Plane.Mount
    { subject; source = "/dev/cdrom"; target = "/mnt/cdrom";
      fstype = "iso9660"; flags = [] }

let allowed (o : Plane.outcome) = o.Plane.o_verdict = Pfm.Allow

(* --- phase-keyed cache invalidation ------------------------------------- *)

let test_plane_invalidation () =
  let st = phased_state () in
  let plane = Plane.create st in
  let req5 = setup_mount 5 and req6 = setup_mount 6 in
  (* Decide in the setup phase, twice. *)
  check "cold allow in setup" true (allowed (Plane.decide plane req5));
  check "warm allow in setup" true (allowed (Plane.decide plane req5));
  check "other subject allows" true (allowed (Plane.decide plane req6));
  Alcotest.(check (result unit string))
    "transition accepted" (Ok ())
    (Plane.set_subject_phase plane ~subject:5 Phase.Serving);
  (* Same interned request value: only the subject's phase changed, so
     any verdict remembered from before the transition would wrongly
     allow. *)
  let o = Plane.decide plane req5 in
  check "guarded grant expired" false (allowed o);
  check_int "served under serving" (Phase.index Phase.Serving) o.Plane.o_phase;
  check "expiry is warm too" false (allowed (Plane.decide plane req5));
  (* The transition strands only the transitioning subject's entries. *)
  let o6 = Plane.decide plane req6 in
  check "other subject unaffected" true (allowed o6);
  check_int "other subject still setup" (Phase.index Phase.Setup)
    o6.Plane.o_phase;
  (* Unguarded rules survive the transition. *)
  check "lifetime grant survives" true
    (allowed (Plane.decide plane (lifetime_mount 5)))

let test_plane_loosening_refused () =
  let st = phased_state () in
  let plane = Plane.create st in
  Alcotest.(check (result unit string))
    "advance to steady" (Ok ())
    (Plane.set_subject_phase plane ~subject:7 Phase.Steady);
  (match Plane.set_subject_phase plane ~subject:7 Phase.Setup with
  | Ok () -> Alcotest.fail "loosening transition accepted"
  | Error msg -> check "error names the loosening" true (contains msg "loosen"));
  check "phase unchanged after refusal" true
    (Phase.equal Phase.Steady (Plane.subject_phase plane ~subject:7))

(* --- in-flight multi-domain transition ---------------------------------- *)

(* One batch with a mid-batch transition of subjects 0 and 2; returns
   the per-(subject, phase) outcome counts after asserting every
   outcome reproduces against the snapshot named by its epoch stamp AND
   the phase it was served under. *)
let run_transition_batch ~domains ~n =
  let st = phased_state () in
  let plane = Plane.create ~domains st in
  (* The journaled phase-crossing path has its own test below; here the
     target is the phase-keyed decision semantics, so skip the audit
     trail and keep the batch cheap. *)
  Result.get_ok (Plane.handle_write plane "audit off");
  let nsubj = 4 in
  let pool = Array.init nsubj (fun s -> setup_mount s) in
  let requests = Array.init n (fun i -> pool.(i mod nsubj)) in
  let reloads =
    [ ( n / 2,
        fun () ->
          Result.get_ok (Plane.set_subject_phase plane ~subject:0 Phase.Serving);
          Result.get_ok (Plane.set_subject_phase plane ~subject:2 Phase.Serving)
      ) ]
  in
  let rr = Plane.run plane ~reloads requests in
  check_int "all outcomes collected" n (Array.length rr.Plane.rr_outcomes);
  let seen = Array.make_matrix nsubj Phase.count 0 in
  Array.iteri
    (fun i (o : Plane.outcome) ->
      let req = requests.(i) in
      let subject = Request.subject req in
      seen.(subject).(o.Plane.o_phase) <- seen.(subject).(o.Plane.o_phase) + 1;
      match Plane.snapshot_at plane o.Plane.o_epoch with
      | None -> Alcotest.failf "outcome %d names a lost epoch" i
      | Some snap ->
          let expect =
            Request.oracle ~phase:(Phase.of_index o.Plane.o_phase)
              snap.Snapshot.frozen req
          in
          if expect <> allowed o then
            Alcotest.failf "outcome %d diverges from its phase-stamped oracle"
              i)
    rr.Plane.rr_outcomes;
  seen

let setup_i = Phase.index Phase.Setup
let serving_i = Phase.index Phase.Serving

let check_transition_coverage seen =
  List.iter
    (fun s ->
      check
        (Printf.sprintf "subject %d decided in setup" s)
        true
        (seen.(s).(setup_i) > 0);
      check
        (Printf.sprintf "subject %d decided in serving" s)
        true
        (seen.(s).(serving_i) > 0))
    [ 0; 2 ];
  List.iter
    (fun s ->
      check_int
        (Printf.sprintf "subject %d never left setup" s)
        0
        (seen.(s).(serving_i)))
    [ 1; 3 ]

let test_inflight_transition_seq () =
  (* One domain: the reload fires exactly before submission n/2, so the
     split is deterministic — first half setup, second half serving for
     the transitioned subjects. *)
  let n = 400 in
  let seen = run_transition_batch ~domains:1 ~n in
  check_transition_coverage seen;
  check_int "subject 0 setup half" (n / 8) seen.(0).(setup_i);
  check_int "subject 0 serving half" (n / 8) seen.(0).(serving_i)

let test_inflight_transition_domains () =
  (* Real domains: the transition lands wherever the coordinator
     observes the halfway mark, so where the phase split falls is up to
     the OS scheduler.  The oracle check inside [run_transition_batch]
     is unconditional on every attempt; the both-phases-covered check
     is best-effort over a bounded number of batches, because on a
     single-CPU box the coordinator may only get scheduled at the batch
     boundary (the 1-domain test above pins the split deterministically). *)
  let covered seen =
    List.for_all
      (fun s -> seen.(s).(setup_i) > 0 && seen.(s).(serving_i) > 0)
      [ 0; 2 ]
  in
  let rec attempt k =
    let seen = run_transition_batch ~domains:4 ~n:100_000 in
    if covered seen then check_transition_coverage seen
    else if k < 8 then attempt (k + 1)
  in
  attempt 1

(* --- journaled phase-crossing replay ------------------------------------ *)

let test_replay_crossing () =
  let st = phased_state () in
  let plane = Plane.create st in
  let run_id = Plane.sim_begin plane in
  let reqs =
    [| setup_mount 3; lifetime_mount 3; setup_mount 3; lifetime_mount 3 |]
  in
  let journal seq =
    let o = Plane.decide_on plane ~worker:0 reqs.(seq) in
    Plane.journal_decision plane ~worker:0 ~run:run_id ~seq reqs.(seq) o;
    o
  in
  check "setup-window mount allowed" true (allowed (journal 0));
  check "lifetime mount allowed" true (allowed (journal 1));
  Alcotest.(check (result unit string))
    "transition mid-run" (Ok ())
    (Plane.set_subject_phase plane ~subject:3 Phase.Serving);
  check "setup-window mount expired" false (allowed (journal 2));
  check "lifetime mount still allowed" true (allowed (journal 3));
  Plane.sim_end plane;
  (* The served phase travels in the record's own phase field; the
     request strings are stored as submitted. *)
  let ds =
    List.filter
      (fun d -> d.J.d_run = run_id)
      (J.decisions (Plane.journal plane))
  in
  check_int "four records" 4 (List.length ds);
  List.iter
    (fun (d : J.decision) ->
      let expect = if d.J.d_seq < 2 then 0 else Phase.index Phase.Serving in
      check_int
        (Printf.sprintf "record %d phase stamp" d.J.d_seq)
        expect d.J.d_phase;
      match (d.J.d_req, reqs.(d.J.d_seq)) with
      | J.Mount { source; _ }, Plane.Mount m ->
          Alcotest.(check string)
            (Printf.sprintf "record %d source verbatim" d.J.d_seq)
            m.source source
      | _ -> Alcotest.fail "unexpected record kind")
    ds;
  (* Replay re-evaluates each record under its stamped phase: the same
     request journaled as allow (seq 0) and deny (seq 2) both match. *)
  let rep = Replay.replay_run plane ~run:run_id ~count:4 in
  check_int "replay total" 4 rep.Replay.rp_total;
  check_int "replay matched" 4 rep.Replay.rp_matched;
  check "no mismatches" true (rep.Replay.rp_mismatches = [])

(* --- /proc/protego/phase ------------------------------------------------ *)

let phase_audits m =
  List.filter (fun r -> r.Audit.au_op = "phase") (Audit.records m)

let test_proc_phase () =
  let img = Image.build Image.Protego in
  let m = img.Image.machine in
  let root = Image.login img "root" in
  let alice = Image.login img "alice" in
  let read () =
    Syntax.expect_ok "read phase" (Syscall.read_file m root "/proc/protego/phase")
  in
  let write s = Syscall.write_file m root "/proc/protego/phase" s in
  check "fresh task reported in setup" true
    (contains (read ()) (Printf.sprintf "pid %d phase setup" alice.tpid));
  Syntax.expect_ok "advance to serving"
    (write (Printf.sprintf "pid %d serving" alice.tpid));
  check "transition visible" true
    (contains (read ()) (Printf.sprintf "pid %d phase serving" alice.tpid));
  check "advance audited" true
    (List.exists (fun r -> r.Audit.au_allowed) (phase_audits m));
  (* Loosening back to setup: EPERM plus an audit record. *)
  Alcotest.(check (result unit errno))
    "loosening refused" (Error Errno.EPERM)
    (write (Printf.sprintf "pid %d setup" alice.tpid));
  check "still serving" true
    (contains (read ()) (Printf.sprintf "pid %d phase serving" alice.tpid));
  check "refusal audited" true
    (List.exists
       (fun r ->
         (not r.Audit.au_allowed) && contains r.Audit.au_obj "loosening refused")
       (phase_audits m));
  (* Idempotent re-assertion of the current phase is not a loosening. *)
  Syntax.expect_ok "same-phase write ok"
    (write (Printf.sprintf "pid %d serving" alice.tpid));
  Alcotest.(check (result unit errno))
    "unknown pid" (Error Errno.ESRCH) (write "pid 99999 serving");
  Alcotest.(check (result unit errno))
    "malformed write" (Error Errno.EINVAL) (write "advance everything")

(* --- kernel bind-then-drop ---------------------------------------------- *)

let test_kernel_bind_then_drop () =
  let img = Image.build Image.Protego in
  let m = img.Image.machine in
  let root = Image.login img "root" in
  (* A setup-only port grant, as in examples/policies/bind.phased.map. *)
  Syntax.expect_ok "install phased bind map"
    (Syscall.write_file m root "/proc/protego/bind_map"
       (Printf.sprintf "995 tcp /usr/sbin/featherd %d phase<=setup\n"
          Image.alice_uid));
  let daemon = Image.login img "alice" in
  daemon.exe_path <- "/usr/sbin/featherd";
  let bind () =
    let fd =
      Syntax.expect_ok "socket"
        (Syscall.socket m daemon Ktypes.Af_inet Ktypes.Sock_stream 6)
    in
    let r = Syscall.bind m daemon fd Protego_net.Ipaddr.any 995 in
    (fd, r)
  in
  let fd, first = bind () in
  Syntax.expect_ok "setup-phase bind allowed" first;
  check "still in setup" true (Phase.equal Phase.Setup daemon.sec.phase);
  (* First listen is the serving transition. *)
  Syntax.expect_ok "listen" (Syscall.listen m daemon fd);
  check "listen advanced the phase" true
    (Phase.equal Phase.Serving daemon.sec.phase);
  (* Free the port so the refusal comes from the phased policy, not
     from the address being in use. *)
  ignore (Syscall.close m daemon fd);
  (* The same grant, same binary, same uid — expired with the phase. *)
  let _, second = bind () in
  Alcotest.(check (result unit errno))
    "post-listen bind refused" (Error Errno.EACCES) second

(* --- the load gate refuses loosening policy ----------------------------- *)

let test_load_gate_loosening () =
  let img = Image.build Image.Protego in
  let m = img.Image.machine in
  let root = Image.login img "root" in
  let read file =
    Syntax.expect_ok ("read " ^ file) (Syscall.read_file m root file)
  in
  let write file s = Syscall.write_file m root file s in
  let loosening =
    Printf.sprintf "995 tcp /usr/sbin/dovecot %d phase>=serving\n"
      Image.wwwdata_uid
  in
  let before = read "/proc/protego/bind_map" in
  Syntax.expect_ok "switch to enforce"
    (write "/proc/protego/lint" "mode enforce\n");
  Alcotest.(check (result unit errno))
    "loosening policy refused at load" (Error Errno.EPERM)
    (write "/proc/protego/bind_map" loosening);
  Alcotest.(check string)
    "refused write rolled back" before
    (read "/proc/protego/bind_map");
  check "stable code in the lint report" true
    (contains
       (Protego_analysis.Policy_lint.render
          (Protego_analysis.Policy_lint.lint_binds
             (Result.get_ok (Bindconf.parse loosening))))
       "PL-PH001");
  check "refusal audited" true
    (List.exists
       (fun r ->
         r.Audit.au_op = "policy-load" && not r.Audit.au_allowed)
       (Audit.records m));
  (* The downward-closed variant is accepted by the same gate. *)
  Syntax.expect_ok "tighten-only variant loads"
    (write "/proc/protego/bind_map"
       (Printf.sprintf "995 tcp /usr/sbin/dovecot %d phase<=setup\n"
          Image.wwwdata_uid))

let suites =
  [ ( "phase:plane",
      [ Alcotest.test_case "a transition changes only its subject's verdicts"
          `Quick test_plane_invalidation;
        Alcotest.test_case "plane table refuses loosening" `Quick
          test_plane_loosening_refused;
        Alcotest.test_case "in-flight transition, single domain" `Quick
          test_inflight_transition_seq;
        Alcotest.test_case "in-flight transition, multi-domain" `Quick
          test_inflight_transition_domains;
        Alcotest.test_case "journaled phase-crossing replay" `Quick
          test_replay_crossing ] );
    ( "phase:kernel",
      [ Alcotest.test_case "/proc/protego/phase advance and refusal" `Quick
          test_proc_phase;
        Alcotest.test_case "bind-then-drop across first listen" `Quick
          test_kernel_bind_then_drop;
        Alcotest.test_case "load gate refuses loosening policy" `Quick
          test_load_gate_loosening ] ) ]
