(* Deterministic interleaving harness for the decision cache.

   A scripted scheduler replays every merge order of a fixed reloader
   script (three /proc policy writes) against a fixed decider script
   (three probe batches).  Each probe asks the dispatcher twice and
   compares both answers against the reference oracle computed from the
   live policy state at that instant.  If any reload left a stale verdict
   or program servable, some interleaving puts a probe right after it and
   the oracle comparison fails.  With 3 reload and 3 probe steps this is C(6,3) = 20
   schedules, each on a fresh image.

   The plane counterpart of this harness moved onto the deterministic
   simulator: its 20 merge orders are pinned as named scripts in
   {!Protego_sim.Sim.golden_plane_scripts}, replayed through [Sim.run],
   checked against the full temporal-property registry, and
   independently re-verified here by a parity walk that recomputes
   every verdict and errno the legacy loop asserted. *)

open Protego_base
open Protego_kernel
open Ktypes
module Image = Protego_dist.Image
module PD = Protego_core.Pfm_dispatch
module PS = Protego_core.Policy_state
module Bindconf = Protego_policy.Bindconf
module Plane = Protego_plane.Plane
module Request = Protego_core.Request
module Sim = Protego_sim.Sim
module Prop = Protego_sim.Prop

let check = Alcotest.(check bool)

(* All merge orders preserving the relative order within each script. *)
let interleavings = Sim.interleavings

type step = Reload of string * string * string  (* label, /proc path, contents *)
          | Probe

let whitelist = "/proc/protego/mount_whitelist"
let bind_map = "/proc/protego/bind_map"

(* The initial policy: cdrom mountable with no flag requirement, port 777
   granted to exim over tcp. *)
let w1 = "allow /dev/cdrom /media/cdrom iso9660 - users\n"
let b1 = "777 tcp /usr/sbin/exim4 0\n"

(* The reloader script.  Each write flips a verdict the decider probes:
   R1 adds a flag requirement (bare mount flips allow -> deny), R2 moves
   the port grant tcp -> udp, R3 drops the cdrom rule entirely. *)
let reloader =
  [ Reload ("R1", whitelist,
      "allow /dev/cdrom /media/cdrom iso9660 ro,nosuid,nodev users\n");
    Reload ("R2", bind_map, "777 udp /usr/sbin/exim4 0\n");
    Reload ("R3", whitelist, "allow /dev/sdb9 /mnt/usb vfat - users\n") ]

let decider = [ Probe; Probe; Probe ]

let mount_probes =
  [ ("bare", []); ("full", [ Mf_readonly; Mf_nosuid; Mf_nodev ]) ]

let bind_probes = [ ("tcp", Bindconf.Tcp); ("udp", Bindconf.Udp) ]

let probe ~schedule ~at st disp =
  let where what = Printf.sprintf "%s step %d %s" schedule at what in
  List.iter
    (fun (label, flags) ->
      let oracle =
        PS.mount_decision st ~source:"/dev/cdrom" ~target:"/media/cdrom"
          ~fstype:"iso9660" ~flags
      in
      let ask () =
        PD.decide disp ~phase:Phase.initial st
          (Request.Mount
             { subject = 1000; source = "/dev/cdrom"; target = "/media/cdrom";
               fstype = "iso9660"; flags })
      in
      check (where ("mount " ^ label)) oracle (ask ());
      (* The repeat is served from memo state when warm; it must still
         agree with the oracle. *)
      check (where ("mount " ^ label ^ " repeat")) oracle (ask ()))
    mount_probes;
  List.iter
    (fun (label, proto) ->
      let oracle =
        PS.bind_allowed st ~port:777 ~proto ~exe:"/usr/sbin/exim4" ~uid:0
      in
      let ask () =
        PD.decide disp ~phase:Phase.initial st
          (Request.Bind
             { subject = 0; port = 777; proto; exe = "/usr/sbin/exim4" })
      in
      check (where ("bind " ^ label)) oracle (ask ());
      check (where ("bind " ^ label ^ " repeat")) oracle (ask ()))
    bind_probes

let schedule_name steps =
  String.concat ""
    (List.map (function Reload (l, _, _) -> l | Probe -> "D") steps)

let run_schedule steps =
  let img = Image.build Image.Protego in
  let m = img.Image.machine in
  img.Image.machine.password_source <- (fun _ -> None);
  let root = Image.login img "root" in
  let st, disp =
    match img.Image.protego with
    | Some lsm -> (Protego_core.Lsm.state lsm, Protego_core.Lsm.dispatch lsm)
    | None -> Alcotest.fail "Protego image has no LSM"
  in
  Syntax.expect_ok "seed whitelist" (Syscall.write_file m root whitelist w1);
  Syntax.expect_ok "seed bind map" (Syscall.write_file m root bind_map b1);
  let schedule = schedule_name steps in
  List.iteri
    (fun at step ->
      match step with
      | Reload (label, path, contents) ->
          Syntax.expect_ok
            (Printf.sprintf "%s step %d %s" schedule at label)
            (Syscall.write_file m root path contents)
      | Probe -> probe ~schedule ~at st disp)
    steps;
  (* Once the dust settles every schedule must agree on the final policy. *)
  probe ~schedule ~at:(List.length steps) st disp

let test_all_interleavings () =
  let schedules = interleavings reloader decider in
  Alcotest.(check int) "C(6,3) schedules" 20 (List.length schedules);
  List.iter run_schedule schedules

(* --- snapshot publication vs plane decisions ---------------------------

   The 20 merge orders of three semantic policy flips (P1/P2/P3) with
   three probe batteries, pinned as named simulator scripts.  Each
   schedule replays through [Sim.run] on the golden fixture and must
   satisfy every applicable temporal property — the epoch-stamp,
   live-oracle, journal-faithfulness and total-order-replay contracts
   the bespoke loop used to assert by hand.  On top of that, a parity
   walk mirrors the fixture's flips on a scratch policy state and
   recomputes every verdict and errno independently of the simulator,
   so the pinned scripts provably decide exactly what the legacy
   harness decided. *)

let assert_props name sp ctx =
  List.iter
    (fun (p, out) ->
      match out with
      | Prop.Holds -> ()
      | Prop.Violated _ ->
          Alcotest.failf "%s: %s %s" name p.Prop.p_name
            (Prop.outcome_to_string out))
    (Prop.check ctx (Prop.applicable sp))

let parity_walk name ctx =
  let scratch = PS.create () in
  Sim.golden_plane_setup scratch;
  let flips = ref 0 in
  let decides = ref 0 in
  Array.iter
    (fun e ->
      match e with
      | Sim.E_mutate { m_label } ->
          let label = Sim.golden_plane_flip !flips scratch in
          incr flips;
          if label <> m_label then
            Alcotest.failf "%s: flip %d is %s, trace says %s" name (!flips - 1)
              label m_label
      | Sim.E_decide { d_seq; d_verdict; d_errno; d_phase; _ } ->
          incr decides;
          let expect_verdict, expect_errno =
            Request.expected scratch ~phase:d_phase
              ~recorded:(d_verdict = 3) ctx.Sim.x_requests.(d_seq)
          in
          if d_verdict <> expect_verdict then
            Alcotest.failf "%s: seq %d verdict %d, legacy oracle says %d" name
              d_seq d_verdict expect_verdict;
          if d_errno <> expect_errno then
            Alcotest.failf "%s: seq %d errno %d, legacy harness says %d" name
              d_seq d_errno expect_errno
      | _ -> ())
    ctx.Sim.x_trace;
  Alcotest.(check int) (name ^ " applied all three flips") 3 !flips;
  (* 24 scripted probes + the 8-probe settle battery = the full golden
     request array, exactly what the legacy loop drove. *)
  Alcotest.(check int)
    (name ^ " decided the full battery")
    (Array.length ctx.Sim.x_requests)
    !decides

let test_publish_interleavings () =
  Alcotest.(check int) "20 pinned schedules" 20
    (List.length Sim.golden_plane_scripts);
  let sp = { Sim.default with Sim.sp_golden = true } in
  List.iter
    (fun (name, script) ->
      let ctx = Sim.run sp (Sim.Scripted script) in
      (* The scripts are pinned to be fully executable: nothing skips. *)
      check (name ^ " executed verbatim") true (ctx.Sim.x_script = script);
      assert_props name sp ctx;
      parity_walk name ctx)
    Sim.golden_plane_scripts

let suites =
  [ ("cache:interleave",
      [ Alcotest.test_case "reloads vs decisions, all orders" `Quick
          test_all_interleavings ]);
    ("plane:interleave",
      [ Alcotest.test_case "publishes vs plane decisions, all orders" `Quick
          test_publish_interleavings ]) ]
