(* Policy synthesis from recorded traffic (DESIGN.md §12): the
   record -> generalize -> verify closed loop on a seeded deny-flood,
   byte-identical re-synthesis, the false-allow budget as a hard upper
   bound at every budget (QCheck), and downward-closed phase guards
   when the recorded traffic spans lifecycle phases. *)

module Phase = Protego_base.Phase
module Ktypes = Protego_kernel.Ktypes
module PS = Protego_core.Policy_state
module Bindconf = Protego_policy.Bindconf
module Pppopts = Protego_policy.Pppopts
module Compile = Protego_filter.Pfm_compile
module Lint = Protego_analysis.Policy_lint
module Plane = Protego_plane.Plane
module Request = Protego_core.Request
module Workload = Protego_workload.Workload
module J = Protego_journal.Journal
module Synth = Protego_synth.Synth

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* Mirror `protego-synth record`: the stock deny-flood mounts never
   request nodev (and only every third requests nosuid), so no
   strict-lint-clean policy could re-admit them.  Harden every mount
   request to nosuid+nodev so the recorded denials are recoverable
   demand. *)
let harden requests =
  let add f fl = if List.mem f fl then fl else fl @ [ f ] in
  Array.map
    (function
      | Plane.Mount m ->
          Plane.Mount
            { m with flags = add Ktypes.Mf_nodev (add Ktypes.Mf_nosuid m.flags) }
      | r -> r)
    requests

(* An in-process record-mode run over a seeded schedule; phase-storm
   steps (if any) are applied mid-run through the reload hook, exactly
   like the plane test runner drives them. *)
let record_obs ?(phases = [ (Workload.Deny_flood, 3_000) ]) ~seed () =
  let spec = Workload.default ~seed ~phases () in
  let st = PS.create () in
  Workload.install_policy spec st;
  let plane = Plane.create st in
  let schedule = Workload.generate spec ~workers:1 in
  let reloads =
    List.map
      (fun (th, s) ->
        ( th,
          fun () ->
            let cur = Plane.subject_phase plane ~subject:s in
            let nxt = Phase.succ cur in
            if not (Phase.equal cur nxt) then
              match Plane.set_subject_phase plane ~subject:s nxt with
              | Ok () -> ()
              | Error e -> Alcotest.failf "phase step refused: %s" e ))
      schedule.Workload.s_phase_steps
  in
  Plane.set_record_mode plane true;
  let rr = Plane.run plane ~reloads (harden schedule.Workload.s_requests) in
  (match rr.Plane.rr_audit_lost with
  | Some why -> Alcotest.failf "journal trail incomplete: %s" why
  | None -> ());
  Synth.observations (J.entries (Plane.journal plane))

(* The same strict-lint input `protego-synth verify` builds: all four
   synthesized sources linted together, zero findings of any severity
   expected. *)
let lint_input (r : Synth.result) =
  { Lint.empty_input with
    Lint.mounts = List.map PS.filter_rule r.Synth.r_mounts;
    binds = r.Synth.r_binds;
    ppp = Some r.Synth.r_ppp;
    chains = [ ("output", r.Synth.r_nf_rules, r.Synth.r_nf_policy) ] }

let assert_strict_clean what r =
  match Lint.lint (lint_input r) with
  | [] -> ()
  | fs ->
      Alcotest.failf "%s: strict lint: %d finding(s):\n%s" what (List.length fs)
        (Lint.render fs)

let assert_replay_clean what obs r =
  match Synth.verify obs r with
  | [] -> ()
  | (key, why) :: _ as ms ->
      Alcotest.failf "%s: %d replay mismatch(es), first %s: %s" what
        (List.length ms) key why

(* --- the closed loop ----------------------------------------------------- *)

let test_closed_loop () =
  let obs = record_obs ~seed:7 () in
  check_bool "observed demand" true (obs <> []);
  check_bool "would-denies recorded" true
    (List.exists (fun o -> o.Synth.ob_recorded > 0) obs);
  let r = Synth.synthesize obs in
  check_bool "something synthesized" true (r.Synth.r_mounts <> []);
  check_bool "budget is an upper bound" true
    (r.Synth.r_used <= r.Synth.r_budget);
  assert_strict_clean "deny-flood" r;
  (* Enforce-mode load: every emitted source must parse with the same
     strict parser the /proc write path uses. *)
  (match PS.parse_mounts (Synth.mounts_text r) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "mount_whitelist does not load: %s" e);
  (match Bindconf.parse (Synth.binds_text r) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "bind.map does not load: %s" e);
  (match Pppopts.parse (Synth.ppp_text r) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "options.ppp does not load: %s" e);
  (match Lint.parse_chain (Synth.chain_text r) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "output.chain does not load: %s" e);
  (* Zero false denies on admissible demand; inadmissible demand stays
     denied. *)
  assert_replay_clean "deny-flood" obs r;
  (* Every exclusion carries the forcing lint/budget code. *)
  List.iter
    (fun (key, reason) ->
      check_bool (Printf.sprintf "reason cites a code: %s" key) true
        (String.length reason > 0))
    r.Synth.r_inadmissible

(* --- the LSM lane ---------------------------------------------------------- *)

(* The same loop on the kernel's own path: the deny-flood's requests run
   as syscalls through the LSM hooks in record mode, and the machine's
   audit journal, saved and loaded back, is the synthesizer's input.
   Every hook record carries the verdict the reference oracle gives its
   request under the policy the hooks enforced, and every nf record (the
   recorder's raw- and packet-socket battery) the verdict of the chain
   in force. *)
let test_lsm_closed_loop () =
  let module L = Protego_synth.Lsm_record in
  let spec =
    Workload.default ~seed:7 ~phases:[ (Workload.Deny_flood, 3_000) ] ()
  in
  let reqs = harden (Workload.generate spec ~workers:1).Workload.s_requests in
  let r =
    match L.run spec reqs with Ok r -> r | Error e -> Alcotest.fail e
  in
  check_bool "hooks decided most requests" true (r.L.decided > r.L.requests / 2);
  check_bool "would-denies recorded" true (r.L.recorded > 0);
  let path = Filename.temp_file "lsm" ".bin" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  J.save r.L.journal path;
  let j = match J.load path with Ok j -> j | Error e -> Alcotest.fail e in
  let entries = J.entries j in
  let nf_records = ref 0 in
  List.iter
    (function
      | J.Kaudit _ -> ()
      | J.Decision d ->
          let allowed =
            match
              (Request.of_journal ~subject:d.J.d_subject d.J.d_req, d.J.d_req)
            with
            | Some req, _ ->
                Request.oracle ~phase:(Phase.of_index d.J.d_phase) r.L.state
                  req
            | None, J.Nf { origin; proto; dport; _ } ->
                (* The battery packet the record describes, against the
                   chain in force. *)
                incr nf_records;
                let module Packet = Protego_net.Packet in
                let module Netfilter = Protego_net.Netfilter in
                let pkt =
                  match
                    List.find_opt
                      (fun (_, _, (p : Packet.t)) ->
                        Packet.proto_of_transport p.Packet.transport = proto
                        && Packet.dst_port p = dport)
                      L.nf_battery
                  with
                  | Some (_, _, p) -> p
                  | None -> Alcotest.fail "an nf record outside the battery"
                in
                let uid = d.J.d_subject in
                let origin =
                  match origin with
                  | `Kernel -> Packet.Kernel_stack
                  | `Raw -> Packet.Raw_app { uid }
                  | `Packet -> Packet.Packet_app { uid }
                in
                Netfilter.walk r.L.netfilter Netfilter.Output pkt ~origin
                = Netfilter.Accept
            | None, _ -> Alcotest.fail "an undecodable hook record"
          in
          check_bool (J.entry_to_string (J.Decision d)) allowed
            (d.J.d_verdict = 1);
          check_bool "an LSM record, in record mode" true
            (match d.J.d_lsm with Some l -> l.J.l_record | None -> false))
    entries;
  check_bool "nf traffic driven" true (!nf_records > 0);
  let obs = Synth.observations entries in
  let res = Synth.synthesize obs in
  check_bool "something synthesized" true
    (res.Synth.r_mounts <> [] && res.Synth.r_binds <> []
     && res.Synth.r_nf_rules <> []);
  assert_strict_clean "LSM lane" res;
  assert_replay_clean "LSM lane" obs res

(* --- the netfilter lane ------------------------------------------------ *)

(* Raw- and packet-socket traffic the default OUTPUT chain drops (raw
   UDP outside the traceroute range, a raw TCP SYN, a non-ARP frame on
   a packet socket), sent through [Syscall] on a booted image with
   record mode on.  Each packet leaves exactly one typed nf record
   (reqtag 4); `protego-journal dump --hook nf --record-only` selects
   exactly those; and the chain synthesized from them lints
   strict-clean and admits every flow. *)
let test_nf_lane () =
  let module Image = Protego_dist.Image in
  let module Syscall = Protego_kernel.Syscall in
  let module Packet = Protego_net.Packet in
  let module Ipaddr = Protego_net.Ipaddr in
  let module Syntax = Protego_base.Syntax in
  let img = Image.build Image.Protego in
  let m = img.Image.machine in
  let root = Image.login img "root" in
  let alice = Image.login img "alice" in
  Syntax.expect_ok "record on"
    (Syscall.write_file m root "/proc/protego/record" "on\n");
  let dst = Ipaddr.v 10 0 0 1 in
  let flows =
    [ (Ktypes.Af_inet, 17,
       Packet.Udp_dgram { src_port = 40000; dst_port = 53; payload = "" });
      (Ktypes.Af_inet, 6,
       Packet.Tcp_seg
         { src_port = 40000; dst_port = 80; syn = true; payload = "" });
      (Ktypes.Af_packet, 0x88cc,
       Packet.Raw_payload { protocol = 0x88cc; payload = "lldp" }) ]
  in
  List.iter
    (fun (domain, proto, transport) ->
      let fd =
        Syntax.expect_ok "socket"
          (Syscall.socket m alice domain Ktypes.Sock_raw proto)
      in
      let pkt = { Packet.src = Ipaddr.v 10 0 0 2; dst; ttl = 64; transport } in
      ignore
        (Syntax.expect_ok "record mode lets it out"
           (Syscall.sendto m alice fd dst 0 (Packet.encode pkt))
          : int);
      ignore (Syscall.close m alice fd))
    flows;
  let entries = J.entries m.Ktypes.audit.J.sk_journal in
  let nf =
    List.filter
      (function J.Decision { J.d_req = J.Nf _; _ } -> true | _ -> false)
      entries
  in
  Alcotest.(check int) "one nf record per packet" (List.length flows)
    (List.length nf);
  List.iter
    (function
      | J.Decision d ->
          check_bool ("a recorded would-deny of uid 1000: "
                      ^ J.entry_to_string (J.Decision d)) true
            (d.J.d_verdict = 3 && d.J.d_subject = 1000)
      | J.Kaudit _ -> ())
    nf;
  let path = Filename.temp_file "nf" ".bin" in
  let out = Filename.temp_file "nf" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path; Sys.remove out) @@ fun () ->
  J.save m.Ktypes.audit.J.sk_journal path;
  let code =
    Sys.command
      (Filename.quote_command (Test_support.journal_exe ())
         [ "dump"; path; "--hook"; "nf"; "--record-only" ]
         ~stdout:out)
  in
  Alcotest.(check int) "dump exits 0" 0 code;
  Alcotest.(check (list string))
    "dump --hook nf --record-only selects exactly the nf records"
    (List.map J.entry_to_string nf)
    (In_channel.with_open_bin out In_channel.input_lines);
  let obs = Synth.observations entries in
  let nf_obs =
    List.filter
      (fun o -> match o.Synth.ob_req with J.Nf _ -> true | _ -> false)
      obs
  in
  Alcotest.(check int) "one observation per flow" (List.length flows)
    (List.length nf_obs);
  let r = Synth.synthesize obs in
  assert_strict_clean "nf lane" r;
  assert_replay_clean "nf lane" obs r;
  List.iter
    (fun o ->
      check_bool ("admitted: " ^ Synth.desc_of_req o.Synth.ob_req) true
        (Synth.admits r o))
    nf_obs

(* A raw socket's hand-built TCP or UDP payload has no port: its nf
   record says proto tcp/udp with no dport.  Only a rule with no port
   match admits such a packet, and that rule admits every port of its
   destination too, so synthesis either pays the unobserved port space
   from the budget or excludes the observation.  Verify rebuilds the
   payload itself, so a chain that matches only on ports cannot pass
   for one that admits it: the packet actually sent gets exactly the
   verdict the synthesized chain claims for it. *)
let test_nf_portless () =
  let module Image = Protego_dist.Image in
  let module Syscall = Protego_kernel.Syscall in
  let module Packet = Protego_net.Packet in
  let module Ipaddr = Protego_net.Ipaddr in
  let module Netfilter = Protego_net.Netfilter in
  let module Syntax = Protego_base.Syntax in
  let img = Image.build Image.Protego in
  let m = img.Image.machine in
  let root = Image.login img "root" in
  let alice = Image.login img "alice" in
  Syntax.expect_ok "record on"
    (Syscall.write_file m root "/proc/protego/record" "on\n");
  let dst = Ipaddr.v 10 0 0 1 in
  let sent =
    List.map
      (fun protocol ->
        let fd =
          Syntax.expect_ok "socket"
            (Syscall.socket m alice Ktypes.Af_inet Ktypes.Sock_raw protocol)
        in
        let pkt =
          { Packet.src = Ipaddr.v 10 0 0 2; dst; ttl = 64;
            transport = Packet.Raw_payload { protocol; payload = "x" } }
        in
        ignore
          (Syntax.expect_ok "record mode lets it out"
             (Syscall.sendto m alice fd dst 0 (Packet.encode pkt))
            : int);
        ignore (Syscall.close m alice fd);
        pkt)
      [ 6; 17 ]
  in
  let obs = Synth.observations (J.entries m.Ktypes.audit.J.sk_journal) in
  let obs_of (pkt : Packet.t) =
    List.find
      (fun o ->
        match o.Synth.ob_req with
        | J.Nf { proto; dport; _ } ->
            proto = Packet.proto_of_transport pkt.Packet.transport
            && dport = None
        | _ -> false)
      obs
  in
  List.iter
    (fun (budget, admitted) ->
      let what = Printf.sprintf "budget %d" budget in
      let r = Synth.synthesize ~budget obs in
      assert_strict_clean what r;
      assert_replay_clean what obs r;
      let chain = Netfilter.create () in
      Netfilter.set_policy chain Netfilter.Output r.Synth.r_nf_policy;
      List.iter (Netfilter.append chain Netfilter.Output) r.Synth.r_nf_rules;
      List.iter
        (fun pkt ->
          let desc = Synth.desc_of_req (obs_of pkt).Synth.ob_req in
          check_bool
            (Printf.sprintf "%s: the sent payload's verdict: %s" what desc)
            admitted
            (Netfilter.walk chain Netfilter.Output pkt
               ~origin:(Packet.Raw_app { uid = 1000 })
             = Netfilter.Accept);
          check_bool
            (Printf.sprintf "%s: excluded iff not admitted: %s" what desc)
            (not admitted)
            (List.exists
               (fun (key, _) -> String.ends_with ~suffix:desc key)
               r.Synth.r_inadmissible))
        sent)
    [ (64, false); (2 * 65536, true) ]

(* --- determinism --------------------------------------------------------- *)

let test_byte_identical_resynthesis () =
  let obs = record_obs ~seed:7 () in
  let obs' = record_obs ~seed:7 () in
  let r = Synth.synthesize obs and r' = Synth.synthesize obs' in
  check_string "mount_whitelist" (Synth.mounts_text r) (Synth.mounts_text r');
  check_string "bind.map" (Synth.binds_text r) (Synth.binds_text r');
  check_string "options.ppp" (Synth.ppp_text r) (Synth.ppp_text r');
  check_string "output.chain" (Synth.chain_text r) (Synth.chain_text r');
  check_string "coverage.report" (Synth.report r) (Synth.report r')

(* --- phases -------------------------------------------------------------- *)

let test_phased_guards_downward_closed () =
  let phases =
    [ (Workload.Phase_storm { period = 100 }, 1_500);
      (Workload.Deny_flood, 1_500) ]
  in
  let obs = record_obs ~phases ~seed:11 () in
  check_bool "traffic spans phases" true
    (List.exists (fun o -> o.Synth.ob_phase > 0) obs);
  let r = Synth.synthesize obs in
  List.iter
    (fun (m : PS.mount_rule) ->
      check_bool "mount guard downward-closed" true
        (Phase.downward_closed m.PS.mr_phase))
    r.Synth.r_mounts;
  List.iter
    (fun (e : Bindconf.entry) ->
      check_bool "bind guard downward-closed" true
        (Phase.downward_closed e.Bindconf.phase))
    r.Synth.r_binds;
  List.iter
    (function
      | Pppopts.Allow_device (_, g) ->
          check_bool "ppp guard downward-closed" true (Phase.downward_closed g)
      | _ -> ())
    r.Synth.r_ppp.Pppopts.directives;
  (* PL-PH001 in particular — the tighten-only proof obligation — and
     every other finding besides: strict-clean under phased traffic. *)
  let findings = Lint.lint (lint_input r) in
  check_bool "PL-PH001 never fires" true
    (not (List.exists (fun f -> f.Lint.code = "PL-PH001") findings));
  assert_strict_clean "phase storm" r;
  assert_replay_clean "phase storm" obs r

(* --- budget property ----------------------------------------------------- *)

(* Recording is the expensive part; memoize one observation set per
   seed and sweep budgets over it. *)
let obs_for =
  let tbl = Hashtbl.create 4 in
  fun seed ->
    match Hashtbl.find_opt tbl seed with
    | Some obs -> obs
    | None ->
        let obs = record_obs ~phases:[ (Workload.Deny_flood, 1_500) ] ~seed () in
        Hashtbl.add tbl seed obs;
        obs

let prop_budget =
  QCheck2.Test.make
    ~name:
      "synth: at every budget the loop closes and the budget is an upper \
       bound"
    ~count:12
    QCheck2.Gen.(pair (oneofl [ 3; 11 ]) (int_bound 160))
    (fun (seed, budget) ->
      let obs = obs_for seed in
      let r = Synth.synthesize ~budget obs in
      (* Replay agrees with the admissibility classification: every
         observed allow is admitted, every exclusion stays denied... *)
      Synth.verify obs r = []
      (* ...the denied set and the reported exclusions have the same
         size (no silent exclusion)... *)
      && List.length (List.filter (fun o -> not (Synth.admits r o)) obs)
         = List.length r.Synth.r_inadmissible
      (* ...and applied generalization volume never exceeds the budget. *)
      && r.Synth.r_used <= r.Synth.r_budget
      && r.Synth.r_budget = budget)

(* At budget 0 no generalization is paid for, so the synthesized chain
   admits an observed destination x observed port pair exactly when
   that pair was observed: ports seen at one destination open nothing
   at another. *)
let prop_nf_pairs =
  let module Packet = Protego_net.Packet in
  let module Ipaddr = Protego_net.Ipaddr in
  let module Netfilter = Protego_net.Netfilter in
  let dsts =
    [| Ipaddr.v 10 0 0 1; Ipaddr.v 10 0 0 9; Ipaddr.v 192 168 7 9;
       Ipaddr.v 8 8 8 8 |]
  and ports = [| 22; 53; 54; 80; 8080; 8081 |] in
  QCheck2.Test.make
    ~name:
      "synth: at budget 0 the chain admits exactly the observed \
       (destination, port) pairs"
    ~count:200
    ~print:
      QCheck2.Print.(
        pair
          (fun p -> Packet.proto_to_string p)
          (list (pair int int)))
    QCheck2.Gen.(
      pair (oneofl [ Packet.Tcp; Packet.Udp ])
        (list_size (int_range 1 8) (pair (int_bound 3) (int_bound 5))))
    (fun (proto, flows) ->
      let obs =
        List.map
          (fun (d, p) ->
            { Synth.ob_subject = 1000; ob_phase = 0;
              ob_req =
                J.Nf
                  { origin = `Raw; proto; dst = dsts.(d);
                    dport = Some ports.(p); icmp = None };
              ob_count = 1; ob_recorded = 1 })
          (List.sort_uniq compare flows)
      in
      let r = Synth.synthesize ~budget:0 obs in
      let chain = Netfilter.create () in
      Netfilter.set_policy chain Netfilter.Output r.Synth.r_nf_policy;
      List.iter (Netfilter.append chain Netfilter.Output) r.Synth.r_nf_rules;
      let accepts d p =
        let transport =
          match proto with
          | Packet.Udp ->
              Packet.Udp_dgram
                { src_port = 5000; dst_port = ports.(p); payload = "" }
          | _ ->
              Packet.Tcp_seg
                { src_port = 5000; dst_port = ports.(p); syn = false;
                  payload = "" }
        in
        Netfilter.walk chain Netfilter.Output
          { Packet.src = Ipaddr.v 10 0 0 2; dst = dsts.(d); ttl = 64;
            transport }
          ~origin:(Packet.Raw_app { uid = 1000 })
        = Netfilter.Accept
      in
      let seen f = List.sort_uniq compare (List.map f flows) in
      List.for_all
        (fun d ->
          List.for_all
            (fun p -> accepts d p = List.mem (d, p) flows)
            (seen snd))
        (seen fst))

(* --- the committed fixture ----------------------------------------------- *)

(* dune runtest runs us in test/ (the stanza depends on the fixture);
   `dune exec` from the root. *)
let fixture_record =
  List.find Sys.file_exists
    (List.map
       (fun dir -> Filename.concat dir "examples/policies/synth/RECORD.bin")
       [ Filename.parent_dir_name; Filename.current_dir_name ])

(* Every dump line of the committed recording is printable text and
   names the serving phase exactly once per decision. *)
let test_fixture_dump () =
  match J.load fixture_record with
  | Error e -> Alcotest.failf "%s: %s" fixture_record e
  | Ok j ->
      let decisions = ref 0 in
      J.iter j (fun e ->
          let line = J.entry_to_string e in
          check_bool ("printable: " ^ line) true
            (String.for_all (fun c -> Char.code c >= 0x20) line);
          match e with
          | J.Decision d ->
              incr decisions;
              Alcotest.(check (list string))
                ("one phase field: " ^ line)
                [ "phase=" ^ Phase.to_string (Phase.of_index d.J.d_phase) ]
                (List.filter
                   (String.starts_with ~prefix:"phase=")
                   (String.split_on_char ' ' line))
          | J.Kaudit _ -> ());
      check_bool "the fixture holds decisions" true (!decisions > 0)

let suites =
  [ ( "synth:loop",
      [ Alcotest.test_case "record -> synthesize -> lint -> load -> replay"
          `Quick test_closed_loop;
        Alcotest.test_case "byte-identical re-synthesis" `Quick
          test_byte_identical_resynthesis;
        Alcotest.test_case "LSM lane: record -> synthesize -> replay" `Quick
          test_lsm_closed_loop;
        Alcotest.test_case "nf lane: raw and packet sockets -> chain" `Quick
          test_nf_lane;
        Alcotest.test_case "nf lane: a portless raw payload gets the verdict \
                            verify claims" `Quick
          test_nf_portless ] );
    ( "synth:fixture",
      [ Alcotest.test_case "committed recording dumps one phase per decision"
          `Quick test_fixture_dump ] );
    ( "synth:phases",
      [ Alcotest.test_case "downward-closed guards under a phase storm" `Quick
          test_phased_guards_downward_closed ] );
    ( "synth:properties",
      [ QCheck_alcotest.to_alcotest ~long:false prop_budget;
        QCheck_alcotest.to_alcotest ~long:false prop_nf_pairs ] ) ]
