(* Equivalence prover + profile-guided optimizer suites.

   Golden pairs: for every hook compiler, the production program and
   its independently-derived linear sibling must prove Equal, and a
   seeded semantic mutation must prove Not_equal with a counterexample
   that really diverges under Pfm.eval.  The optimizer suites compile
   bench-shaped policies, warm the profile counters, optimize, and
   require both a structural change and an equivalence proof. *)

module Pfm = Protego_filter.Pfm
module Compile = Protego_filter.Pfm_compile
module Opt = Protego_filter.Pfm_opt
module Equiv = Protego_analysis.Pfm_equiv
module Netfilter = Protego_net.Netfilter
module Packet = Protego_net.Packet
module Ipaddr = Protego_net.Ipaddr
module Bindconf = Protego_policy.Bindconf
module Pppopts = Protego_policy.Pppopts
module Ktypes = Protego_kernel.Ktypes

let cidr s =
  match Ipaddr.Cidr.of_string s with
  | Some c -> c
  | None -> failwith ("bad test cidr: " ^ s)

let mount_rules =
  [ { Compile.fm_source = "/dev/cdrom"; fm_target = "/media/cdrom";
      fm_fstype = "iso9660"; fm_flags = [ Ktypes.Mf_readonly ];
      fm_user_only = false; fm_phase = Compile.Phase.Always };
    { Compile.fm_source = "/dev/sdb1"; fm_target = "/media/usb";
      fm_fstype = "vfat"; fm_flags = [ Ktypes.Mf_nosuid; Ktypes.Mf_nodev ];
      fm_user_only = true; fm_phase = Compile.Phase.Always };
    { Compile.fm_source = "/dev/cdrom"; fm_target = "/media/cdrom2";
      fm_fstype = "auto"; fm_flags = []; fm_user_only = false;
      fm_phase = Compile.Phase.Always };
    { Compile.fm_source = "10.0.0.7:/export"; fm_target = "/mnt/a";
      fm_fstype = "nfs"; fm_flags = [ Ktypes.Mf_nosuid ]; fm_user_only = true;
      fm_phase = Compile.Phase.Always } ]

let bind_entries =
  [ { Bindconf.port = 25; proto = Bindconf.Tcp; exe = "/usr/sbin/exim4";
      owner = 0; phase = Protego_base.Phase.Always };
    { Bindconf.port = 22; proto = Bindconf.Tcp; exe = "/usr/sbin/sshd";
      owner = 0; phase = Protego_base.Phase.Always };
    { Bindconf.port = 25; proto = Bindconf.Udp; exe = "/usr/sbin/exim4";
      owner = 8; phase = Protego_base.Phase.Always };
    { Bindconf.port = 514; proto = Bindconf.Udp; exe = "/usr/bin/rsh";
      owner = 0; phase = Protego_base.Phase.Always } ]

let nf_rules =
  [ { Netfilter.matches =
        [ Netfilter.Dst_port { lo = 22; hi = 22 };
          Netfilter.Proto Packet.Tcp ];
      target = Netfilter.Accept; comment = "" };
    { Netfilter.matches = [ Netfilter.Src (cidr "10.0.0.0/8") ];
      target = Netfilter.Accept; comment = "" };
    { Netfilter.matches =
        [ Netfilter.Dst_port { lo = 0; hi = 1023 };
          Netfilter.Owner_uid 33 ];
      target = Netfilter.Drop; comment = "" };
    { Netfilter.matches = [ Netfilter.Tcp_syn ];
      target = Netfilter.Reject; comment = "" } ]

let ppp_policy =
  { Pppopts.directives =
      [ Pppopts.Allow_device ("/dev/ttyS0", Protego_base.Phase.Always);
        Pppopts.Allow_user_routes;
        Pppopts.Allow_device ("/dev/ttyUSB0", Protego_base.Phase.Always) ] }

let check_equal name p q =
  match Equiv.prove p q with
  | Equiv.Equal -> ()
  | r ->
      Alcotest.failf "%s: expected Equal, got %s" name
        (Equiv.result_to_string r)

(* A Not_equal result must carry a context that really diverges. *)
let check_not_equal name p q =
  match Equiv.prove p q with
  | Equiv.Not_equal cx ->
      let v1 = Pfm.eval p cx.Equiv.cx_ctx and v2 = Pfm.eval q cx.Equiv.cx_ctx in
      Alcotest.(check bool) (name ^ ": replay diverges") true (v1 <> v2);
      Alcotest.(check bool)
        (name ^ ": witness verdicts recorded")
        true
        (v1 = cx.Equiv.cx_left && v2 = cx.Equiv.cx_right)
  | r ->
      Alcotest.failf "%s: expected Not_equal, got %s" name
        (Equiv.result_to_string r)

(* --- golden proven-equal pairs, one per hook compiler ------------------ *)

let test_equal_mount () =
  check_equal "mount" (Compile.mount mount_rules)
    (Compile.mount_linear mount_rules)

let test_equal_umount () =
  check_equal "umount" (Compile.umount mount_rules)
    (Compile.umount_linear mount_rules)

let test_equal_bind () =
  check_equal "bind" (Compile.bind bind_entries)
    (Compile.bind_linear bind_entries)

let test_equal_netfilter () =
  check_equal "netfilter"
    (Compile.netfilter ~rules:nf_rules ~policy:Netfilter.Drop)
    (Compile.netfilter_linear ~rules:nf_rules ~policy:Netfilter.Drop)

let test_equal_ppp () =
  check_equal "ppp"
    (Compile.ppp_ioctl ppp_policy)
    (Compile.ppp_linear ppp_policy)

(* --- golden proven-different pairs ------------------------------------- *)

let test_diff_mount () =
  (* Drop the readonly requirement of the first rule. *)
  let mutated =
    match mount_rules with
    | r :: rest -> { r with Compile.fm_flags = [] } :: rest
    | [] -> assert false
  in
  check_not_equal "mount" (Compile.mount mount_rules)
    (Compile.mount_linear mutated)

let test_diff_umount () =
  (* Flip the user-only bit of the usb stick rule. *)
  let mutated =
    List.map
      (fun r ->
        if r.Compile.fm_target = "/media/usb" then
          { r with Compile.fm_user_only = false }
        else r)
      mount_rules
  in
  check_not_equal "umount" (Compile.umount mount_rules)
    (Compile.umount_linear mutated)

let test_diff_bind () =
  (* Change the owner of the sshd entry. *)
  let mutated =
    List.map
      (fun (e : Bindconf.entry) ->
        if e.port = 22 then { e with Bindconf.owner = 101 } else e)
      bind_entries
  in
  check_not_equal "bind" (Compile.bind bind_entries)
    (Compile.bind_linear mutated)

let test_diff_netfilter () =
  (* Swap two overlapping-range rules: a semantics-changing reorder.
     Ports [15;20] hit rule A (Accept) first in one program and rule B
     (Drop) first in the other. *)
  let a =
    { Netfilter.matches = [ Netfilter.Dst_port { lo = 10; hi = 20 } ];
      target = Netfilter.Accept; comment = "" }
  and b =
    { Netfilter.matches = [ Netfilter.Dst_port { lo = 15; hi = 25 } ];
      target = Netfilter.Drop; comment = "" }
  in
  check_not_equal "netfilter"
    (Compile.netfilter ~rules:[ a; b ] ~policy:Netfilter.Drop)
    (Compile.netfilter ~rules:[ b; a ] ~policy:Netfilter.Drop)

let test_diff_ppp () =
  let mutated =
    { Pppopts.directives =
        [ Pppopts.Allow_device ("/dev/ttyS0", Protego_base.Phase.Always) ] }
  in
  check_not_equal "ppp"
    (Compile.ppp_ioctl ppp_policy)
    (Compile.ppp_linear mutated)

(* --- optimizer: structural rewrites proven equivalent ------------------ *)

(* Bench-shaped netfilter chain: many singleton-port filler rules in
   front of a few defaults — the eq-cascade the switch conversion is
   for. *)
let nf_filler_rules n =
  List.init n (fun i ->
      { Netfilter.matches =
          [ Netfilter.Dst_port { lo = 40000 + i; hi = 40000 + i };
            Netfilter.Proto Packet.Tcp ];
        target = Netfilter.Accept; comment = "" })
  @ nf_rules

let warm prog ctxs = List.iter (fun c -> ignore (Pfm.eval prog c)) ctxs

let nf_ctx ?(dport = 7) () =
  Compile.packet_ctx
    { Packet.src = Ipaddr.v 10 0 0 2; dst = Ipaddr.v 8 8 8 8; ttl = 64;
      transport =
        Packet.Udp_dgram { src_port = 5353; dst_port = dport; payload = "" } }
    ~origin:Packet.Kernel_stack

let test_opt_nf_switch () =
  let rules = nf_filler_rules 64 in
  let p = Compile.netfilter ~rules ~policy:Netfilter.Drop in
  warm p [ nf_ctx () ];
  match Opt.optimize p with
  | None -> Alcotest.fail "optimizer found nothing in a 64-rule eq cascade"
  | Some (q, rep) ->
      Alcotest.(check bool) "eq-switch applied" true
        (List.mem_assoc "eq-switch" rep.Opt.applied);
      (match Pfm.verify q with
       | Ok () -> ()
       | Error e -> Alcotest.failf "optimized nf fails verify: %s"
                      (Pfm.verify_error_to_string e));
      check_equal "nf vs nf+opt" p q;
      (* spot-check a few packets on both programs *)
      List.iter
        (fun dport ->
          let c = nf_ctx ~dport () in
          Alcotest.(check bool)
            (Printf.sprintf "same verdict for dport %d" dport)
            true
            (Pfm.eval p c = Pfm.eval q c))
        [ 7; 22; 40000; 40031; 40063; 1023 ]

let test_opt_cidr_trie () =
  let prefixes =
    [ "10.1.0.0/16"; "10.2.0.0/16"; "192.168.0.0/16"; "192.169.0.0/16";
      "172.16.0.0/12"; "10.3.3.0/24" ]
  in
  let rules =
    List.map
      (fun pfx ->
        { Netfilter.matches = [ Netfilter.Src (cidr pfx) ];
          target = Netfilter.Accept; comment = "" })
      prefixes
  in
  let p = Compile.netfilter ~rules ~policy:Netfilter.Drop in
  warm p [ nf_ctx () ];
  match Opt.optimize p with
  | None -> Alcotest.fail "optimizer found nothing in a CIDR cascade"
  | Some (q, rep) ->
      Alcotest.(check bool) "cidr-trie applied" true
        (List.mem_assoc "cidr-trie" rep.Opt.applied);
      (match Pfm.verify q with
       | Ok () -> ()
       | Error e -> Alcotest.failf "optimized cidr chain fails verify: %s"
                      (Pfm.verify_error_to_string e));
      check_equal "cidr vs cidr+opt" p q

let test_opt_hoist () =
  let p = Compile.bind bind_entries in
  (* Skew the profile: hammer the sshd entry. *)
  let hot =
    Compile.bind_ctx ~phase:0 ~port:22 ~proto:Bindconf.Tcp
      ~exe:"/usr/sbin/sshd" ~uid:0
  in
  for _ = 1 to 100 do ignore (Pfm.eval p hot) done;
  match Opt.optimize p with
  | None -> Alcotest.fail "optimizer found nothing in a skewed bind program"
  | Some (q, rep) ->
      Alcotest.(check bool) "switch-hoist applied" true
        (List.mem_assoc "switch-hoist" rep.Opt.applied);
      check_equal "bind vs bind+opt" p q

let test_opt_reorder () =
  (* Three disjoint singleton-port rules, traffic on the last one:
     short cascade, so hot-reorder (not eq-switch) must fire. *)
  let rules =
    List.map
      (fun (port, tgt) ->
        { Netfilter.matches = [ Netfilter.Dst_port { lo = port; hi = port } ];
          target = tgt; comment = "" })
      [ (80, Netfilter.Accept); (443, Netfilter.Accept); (53, Netfilter.Reject) ]
  in
  let p = Compile.netfilter ~rules ~policy:Netfilter.Drop in
  let hot = nf_ctx ~dport:53 () in
  for _ = 1 to 50 do ignore (Pfm.eval p hot) done;
  match Opt.optimize p with
  | None -> Alcotest.fail "optimizer found nothing in a skewed 3-rule cascade"
  | Some (q, rep) ->
      Alcotest.(check bool) "hot-reorder applied" true
        (List.mem_assoc "hot-reorder" rep.Opt.applied);
      check_equal "nf vs nf reordered" p q;
      (* the hot rule must now decide in fewer retired instructions *)
      let qq =
        { q with Pfm.counters = Array.make (Array.length q.Pfm.insns) 0;
          retired = 0 }
      and pp =
        { p with Pfm.counters = Array.make (Array.length p.Pfm.insns) 0;
          retired = 0 }
      in
      ignore (Pfm.eval pp hot);
      ignore (Pfm.eval qq hot);
      Alcotest.(check bool) "hot path shortened" true
        (qq.Pfm.retired < pp.Pfm.retired)

let test_opt_rejects_overlap () =
  (* Overlapping ranges are not first-match-safe: the optimizer must
     not reorder them, and if it rewrites anything the prover must
     still find the programs Equal. *)
  let rules =
    [ { Netfilter.matches = [ Netfilter.Dst_port { lo = 10; hi = 20 } ];
        target = Netfilter.Accept; comment = "" };
      { Netfilter.matches = [ Netfilter.Dst_port { lo = 15; hi = 25 } ];
        target = Netfilter.Drop; comment = "" } ]
  in
  let p = Compile.netfilter ~rules ~policy:Netfilter.Drop in
  let hot = nf_ctx ~dport:25 () in
  for _ = 1 to 50 do ignore (Pfm.eval p hot) done;
  match Opt.optimize p with
  | None -> ()
  | Some (q, _) -> check_equal "overlapping chain rewrite" p q

(* --- dispatcher gate: /proc optimize/deoptimize ------------------------ *)

module PD = Protego_core.Pfm_dispatch
module DC = Protego_core.Decision_cache

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
  scan 0

let test_dispatch_gate () =
  let disp = PD.create () in
  let nf = Netfilter.create ~output_policy:Netfilter.Drop () in
  List.iter (Netfilter.append nf Netfilter.Output) (nf_filler_rules 64);
  let pkt dport =
    { Packet.src = Ipaddr.v 10 0 0 2; dst = Ipaddr.v 8 8 8 8; ttl = 64;
      transport =
        Packet.Udp_dgram { src_port = 5353; dst_port = dport; payload = "" } }
  in
  let decide dport =
    PD.decide_nf_output disp nf (pkt dport) ~origin:Packet.Kernel_stack
  in
  (* Warm the profile with distinct ports so the decision cache cannot
     absorb them all and the bytecode counters actually heat up. *)
  for d = 1 to 300 do ignore (decide d) done;
  let probes = [ 7; 22; 40000; 40063; 1023; 515 ] in
  DC.set_enabled (PD.cache disp) false;
  let before = List.map decide probes in
  let write cmd =
    match PD.handle_write disp cmd with
    | Ok outcomes -> outcomes
    | Error e -> Alcotest.fail (cmd ^ " write refused: " ^ e)
  in
  let outcomes = write "optimize" in
  Alcotest.(check bool) "install reported" true
    (match List.assoc "nf_output" outcomes with
     | PD.Installed _ -> true
     | _ -> false);
  Alcotest.(check bool) "status active" true
    (contains (PD.render disp) "opt nf_output active:");
  let after = List.map decide probes in
  List.iter2
    (fun b a ->
      Alcotest.(check bool) "verdict unchanged by optimize" true (a = b))
    before after;
  List.iter2
    (fun d v ->
      Alcotest.(check bool)
        (Printf.sprintf "optimized verdict matches walk oracle (dport %d)" d)
        true
        (v = Netfilter.walk nf Netfilter.Output (pkt d)
               ~origin:Packet.Kernel_stack))
    probes after;
  Alcotest.(check int) "no rejects" 0 (PD.opt_rejects disp);
  (* No chain here makes the gate refuse a rewrite; what a refusal
     reports is pinned on the value the kernel's writer reads. *)
  let refusal = PD.Rejected "unproven: budget" in
  Alcotest.(check string) "a rejection's text" "rejected: unproven: budget"
    (PD.outcome_to_string refusal);
  Alcotest.(check (option bool)) "a rejection is audited as a denial"
    (Some false) (PD.audited refusal);
  (* A policy reload must demote the installed optimization to stale. *)
  Netfilter.flush nf Netfilter.Output;
  List.iter (Netfilter.append nf Netfilter.Output) (nf_filler_rules 64);
  ignore (decide 7);
  Alcotest.(check bool) "stale after reload" true
    (contains (PD.render disp) "opt nf_output stale (policy changed)");
  (* Re-optimize the fresh compile, then deoptimize back to the original. *)
  ignore (write "optimize" : (string * PD.outcome) list);
  Alcotest.(check bool) "revert reported" true
    (List.assoc_opt "nf_output" (write "deoptimize") = Some PD.Reverted);
  Alcotest.(check bool) "status none after revert" true
    (contains (PD.render disp) "opt nf_output none");
  let restored = List.map decide probes in
  List.iter2
    (fun b a ->
      Alcotest.(check bool) "verdict unchanged by deoptimize" true (a = b))
    before restored

(* --- QCheck: prover vs differential testing ---------------------------- *)

let nf_pool =
  [ Netfilter.Proto Packet.Tcp; Netfilter.Proto Packet.Udp;
    Netfilter.Proto Packet.Icmp; Netfilter.Tcp_syn;
    Netfilter.Owner_uid 1000; Netfilter.Owner_uid 33;
    Netfilter.Dst_port { lo = 0; hi = 1023 };
    Netfilter.Dst_port { lo = 40000; hi = 40100 };
    Netfilter.Src_port { lo = 9; hi = 9 };
    Netfilter.Src (cidr "10.0.0.0/8"); Netfilter.Dst (cidr "10.0.0.7/32");
    Netfilter.Icmp_type Packet.Echo_request; Netfilter.Origin_raw ]

let nf_rule_gen =
  QCheck2.Gen.map2
    (fun matches target -> { Netfilter.matches; target; comment = "" })
    QCheck2.Gen.(list_size (int_range 1 3) (oneofl nf_pool))
    (QCheck2.Gen.oneofl
       [ Netfilter.Accept; Netfilter.Drop; Netfilter.Reject ])

(* Random packets that actually exercise the generated matches. *)
let random_ctx rng =
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let transport =
    match Random.State.int rng 4 with
    | 0 ->
        Packet.Tcp_seg
          { src_port = pick [ 9; 22; 5000 ];
            dst_port = pick [ 7; 22; 80; 500; 40000; 40050; 40100; 41000 ];
            syn = Random.State.bool rng; payload = "" }
    | 1 ->
        Packet.Udp_dgram
          { src_port = pick [ 9; 5353 ];
            dst_port = pick [ 7; 53; 1023; 1024; 40000; 40100 ];
            payload = "" }
    | 2 ->
        Packet.Icmp_msg
          { icmp_type =
              (if Random.State.bool rng then Packet.Echo_request
               else Packet.Echo_reply);
            code = 0; payload = "" }
    | _ -> Packet.Raw_payload { protocol = 89; payload = "x" }
  in
  let origin =
    match Random.State.int rng 3 with
    | 0 -> Packet.Kernel_stack
    | 1 -> Packet.Raw_app { uid = pick [ 33; 1000 ] }
    | _ -> Packet.Packet_app { uid = pick [ 33; 1000 ] }
  in
  let pkt =
    { Packet.src = pick [ Ipaddr.v 10 0 0 2; Ipaddr.v 192 168 1 5 ];
      dst = pick [ Ipaddr.v 10 0 0 7; Ipaddr.v 8 8 8 8 ];
      ttl = 64; transport }
  in
  Compile.packet_ctx pkt ~origin

(* prove vs a 10k-input differential on (original, mutated) chain
   pairs.  Soundness both ways: Equal means the differential cannot
   find a divergence; Not_equal means the returned witness diverges. *)
let prop_prove_vs_differential =
  QCheck2.Test.make
    ~name:"equiv: prove agrees with 10k-input differential on mutated chains"
    ~count:60
    QCheck2.Gen.(
      pair
        (pair (list_size (int_range 1 6) nf_rule_gen) (int_bound 1000))
        (int_bound 3))
    (fun ((rules, seed), mutation) ->
      let policy = Netfilter.Drop in
      let p = Compile.netfilter ~rules ~policy in
      let mutated =
        match mutation, rules with
        | 0, r :: rest ->
            (* flip first rule's target *)
            { r with
              Netfilter.target =
                (match r.Netfilter.target with
                 | Netfilter.Accept -> Netfilter.Drop
                 | _ -> Netfilter.Accept) }
            :: rest
        | 1, r :: rest -> rest @ [ r ]  (* rotate rule order *)
        | 2, _ :: rest -> rest          (* drop first rule *)
        | _, rules -> List.map (fun r -> { r with Netfilter.comment = "" }) rules
      in
      let q = Compile.netfilter ~rules:mutated ~policy in
      let rng = Random.State.make [| seed; 0x5eed |] in
      let diff_found = ref None in
      for _ = 1 to 10_000 do
        if !diff_found = None then begin
          let c = random_ctx rng in
          if Pfm.eval p c <> Pfm.eval q c then diff_found := Some c
        end
      done;
      match Equiv.prove p q with
      | Equiv.Equal -> !diff_found = None
      | Equiv.Not_equal cx ->
          Pfm.eval p cx.Equiv.cx_ctx <> Pfm.eval q cx.Equiv.cx_ctx
      | Equiv.Unknown _ ->
          (* Unknown is allowed (never wrong, only incomplete) — but if
             the differential found a divergence the prover should
             usually have too; accept either way, the gate treats
             Unknown as reject. *)
          true)

(* Optimizer outputs must always prove Equal on random chains. *)
let prop_optimize_proves =
  QCheck2.Test.make
    ~name:"equiv: every optimizer rewrite of a random chain proves Equal"
    ~count:60
    QCheck2.Gen.(
      pair (list_size (int_range 2 10) nf_rule_gen) (int_bound 1000))
    (fun (rules, seed) ->
      let p = Compile.netfilter ~rules ~policy:Netfilter.Accept in
      let rng = Random.State.make [| seed; 0xbeef |] in
      for _ = 1 to 200 do ignore (Pfm.eval p (random_ctx rng)) done;
      match Opt.optimize p with
      | None -> true
      | Some (q, _) -> (
          match Pfm.verify q with
          | Error _ -> false
          | Ok () -> (
              match Equiv.prove p q with
              | Equiv.Equal -> true
              | Equiv.Not_equal _ | Equiv.Unknown _ -> false)))

let suites =
  [ ( "equiv:prover",
      [ Alcotest.test_case "mount prod = linear" `Quick test_equal_mount;
        Alcotest.test_case "umount prod = linear" `Quick test_equal_umount;
        Alcotest.test_case "bind prod = linear" `Quick test_equal_bind;
        Alcotest.test_case "netfilter prod = linear" `Quick
          test_equal_netfilter;
        Alcotest.test_case "ppp prod = linear" `Quick test_equal_ppp;
        Alcotest.test_case "mount mutation rejected" `Quick test_diff_mount;
        Alcotest.test_case "umount mutation rejected" `Quick test_diff_umount;
        Alcotest.test_case "bind mutation rejected" `Quick test_diff_bind;
        Alcotest.test_case "netfilter overlap reorder rejected" `Quick
          test_diff_netfilter;
        Alcotest.test_case "ppp mutation rejected" `Quick test_diff_ppp ] );
    ( "equiv:optimizer",
      [ Alcotest.test_case "nf eq-cascade becomes a switch" `Quick
          test_opt_nf_switch;
        Alcotest.test_case "cidr cascade becomes a trie" `Quick
          test_opt_cidr_trie;
        Alcotest.test_case "skewed switch gets a hoisted test" `Quick
          test_opt_hoist;
        Alcotest.test_case "short cascade reordered by heat" `Quick
          test_opt_reorder;
        Alcotest.test_case "overlapping rules never reordered" `Quick
          test_opt_rejects_overlap;
        Alcotest.test_case "/proc gate: optimize, stale, deoptimize" `Quick
          test_dispatch_gate ] );
    ( "equiv:qcheck",
      [ QCheck_alcotest.to_alcotest ~long:false prop_prove_vs_differential;
        QCheck_alcotest.to_alcotest ~long:false prop_optimize_proves ] ) ]
