(* Equivalence prover suites.

   Golden pairs: for every hook compiler, the production program and
   its independently-derived linear sibling must prove Equal, and a
   seeded semantic mutation must prove Not_equal with a counterexample
   that really diverges under Pfm.eval.  The compiler suite checks the
   switch the netfilter compiler emits for a run of singleton-port
   rules on the bench's 128-port chain, served through the dispatcher. *)

module Pfm = Protego_filter.Pfm
module Compile = Protego_filter.Pfm_compile
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

(* --- compiler: a run of singleton-port rules becomes one switch ------- *)

module PD = Protego_core.Pfm_dispatch
module DC = Protego_core.Decision_cache

(* The bench's netfilter chain: 128 singleton-port filler rules in front
   of a few defaults. *)
let nf_filler_rules n =
  List.init n (fun i ->
      { Netfilter.matches =
          [ Netfilter.Dst_port { lo = 40000 + i; hi = 40000 + i };
            Netfilter.Proto Packet.Tcp ];
        target = Netfilter.Accept; comment = "" })
  @ nf_rules

let test_nf_port_switch () =
  let disp = PD.create () in
  DC.set_enabled (PD.cache disp) false;
  let nf = Netfilter.create ~output_policy:Netfilter.Drop () in
  List.iter (Netfilter.append nf Netfilter.Output) (nf_filler_rules 128);
  let pkt dport =
    { Packet.src = Ipaddr.v 10 0 0 2; dst = Ipaddr.v 8 8 8 8; ttl = 64;
      transport =
        Packet.Tcp_seg
          { src_port = 5000; dst_port = dport; syn = false; payload = "" } }
  in
  (* Every filler port, the ports around the run and the tail rules'. *)
  List.iter
    (fun dport ->
      Alcotest.(check bool)
        (Printf.sprintf "served verdict matches the walk (dport %d)" dport)
        true
        (PD.decide_nf_output disp nf (pkt dport) ~origin:Packet.Kernel_stack
         = Netfilter.walk nf Netfilter.Output (pkt dport)
             ~origin:Packet.Kernel_stack))
    (List.init 128 (fun i -> 40000 + i) @ [ 7; 22; 1023; 39999; 40128; 41000 ]);
  let served =
    match PD.cached_program disp "nf_output" with
    | Some p -> p
    | None -> Alcotest.fail "no nf program served"
  in
  Alcotest.(check int) "one iswitch served" 1
    (Array.fold_left
       (fun n i -> match i with Pfm.Iswitch _ -> n + 1 | _ -> n)
       0 served.Pfm.insns);
  check_equal "served nf vs netfilter_linear" served
    (Compile.netfilter_linear
       ~rules:(Netfilter.rules nf Netfilter.Output)
       ~policy:Netfilter.Drop);
  (* One provenance note per rule, in rule order, then the policy's. *)
  let _, notes =
    Compile.netfilter_notes
      ~rules:(Netfilter.rules nf Netfilter.Output)
      ~policy:Netfilter.Drop
  in
  Alcotest.(check (list string)) "one note per rule"
    (List.init 132 (fun i -> Printf.sprintf "rule %d" i) @ [ "chain policy DROP" ])
    (List.map
       (fun (_, text) ->
         match String.index_opt text ':' with
         | Some i -> String.sub text 0 i
         | None -> text)
       notes);
  Alcotest.(check bool) "notes in program order" true
    (List.sort compare (List.map fst notes) = List.map fst notes)

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

(* The production compile of a chain with a run of singleton-valued
   rules (mostly a switch) proves Equal to its straight-line sibling. *)
let prop_runs_prove =
  QCheck2.Test.make
    ~name:"equiv: a chain with a run proves Equal to netfilter_linear"
    ~count:100
    QCheck2.Gen.(
      pair
        (map
           (List.filteri (fun i _ -> i < 12))
           (Test_fuzz.nf_chain_with_runs_gen ~plain:4))
        (oneofl [ Netfilter.Accept; Netfilter.Drop; Netfilter.Reject ]))
    ~print:(fun (rules, policy) ->
      String.concat "; " (List.map Netfilter.rule_to_spec rules)
      ^ "; policy " ^ Netfilter.verdict_to_string policy)
    (fun (rules, policy) ->
      match
        Equiv.prove
          (Compile.netfilter ~rules ~policy)
          (Compile.netfilter_linear ~rules ~policy)
      with
      | Equiv.Equal -> true
      | r -> QCheck2.Test.fail_reportf "%s" (Equiv.result_to_string r))

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
    ( "equiv:compiler",
      [ Alcotest.test_case "nf 128-port chain serves one switch" `Quick
          test_nf_port_switch ] );
    ( "equiv:qcheck",
      [ QCheck_alcotest.to_alcotest ~long:false prop_prove_vs_differential;
        QCheck_alcotest.to_alcotest ~long:false prop_runs_prove ] ) ]
