(* Property and fuzz tests across the policy surfaces: the /proc
   configuration files must never crash or corrupt policy on hostile input,
   parsers must round-trip, and netfilter evaluation must follow
   first-match-wins semantics. *)

open Protego_kernel
module Image = Protego_dist.Image
module Netfilter = Protego_net.Netfilter
module Packet = Protego_net.Packet
module Ipaddr = Protego_net.Ipaddr
module Sudoers = Protego_policy.Sudoers

let junk_gen =
  QCheck2.Gen.(
    oneof
      [ string_size ~gen:printable (int_bound 120);
        (* structured-looking junk *)
        map
          (fun words -> String.concat " " words)
          (list_size (int_bound 8)
             (oneofl
                [ "allow"; "/dev/cdrom"; "/media/cdrom"; "iso9660"; "user";
                  "users"; "-"; "25"; "tcp"; "ALL"; "=("; ")"; "NOPASSWD:";
                  "#"; "\n"; "group"; "uid"; "-j"; "ACCEPT" ])) ])

(* Writing junk to any /proc/protego file either applies (Ok) or is
   rejected with EINVAL — never an exception, and never a broken policy:
   a known-good mount must still behave deterministically afterwards. *)
let prop_proc_fuzz =
  QCheck2.Test.make ~name:"protego /proc files survive hostile writes"
    ~count:60 junk_gen (fun junk ->
      let img = Image.build Image.Protego in
      let m = img.Image.machine in
      let root = Image.login img "root" in
      let alice = Image.login img "alice" in
      List.for_all
        (fun file ->
          match Syscall.write_file m root file junk with
          | Ok () | Error Protego_base.Errno.EINVAL -> true
          | Error _ -> false)
        [ "/proc/protego/mount_whitelist"; "/proc/protego/bind_map";
          "/proc/protego/delegation"; "/proc/protego/accounts";
          "/proc/protego/ppp_policy" ]
      &&
      (* The kernel still runs; a denied operation stays denied or the
         junk happened to parse — either way no crash and a clean errno. *)
      match
        Syscall.mount m alice ~source:"/dev/sda2" ~target:"/etc" ~fstype:"ext4"
          ~flags:[]
      with
      | Error _ -> true
      | Ok () -> false)

(* The command files take the same hostile writes: each returns [Ok] or
   a typed errno and never raises.  The words reach every command's
   argument, including a trace ring capacity below, at and far beyond
   [Trace.max_span_capacity] (never a mid-size one, which would allocate
   a large ring). *)
let command_junk_gen =
  let numbers =
    [ "1"; "65537"; "4611686018427387903"; "99999999999999999999" ]
  in
  QCheck2.Gen.(
    oneof
      [ string_size ~gen:printable (int_bound 60);
        map (fun n -> "capacity " ^ n) (oneofl numbers);
        map (String.concat " ")
          (list_size (int_bound 4)
             (oneofl
                ([ "capacity"; "-1"; "on"; "off"; "reset"; "engine"; "pfm";
                   "ref"; "enable"; "mode"; "warn"; "enforce"; "pid"; "steady";
                   "setup"; "optimize"; "deoptimize"; "\n" ]
                @ numbers))) ])

let prop_command_fuzz =
  QCheck2.Test.make ~name:"protego /proc command files survive hostile writes"
    ~count:40 command_junk_gen (fun junk ->
      let img = Image.build Image.Protego in
      let m = img.Image.machine in
      let root = Image.login img "root" in
      List.iter
        (fun file ->
          match Syscall.write_file m root ("/proc/protego/" ^ file) junk with
          | Ok () | Error (_ : Protego_base.Errno.t) -> ())
        [ "trace"; "latency"; "cache_stats"; "filter_stats"; "lint"; "record";
          "phase"; "audit" ];
      true)

(* Netfilter: eval equals a reference first-match-wins implementation. *)
let match_gen =
  QCheck2.Gen.oneofl
    [ Netfilter.Proto Packet.Icmp; Netfilter.Proto Packet.Tcp;
      Netfilter.Proto Packet.Udp; Netfilter.Origin_raw; Netfilter.Origin_packet;
      Netfilter.Tcp_syn; Netfilter.Owner_uid 1000;
      Netfilter.Dst_port { lo = 0; hi = 1023 };
      Netfilter.Dst_port { lo = 33434; hi = 33534 };
      Netfilter.Icmp_type Packet.Echo_request ]

let rule_gen =
  QCheck2.Gen.map2
    (fun matches accept ->
      { Netfilter.matches;
        target = (if accept then Netfilter.Accept else Netfilter.Drop);
        comment = "" })
    QCheck2.Gen.(list_size (int_bound 3) match_gen)
    QCheck2.Gen.bool

let packet_case_gen =
  QCheck2.Gen.(
    pair
      (oneofl
         [ Packet.Icmp_msg { icmp_type = Packet.Echo_request; code = 0; payload = "" };
           Packet.Tcp_seg { src_port = 1; dst_port = 80; syn = true; payload = "" };
           Packet.Tcp_seg { src_port = 1; dst_port = 80; syn = false; payload = "x" };
           Packet.Udp_dgram { src_port = 9; dst_port = 33500; payload = "" };
           Packet.Raw_payload { protocol = 89; payload = "ospf" } ])
      (oneofl
         [ Packet.Kernel_stack; Packet.Raw_app { uid = 1000 };
           Packet.Packet_app { uid = 33 } ]))

let prop_netfilter_first_match =
  QCheck2.Test.make ~name:"netfilter: eval is first-match-wins" ~count:300
    QCheck2.Gen.(pair (list_size (int_bound 6) rule_gen) packet_case_gen)
    (fun (rules, (transport, origin)) ->
      let t = Netfilter.create () in
      List.iter (Netfilter.append t Netfilter.Output) rules;
      let pkt =
        { Packet.src = Ipaddr.v 10 0 0 2; dst = Ipaddr.v 10 0 0 7; ttl = 64;
          transport }
      in
      let reference =
        let rec walk = function
          | [] -> Netfilter.Accept
          | (r : Netfilter.rule) :: rest ->
              if
                List.for_all
                  (fun mt -> Netfilter.matches_packet mt pkt ~origin)
                  r.Netfilter.matches
              then r.Netfilter.target
              else walk rest
        in
        walk rules
      in
      Netfilter.eval t Netfilter.Output pkt ~origin = reference)

(* Netfilter rule specs round-trip for generated rules. *)
let prop_rule_spec_roundtrip =
  QCheck2.Test.make ~name:"netfilter: generated rules round-trip as specs"
    ~count:300 rule_gen (fun rule ->
      match Netfilter.rule_of_spec (Netfilter.rule_to_spec rule) with
      | Ok rule' -> Netfilter.rule_to_spec rule = Netfilter.rule_to_spec rule'
      | Error _ -> false)

(* Sudoers: generated rule sets survive print/parse. *)
let sudo_rule_gen =
  let open QCheck2.Gen in
  let principal =
    oneof
      [ return Sudoers.All_users;
        map (fun n -> Sudoers.User n) (oneofl [ "alice"; "bob"; "carol" ]);
        map (fun g -> Sudoers.Group g) (oneofl [ "lp"; "staff" ]) ]
  in
  let runas =
    oneof
      [ return Sudoers.Runas_any;
        map (fun u -> Sudoers.Runas_users [ u ]) (oneofl [ "root"; "bob" ]) ]
  in
  let command =
    oneof
      [ return Sudoers.Any_command;
        map
          (fun p -> Sudoers.Command { path = p; args = None })
          (oneofl [ "/bin/true"; "/usr/bin/lpr" ]);
        return (Sudoers.Command { path = "/bin/echo"; args = Some [ "hi" ] }) ]
  in
  let tags =
    oneofl [ []; [ Sudoers.Nopasswd ]; [ Sudoers.Setenv ]; [ Sudoers.Targetpw ] ]
  in
  map
    (fun (((who, runas), tags), commands) ->
      { Sudoers.who; runas; tags; commands; rphase = Protego_base.Phase.Always })
    (pair (pair (pair principal runas) tags) (list_size (int_range 1 3) command))

let prop_sudoers_roundtrip =
  QCheck2.Test.make ~name:"sudoers: generated rules round-trip" ~count:300
    QCheck2.Gen.(list_size (int_bound 6) sudo_rule_gen)
    (fun rules ->
      let t = { Sudoers.empty with Sudoers.rules } in
      match Sudoers.parse (Sudoers.to_string t) with
      | Ok t' -> t'.Sudoers.rules = rules
      | Error _ -> false)

(* Path resolution agrees with lexical normalization for plain trees
   (no symlinks, no mounts). *)
let prop_resolve_normalized =
  QCheck2.Test.make ~name:"vfs: resolving a path equals resolving its normal form"
    ~count:150
    QCheck2.Gen.(
      list_size (int_bound 6) (oneofl [ "a"; "b"; ".."; "."; "c" ]))
    (fun parts ->
      let m = Machine.create () in
      let kt = Machine.kernel_task m in
      ignore (Machine.mkdir_p m kt "/a/b/c" ());
      ignore (Machine.mkdir_p m kt "/a/c" ());
      ignore (Machine.mkdir_p m kt "/b" ());
      ignore (Machine.mkdir_p m kt "/c" ());
      let path = "/" ^ String.concat "/" parts in
      let direct = Vfs.resolve m kt path in
      let via_norm = Vfs.resolve m kt (Vfs.normalize ~cwd:"/" path) in
      (* Physical resolution must visit every component, so it can fail
         where the lexical normal form succeeds ("/missing/.." is ENOENT
         physically, "/" lexically) — but when it succeeds, both must land
         on the same inode. *)
      match direct with
      | Ok a -> (
          match via_norm with Ok b -> Inode.same a b | Error _ -> false)
      | Error _ -> true)

(* --- filter machine: compiled programs vs the list-walking reference ----
   Differential fuzz for every compiled hook: 500 random policies x 20
   random argument tuples = 10k decisions per hook, compiled verdict ==
   reference verdict.  Each policy also exercises the compiler+verifier
   (the compilers raise if their output does not verify). *)

module Pfm = Protego_filter.Pfm
module Compile = Protego_filter.Pfm_compile
module PS = Protego_core.Policy_state
module Bindconf = Protego_policy.Bindconf
module Pppopts = Protego_policy.Pppopts
module Ppp = Protego_net.Ppp

let sources = [ "/dev/cdrom"; "/dev/sdb1"; "fuse"; "/dev/sda2"; "10.0.0.7:/export" ]
let targets = [ "/media/cdrom"; "/media/usb"; "/mnt/a"; "/mnt/b" ]
let fstypes = [ "iso9660"; "vfat"; "ext4"; "auto"; "nfs" ]

let flags_gen =
  QCheck2.Gen.oneofl
    Ktypes.[ []; [ Mf_readonly ]; [ Mf_nosuid; Mf_nodev ];
             [ Mf_readonly; Mf_nosuid; Mf_nodev ]; [ Mf_noexec ] ]

let mount_rule_of ~source ~target ~fstype =
  QCheck2.Gen.(
    map
      (fun ((src, tgt), (fs, (flags, user))) ->
        { PS.mr_source = src; mr_target = tgt; mr_fstype = fs;
          mr_flags = flags; mr_mode = (if user then `User else `Users);
          mr_phase = PS.Phase.Always })
      (pair (pair source target) (pair fstype (pair flags_gen bool))))

let mount_rule_gen =
  QCheck2.Gen.(
    mount_rule_of ~source:(oneofl sources) ~target:(oneofl targets)
      ~fstype:(oneofl fstypes))

let prop_pfm_mount =
  QCheck2.Test.make
    ~name:"pfm: compiled mount program equals the reference decision"
    ~count:500
    QCheck2.Gen.(
      pair (list_size (int_bound 12) mount_rule_gen)
        (list_repeat 20
           (pair (pair (oneofl sources) (oneofl targets))
              (pair (oneofl fstypes) flags_gen))))
    (fun (rules, queries) ->
      let st = PS.create () in
      PS.set st (PS.Set_mounts rules);
      let prog = Compile.mount (List.map PS.filter_rule rules) in
      List.for_all
        (fun ((source, target), (fstype, flags)) ->
          (Pfm.eval prog (Compile.mount_ctx ~phase:0 ~source ~target ~fstype ~flags)
           = Pfm.Allow)
          = PS.mount_decision st ~source ~target ~fstype ~flags)
        queries)

let prop_pfm_umount =
  QCheck2.Test.make
    ~name:"pfm: compiled umount program equals the reference decision"
    ~count:500
    QCheck2.Gen.(
      pair (list_size (int_bound 12) mount_rule_gen)
        (list_repeat 20
           (triple (oneofl targets) (oneofl [ 0; 1000; 1001 ])
              (oneofl [ 0; 1000; 1001 ]))))
    (fun (rules, queries) ->
      let st = PS.create () in
      PS.set st (PS.Set_mounts rules);
      let prog = Compile.umount (List.map PS.filter_rule rules) in
      List.for_all
        (fun (target, mounted_by, ruid) ->
          (Pfm.eval prog (Compile.umount_ctx ~phase:0 ~target ~mounted_by ~ruid)
           = Pfm.Allow)
          = PS.umount_decision st ~target ~mounted_by ~ruid)
        queries)

let bind_ports = [ 22; 25; 80; 443; 514 ]
let bind_exes = [ "/usr/sbin/exim4"; "/usr/sbin/sshd"; "/usr/bin/rsh" ]
let bind_uids = [ 0; 8; 101 ]

let bind_entry_of exes =
  QCheck2.Gen.(
    map
      (fun ((port, tcp), (exe, owner)) ->
        { Bindconf.port; proto = (if tcp then Bindconf.Tcp else Bindconf.Udp);
          exe; owner; phase = Protego_base.Phase.Always })
      (pair (pair (oneofl bind_ports) bool)
         (pair (oneofl exes) (oneofl bind_uids))))

let bind_entry_gen = bind_entry_of bind_exes

let prop_pfm_bind =
  QCheck2.Test.make
    ~name:"pfm: compiled bind program equals the reference decision"
    ~count:500
    QCheck2.Gen.(
      pair (list_size (int_bound 10) bind_entry_gen)
        (list_repeat 20
           (pair (pair (oneofl (1000 :: bind_ports)) bool)
              (pair (oneofl bind_exes) (oneofl bind_uids)))))
    (fun (entries, queries) ->
      let st = PS.create () in
      PS.set st (PS.Set_binds entries);
      let prog = Compile.bind entries in
      List.for_all
        (fun ((port, tcp), (exe, uid)) ->
          let proto = if tcp then Bindconf.Tcp else Bindconf.Udp in
          (Pfm.eval prog (Compile.bind_ctx ~phase:0 ~port ~proto ~exe ~uid) = Pfm.Allow)
          = PS.bind_allowed st ~port ~proto ~exe ~uid)
        queries)

let cidr s =
  match Ipaddr.Cidr.of_string s with
  | Some c -> c
  | None -> failwith ("bad test cidr: " ^ s)

let nf_match_gen =
  QCheck2.Gen.oneofl
    [ Netfilter.Proto Packet.Icmp; Netfilter.Proto Packet.Tcp;
      Netfilter.Proto Packet.Udp; Netfilter.Proto (Packet.Other 0x0806);
      Netfilter.Origin_raw; Netfilter.Origin_packet; Netfilter.Tcp_syn;
      Netfilter.Owner_uid 1000; Netfilter.Owner_uid 33;
      Netfilter.Dst_port { lo = 0; hi = 1023 };
      Netfilter.Dst_port { lo = 33434; hi = 33534 };
      Netfilter.Src_port { lo = 9; hi = 9 };
      Netfilter.Icmp_type Packet.Echo_request;
      Netfilter.Icmp_type Packet.Echo_reply;
      Netfilter.Src (cidr "10.0.0.0/8"); Netfilter.Src (cidr "0.0.0.0/0");
      Netfilter.Dst (cidr "10.0.0.7/32"); Netfilter.Dst (cidr "192.168.0.0/16") ]

let nf_verdicts = [ Netfilter.Accept; Netfilter.Drop; Netfilter.Reject ]

let nf_rule_gen =
  QCheck2.Gen.map2
    (fun matches target -> { Netfilter.matches; target; comment = "" })
    QCheck2.Gen.(list_size (int_bound 3) nf_match_gen)
    (QCheck2.Gen.oneofl nf_verdicts)

let nf_packet_gen =
  QCheck2.Gen.(
    map
      (fun (((src, dst), transport), origin) ->
        ({ Packet.src; dst; ttl = 64; transport }, origin))
      (pair
         (pair
            (pair
               (oneofl [ Ipaddr.v 10 0 0 2; Ipaddr.v 192 168 1 5 ])
               (oneofl [ Ipaddr.v 10 0 0 7; Ipaddr.v 8 8 8 8 ]))
            (oneofl
               [ Packet.Icmp_msg
                   { icmp_type = Packet.Echo_request; code = 0; payload = "" };
                 Packet.Icmp_msg
                   { icmp_type = Packet.Echo_reply; code = 0; payload = "" };
                 Packet.Tcp_seg
                   { src_port = 9; dst_port = 80; syn = true; payload = "" };
                 Packet.Tcp_seg
                   { src_port = 1024; dst_port = 33500; syn = false;
                     payload = "x" };
                 Packet.Udp_dgram { src_port = 9; dst_port = 33500; payload = "" };
                 Packet.Udp_dgram
                   { src_port = 5353; dst_port = 53; payload = "q" };
                 Packet.Raw_payload { protocol = 89; payload = "ospf" } ]))
         (oneofl
            [ Packet.Kernel_stack; Packet.Raw_app { uid = 1000 };
              Packet.Packet_app { uid = 33 } ])))

let prop_pfm_netfilter =
  QCheck2.Test.make
    ~name:"pfm: compiled netfilter chain equals the reference walk"
    ~count:500
    QCheck2.Gen.(
      pair
        (pair (list_size (int_bound 8) nf_rule_gen) (oneofl nf_verdicts))
        (list_repeat 20 nf_packet_gen))
    (fun ((rules, policy), cases) ->
      let t = Netfilter.create ~output_policy:policy () in
      List.iter (Netfilter.append t Netfilter.Output) rules;
      let prog = Compile.netfilter ~rules ~policy in
      List.for_all
        (fun (pkt, origin) ->
          Compile.verdict_of_netfilter
            (Netfilter.walk t Netfilter.Output pkt ~origin)
          = Pfm.eval prog (Compile.packet_ctx pkt ~origin))
        cases)

let ppp_devices = [ "/dev/ttyS0"; "/dev/ttyS1"; "/dev/ttyUSB0" ]

let ppp_opts =
  [ Ppp.Compression "deflate"; Ppp.Async_map 0; Ppp.Mru 1500; Ppp.Accomp;
    Ppp.Default_route; Ppp.Modem_line_speed 115200;
    Ppp.Modem_flow_control "rtscts" ]

let ppp_directive_of devices =
  QCheck2.Gen.(
    oneof
      [ map
          (fun d -> Pppopts.Allow_device (d, Protego_base.Phase.Always))
          (oneofl devices);
        return Pppopts.Allow_user_routes;
        map (fun o -> Pppopts.Session_option o) (oneofl ppp_opts) ])

let ppp_directive_gen = ppp_directive_of ppp_devices

let prop_pfm_ppp =
  QCheck2.Test.make
    ~name:"pfm: compiled ppp-ioctl program equals the reference decision"
    ~count:500
    QCheck2.Gen.(
      pair (list_size (int_bound 6) ppp_directive_gen)
        (list_repeat 20
           (pair (oneofl ("/dev/ttyS9" :: ppp_devices)) (oneofl ppp_opts))))
    (fun (directives, queries) ->
      let st = PS.create () in
      PS.set st (PS.Set_ppp { Pppopts.directives });
      let prog = Compile.ppp_ioctl { Pppopts.directives } in
      List.for_all
        (fun (device, opt) ->
          (Pfm.eval prog (Compile.ppp_ctx ~phase:0 ~device ~opt) = Pfm.Allow)
          = PS.ppp_ioctl_decision st ~device ~opt)
        queries)

(* --- abstract-interpretation soundness ---------------------------------- *)

module Absint = Protego_analysis.Pfm_absint

(* The analyzer over-approximates reachability, so runtime observation
   can never contradict it: every instruction slot with a nonzero
   execution counter must be abstractly reachable (zero false "dead
   rule" claims), and every verdict actually returned must be abstractly
   reachable.  500 policies x 20 decisions = 10k decisions per hook. *)
let counters_within_reachability prog (s : Absint.summary) =
  let ok = ref true in
  Array.iteri
    (fun i c -> if c > 0 && not s.Absint.reachable.(i) then ok := false)
    prog.Pfm.counters;
  !ok

let prop_absint_sound_mount =
  QCheck2.Test.make
    ~name:"absint: mount runtime counters within abstract reachability"
    ~count:500
    QCheck2.Gen.(
      pair (list_size (int_bound 12) mount_rule_gen)
        (list_repeat 20
           (pair (pair (oneofl sources) (oneofl targets))
              (pair (oneofl fstypes) flags_gen))))
    (fun (rules, queries) ->
      let prog = Compile.mount (List.map PS.filter_rule rules) in
      let s = Absint.analyze prog in
      List.for_all
        (fun ((source, target), (fstype, flags)) ->
          Absint.verdict_reachable s
            (Pfm.eval prog (Compile.mount_ctx ~phase:0 ~source ~target ~fstype ~flags)))
        queries
      && counters_within_reachability prog s)

let prop_absint_sound_nf =
  QCheck2.Test.make
    ~name:"absint: netfilter runtime counters within abstract reachability"
    ~count:500
    QCheck2.Gen.(
      pair
        (pair (list_size (int_bound 8) nf_rule_gen) (oneofl nf_verdicts))
        (list_repeat 20 nf_packet_gen))
    (fun ((rules, policy), cases) ->
      let prog = Compile.netfilter ~rules ~policy in
      let s = Absint.analyze prog in
      List.for_all
        (fun (pkt, origin) ->
          Absint.verdict_reachable s
            (Pfm.eval prog (Compile.packet_ctx pkt ~origin)))
        cases
      && counters_within_reachability prog s)

let prop_absint_sound_bind =
  QCheck2.Test.make
    ~name:"absint: bind runtime counters within abstract reachability"
    ~count:500
    QCheck2.Gen.(
      pair (list_size (int_bound 10) bind_entry_gen)
        (list_repeat 20
           (pair (pair (oneofl (1000 :: bind_ports)) bool)
              (pair (oneofl bind_exes) (oneofl bind_uids)))))
    (fun (entries, queries) ->
      let prog = Compile.bind entries in
      let s = Absint.analyze prog in
      List.for_all
        (fun ((port, tcp), (exe, uid)) ->
          let proto = if tcp then Bindconf.Tcp else Bindconf.Udp in
          Absint.verdict_reachable s
            (Pfm.eval prog (Compile.bind_ctx ~phase:0 ~port ~proto ~exe ~uid)))
        queries
      && counters_within_reachability prog s)

(* --- decision cache: cached == engine == reference under reloads --------
   10k random decisions per hook, driven through the dispatcher with the
   cache enabled, with a policy reload every ~100 decisions.  At every
   step the (possibly cached) answer must equal a fresh engine evaluation
   with the cache bypassed AND the reference oracle — so neither the memo
   table nor the front slots can ever serve a verdict the live policy
   would not produce.  Deterministic: a fixed Random.State drives the
   QCheck generators directly. *)

module PD = Protego_core.Pfm_dispatch
module DC = Protego_core.Decision_cache

let decisions_per_hook = 10_000
let reload_every = 100

let cache_differential ~name ~state ~reload ~query ~decide ~oracle () =
  let rand = Random.State.make [| 0xCAC4ED; Hashtbl.hash name |] in
  let gen1 g = QCheck2.Gen.generate1 ~rand g in
  let st = state () in
  let disp = PD.create () in
  let dc = PD.cache disp in
  reload gen1 st;
  for i = 1 to decisions_per_hook do
    if i mod reload_every = 0 then reload gen1 st;
    let q = query gen1 in
    let cached = decide disp st q in
    DC.set_enabled dc false;
    let engine = decide disp st q in
    DC.set_enabled dc true;
    let expect = oracle st q in
    if cached <> expect then
      Alcotest.failf "%s: step %d: cached verdict differs from the oracle" name
        i;
    if engine <> expect then
      Alcotest.failf "%s: step %d: engine verdict differs from the oracle" name
        i
  done

let subject_gen = QCheck2.Gen.oneofl [ 0; 1000; 1001 ]

(* The differential's pools are the filter pools widened with strings a
   key that joins fields with a separator cannot tell apart: values that
   hold the unit separator, the empty string, and values that extend one
   another. *)
let us = "\x1f"

let cd_sources =
  sources @ [ ""; "/dev/sdc1"; "/dev/sdc1" ^ us ^ "/media/stick" ]

let cd_targets =
  targets @ [ ""; "/etc"; "/media/stick"; "/media/stick" ^ us ^ "/etc" ]

let cd_fstypes = fstypes @ [ ""; "/etc" ^ us ^ "ext4"; us ^ "ext4" ]

(* The (source, target, fstype) tuples of the pools that share their
   separator-joined rendering with another tuple.  Half the mount queries
   are drawn from them, so two of one rendering meet under one subject
   and flag set well inside a reload period. *)
let colliding_mounts =
  let rendered (s, t, f) = String.concat us [ s; t; f ] in
  let all =
    List.concat_map
      (fun s ->
        List.concat_map
          (fun t -> List.map (fun f -> (s, t, f)) cd_fstypes)
          cd_targets)
      cd_sources
  in
  List.filter
    (fun q -> List.exists (fun q' -> q' <> q && rendered q' = rendered q) all)
    all

(* Plain rules over the widened pools, and [auto] rules — which match
   any fstype, so they split a colliding group — half of them on the
   (source, target) of a colliding tuple. *)
let cd_mount_rule_gen =
  QCheck2.Gen.(
    frequency
      [ ( 1,
          mount_rule_of ~source:(oneofl cd_sources)
            ~target:(oneofl cd_targets) ~fstype:(oneofl cd_fstypes) );
        ( 1,
          bind
            (frequency
               [ (1, pair (oneofl cd_sources) (oneofl cd_targets));
                 ( 1,
                   oneofl (List.map (fun (s, t, _) -> (s, t)) colliding_mounts)
                 ) ])
            (fun (s, t) ->
              mount_rule_of ~source:(return s) ~target:(return t)
                ~fstype:(return "auto")) ) ])

let mount_policy_gen = QCheck2.Gen.(list_size (int_bound 12) cd_mount_rule_gen)

let mount_query_gen =
  QCheck2.Gen.(
    pair
      (frequency
         [ ( 1,
             triple (oneofl cd_sources) (oneofl cd_targets)
               (oneofl cd_fstypes) );
           (1, oneofl colliding_mounts) ])
      (pair flags_gen subject_gen))

let cache_diff_mount =
  cache_differential ~name:"mount" ~state:PS.create
    ~reload:(fun gen1 st -> PS.set st (PS.Set_mounts (gen1 mount_policy_gen)))
    ~query:(fun gen1 -> gen1 mount_query_gen)
    ~decide:(fun disp st ((source, target, fstype), (flags, subject)) ->
      PD.decide_mount disp ~subject st ~source ~target ~fstype ~flags)
    ~oracle:(fun st ((source, target, fstype), (flags, _)) ->
      PS.mount_decision st ~source ~target ~fstype ~flags)

let umount_query_gen =
  QCheck2.Gen.(
    triple (oneofl cd_targets) (oneofl [ 0; 1000; 1001 ])
      (oneofl [ 0; 1000; 1001 ]))

let cache_diff_umount =
  cache_differential ~name:"umount" ~state:PS.create
    ~reload:(fun gen1 st -> PS.set st (PS.Set_mounts (gen1 mount_policy_gen)))
    ~query:(fun gen1 -> gen1 umount_query_gen)
    ~decide:(fun disp st (target, mounted_by, ruid) ->
      PD.decide_umount disp st ~target ~mounted_by ~ruid)
    ~oracle:(fun st (target, mounted_by, ruid) ->
      PS.umount_decision st ~target ~mounted_by ~ruid)

let cd_bind_exes =
  bind_exes @ [ ""; "/usr/sbin/sshd" ^ us ^ "25"; "/usr/sbin/sshd" ^ us ]

let bind_query_gen =
  QCheck2.Gen.(
    pair
      (pair (oneofl (1000 :: bind_ports)) bool)
      (pair (oneofl cd_bind_exes) (oneofl bind_uids)))

let cache_diff_bind =
  cache_differential ~name:"bind" ~state:PS.create
    ~reload:(fun gen1 st ->
      let entries = QCheck2.Gen.list_size (QCheck2.Gen.int_bound 10) in
      PS.set st (PS.Set_binds (gen1 (entries (bind_entry_of cd_bind_exes)))))
    ~query:(fun gen1 -> gen1 bind_query_gen)
    ~decide:(fun disp st ((port, tcp), (exe, uid)) ->
      let proto = if tcp then Bindconf.Tcp else Bindconf.Udp in
      PD.decide_bind disp st ~port ~proto ~exe ~uid)
    ~oracle:(fun st ((port, tcp), (exe, uid)) ->
      let proto = if tcp then Bindconf.Tcp else Bindconf.Udp in
      PS.bind_allowed st ~port ~proto ~exe ~uid)

let cd_ppp_devices =
  ppp_devices @ [ ""; "/dev/ttyS0" ^ us ^ "1"; "/dev/ttyS0" ^ us ]

let ppp_query_gen =
  QCheck2.Gen.(
    pair (pair (oneofl ("/dev/ttyS9" :: cd_ppp_devices)) (oneofl ppp_opts))
      subject_gen)

let cache_diff_ppp =
  cache_differential ~name:"ppp_ioctl" ~state:PS.create
    ~reload:(fun gen1 st ->
      PS.set st
        (PS.Set_ppp
           { Pppopts.directives =
               gen1
                 QCheck2.Gen.(
                   list_size (int_bound 6) (ppp_directive_of cd_ppp_devices))
           }))
    ~query:(fun gen1 -> gen1 ppp_query_gen)
    ~decide:(fun disp st ((device, opt), subject) ->
      PD.decide_ppp_ioctl disp ~subject st ~device ~opt)
    ~oracle:(fun st ((device, opt), _) ->
      PS.ppp_ioctl_decision st ~device ~opt)

let nf_chain_gen =
  QCheck2.Gen.(
    pair (list_size (int_bound 8) nf_rule_gen) (oneofl nf_verdicts))

(* Each reload goes through one mutator mix — a full reload (flush, policy,
   appends), one [insert] alone, or one [set_policy] alone — so a mutator
   that forgot to bump the table's generation would let a stale cached
   verdict through. *)
let cache_diff_nf =
  cache_differential ~name:"nf_output"
    ~state:(fun () -> Netfilter.create ())
    ~reload:(fun gen1 nf ->
      let out = Netfilter.Output in
      gen1
        QCheck2.Gen.(
          oneof
            [ map
                (fun (rules, policy) () ->
                  Netfilter.flush nf out;
                  Netfilter.set_policy nf out policy;
                  List.iter (Netfilter.append nf out) rules)
                nf_chain_gen;
              map (fun r () -> Netfilter.insert nf out r) nf_rule_gen;
              map (fun v () -> Netfilter.set_policy nf out v)
                (oneofl nf_verdicts) ])
        ())
    ~query:(fun gen1 -> gen1 nf_packet_gen)
    ~decide:(fun disp nf (pkt, origin) ->
      PD.decide_nf_output disp nf pkt ~origin)
    ~oracle:(fun nf (pkt, origin) ->
      Netfilter.walk nf Netfilter.Output pkt ~origin)

let suites =
  [ ("fuzz:properties",
      List.map
        (QCheck_alcotest.to_alcotest ~long:false)
        [ prop_proc_fuzz; prop_command_fuzz; prop_netfilter_first_match;
          prop_rule_spec_roundtrip;
          prop_sudoers_roundtrip; prop_resolve_normalized ]);
    ("fuzz:filter-differential",
      List.map
        (QCheck_alcotest.to_alcotest ~long:false)
        [ prop_pfm_mount; prop_pfm_umount; prop_pfm_bind; prop_pfm_netfilter;
          prop_pfm_ppp ]);
    ("fuzz:absint-soundness",
      List.map
        (QCheck_alcotest.to_alcotest ~long:false)
        [ prop_absint_sound_mount; prop_absint_sound_nf;
          prop_absint_sound_bind ]);
    ("fuzz:cache-differential",
      [ Alcotest.test_case "mount: cached == engine == reference" `Quick
          cache_diff_mount;
        Alcotest.test_case "umount: cached == engine == reference" `Quick
          cache_diff_umount;
        Alcotest.test_case "bind: cached == engine == reference" `Quick
          cache_diff_bind;
        Alcotest.test_case "ppp_ioctl: cached == engine == reference" `Quick
          cache_diff_ppp;
        Alcotest.test_case "nf_output: cached == engine == reference" `Quick
          cache_diff_nf ]) ]
