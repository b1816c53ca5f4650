(* Benchmark / experiment driver.

   One subcommand per paper artefact:

     table1 table2 table3 table4 table5 table6 table7 table8 figure1 ablation

   Running with no arguments regenerates everything (the order follows the
   paper's evaluation section).  Absolute timings are simulator costs; the
   reproduced quantity is the Linux-vs-Protego overhead ratio. *)

module Study = Protego_study
module Image = Protego_dist.Image
module Phase = Protego_base.Phase
module Request = Protego_core.Request

let section title =
  Printf.printf "\n================ %s ================\n%!" title

(* Setup failures (a missing LSM, a refused mount during warm-up) are
   environment problems, not bugs worth a backtrace: report and exit
   nonzero so CI logs show the reason, not an uncaught exception. *)
let die fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "protego-bench: %s\n%!" msg;
      exit 1)
    fmt

(* --- Table 5 ------------------------------------------------------------ *)

let fmt_ns ns =
  if Float.is_nan ns then "n/a"
  else if ns >= 1_000_000.0 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1000.0 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.1f ns" ns

let run_table5 () =
  section "Table 5: performance overheads (Linux+AppArmor vs Protego)";
  Printf.printf "lmbench-style microbenchmarks (per-op cost in the simulator):\n%!";
  let micro = Harness.run_micro () in
  let rows =
    List.map
      (fun (r : Harness.measurement) ->
        let oh =
          Harness.overhead_pct ~linux:r.Harness.linux_ns
            ~protego:r.Harness.protego_ns
        in
        [ (if r.Harness.m_modified then r.Harness.m_name ^ " *"
           else r.Harness.m_name);
          fmt_ns r.Harness.linux_ns;
          fmt_ns r.Harness.protego_ns; Printf.sprintf "%+.2f%%" oh;
          (match r.Harness.paper_us with
          | Some us -> Printf.sprintf "%.2f us" us
          | None -> "-") ])
      micro
  in
  print_string
    (Study.Report.table
       ~header:[ "Test (* = modified interface)"; "Linux"; "Protego"; "%OH";
                 "paper Linux" ]
       ~align:Study.Report.[ L; R; R; R; R ]
       rows);
  let fold_oh keep =
    List.fold_left
      (fun acc (r : Harness.measurement) ->
        let oh =
          Harness.overhead_pct ~linux:r.Harness.linux_ns
            ~protego:r.Harness.protego_ns
        in
        if Float.is_nan oh || not (keep r) then acc else max acc (Float.abs oh))
      0.0 micro
  in
  let max_oh = fold_oh (fun r -> r.Harness.m_modified) in
  let noise_floor = fold_oh (fun r -> not r.Harness.m_modified) in
  Printf.printf
    "Noise floor (max |OH| among rows Protego does not modify): %.2f%%\n"
    noise_floor;
  (* Macro workloads. *)
  let linux = Harness.prepared_image Image.Linux in
  let protego = Harness.prepared_image Image.Protego in
  Printf.printf "\nPostal-like mail loop (exim4, messages/min; higher is better):\n%!";
  let mail_l =
    -. Harness.best_of_3 (fun () -> -. Harness.mail_throughput linux 5000)
  in
  let mail_p =
    -. Harness.best_of_3 (fun () -> -. Harness.mail_throughput protego 5000)
  in
  Printf.printf "  Linux   %10.0f msg/min\n  Protego %10.0f msg/min  (%+.2f%%)\n"
    mail_l mail_p (100.0 *. (mail_l -. mail_p) /. mail_l);
  Printf.printf "\nKernel-compile-like build DAG (2000 compile units, fork+exec each):\n%!";
  let cc_l =
    Harness.best_of_3 (fun () ->
        Harness.build_dag_seconds (Harness.prepared_image Image.Linux) 2000)
  in
  let cc_p =
    Harness.best_of_3 (fun () ->
        Harness.build_dag_seconds (Harness.prepared_image Image.Protego) 2000)
  in
  Printf.printf "  Linux   %8.3f s\n  Protego %8.3f s  (%+.2f%%)\n" cc_l cc_p
    (Harness.overhead_pct ~linux:cc_l ~protego:cc_p);
  Printf.printf
    "\nApacheBench-like request loop (1 KiB page; time/request lower is better):\n%!";
  let web_rows =
    List.map
      (fun conc ->
        let l_ms =
          Harness.best_of_3 (fun () ->
              fst (Harness.web_load linux ~conc ~reqs:20000))
        in
        let p_ms =
          Harness.best_of_3 (fun () ->
              fst (Harness.web_load protego ~conc ~reqs:20000))
        in
        let l_kbs = 1000.0 /. l_ms and p_kbs = 1000.0 /. p_ms in
        [ string_of_int conc;
          Printf.sprintf "%.4f" l_ms; Printf.sprintf "%.4f" p_ms;
          Printf.sprintf "%+.2f%%" (Harness.overhead_pct ~linux:l_ms ~protego:p_ms);
          Printf.sprintf "%.0f" l_kbs; Printf.sprintf "%.0f" p_kbs ])
      [ 25; 50; 100; 200 ]
  in
  print_string
    (Study.Report.table
       ~header:
         [ "conc. reqs"; "ms/req Linux"; "ms/req Protego"; "%OH";
           "KB/s Linux"; "KB/s Protego" ]
       ~align:Study.Report.[ R; R; R; R; R; R ]
       web_rows);
  Printf.printf
    "\nShape check: paper reports 0--7.4%% overhead; max micro overhead here: %.2f%%\n"
    max_oh;
  max_oh

(* --- other tables -------------------------------------------------------- *)

let run_table1 ?max_overhead_pct () =
  section "Table 1: summary of results";
  print_string (Study.Summary.render (Study.Summary.compute ?max_overhead_pct ()))

let run_table2 () =
  section "Table 2: lines of code";
  print_string (Study.Loc_accounting.render ())

let run_table3 () =
  section "Table 3: setuid package popularity (synthetic survey)";
  print_string (Study.Popularity.render (Study.Popularity.synthesize ()))

let run_table4 () =
  section "Table 4: abstraction/policy matrix (live probes)";
  print_string (Study.Abstractions.render (Study.Abstractions.run ()))

let run_table6 () =
  section "Table 6: historical privilege-escalation CVEs";
  let linux_img = Image.build Image.Linux in
  let protego_img = Image.build Image.Protego in
  (* Exploit payloads must not be able to authenticate. *)
  linux_img.Image.machine.Protego_kernel.Ktypes.password_source <- (fun _ -> None);
  protego_img.Image.machine.Protego_kernel.Ktypes.password_source <- (fun _ -> None);
  let linux = Study.Exploit.run_all linux_img in
  let protego = Study.Exploit.run_all protego_img in
  print_string (Study.Exploit.render ~linux ~protego)

let run_table7 () =
  section "Table 7: functional-test coverage";
  Protego_userland.Coverage.reset ();
  ignore (Study.Functional.exercise_all (Image.build Image.Linux));
  ignore (Study.Functional.exercise_all (Image.build Image.Protego));
  print_string (Study.Functional.render_table7 ())

let run_table8 () =
  section "Table 8: remaining setuid packages";
  print_string (Study.Remaining.render ())

let run_surface () =
  section "Attack surface (extension): setuid entry points per configuration";
  let linux = Study.Attack_surface.analyze (Image.build Image.Linux) in
  let protego = Study.Attack_surface.analyze (Image.build Image.Protego) in
  print_string (Study.Attack_surface.render ~linux ~protego)

let run_figure1 () =
  section "Figure 1: mount path comparison";
  print_string (Study.Figure1.render ())

(* Ablation: the cost of the object-based whitelist check vs the stock
   capability bitmask check, isolated on the mount syscall, at growing
   whitelist sizes (the matching rule is kept last, the worst case for the
   linear scan). *)
let run_ablation () =
  section "Ablation: object-based policy check vs capability bitmask";
  let protego = Harness.prepared_image Image.Protego in
  (* The decision cache would serve the repeated identical mount after the
     first iteration and flatten the curve; this ablation isolates the
     engine's scan cost, so bypass it. *)
  (match protego.Image.protego with
  | None -> ()
  | Some lsm ->
      Protego_core.Decision_cache.set_enabled
        (Protego_core.Pfm_dispatch.cache (Protego_core.Lsm.dispatch lsm))
        false);
  let grow_whitelist n =
    match protego.Image.protego with
    | None -> ()
    | Some lsm ->
        let st = Protego_core.Lsm.state lsm in
        let rule i =
          { Protego_core.Policy_state.mr_source = Printf.sprintf "/dev/fake%d" i;
            mr_target = Printf.sprintf "/media/fake%d" i;
            mr_fstype = "ext4"; mr_flags = []; mr_mode = `Users;
            mr_phase = Protego_core.Policy_state.Phase.Always }
        in
        Protego_core.Policy_state.set st
          (Set_mounts
             (List.init n rule
             @ List.filter
                 (fun (r : Protego_core.Policy_state.mount_rule) ->
                   r.mr_source = "/dev/cdrom" || r.mr_source = "/dev/sdb1"
                   || r.mr_source = "fuse")
                 st.Protego_core.Policy_state.mounts))
  in
  let alice = Image.login protego "alice" in
  let m = protego.Image.machine in
  let mount_cycle () =
    match
      Protego_kernel.Syscall.mount m alice ~source:"/dev/cdrom"
        ~target:"/media/cdrom" ~fstype:"iso9660"
        ~flags:Protego_kernel.Ktypes.[ Mf_readonly; Mf_nosuid; Mf_nodev ]
    with
    | Ok () -> ignore (Protego_kernel.Syscall.umount m alice ~target:"/media/cdrom")
    | Error e -> die "ablation mount failed: %s" (Protego_base.Errno.to_string e)
  in
  let rows =
    List.map
      (fun n ->
        grow_whitelist n;
        let ns = Harness.measure_ns (Printf.sprintf "whitelist-%d" n) mount_cycle in
        [ string_of_int n; fmt_ns ns ])
      [ 0; 8; 64; 512 ]
  in
  grow_whitelist 0;
  print_string
    (Study.Report.table
       ~title:"user mount+umount cost vs mount-whitelist size"
       ~header:[ "extra whitelist rules"; "mount/umount" ]
       ~align:Study.Report.[ R; R ]
       rows);
  (* Second axis: the per-packet cost of the netfilter OUTPUT scan as the
     administrator's rule set grows (the Protego origin rules sit at the
     end, the common case for kernel-stack traffic). *)
  let module NF = Protego_net.Netfilter in
  let saved = NF.rules m.Protego_kernel.Ktypes.netfilter NF.Output in
  let with_rules n =
    NF.flush m.Protego_kernel.Ktypes.netfilter NF.Output;
    for i = 1 to n do
      NF.append m.Protego_kernel.Ktypes.netfilter NF.Output
        { NF.matches =
            [ NF.Dst_port { lo = 40000 + i; hi = 40000 + i };
              NF.Proto Protego_net.Packet.Tcp ];
          target = NF.Accept; comment = "filler" }
    done;
    List.iter (NF.append m.Protego_kernel.Ktypes.netfilter NF.Output) saved
  in
  let udp_fd =
    match
      Protego_kernel.Syscall.socket m alice Protego_kernel.Ktypes.Af_inet
        Protego_kernel.Ktypes.Sock_dgram 17
    with
    | Ok fd -> fd
    | Error e -> die "ablation socket: %s" (Protego_base.Errno.to_string e)
  in
  let send_cycle () =
    ignore
      (Protego_kernel.Syscall.sendto m alice udp_fd
         (Protego_net.Ipaddr.v 10 0 0 7) 7 "x");
    ignore (Protego_kernel.Syscall.recvfrom m alice udp_fd)
  in
  let nf_rows =
    List.map
      (fun n ->
        with_rules n;
        let ns = Harness.measure_ns (Printf.sprintf "nfrules-%d" n) send_cycle in
        [ string_of_int n; fmt_ns ns ])
      [ 0; 8; 64; 256 ]
  in
  with_rules 0;
  ignore (Protego_kernel.Syscall.close m alice udp_fd);
  print_string
    (Study.Report.table
       ~title:"UDP round-trip cost vs netfilter OUTPUT rule count"
       ~header:[ "extra netfilter rules"; "udp send+recv" ]
       ~align:Study.Report.[ R; R ]
       nf_rows)

(* --- the packet hook's decision table ------------------------------------ *)

module NF = Protego_net.Netfilter

(* [n] OUTPUT filler rules, TCP to ports no benched packet uses. *)
let nf_fillers n =
  List.init n (fun i ->
      { NF.matches =
          [ NF.Dst_port { lo = 40001 + i; hi = 40001 + i };
            NF.Proto Protego_net.Packet.Tcp ];
        target = NF.Accept; comment = "filler" })

(* A kernel-stack UDP packet that matches no filler. *)
let bench_packet =
  { Protego_net.Packet.src = Protego_net.Ipaddr.v 10 0 0 1;
    dst = Protego_net.Ipaddr.v 10 0 0 7; ttl = 64;
    transport =
      Protego_net.Packet.Udp_dgram
        { src_port = 5353; dst_port = 7; payload = "x" } }

let nf_decide disp nf pkt =
  Protego_core.Pfm_dispatch.decide_nf_output disp nf pkt
    ~origin:Protego_net.Packet.Kernel_stack

(* A cold decision (an INPUT policy write bumps the netfilter generation
   and keeps the OUTPUT program, so every lookup finds its entry stale)
   and a table hit (a fresh copy of the packet record on every call, as
   the syscall path decodes one), with the cache enabled. *)
let nf_cache_costs ~name disp nf =
  let decide () = ignore (nf_decide disp nf bench_packet) in
  decide ();
  let cold_ns =
    Harness.measure_ns ("cache:" ^ name ^ ":cold") (fun () ->
        NF.set_policy nf NF.Input (NF.policy nf NF.Input);
        decide ())
  in
  decide ();
  let copies = Array.init 64 (fun _ -> { bench_packet with ttl = 64 }) in
  let i = ref 0 in
  let hit_ns =
    Harness.measure_ns ("cache:" ^ name ^ ":hit") (fun () ->
        i := (!i + 1) land 63;
        ignore (nf_decide disp nf copies.(!i)))
  in
  (cold_ns, hit_ns)

(* Filter machine: per-decision cost of the compiled bytecode programs vs
   the list-walking reference, on adversarial policies (the matching entry
   last, the worst case for the linear reference scan). *)
let run_filter () =
  section "Filter machine: compiled (pfm) vs reference (ref) decision cost";
  let module PD = Protego_core.Pfm_dispatch in
  let module PS = Protego_core.Policy_state in
  let module NF = Protego_net.Netfilter in
  let protego = Harness.prepared_image Image.Protego in
  let lsm =
    match protego.Image.protego with
    | Some l -> l
    | None -> die "filter bench: Protego image has no LSM"
  in
  let st = Protego_core.Lsm.state lsm in
  let disp = Protego_core.Lsm.dispatch lsm in
  (* This bench compares the engines themselves; with the decision cache in
     front, every measured iteration after the first would be a hit. *)
  Protego_core.Decision_cache.set_enabled (PD.cache disp) false;
  let m = protego.Image.machine in
  let flags = Protego_kernel.Ktypes.[ Mf_readonly; Mf_nosuid; Mf_nodev ] in
  (* Mount whitelist: 128 filler rules ahead of the one that matches. *)
  let filler i =
    { PS.mr_source = Printf.sprintf "/dev/fake%d" i;
      mr_target = Printf.sprintf "/media/fake%d" i; mr_fstype = "ext4";
      mr_flags = []; mr_mode = `Users; mr_phase = PS.Phase.Always }
  in
  PS.set st
    (Set_mounts
       (List.init 128 filler
       @ [ { PS.mr_source = "/dev/cdrom"; mr_target = "/media/cdrom";
             mr_fstype = "iso9660";
             mr_flags = [ Protego_kernel.Ktypes.Mf_nosuid ];
             mr_mode = `User; mr_phase = PS.Phase.Always } ]));
  (* Bind map: 512 entries, the queried port last. *)
  PS.set st
    (Set_binds
       (List.init 512 (fun i ->
            { Protego_policy.Bindconf.port = 200 + i;
              proto = Protego_policy.Bindconf.Tcp; exe = "/usr/sbin/exim4";
              owner = 0; phase = Protego_base.Phase.Always })));
  (* Netfilter OUTPUT chain: 128 filler rules ahead of the defaults; the
     benched kernel-stack packet matches nothing and falls to the policy. *)
  let nf = m.Protego_kernel.Ktypes.netfilter in
  let saved = NF.rules nf NF.Output in
  NF.flush nf NF.Output;
  for i = 1 to 128 do
    NF.append nf NF.Output
      { NF.matches =
          [ NF.Dst_port { lo = 40000 + i; hi = 40000 + i };
            NF.Proto Protego_net.Packet.Tcp ];
        target = NF.Accept; comment = "filler" }
  done;
  List.iter (NF.append nf NF.Output) saved;
  let pkt =
    { Protego_net.Packet.src = Protego_net.Ipaddr.v 10 0 0 1;
      dst = Protego_net.Ipaddr.v 10 0 0 7; ttl = 64;
      transport =
        Protego_net.Packet.Udp_dgram
          { src_port = 5353; dst_port = 7; payload = "x" } }
  in
  (* One request per hook, decided by its engine on every call. *)
  let mount =
    Request.Mount
      { subject = 0; source = "/dev/cdrom"; target = "/media/cdrom";
        fstype = "iso9660"; flags }
  in
  let bind =
    Request.Bind
      { subject = 0; port = 711; proto = Protego_policy.Bindconf.Tcp;
        exe = "/usr/sbin/exim4" }
  in
  let decide_mount () = ignore (PD.decide disp ~phase:Phase.initial st mount) in
  let decide_bind () = ignore (PD.decide disp ~phase:Phase.initial st bind) in
  let decide_nf () =
    ignore (PD.decide_nf_output disp nf pkt ~origin:Protego_net.Packet.Kernel_stack)
  in
  let alice = Image.login protego "alice" in
  let mount_cycle () =
    match
      Protego_kernel.Syscall.mount m alice ~source:"/dev/cdrom"
        ~target:"/media/cdrom" ~fstype:"iso9660" ~flags
    with
    | Ok () ->
        ignore (Protego_kernel.Syscall.umount m alice ~target:"/media/cdrom")
    | Error e ->
        die "filter bench mount failed: %s" (Protego_base.Errno.to_string e)
  in
  let measure name f =
    PD.set_engine disp `Pfm;
    for _ = 1 to 64 do f () done;
    let pfm_ns = Harness.measure_ns (name ^ ":pfm") f in
    PD.set_engine disp `Ref;
    for _ = 1 to 64 do f () done;
    let ref_ns = Harness.measure_ns (name ^ ":ref") f in
    PD.set_engine disp `Pfm;
    (ref_ns, pfm_ns)
  in
  let rows =
    List.map
      (fun (name, f) ->
        let ref_ns, pfm_ns = measure name f in
        [ name; fmt_ns ref_ns; fmt_ns pfm_ns;
          Printf.sprintf "%.2fx" (ref_ns /. pfm_ns) ])
      [ ("mount decision (129-rule whitelist)", decide_mount);
        ("bind decision (512-entry map)", decide_bind);
        ("nf OUTPUT verdict (135-rule chain)", decide_nf);
        ("mount+umount syscall, end to end", mount_cycle) ]
  in
  print_string
    (Study.Report.table
       ~title:"per-operation cost, reference walk vs compiled"
       ~header:[ "operation"; "ref"; "pfm"; "pfm x" ]
       ~align:Study.Report.[ L; R; R; R ]
       rows);
  Printf.printf "\nCompiled program sizes:\n";
  List.iter
    (fun name ->
      match PD.cached_program disp name with
      | Some p ->
          Printf.printf "  %-10s %4d insns\n" name
            (Array.length p.Protego_filter.Pfm.insns)
      | None -> ())
    [ "mount"; "umount"; "bind"; "nf_output"; "ppp_ioctl" ];
  Printf.printf "\n/proc/protego/filter_stats after the runs:\n%s%!"
    (PD.render disp)

(* Decision cache: cold-miss vs hit latency in front of the compiled
   netfilter OUTPUT chain, the one hook with a table, on growing chains
   (the benched packet matches no filler and falls to the stock rules).
   "cold" bumps the netfilter generation before every decision (an INPUT
   policy write, so the OUTPUT program is kept), so each iteration pays
   a stale lookup + engine + re-insert.  "table hit" passes a fresh
   packet record on every call, as the syscall path decodes one from the
   user's buffer: the hit a sendto takes. *)
let run_cache () =
  section "Decision cache: cold vs warm packet decision latency";
  let module PD = Protego_core.Pfm_dispatch in
  let module DC = Protego_core.Decision_cache in
  let protego = Harness.prepared_image Image.Protego in
  let lsm =
    match protego.Image.protego with
    | Some l -> l
    | None -> die "cache bench: Protego image has no LSM"
  in
  let disp = Protego_core.Lsm.dispatch lsm in
  let nf = protego.Image.machine.Protego_kernel.Ktypes.netfilter in
  let stock = NF.rules nf NF.Output in
  let rows =
    List.map
      (fun n ->
        NF.flush nf NF.Output;
        List.iter (NF.append nf NF.Output) (nf_fillers n @ stock);
        let cache = PD.cache disp in
        let decide () = ignore (nf_decide disp nf bench_packet) in
        (* Engines alone, cache bypassed. *)
        DC.set_enabled cache false;
        PD.set_engine disp `Ref;
        for _ = 1 to 64 do decide () done;
        let ref_ns = Harness.measure_ns (Printf.sprintf "cache:%d:ref" n) decide in
        PD.set_engine disp `Pfm;
        for _ = 1 to 64 do decide () done;
        let pfm_ns = Harness.measure_ns (Printf.sprintf "cache:%d:pfm" n) decide in
        DC.set_enabled cache true;
        let cold_ns, hit_ns = nf_cache_costs ~name:(string_of_int n) disp nf in
        [ string_of_int n; fmt_ns ref_ns; fmt_ns pfm_ns; fmt_ns cold_ns;
          fmt_ns hit_ns; Printf.sprintf "%.2fx" (pfm_ns /. hit_ns) ])
      [ 32; 128; 512 ]
  in
  NF.flush nf NF.Output;
  List.iter (NF.append nf NF.Output) stock;
  print_string
    (Study.Report.table
       ~title:"nf_output decision cost by chain size (fillers ahead of the stock rules)"
       ~header:[ "rules"; "ref"; "pfm"; "cold miss"; "table hit"; "hit vs pfm" ]
       ~align:Study.Report.[ R; R; R; R; R; R ]
       rows);
  Printf.printf "\n/proc/protego/cache_stats after the runs:\n%s%!"
    (DC.render (PD.cache disp))

(* --- policy-lint analysis cost (extension) ------------------------------- *)

(* The full lint (declarative checks + compile + abstract interpretation
   over every source) is what /proc/protego/lint and protego-lint run.  A
   /proc policy write runs the load-time gate instead: the same pipeline
   over the written source only, plus the cross-source checks — the
   "gate mounts" and "gate binds" columns, which bound the added latency
   of a mount_whitelist or bind_map write.  Synthetic defect-free
   policies. *)
let run_lint () =
  section "Policy lint: analysis cost on synthetic policies";
  let module Lint = Protego_analysis.Policy_lint in
  let module Absint = Protego_analysis.Pfm_absint in
  let module Compile = Protego_filter.Pfm_compile in
  let module NF = Protego_net.Netfilter in
  let mounts n =
    List.init n (fun i ->
        { Compile.fm_source = Printf.sprintf "/dev/disk%d" i;
          fm_target = Printf.sprintf "/media/disk%d" i; fm_fstype = "ext4";
          fm_flags = Protego_kernel.Ktypes.[ Mf_nosuid; Mf_nodev ];
          fm_user_only = i mod 2 = 0;
          fm_phase = Protego_filter.Pfm_compile.Phase.Always })
  in
  let binds n =
    List.init n (fun i ->
        { Protego_policy.Bindconf.port = 1 + (i mod 1023);
          proto =
            (if i mod 2 = 0 then Protego_policy.Bindconf.Tcp
             else Protego_policy.Bindconf.Udp);
          exe = Printf.sprintf "/usr/sbin/daemon%d" i; owner = i mod 1000;
          phase = Protego_base.Phase.Always })
  in
  let chain n =
    List.init n (fun i ->
        { NF.matches =
            [ NF.Proto Protego_net.Packet.Tcp;
              NF.Dst_port { lo = 1000 + i; hi = 1000 + i } ];
          target = NF.Drop; comment = "" })
  in
  let delegation n =
    { Protego_policy.Sudoers.empty with
      Protego_policy.Sudoers.rules =
        List.init n (fun i ->
            { Protego_policy.Sudoers.who =
                Protego_policy.Sudoers.User (Printf.sprintf "user%d" i);
              runas = Protego_policy.Sudoers.Runas_users [ "root" ];
              tags = [];
              commands =
                [ Protego_policy.Sudoers.Command
                    { path = Printf.sprintf "/usr/bin/tool%d" i; args = None } ];
              rphase = Protego_base.Phase.Always }) }
  in
  let rows =
    List.map
      (fun n ->
        let input =
          { Lint.empty_input with
            Lint.mounts = mounts n; binds = binds n; delegation = delegation n;
            chains = [ ("output", chain n, NF.Accept) ] }
        in
        let findings = Lint.lint input in
        let mount_prog = Compile.mount input.Lint.mounts in
        let nf_prog = Compile.netfilter ~rules:(chain n) ~policy:NF.Accept in
        let lint_ns =
          Harness.measure_ns (Printf.sprintf "lint:%d" n) (fun () ->
              ignore (Lint.lint input))
        in
        let gate_ns source =
          Harness.measure_ns (Printf.sprintf "gate:%s:%d" source n) (fun () ->
              ignore (Lint.lint ~sources:[ source ] input))
        in
        let gate_mounts_ns = gate_ns "mounts" and gate_binds_ns = gate_ns "binds" in
        let absint_mount_ns =
          Harness.measure_ns (Printf.sprintf "absint:mount:%d" n) (fun () ->
              ignore (Absint.analyze mount_prog))
        in
        let absint_nf_ns =
          Harness.measure_ns (Printf.sprintf "absint:nf:%d" n) (fun () ->
              ignore (Absint.analyze nf_prog))
        in
        [ string_of_int n; string_of_int (List.length findings);
          fmt_ns lint_ns; fmt_ns gate_mounts_ns; fmt_ns gate_binds_ns;
          fmt_ns absint_mount_ns; fmt_ns absint_nf_ns ])
      [ 32; 128; 512 ]
  in
  print_string
    (Study.Report.table
       ~title:
         "full lint pass, load-time gate per written source and bare \
          abstract interpretation, by rule count"
       ~header:
         [ "rules/source"; "findings"; "full lint"; "gate mounts";
           "gate binds"; "absint mount"; "absint nf" ]
       ~align:Study.Report.[ R; R; R; R; R; R; R ]
       rows)

(* --- parallel decision plane scaling (extension) ------------------------- *)

(* One plane scaling measurement per domain count: a fresh policy state
   with the workload generator's synthetic policy, a closed-loop steady
   zipfian schedule split across [d] simulated callers, one warm pass to
   load each worker's programs, then a timed pass.

   Two readings per row:

   - [min op]: each worker times its slice in batches and keeps the
     cheapest per-decision batch, so a batch in which the OS descheduled
     the domain does not count — the warm-path cost per decision.
   - wall ops/s: requests / wall time, the throughput this machine
     actually delivered (on fewer cores than domains it mostly measures
     the scheduler). *)

let plane_domain_counts = [ 1; 2; 4; 8 ]
let plane_requests = 30_000

type plane_row = {
  pl_domains : int;
  pl_min_op_ns : float;     (* cheapest warm decision across workers *)
  pl_wall_ops : float;      (* decisions/sec by wall clock, this machine *)
}

let plane_scaling () =
  let module PS = Protego_core.Policy_state in
  let module Plane = Protego_plane.Plane in
  let module Workload = Protego_workload.Workload in
  List.map
    (fun d ->
      let spec =
        { (Workload.default ()) with
          Workload.loop = `Closed;
          phases = [ (Workload.Steady, plane_requests) ] }
      in
      let st = PS.create () in
      Workload.install_policy spec st;
      let plane = Plane.create ~domains:d st in
      Plane.set_clock plane (fun () -> Int64.to_int (Monotonic_clock.now ()));
      let sched = Workload.generate spec ~workers:d in
      ignore (Plane.run plane ~collect:false sched.Workload.s_requests);
      let res = Plane.run plane ~collect:false sched.Workload.s_requests in
      let min_op =
        Array.fold_left min infinity res.Plane.rr_min_op_ns
      in
      if not (Float.is_finite min_op) then
        die "plane bench: no timed batch at %d domains" d;
      let wall_ops =
        if res.Plane.rr_wall_ns <= 0 then nan
        else
          float_of_int plane_requests *. 1e9
          /. float_of_int res.Plane.rr_wall_ns
      in
      { pl_domains = d; pl_min_op_ns = min_op; pl_wall_ops = wall_ops })
    plane_domain_counts

let plane_wall_speedup rows =
  let at d =
    match List.find_opt (fun r -> r.pl_domains = d) rows with
    | Some r -> r
    | None -> die "plane bench: no row for %d domains" d
  in
  (at 8).pl_wall_ops /. (at 1).pl_wall_ops

(* --- audit journal overhead (extension) ---------------------------------- *)

(* The journal's performance claim: the plane sustains its line rate
   with audit on.  Same geometry as the scaling rows — 8 domains,
   closed-loop zipfian steady workload, warm pass then timed pass — once
   with audit off and once with the binary journal recording every
   decision.  A third measurement drives the [Audit_heavy] phase
   (~160-byte object strings, the encoder's worst case) through a
   journal-mode plane of its own.  The overhead percentage is
   informational (min-op deltas on a noisy runner can go either way, so
   it is clamped at zero for the report); the *_ns metrics are gated
   against the baseline like every other scenario. *)

let plane_audit_domains = 8

type audit_row = {
  au_off_ns : float;
  au_on_ns : float;
  au_heavy_ns : float;
  au_overhead_pct : float;
  au_journal : Protego_journal.Journal.t;
      (* the journal-mode steady plane's store: both its runs complete,
         nothing dropped — what --json saves for the CI verify smoke *)
}

let plane_audit () =
  let module PS = Protego_core.Policy_state in
  let module Plane = Protego_plane.Plane in
  let module Workload = Protego_workload.Workload in
  let d = plane_audit_domains in
  let prepare ?journal_segments phases mode =
    let spec = { (Workload.default ()) with Workload.loop = `Closed; phases } in
    let st = PS.create () in
    Workload.install_policy spec st;
    let plane = Plane.create ~domains:d ?journal_segments st in
    Plane.set_clock plane (fun () -> Int64.to_int (Monotonic_clock.now ()));
    Plane.set_audit_mode plane mode;
    let sched = Workload.generate spec ~workers:d in
    ignore (Plane.run plane ~collect:false sched.Workload.s_requests);
    (plane, sched)
  in
  let pass (plane, sched) =
    let res = Plane.run plane ~collect:false sched.Workload.s_requests in
    Array.fold_left min infinity res.Plane.rr_min_op_ns
  in
  let steady = [ (Workload.Steady, plane_requests) ] in
  let off_p = prepare steady `Off in
  (* 64 segments = 16 MiB: holds every pass of the steady run without
     wrapping, so the saved journal artifact is drop-free and passes
     [protego-journal verify --strict]. *)
  let on_p = prepare ~journal_segments:64 steady `Journal in
  (* Heavy records are ~4x steady size: give the heavy plane a journal
     that holds all its runs, or a later stitch of them would
     (correctly) refuse the wrapped trail. *)
  let heavy_p =
    prepare ~journal_segments:128 [ (Workload.Audit_heavy, plane_requests) ]
      `Journal
  in
  (* Alternate off/on/heavy passes and keep each configuration's best:
     with more domains than cores a whole pass can be descheduled into
     noise, and the few-ns off/on delta under measurement would drown
     in the drift between two widely separated measurement windows. *)
  let off = ref infinity and on = ref infinity and heavy = ref infinity in
  for _ = 1 to 5 do
    off := Float.min !off (pass off_p);
    on := Float.min !on (pass on_p);
    heavy := Float.min !heavy (pass heavy_p)
  done;
  let off = !off and on = !on and heavy = !heavy in
  if not (Float.is_finite off && Float.is_finite on && Float.is_finite heavy)
  then die "audit bench: no timed batch";
  let jplane = fst on_p in
  { au_off_ns = off; au_on_ns = on; au_heavy_ns = heavy;
    au_overhead_pct = Float.max 0. ((on -. off) /. off *. 100.);
    au_journal = Plane.journal jplane }

let run_audit () =
  section "Decision plane: audit journal overhead (extension)";
  let r = plane_audit () in
  print_string
    (Study.Report.table
       ~title:
         (Printf.sprintf
            "%d domains, %d decisions, warm pass then timed pass"
            plane_audit_domains plane_requests)
       ~header: [ "configuration"; "min op" ]
       ~align:Study.Report.[ L; R ]
       [ [ "audit off"; fmt_ns r.au_off_ns ];
         [ "audit journal"; fmt_ns r.au_on_ns ];
         [ "audit journal, heavy strings"; fmt_ns r.au_heavy_ns ] ]);
  Printf.printf
    "\naudit-on warm-path overhead: %.1f%% (target: within 15%% of audit-off)\n"
    r.au_overhead_pct;
  let module J = Protego_journal.Journal in
  print_string (J.render_stats r.au_journal)

let run_plane () =
  section "Decision plane: multi-domain scaling (extension)";
  let rows = plane_scaling () in
  print_string
    (Study.Report.table
       ~title:
         (Printf.sprintf
            "closed-loop zipfian workload, %d decisions per domain count"
            plane_requests)
       ~header:
         [ "domains"; "min op"; "wall ops/s" ]
       ~align:Study.Report.[ R; R; R ]
       (List.map
          (fun r ->
            [ string_of_int r.pl_domains; fmt_ns r.pl_min_op_ns;
              Printf.sprintf "%.0f" r.pl_wall_ops ])
          rows));
  Printf.printf
    "\nwall-clock throughput at 8 domains vs 1: %.2fx (%d core(s) \
     recommended by the runtime)\n"
    (plane_wall_speedup rows)
    (Domain.recommended_domain_count ())

let run_all () =
  run_figure1 ();
  run_table2 ();
  run_table3 ();
  run_table4 ();
  let max_oh = run_table5 () in
  run_table6 ();
  run_table7 ();
  run_table8 ();
  run_surface ();
  run_ablation ();
  run_filter ();
  run_table1 ~max_overhead_pct:max_oh ()

(* --- machine-readable report (--json) ------------------------------------ *)

(* The CI-facing subset of the suite: the filter, cache and lint
   scenarios re-measured on the same adversarial policies as their prose
   counterparts, plus the per-(hook, engine) latency histograms the
   tracer collects once the bench installs a real nanosecond clock (the
   only place one exists; see Protego_core.Trace).  Written as
   Bench_report schema version 1 — bin/bench_gate.exe validates it and
   gates regressions against bench/baseline.json. *)
let run_json ~out =
  let module PD = Protego_core.Pfm_dispatch in
  let module PS = Protego_core.Policy_state in
  let module DC = Protego_core.Decision_cache in
  let module Trace = Protego_core.Trace in
  let module NF = Protego_net.Netfilter in
  let module BR = Study.Bench_report in
  let protego = Harness.prepared_image Image.Protego in
  let lsm =
    match protego.Image.protego with
    | Some l -> l
    | None -> die "json bench: Protego image has no LSM"
  in
  let st = Protego_core.Lsm.state lsm in
  let disp = Protego_core.Lsm.dispatch lsm in
  let cache = PD.cache disp in
  let m = protego.Image.machine in
  (* The same adversarial policies as run_filter: matching entry last. *)
  let filler i =
    { PS.mr_source = Printf.sprintf "/dev/fake%d" i;
      mr_target = Printf.sprintf "/media/fake%d" i;
      mr_fstype = "ext4";
      mr_flags = [];
      mr_mode = `Users;
      mr_phase = PS.Phase.Always }
  in
  PS.set st
    (Set_mounts
       (List.init 128 filler
       @ [ { PS.mr_source = "/dev/cdrom"; mr_target = "/media/cdrom";
             mr_fstype = "iso9660";
             mr_flags = [ Protego_kernel.Ktypes.Mf_nosuid ];
             mr_mode = `User;
             mr_phase = PS.Phase.Always } ]));
  PS.set st
    (Set_binds
       (List.init 512 (fun i ->
            { Protego_policy.Bindconf.port = 200 + i;
              proto = Protego_policy.Bindconf.Tcp;
              exe = "/usr/sbin/exim4";
              owner = 0; phase = Protego_base.Phase.Always })));
  let nf = m.Protego_kernel.Ktypes.netfilter in
  let saved = NF.rules nf NF.Output in
  NF.flush nf NF.Output;
  for i = 1 to 128 do
    NF.append nf NF.Output
      { NF.matches =
          [ NF.Dst_port { lo = 40000 + i; hi = 40000 + i };
            NF.Proto Protego_net.Packet.Tcp ];
        target = NF.Accept;
        comment = "filler" }
  done;
  List.iter (NF.append nf NF.Output) saved;
  let flags = Protego_kernel.Ktypes.[ Mf_readonly; Mf_nosuid; Mf_nodev ] in
  let pkt =
    { Protego_net.Packet.src = Protego_net.Ipaddr.v 10 0 0 1;
      dst = Protego_net.Ipaddr.v 10 0 0 7;
      ttl = 64;
      transport =
        Protego_net.Packet.Udp_dgram
          { src_port = 5353; dst_port = 7; payload = "x" } }
  in
  (* One request per hook, decided by its engine on every call. *)
  let mount =
    Request.Mount
      { subject = 0; source = "/dev/cdrom"; target = "/media/cdrom";
        fstype = "iso9660"; flags }
  in
  let bind =
    Request.Bind
      { subject = 0; port = 711; proto = Protego_policy.Bindconf.Tcp;
        exe = "/usr/sbin/exim4" }
  in
  let decide_mount () = ignore (PD.decide disp ~phase:Phase.initial st mount) in
  let decide_bind () = ignore (PD.decide disp ~phase:Phase.initial st bind) in
  let decide_nf () =
    ignore
      (PD.decide_nf_output disp nf pkt ~origin:Protego_net.Packet.Kernel_stack)
  in
  (* Engine costs, cache bypassed. *)
  DC.set_enabled cache false;
  let engine_pair name f =
    PD.set_engine disp `Pfm;
    for _ = 1 to 64 do f () done;
    let pfm_ns = Harness.measure_ns (name ^ ":pfm") f in
    PD.set_engine disp `Ref;
    for _ = 1 to 64 do f () done;
    let ref_ns = Harness.measure_ns (name ^ ":ref") f in
    PD.set_engine disp `Pfm;
    (ref_ns, pfm_ns)
  in
  let filter_scenario name f =
    let ref_ns, pfm_ns = engine_pair name f in
    ( pfm_ns,
      { BR.sc_name = "filter:" ^ name;
        sc_metrics =
          [ ("ref_ns", ref_ns); ("pfm_ns", pfm_ns);
            ("speedup", ref_ns /. pfm_ns) ] } )
  in
  let _, filter_mount = filter_scenario "mount" decide_mount in
  let _, filter_bind = filter_scenario "bind" decide_bind in
  let nf_pfm_ns, filter_nf = filter_scenario "nf_output" decide_nf in
  (* The packet hook's table, the only one: cold miss vs table hit on
     the 128-rule chain.  (The request hooks decide with their engine;
     filter:mount's pfm_ns gates the mount decision.) *)
  DC.set_enabled cache true;
  let cold_ns, hit_ns = nf_cache_costs ~name:"json" disp nf in
  let cache_scenario =
    { BR.sc_name = "cache:nf_output";
      sc_metrics =
        [ ("cold_ns", cold_ns); ("hit_ns", hit_ns); ("pfm_ns", nf_pfm_ns);
          ("hit_vs_pfm", nf_pfm_ns /. hit_ns) ] }
  in
  (* Load-time lint gate cost on the loaded policy. *)
  let lint_ns =
    Harness.measure_ns "json:lint" (fun () ->
        ignore (Protego_core.Lsm.state lsm |> PD.lint_report))
  in
  let lint_scenario =
    { BR.sc_name = "lint:loaded-policy"; sc_metrics = [ ("lint_ns", lint_ns) ] }
  in
  (* Latency histograms: install the real clock (arming the tracer) and
     drive each (hook, engine) pair the report covers. *)
  Trace.set_clock (PD.trace disp) (fun () ->
      Int64.to_int (Monotonic_clock.now ()));
  let reps = 4096 in
  PD.set_engine disp `Pfm;
  decide_mount ();
  for _ = 1 to reps do decide_mount (); decide_bind (); decide_nf () done;
  DC.set_enabled cache false;
  for _ = 1 to reps / 4 do decide_mount (); decide_bind (); decide_nf () done;
  PD.set_engine disp `Ref;
  for _ = 1 to reps / 8 do decide_mount (); decide_bind (); decide_nf () done;
  PD.set_engine disp `Pfm;
  DC.set_enabled cache true;
  let latency =
    List.filter_map
      (fun k ->
        if k.Trace.k_count = 0 then None
        else
          Some
            { BR.lt_hook = k.Trace.k_hook;
              lt_engine = k.Trace.k_engine;
              lt_count = k.Trace.k_count;
              lt_p50 = Trace.percentile k ~pct:50;
              lt_p90 = Trace.percentile k ~pct:90;
              lt_p99 = Trace.percentile k ~pct:99;
              (* Percentiles resolve to bucket upper bounds; report the
                 max at the same granularity so p99 <= max holds by
                 construction (the exact max can sit below its bucket's
                 edge while p99 lands in the same bucket). *)
              lt_max =
                max k.Trace.k_max
                  (Trace.bucket_upper (Trace.bucket_index k.Trace.k_max)) })
      (Trace.keys (PD.trace disp))
  in
  (* Decision-plane scaling: per-domain-count min-op cost (gated) plus
     the wall-clock readings and the 8-vs-1 wall speedup (informational;
     wall-clock scaling depends on the runner's cores). *)
  let plane_rows = plane_scaling () in
  let plane_scenario =
    { BR.sc_name = "plane:scaling";
      sc_metrics =
        List.concat_map
          (fun r ->
            [ (Printf.sprintf "d%d_min_op_ns" r.pl_domains, r.pl_min_op_ns);
              ( Printf.sprintf "d%d_wall_ops_per_sec" r.pl_domains,
                r.pl_wall_ops ) ])
          plane_rows
        @ [ ("wall_speedup_8v1", plane_wall_speedup plane_rows) ] }
  in
  (* Audit journal overhead at 8 domains, plus the journal artifact the
     CI verify smoke reads back (written next to the report). *)
  let audit_row = plane_audit () in
  let audit_scenario =
    { BR.sc_name = "plane:audit";
      sc_metrics =
        [ ("audit_off_min_op_ns", audit_row.au_off_ns);
          ("audit_on_min_op_ns", audit_row.au_on_ns);
          ("audit_heavy_min_op_ns", audit_row.au_heavy_ns);
          ("audit_overhead_pct", audit_row.au_overhead_pct) ] }
  in
  let journal_out =
    Filename.concat (Filename.dirname out) "JOURNAL_protego.bin"
  in
  Protego_journal.Journal.save audit_row.au_journal journal_out;
  let lookups = DC.hits cache + DC.misses cache in
  let report =
    { BR.scenarios =
        [ filter_mount; filter_bind; filter_nf; cache_scenario; lint_scenario;
          plane_scenario; audit_scenario ];
      latency;
      cache =
        { BR.cs_hits = DC.hits cache;
          cs_misses = DC.misses cache;
          cs_hit_ratio =
            (if lookups = 0 then 0.0
             else float_of_int (DC.hits cache) /. float_of_int lookups);
          cs_stale = DC.stale_evictions cache;
          cs_capacity = DC.capacity_evictions cache };
      environment =
        [ ("ocaml_version", Sys.ocaml_version);
          ( "recommended_domain_count",
            string_of_int (Domain.recommended_domain_count ()) );
          ( "plane_domain_counts",
            String.concat ","
              (List.map string_of_int plane_domain_counts) );
          ("plane_requests", string_of_int plane_requests);
          ("plane_audit_domains", string_of_int plane_audit_domains) ] }
  in
  (match BR.validate report with
  | Ok () -> ()
  | Error problems ->
      die "generated report fails validation:\n  %s"
        (String.concat "\n  " problems));
  Out_channel.with_open_text out (fun oc ->
      Out_channel.output_string oc (Study.Json.to_string (BR.to_json report));
      Out_channel.output_char oc '\n');
  Printf.printf "wrote %s (%d scenarios, %d latency series)\n%!" out
    (List.length report.BR.scenarios)
    (List.length latency)

(* --- cmdliner ------------------------------------------------------------ *)

open Cmdliner

let simple name doc f =
  Cmd.v (Cmd.info name ~doc) Term.(const f $ const ())

let cmds =
  [ simple "table1" "Summary of results" (fun () -> run_table1 ());
    simple "table2" "Lines of code accounting" run_table2;
    simple "table3" "Package popularity survey" run_table3;
    simple "table4" "Abstraction/policy matrix probes" run_table4;
    simple "table5" "Performance overheads" (fun () -> ignore (run_table5 ()));
    simple "table6" "Historical CVE exploit replay" run_table6;
    simple "table7" "Functional-test coverage" run_table7;
    simple "table8" "Remaining setuid packages" run_table8;
    simple "figure1" "Mount path comparison trace" run_figure1;
    simple "surface" "Attack-surface analysis (extension)" run_surface;
    simple "ablation" "Whitelist-size ablation" run_ablation;
    simple "filter" "Compiled vs reference filter-machine cost" run_filter;
    simple "cache" "Decision-cache cold/warm latency" run_cache;
    simple "lint" "Policy-lint analysis cost (extension)" run_lint;
    simple "plane" "Decision-plane multi-domain scaling (extension)" run_plane;
    simple "audit" "Audit-journal overhead at full plane rate (extension)"
      run_audit;
    simple "all" "Everything, in paper order" run_all ]

let json_flag =
  Arg.(value & flag
       & info [ "json" ]
           ~doc:"Emit the machine-readable bench report instead of the prose \
                 tables (Bench_report schema; see README)." )

let out_arg =
  Arg.(value
       & opt string "BENCH_protego.json"
       & info [ "o"; "out" ] ~docv:"FILE"
           ~doc:"Where $(b,--json) writes the report.")

let run_default json out = if json then run_json ~out else run_all ()

let () =
  let default = Term.(const run_default $ json_flag $ out_arg) in
  let info = Cmd.info "protego-bench" ~doc:"Protego reproduction experiments" in
  exit
    (try Cmd.eval (Cmd.group ~default info cmds) with
     | Failure msg ->
         Printf.eprintf "protego-bench: %s\n%!" msg;
         1)
