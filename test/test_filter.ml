(* The Protego Filter Machine: verifier corpus, interpreter and assembler
   semantics, the dispatch layer (engine toggle, program cache, stats) and
   the /proc/protego/filter_stats interface. *)

open Protego_base
open Protego_kernel
open Ktypes
module Image = Protego_dist.Image
module Pfm = Protego_filter.Pfm
module PD = Protego_core.Pfm_dispatch
module Request = Protego_core.Request

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let errno =
  Alcotest.testable (fun ppf e -> Fmt.string ppf (Errno.to_string e)) Errno.equal

let verr =
  Alcotest.testable
    (fun ppf e -> Fmt.string ppf (Pfm.verify_error_to_string e))
    ( = )

let contains haystack needle =
  let nl = String.length needle in
  let rec go i =
    i + nl <= String.length haystack
    && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

let mk ?(ints = 2) ?(strs = 2) insns =
  { Pfm.pname = "test"; n_int_fields = ints; n_str_fields = strs;
    insns = Array.of_list insns; counters = Array.make (List.length insns) 0;
    retired = 0 }

let expect_error name e prog =
  Alcotest.(check (result unit verr)) name (Error e) (Pfm.verify prog)

(* --- verifier ----------------------------------------------------------- *)

let test_verifier_rejects () =
  expect_error "empty program" Pfm.Empty_program (mk []);
  expect_error "too long" (Pfm.Program_too_long (Pfm.max_insns + 1))
    (mk (List.init (Pfm.max_insns + 1) (fun _ -> Pfm.Ret Pfm.Allow)));
  expect_error "backward jump" (Pfm.Backward_jump 1)
    (mk [ Pfm.Ld_int 0; Pfm.Jmp (-2); Pfm.Ret Pfm.Allow ]);
  expect_error "self loop" (Pfm.Backward_jump 0)
    (mk [ Pfm.Jmp (-1); Pfm.Ret Pfm.Allow ]);
  expect_error "jump past the end" (Pfm.Jump_out_of_range 0)
    (mk [ Pfm.Jmp 5; Pfm.Ret Pfm.Allow ]);
  expect_error "jump exactly to the end" (Pfm.Jump_out_of_range 0)
    (mk [ Pfm.Jmp 0 ]);
  expect_error "falls off the end" (Pfm.Missing_verdict 0) (mk [ Pfm.Ld_int 0 ]);
  expect_error "int field out of range" (Pfm.Int_field_out_of_range (0, 7))
    (mk [ Pfm.Ld_int 7; Pfm.Ret Pfm.Allow ]);
  expect_error "str field out of range" (Pfm.Str_field_out_of_range (0, 3))
    (mk [ Pfm.Ld_str 3; Pfm.Ret Pfm.Allow ]);
  expect_error "int cond before any load" (Pfm.Int_acc_unset 0)
    (mk [ Pfm.Jif (Pfm.Eq 1, 0, 0); Pfm.Ret Pfm.Allow ]);
  expect_error "str cond before any load" (Pfm.Str_acc_unset 0)
    (mk [ Pfm.Jif (Pfm.Str_eq "x", 0, 0); Pfm.Ret Pfm.Allow ]);
  expect_error "str cond after int load only" (Pfm.Str_acc_unset 1)
    (mk
       [ Pfm.Ld_int 0; Pfm.Jif (Pfm.Str_prefix "/dev", 0, 0);
         Pfm.Ret Pfm.Allow ]);
  (* The string accumulator is loaded on only one of two merging paths. *)
  expect_error "partially-set accumulator at a merge" (Pfm.Str_acc_unset 3)
    (mk
       [ Pfm.Ld_int 0;                       (* 0 *)
         Pfm.Jif (Pfm.Eq 0, 1, 0);           (* 1: true -> 3, false -> 2 *)
         Pfm.Ld_str 0;                       (* 2 *)
         Pfm.Jif (Pfm.Str_eq "x", 0, 0);     (* 3: merge point *)
         Pfm.Ret Pfm.Allow ]);               (* 4 *)
  expect_error "unreachable code" (Pfm.Unreachable_insn 1)
    (mk [ Pfm.Ret Pfm.Allow; Pfm.Ret Pfm.Deny ])

let test_verifier_accepts_and_eval () =
  let prog =
    mk ~ints:1 ~strs:0
      [ Pfm.Ld_int 0; Pfm.Jif (Pfm.In_range (10, 20), 0, 1);
        Pfm.Ret Pfm.Allow; Pfm.Ret Pfm.Deny ]
  in
  Alcotest.(check (result unit verr)) "verifies" (Ok ()) (Pfm.verify prog);
  let run v = Pfm.eval prog { Pfm.ints = [| v |]; strs = [||] } in
  check "in range" true (run 15 = Pfm.Allow);
  check "bounds inclusive" true (run 10 = Pfm.Allow && run 20 = Pfm.Allow);
  check "out of range" true (run 9 = Pfm.Deny && run 21 = Pfm.Deny);
  (* Observability: per-slot counters and the retired total. *)
  check_int "retired" (5 * 3) prog.Pfm.retired;
  check_int "entry slot counted" 5 prog.Pfm.counters.(0);
  check_int "allow slot" 3 prog.Pfm.counters.(2);
  check_int "deny slot" 2 prog.Pfm.counters.(3);
  check_int "summed counters" (5 * 3) (Pfm.insn_count prog);
  Pfm.reset_counters prog;
  check_int "reset retired" 0 prog.Pfm.retired;
  check_int "reset counters" 0 (Pfm.insn_count prog)

let test_asm_and_switch () =
  let a = Pfm.Asm.create () in
  let l_allow = Pfm.Asm.fresh_label a in
  let l_deny = Pfm.Asm.fresh_label a in
  let l80 = Pfm.Asm.fresh_label a in
  let l443 = Pfm.Asm.fresh_label a in
  Pfm.Asm.ld_int a 0;
  Pfm.Asm.iswitch a [ (80, l80); (443, l443) ] ~default:l_deny;
  Pfm.Asm.place a l80;
  Pfm.Asm.ret a Pfm.Allow;
  Pfm.Asm.place a l443;
  Pfm.Asm.ld_str a 0;
  Pfm.Asm.jif a (Pfm.Str_eq "/usr/sbin/nginx") ~jt:l_allow ~jf:l_deny;
  Pfm.Asm.place a l_allow;
  Pfm.Asm.ret a Pfm.Allow;
  Pfm.Asm.place a l_deny;
  Pfm.Asm.ret a Pfm.Deny;
  let p = Pfm.Asm.assemble a ~name:"switch" ~n_int_fields:1 ~n_str_fields:1 in
  Alcotest.(check (result unit verr)) "verifies" (Ok ()) (Pfm.verify p);
  let run port exe = Pfm.eval p { Pfm.ints = [| port |]; strs = [| exe |] } in
  check "case 80" true (run 80 "whatever" = Pfm.Allow);
  check "case 443 guarded" true (run 443 "/usr/sbin/nginx" = Pfm.Allow);
  check "case 443 wrong exe" true (run 443 "/bin/evil" = Pfm.Deny);
  check "switch default" true (run 22 "whatever" = Pfm.Deny);
  check "disassembly mentions the program name" true
    (contains (Pfm.disassemble p) "switch")

(* --- dispatch: stats, cache invalidation ------------------------------- *)

let user_flags = [ Mf_readonly; Mf_nosuid; Mf_nodev ]

let test_dispatch_stats_and_cache () =
  let img = Image.build Image.Protego in
  let m = img.Image.machine in
  let root = Image.login img "root" in
  let alice = Image.login img "alice" in
  let disp =
    match img.Image.protego with
    | Some lsm -> Protego_core.Lsm.dispatch lsm
    | None -> Alcotest.fail "Protego image has no LSM"
  in
  PD.reset_stats disp;
  let stat name = List.assoc name (PD.stats disp) in
  let cycle () =
    Syntax.expect_ok "mount"
      (Syscall.mount m alice ~source:"/dev/cdrom" ~target:"/media/cdrom"
         ~fstype:"iso9660" ~flags:user_flags);
    Syntax.expect_ok "umount" (Syscall.umount m alice ~target:"/media/cdrom")
  in
  cycle ();
  check_int "one mount eval" 1 (stat "mount").PD.evals;
  check_int "counted as allow" 1 (stat "mount").PD.allow;
  check_int "one umount eval" 1 (stat "umount").PD.evals;
  check_int "no invalidations yet" 0 (stat "mount").PD.invalidations;
  check "bytecode retired" true ((stat "mount").PD.insns > 0);
  check "program cached" true (PD.cached_program disp "mount" <> None);
  (* Rewriting the /proc file (even with identical contents) installs a new
     rule list and must invalidate the compiled program. *)
  let wl =
    Syntax.expect_ok "read whitelist"
      (Syscall.read_file m root "/proc/protego/mount_whitelist")
  in
  Syntax.expect_ok "rewrite whitelist"
    (Syscall.write_file m root "/proc/protego/mount_whitelist" wl);
  cycle ();
  check_int "recompiled once" 1 (stat "mount").PD.invalidations;
  cycle ();
  check_int "cache stable afterwards" 1 (stat "mount").PD.invalidations;
  (* A denied mount is tallied as a deny. *)
  ignore
    (Syscall.mount m alice ~source:"/dev/sda2" ~target:"/etc" ~fstype:"ext4"
       ~flags:[]);
  check_int "deny tallied" 1 (stat "mount").PD.deny

(* A reload that changes no value (a bare generation bump) stales the
   cached verdicts but must not recompile: the program slot is keyed by
   the source's identity, not its generation. *)
let test_bare_bump_keeps_program () =
  let module PS = Protego_core.Policy_state in
  let st = PS.create () in
  PS.set st
    (PS.Set_mounts
       [ { PS.mr_source = "/dev/cdrom"; mr_target = "/media/cdrom";
           mr_fstype = "iso9660"; mr_flags = []; mr_mode = `Users;
           mr_phase = PS.Phase.Always } ]);
  let disp = PD.create () in
  let stat () = List.assoc "mount" (PD.stats disp) in
  let decide () =
    PD.decide disp ~phase:Phase.initial st
      (Request.Mount
         { subject = 0; source = "/dev/cdrom"; target = "/media/cdrom";
           fstype = "iso9660"; flags = [] })
  in
  check "allowed" true (decide ());
  let prog = PD.cached_program disp "mount" in
  PS.bump_generation st PS.Mounts;
  check "still allowed" true (decide ());
  check_int "the stale verdict re-ran the engine" 2 (stat ()).PD.evals;
  check_int "no invalidations" 0 (stat ()).PD.invalidations;
  check "same program" true
    (match (prog, PD.cached_program disp "mount") with
     | Some p, Some q -> p == q
     | _ -> false);
  (* An equal but new value does recompile. *)
  PS.set st (PS.Set_mounts (List.map Fun.id st.PS.mounts));
  check "allowed after set" true (decide ());
  check_int "one invalidation" 1 (stat ()).PD.invalidations

let test_filter_stats_proc () =
  let img = Image.build Image.Protego in
  let m = img.Image.machine in
  let root = Image.login img "root" in
  let alice = Image.login img "alice" in
  let disp =
    match img.Image.protego with
    | Some lsm -> Protego_core.Lsm.dispatch lsm
    | None -> Alcotest.fail "Protego image has no LSM"
  in
  let read () =
    Syntax.expect_ok "read stats"
      (Syscall.read_file m root "/proc/protego/filter_stats")
  in
  let write s =
    Syscall.write_file m root "/proc/protego/filter_stats" s
  in
  check "pfm engine header" true (contains (read ()) "engine pfm\n");
  List.iter
    (fun h -> check ("hook line: " ^ h) true (contains (read ()) ("hook " ^ h ^ " ")))
    [ "mount"; "umount"; "bind"; "nf_output"; "ppp_ioctl" ];
  (* Engine selection is exposed through the same file. *)
  Syntax.expect_ok "switch to ref" (write "engine ref\n");
  check "ref engine selected" true (PD.engine disp = `Ref);
  check "ref engine header" true (contains (read ()) "engine ref\n");
  (* Both engines produce the same decisions. *)
  Syntax.expect_ok "mount under ref"
    (Syscall.mount m alice ~source:"/dev/cdrom" ~target:"/media/cdrom"
       ~fstype:"iso9660" ~flags:user_flags);
  Syntax.expect_ok "umount under ref" (Syscall.umount m alice ~target:"/media/cdrom");
  check_int "ref evals tallied" 1 (List.assoc "umount" (PD.stats disp)).PD.evals;
  Syntax.expect_ok "back to pfm" (write "engine pfm\n");
  Syntax.expect_ok "reset" (write "reset\n");
  check_int "reset zeroes" 0 (List.assoc "mount" (PD.stats disp)).PD.evals;
  Alcotest.(check (result unit errno))
    "junk command rejected" (Error Errno.EINVAL) (write "frobnicate\n");
  Alcotest.(check (result unit errno))
    "unprivileged read refused" (Error Errno.EACCES)
    (Result.map
       (fun _ -> ())
       (Syscall.read_file m alice "/proc/protego/filter_stats"))

(* [/proc/protego/filter_stats] through the kernel, over an unprivileged
   raw socket's OUTPUT chain of 64 singleton-port rules (one switch)
   heated by [sendto].  Each step pins the file's text; the former
   optimizer commands are unknown commands: EINVAL and a dmesg line,
   with no audit record. *)
let test_filter_stats_kernel_path () =
  let module Netfilter = Protego_net.Netfilter in
  let module Packet = Protego_net.Packet in
  let module Ipaddr = Protego_net.Ipaddr in
  let img = Image.build Image.Protego in
  let m = img.Image.machine in
  let root = Image.login img "root" in
  let alice = Image.login img "alice" in
  let nf = m.netfilter in
  Netfilter.flush nf Netfilter.Output;
  Netfilter.set_policy nf Netfilter.Output Netfilter.Drop;
  for i = 0 to 63 do
    Netfilter.append nf Netfilter.Output
      { Netfilter.matches =
          [ Netfilter.Dst_port { lo = 40000 + i; hi = 40000 + i };
            Netfilter.Proto Packet.Tcp ];
        target = Netfilter.Accept; comment = "" }
  done;
  let fd =
    Syntax.expect_ok "raw socket" (Syscall.socket m alice Af_inet Sock_raw 6)
  in
  let dst = Ipaddr.v 10 0 0 1 in
  let send dport =
    let pkt =
      { Packet.src = Ipaddr.v 10 0 0 2; dst; ttl = 64;
        transport =
          Packet.Tcp_seg
            { src_port = 5000; dst_port = dport; syn = false; payload = "" } }
    in
    ignore (Syscall.sendto m alice fd dst 0 (Packet.encode pkt))
  in
  let heat () = for d = 1 to 300 do send d done in
  let stats nf_line =
    String.concat ""
      [ "engine pfm\n";
        "hook mount evals 0 allow 0 deny 0 reject 0 invalidations 0 insns 0\n";
        "hook umount evals 0 allow 0 deny 0 reject 0 invalidations 0 insns 0\n";
        "hook bind evals 0 allow 0 deny 0 reject 0 invalidations 0 insns 0\n";
        "hook nf_output " ^ nf_line ^ "\n";
        "hook ppp_ioctl evals 0 allow 0 deny 0 reject 0 invalidations 0 \
         insns 0\n" ]
  in
  let step label act ~nf_line =
    act ();
    Alcotest.(check string) (label ^ ": filter_stats") (stats nf_line)
      (Syntax.expect_ok "read"
         (Syscall.read_file m root "/proc/protego/filter_stats"))
  in
  (* Three instructions a packet: the port load, the switch and the
     verdict it jumps to. *)
  let heated = "evals 300 allow 0 deny 300 reject 0 invalidations 0 insns 900"
  and edited = "evals 301 allow 1 deny 300 reject 0 invalidations 1 insns 903"
  and reheated =
    "evals 600 allow 1 deny 599 reject 0 invalidations 1 insns 1800"
  in
  step "heat" heat ~nf_line:heated;
  (* A chain edit: the next packet reloads the slot. *)
  step "edit"
    (fun () ->
      Netfilter.insert nf Netfilter.Output
        { Netfilter.matches = [ Netfilter.Dst_port { lo = 7; hi = 7 } ];
          target = Netfilter.Accept; comment = "" };
      send 7)
    ~nf_line:edited;
  step "reheat" heat ~nf_line:reheated;
  let audit () =
    Syntax.expect_ok "audit" (Syscall.read_file m root "/proc/protego/audit")
  in
  let audit_before = audit () in
  List.iter
    (fun cmd ->
      step cmd
        (fun () ->
          Alcotest.(check (result unit errno))
            (cmd ^ " is an unknown command")
            (Error Errno.EINVAL)
            (Syscall.write_file m root "/proc/protego/filter_stats"
               (cmd ^ "\n"));
          Alcotest.(check (option string)) (cmd ^ ": dmesg")
            (Some ("protego: filter_stats: unknown command: " ^ cmd))
            (List.nth_opt (List.rev (Machine.dmesg m)) 0))
        ~nf_line:reheated)
    [ "optimize"; "deoptimize" ];
  Alcotest.(check string) "no audit record" audit_before (audit ())

(* --- the program store ---------------------------------------------------- *)

module PS = Protego_core.Policy_state
module Plane = Protego_plane.Plane

(* A Protego image, its policy state and LSM dispatcher, and a plane
   over the same state, each warmed so that every program of the stock
   policy is in the store. *)
type store_rig = {
  m : machine;
  root : task;
  st : PS.t;
  disp : PD.t;
  plane : Plane.t;
}

(* One decision per store-backed hook, on arguments never asked before,
   so each runs the engine. *)
let lsm_decisions r i =
  let dev = Printf.sprintf "/dev/probe%d" i in
  List.iter
    (fun req -> ignore (PD.decide r.disp ~phase:Phase.initial r.st req))
    [ Request.Mount
        { subject = 0; source = dev; target = "/media/cdrom";
          fstype = "iso9660"; flags = [] };
      Request.Umount { subject = 1000; target = dev; mounted_by = 1000 };
      Request.Bind
        { subject = 1000; port = 600 + i; proto = Protego_policy.Bindconf.Tcp;
          exe = dev };
      Request.Ppp_ioctl
        { subject = 0; device = dev;
          opt = Protego_net.Ppp.Compression "deflate" } ]

let store_rig () =
  let img = Image.build Image.Protego in
  let lsm = Option.get img.Image.protego in
  let st = Protego_core.Lsm.state lsm in
  let r =
    { m = img.Image.machine; root = Image.login img "root"; st;
      disp = Protego_core.Lsm.dispatch lsm; plane = Plane.create st }
  in
  lsm_decisions r 0;
  ignore (Plane.publish r.plane);
  r

let compiles_of r f =
  let c = PS.compiles r.st in
  f ();
  PS.compiles r.st - c

let rewrite r file () =
  let text = Syntax.expect_ok ("read " ^ file) (Syscall.read_file r.m r.root file) in
  Syntax.expect_ok ("write " ^ file) (Syscall.write_file r.m r.root file text)

(* Each accepted write compiles each program of its source once, in the
   load gate; the next LSM decision and the next plane publish take the
   programs from the store. *)
let test_store_compiles_per_write () =
  let r = store_rig () in
  List.iteri
    (fun i (what, write, expect) ->
      let gate = compiles_of r write in
      let decide = compiles_of r (fun () -> lsm_decisions r (i + 1)) in
      let publish = compiles_of r (fun () -> ignore (Plane.publish r.plane)) in
      Alcotest.(check (list int)) (what ^ ": gate, decision, publish")
        [ expect; 0; 0 ] [ gate; decide; publish ])
    [ ("mounts", rewrite r "/proc/protego/mount_whitelist", 2);
      ("binds", rewrite r "/proc/protego/bind_map", 1);
      ("ppp", rewrite r "/proc/protego/ppp_policy", 1);
      ("bare bump", (fun () -> PS.bump_generation r.st PS.Mounts), 0);
      ("delegation", rewrite r "/proc/protego/delegation", 0);
      ("accounts", rewrite r "/proc/protego/accounts", 0) ];
  (* One reload per store-backed hook, from its own write. *)
  List.iter
    (fun (name, s) ->
      check_int (name ^ ": invalidations")
        (if name = "nf_output" then 0 else 1)
        s.PD.invalidations)
    (PD.stats r.disp)

(* The gate compiles the candidate of a write it then refuses; that
   compile is held apart from the live programs, so the decisions and
   publishes after any number of refusals compile nothing. *)
let test_refused_write_keeps_programs () =
  let r = store_rig () in
  Syntax.expect_ok "switch to enforce"
    (Syscall.write_file r.m r.root "/proc/protego/lint" "mode enforce\n");
  for i = 1 to 3 do
    Alcotest.(check (result unit errno)) "enforce mode refuses"
      (Error Errno.EPERM)
      (Syscall.write_file r.m r.root "/proc/protego/mount_whitelist"
         (Printf.sprintf "allow /dev/sdb%d /mnt/usb vfat - users\n" i));
    check_int "next decisions compile nothing" 0
      (compiles_of r (fun () -> lsm_decisions r i));
    check_int "next publish compiles nothing" 0
      (compiles_of r (fun () -> ignore (Plane.publish r.plane)));
    check_int "a fresh dispatcher finds the live programs" 0
      (compiles_of r (fun () -> lsm_decisions { r with disp = PD.create () } i))
  done;
  List.iter
    (fun (name, s) -> check_int (name ^ ": invalidations") 0 s.PD.invalidations)
    (PD.stats r.disp)

let suites =
  [ ("filter:machine",
      [ Alcotest.test_case "verifier rejects malformed programs" `Quick
          test_verifier_rejects;
        Alcotest.test_case "verify + eval + counters" `Quick
          test_verifier_accepts_and_eval;
        Alcotest.test_case "assembler and hash switches" `Quick
          test_asm_and_switch ]);
    ("filter:dispatch",
      [ Alcotest.test_case "stats and cache invalidation" `Quick
          test_dispatch_stats_and_cache;
        Alcotest.test_case "/proc/protego/filter_stats" `Quick
          test_filter_stats_proc;
        Alcotest.test_case "filter_stats through the kernel: text and errors"
          `Quick test_filter_stats_kernel_path;
        Alcotest.test_case "bare bump keeps the program" `Quick
          test_bare_bump_keeps_program ]);
    ("filter:store",
      [ Alcotest.test_case "compiles per accepted write" `Quick
          test_store_compiles_per_write;
        Alcotest.test_case "a refused write keeps the live programs" `Quick
          test_refused_write_keeps_programs ]) ]
