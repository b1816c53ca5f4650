open Protego_base
open Protego_kernel
open Ktypes
module Image = Protego_dist.Image

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let errno =
  Alcotest.testable (fun ppf e -> Fmt.string ppf (Errno.to_string e)) Errno.equal

let fixture () =
  let img = Image.build Image.Protego in
  img.Image.machine.password_source <- (fun _ -> None);
  Audit.clear img.Image.machine;
  img

let find_op records op = List.filter (fun r -> r.Audit.au_op = op) records

let test_mount_decisions_recorded () =
  let img = fixture () in
  let m = img.Image.machine in
  let alice = Image.login img "alice" in
  Syntax.expect_ok "allowed mount"
    (Syscall.mount m alice ~source:"/dev/cdrom" ~target:"/media/cdrom"
       ~fstype:"iso9660" ~flags:[ Mf_readonly; Mf_nosuid; Mf_nodev ]);
  ignore
    (Syscall.mount m alice ~source:"/dev/sda2" ~target:"/etc" ~fstype:"ext4"
       ~flags:[]);
  let mounts = find_op (Audit.records m) "mount" in
  check_int "two decisions" 2 (List.length mounts);
  (match mounts with
  | [ grant; denial ] ->
      check "grant first" true grant.Audit.au_allowed;
      check "denial second" false denial.Audit.au_allowed;
      check "subject recorded" true (grant.Audit.au_uid = Image.alice_uid);
      check "object recorded" true
        (grant.Audit.au_obj = "/dev/cdrom on /media/cdrom")
  | _ -> Alcotest.fail "unexpected records");
  ignore (Syscall.umount m alice ~target:"/media/cdrom");
  check "umount recorded" true (find_op (Audit.records m) "umount" <> [])

let test_delegation_denials_recorded () =
  let img = fixture () in
  let m = img.Image.machine in
  let alice = Image.login img "alice" in
  ignore (Syscall.setuid m alice Image.charlie_uid);
  let setuids = find_op (Audit.records m) "setuid" in
  check "denial recorded" true
    (List.exists
       (fun r ->
         (not r.Audit.au_allowed)
         && r.Audit.au_obj = "alice -> charlie (target authentication failed)")
       setuids);
  (* Deferred transitions are recorded as grants, and the exec gate logs
     its own verdict. *)
  Syntax.expect_ok "defer" (Syscall.setuid m alice Image.bob_uid);
  ignore (Syscall.execve m alice "/bin/cat" [ "/bin/cat" ] alice.env);
  check "deferred grant" true
    (List.exists
       (fun r -> r.Audit.au_allowed && r.Audit.au_obj = "alice -> bob (deferred to exec)")
       (find_op (Audit.records m) "setuid"));
  check "exec gate denial" true
    (List.exists
       (fun r -> not r.Audit.au_allowed)
       (find_op (Audit.records m) "exec-as"))

let test_bind_and_acl_recorded () =
  let img = fixture () in
  let m = img.Image.machine in
  let alice = Image.login img "alice" in
  let fd = Syntax.expect_ok "sock" (Syscall.socket m alice Af_inet Sock_stream 6) in
  ignore (Syscall.bind m alice fd Protego_net.Ipaddr.any 25);
  check "bind denial" true
    (List.exists
       (fun r -> not r.Audit.au_allowed)
       (find_op (Audit.records m) "bind"));
  ignore (Syscall.read_file m alice "/etc/ssh/ssh_host_rsa_key");
  check "file ACL denial" true
    (List.exists
       (fun r -> not r.Audit.au_allowed)
       (find_op (Audit.records m) "file-acl"));
  ignore (Syscall.read_file m alice "/etc/shadows/alice");
  check "shadow reauth denial" true
    (List.exists
       (fun r -> not r.Audit.au_allowed)
       (find_op (Audit.records m) "shadow-read"))

let test_proc_interface () =
  let img = fixture () in
  let m = img.Image.machine in
  let alice = Image.login img "alice" in
  let root = Image.login img "root" in
  ignore
    (Syscall.mount m alice ~source:"/dev/sda2" ~target:"/etc" ~fstype:"ext4"
       ~flags:[]);
  let log =
    Syntax.expect_ok "root reads audit"
      (Syscall.read_file m root "/proc/protego/audit")
  in
  check "denial rendered" true
    (let needle = "type=DENIAL" in
     let rec go i =
       i + String.length needle <= String.length log
       && (String.sub log i (String.length needle) = needle || go (i + 1))
     in
     go 0);
  Alcotest.(check (result unit errno))
    "alice cannot read the audit log" (Error Errno.EACCES)
    (Result.map (fun _ -> ()) (Syscall.read_file m alice "/proc/protego/audit"));
  (* Writing clears, root-only. *)
  Syntax.expect_ok "clear" (Syscall.write_file m root "/proc/protego/audit" "");
  check "cleared" true (Audit.records m = [])

let test_engine_metadata () =
  let img = fixture () in
  let m = img.Image.machine in
  let alice = Image.login img "alice" in
  let root = Image.login img "root" in
  let last_mount () =
    match List.rev (find_op (Audit.records m) "mount") with
    | r :: _ -> r
    | [] -> Alcotest.fail "no mount record"
  in
  (* Filtered hooks record what served them; the first decision misses
     the cache and runs the default engine, the compiled filter machine. *)
  ignore
    (Syscall.mount m alice ~source:"/dev/sda2" ~target:"/etc" ~fstype:"ext4"
       ~flags:[]);
  check "pfm engine recorded" true
    ((last_mount ()).Audit.au_engine = Some "pfm");
  (* Repeating the identical syscall runs the engine again: a request
     hook has no decision table. *)
  ignore
    (Syscall.mount m alice ~source:"/dev/sda2" ~target:"/etc" ~fstype:"ext4"
       ~flags:[]);
  check "pfm engine recorded for the repeat" true
    ((last_mount ()).Audit.au_engine = Some "pfm");
  (* The selected engine shows through. *)
  Syntax.expect_ok "switch engine"
    (Syscall.write_file m root "/proc/protego/filter_stats" "engine ref\n");
  ignore
    (Syscall.mount m alice ~source:"/dev/sda2" ~target:"/etc" ~fstype:"ext4"
       ~flags:[]);
  check "ref engine recorded" true
    ((last_mount ()).Audit.au_engine = Some "ref");
  (* Unfiltered decisions carry no engine tag. *)
  ignore (Syscall.read_file m alice "/etc/ssh/ssh_host_rsa_key");
  (match List.rev (find_op (Audit.records m) "file-acl") with
  | r :: _ -> check "no engine on unfiltered hook" true (r.Audit.au_engine = None)
  | [] -> Alcotest.fail "no file-acl record");
  (* The rendered log shows the tag. *)
  let log =
    Syntax.expect_ok "render" (Syscall.read_file m root "/proc/protego/audit")
  in
  let has needle =
    let nl = String.length needle in
    let rec go i =
      i + nl <= String.length log && (String.sub log i nl = needle || go (i + 1))
    in
    go 0
  in
  check "engine=pfm rendered" true (has "engine=pfm");
  check "no request decision rendered engine=cache" false (has "engine=cache");
  check "engine=ref rendered" true (has "engine=ref")

let test_ring_bounded () =
  let img = fixture () in
  let m = img.Image.machine in
  let alice = Image.login img "alice" in
  for _ = 1 to Audit.capacity + 50 do
    ignore
      (Syscall.mount m alice ~source:"/dev/sda2" ~target:"/etc" ~fstype:"ext4"
         ~flags:[])
  done;
  check_int "bounded" Audit.capacity (List.length (Audit.records m));
  check "all denials" true
    (List.length (Audit.denials m) = Audit.capacity)

(* The LSM hooks journal typed decision records and /proc/protego/audit
   rebuilds their text on read.  This scenario drives every hook that
   writes one (mount, umount, bind, the ppp ioctl), with record mode off
   and then on, spans on for part of it, a mount whose flags come in
   non-canonical order and with a repeat, and a record-nf descriptor
   beside them.  The expected text pins the audit format byte for byte,
   the SUMMARY counts included. *)
let lsm_scenario () =
  let img = fixture () in
  let m = img.Image.machine in
  let alice = Image.login img "alice" in
  let root = Image.login img "root" in
  let exim =
    Machine.spawn_task m ~cred:(Cred.make ~uid:101 ~gid:101 ()) ~cwd:"/" ()
  in
  exim.exe_path <- "/usr/sbin/exim4";
  let proc path v =
    Syntax.expect_ok path (Syscall.write_file m root ("/proc/protego/" ^ path) v)
  in
  let mount ~source ~target ~fstype flags =
    ignore (Syscall.mount m alice ~source ~target ~fstype ~flags)
  in
  let bind task stype port =
    let fd = Syntax.expect_ok "sock" (Syscall.socket m task Af_inet stype 6) in
    ignore (Syscall.bind m task fd Protego_net.Ipaddr.any port);
    ignore (Syscall.close m task fd)
  in
  let serial =
    Syntax.expect_ok "open serial"
      (Syscall.open_ m alice "/dev/ttyS0" [ Syscall.O_RDWR ])
  in
  let ppp dev opt =
    ignore
      (Syscall.ioctl m alice serial
         (Ioctl_modem_config { ioctl_dev = dev; ppp_opt = opt }))
  in
  let ping () =
    let fd =
      Syntax.expect_ok "raw" (Syscall.socket m alice Af_inet Sock_raw 1)
    in
    let pkt =
      Protego_net.Packet.echo_request ~src:(Protego_net.Ipaddr.v 10 0 0 2)
        ~dst:(Protego_net.Ipaddr.v 10 0 0 1) ~seq:1 ()
    in
    ignore
      (Syscall.sendto m alice fd (Protego_net.Ipaddr.v 10 0 0 1) 0
         (Protego_net.Packet.encode pkt));
    ignore (Syscall.close m alice fd)
  in
  let round () =
    mount ~source:"/dev/cdrom" ~target:"/media/cdrom" ~fstype:"iso9660"
      [ Mf_readonly; Mf_nosuid; Mf_nodev ];
    mount ~source:"/dev/sda2" ~target:"/etc/../etc" ~fstype:"ext4"
      [ Mf_nodev; Mf_nosuid; Mf_nodev ];
    mount ~source:"/dev/sda2" ~target:"/etc/../etc" ~fstype:"ext4"
      [ Mf_nodev; Mf_nosuid; Mf_nodev ];
    ignore (Syscall.umount m alice ~target:"/media/cdrom");
    ignore (Syscall.umount m alice ~target:"/media/none");
    bind exim Sock_stream 25;
    bind alice Sock_stream 25;
    bind alice Sock_dgram 53;
    bind alice Sock_stream 8080;
    ppp "/dev/ttyS0" (Protego_net.Ppp.Compression "deflate");
    ppp "/dev/ttyS0" (Protego_net.Ppp.Modem_line_speed 115200);
    ppp "/dev/ttyS9" Protego_net.Ppp.Accomp;
    ping ()
  in
  round ();
  proc "trace" "on\n";
  round ();
  proc "trace" "off\n";
  proc "record" "on\n";
  round ();
  proc "trace" "on\n";
  round ();
  proc "record" "off\n";
  round ();
  let render () =
    Syntax.expect_ok "render" (Syscall.read_file m root "/proc/protego/audit")
  in
  let text = render () in
  (* Overflow the ring view with record mode on: each recorded mount is
     two view records, and one more record-ppp line puts the view's
     oldest edge between the two halves of a pair. *)
  proc "record" "on\n";
  for _ = 1 to 600 do
    mount ~source:"/dev/sda2" ~target:"/etc" ~fstype:"ext4" []
  done;
  ppp "/dev/ttyS0" Protego_net.Ppp.Accomp;
  let lines = String.split_on_char '\n' (render ()) in
  (text, String.concat "\n" (List.filteri (fun i _ -> i < 2) lines @ List.filteri (fun i _ -> i >= Audit.capacity - 1) lines))

let lsm_expected =
  {|type=GRANT msg=audit(1000): pid=3 uid=1000 op=mount obj=/dev/cdrom on /media/cdrom res=success engine=pfm
type=DENIAL msg=audit(1000): pid=3 uid=1000 op=mount obj=/dev/sda2 on /etc res=failed engine=pfm
type=DENIAL msg=audit(1000): pid=3 uid=1000 op=mount obj=/dev/sda2 on /etc res=failed engine=pfm
type=GRANT msg=audit(1000): pid=3 uid=1000 op=umount obj=/media/cdrom res=success engine=pfm
type=GRANT msg=audit(1000): pid=5 uid=101 op=bind obj=port 25/tcp by /usr/sbin/exim4 res=success engine=pfm
type=DENIAL msg=audit(1000): pid=3 uid=1000 op=bind obj=port 25/tcp by /bin/sh res=failed engine=pfm
type=DENIAL msg=audit(1000): pid=3 uid=1000 op=bind obj=port 53/udp by /bin/sh res=failed engine=pfm
type=GRANT msg=audit(1000): pid=3 uid=1000 op=mount obj=/dev/cdrom on /media/cdrom res=success engine=pfm span=1
type=DENIAL msg=audit(1000): pid=3 uid=1000 op=mount obj=/dev/sda2 on /etc res=failed engine=pfm span=2
type=DENIAL msg=audit(1000): pid=3 uid=1000 op=mount obj=/dev/sda2 on /etc res=failed engine=pfm span=3
type=GRANT msg=audit(1000): pid=3 uid=1000 op=umount obj=/media/cdrom res=success engine=pfm span=4
type=GRANT msg=audit(1000): pid=5 uid=101 op=bind obj=port 25/tcp by /usr/sbin/exim4 res=success engine=pfm span=5
type=DENIAL msg=audit(1000): pid=3 uid=1000 op=bind obj=port 25/tcp by /bin/sh res=failed engine=pfm span=6
type=DENIAL msg=audit(1000): pid=3 uid=1000 op=bind obj=port 53/udp by /bin/sh res=failed engine=pfm span=7
type=GRANT msg=audit(1000): pid=4 uid=0 op=record-mode obj=on res=success
type=GRANT msg=audit(1000): pid=3 uid=1000 op=record-mount obj=phase=setup subject=1000 verdict=allow source=/dev/cdrom target=/media/cdrom fstype=iso9660 flags=ro,nosuid,nodev res=success
type=GRANT msg=audit(1000): pid=3 uid=1000 op=mount obj=/dev/cdrom on /media/cdrom res=success engine=pfm
type=GRANT msg=audit(1000): pid=3 uid=1000 op=record-mount obj=phase=setup subject=1000 verdict=recorded source=/dev/sda2 target=/etc fstype=ext4 flags=nodev,nosuid,nodev res=success
type=GRANT msg=audit(1000): pid=3 uid=1000 op=mount obj=/dev/sda2 on /etc res=success engine=pfm
type=GRANT msg=audit(1000): pid=3 uid=1000 op=record-mount obj=phase=setup subject=1000 verdict=recorded source=/dev/sda2 target=/etc fstype=ext4 flags=nodev,nosuid,nodev res=success
type=GRANT msg=audit(1000): pid=3 uid=1000 op=mount obj=/dev/sda2 on /etc res=success engine=pfm
type=GRANT msg=audit(1000): pid=3 uid=1000 op=record-umount obj=phase=setup subject=1000 verdict=allow target=/media/cdrom mounted_by=1000 res=success
type=GRANT msg=audit(1000): pid=3 uid=1000 op=umount obj=/media/cdrom res=success engine=pfm
type=GRANT msg=audit(1000): pid=5 uid=101 op=record-bind obj=phase=setup subject=101 verdict=allow port=25 proto=tcp exe=/usr/sbin/exim4 res=success
type=GRANT msg=audit(1000): pid=5 uid=101 op=bind obj=port 25/tcp by /usr/sbin/exim4 res=success engine=pfm
type=GRANT msg=audit(1000): pid=3 uid=1000 op=record-bind obj=phase=setup subject=1000 verdict=recorded port=25 proto=tcp exe=/bin/sh res=success
type=GRANT msg=audit(1000): pid=3 uid=1000 op=bind obj=port 25/tcp by /bin/sh res=success engine=pfm
type=GRANT msg=audit(1000): pid=3 uid=1000 op=record-bind obj=phase=setup subject=1000 verdict=recorded port=53 proto=udp exe=/bin/sh res=success
type=GRANT msg=audit(1000): pid=3 uid=1000 op=bind obj=port 53/udp by /bin/sh res=success engine=pfm
type=GRANT msg=audit(1000): pid=3 uid=1000 op=record-ppp obj=phase=setup subject=1000 verdict=allow device=/dev/ttyS0 safe=1 res=success
type=GRANT msg=audit(1000): pid=3 uid=1000 op=record-ppp obj=phase=setup subject=1000 verdict=recorded device=/dev/ttyS0 safe=0 res=success
type=GRANT msg=audit(1000): pid=3 uid=1000 op=record-ppp obj=phase=setup subject=1000 verdict=recorded device=/dev/ttyS9 safe=1 res=success
type=GRANT msg=audit(1000): pid=1 uid=0 op=record-nf obj=phase=- subject=1000 verdict=allow proto=icmp dst=10.0.0.1 dport=- origin=raw icmp=echo-request res=success
type=GRANT msg=audit(1000): pid=3 uid=1000 op=record-mount obj=phase=setup subject=1000 verdict=allow source=/dev/cdrom target=/media/cdrom fstype=iso9660 flags=ro,nosuid,nodev res=success
type=GRANT msg=audit(1000): pid=3 uid=1000 op=mount obj=/dev/cdrom on /media/cdrom res=success engine=pfm span=12
type=GRANT msg=audit(1000): pid=3 uid=1000 op=record-mount obj=phase=setup subject=1000 verdict=recorded source=/dev/sda2 target=/etc fstype=ext4 flags=nodev,nosuid,nodev res=success
type=GRANT msg=audit(1000): pid=3 uid=1000 op=mount obj=/dev/sda2 on /etc res=success engine=pfm span=13
type=GRANT msg=audit(1000): pid=3 uid=1000 op=record-mount obj=phase=setup subject=1000 verdict=recorded source=/dev/sda2 target=/etc fstype=ext4 flags=nodev,nosuid,nodev res=success
type=GRANT msg=audit(1000): pid=3 uid=1000 op=mount obj=/dev/sda2 on /etc res=success engine=pfm span=14
type=GRANT msg=audit(1000): pid=3 uid=1000 op=record-umount obj=phase=setup subject=1000 verdict=allow target=/media/cdrom mounted_by=1000 res=success
type=GRANT msg=audit(1000): pid=3 uid=1000 op=umount obj=/media/cdrom res=success engine=pfm span=15
type=GRANT msg=audit(1000): pid=5 uid=101 op=record-bind obj=phase=setup subject=101 verdict=allow port=25 proto=tcp exe=/usr/sbin/exim4 res=success
type=GRANT msg=audit(1000): pid=5 uid=101 op=bind obj=port 25/tcp by /usr/sbin/exim4 res=success engine=pfm span=16
type=GRANT msg=audit(1000): pid=3 uid=1000 op=record-bind obj=phase=setup subject=1000 verdict=recorded port=25 proto=tcp exe=/bin/sh res=success
type=GRANT msg=audit(1000): pid=3 uid=1000 op=bind obj=port 25/tcp by /bin/sh res=success engine=pfm span=17
type=GRANT msg=audit(1000): pid=3 uid=1000 op=record-bind obj=phase=setup subject=1000 verdict=recorded port=53 proto=udp exe=/bin/sh res=success
type=GRANT msg=audit(1000): pid=3 uid=1000 op=bind obj=port 53/udp by /bin/sh res=success engine=pfm span=18
type=GRANT msg=audit(1000): pid=3 uid=1000 op=record-ppp obj=phase=setup subject=1000 verdict=allow device=/dev/ttyS0 safe=1 res=success
type=GRANT msg=audit(1000): pid=3 uid=1000 op=record-ppp obj=phase=setup subject=1000 verdict=recorded device=/dev/ttyS0 safe=0 res=success
type=GRANT msg=audit(1000): pid=3 uid=1000 op=record-ppp obj=phase=setup subject=1000 verdict=recorded device=/dev/ttyS9 safe=1 res=success
type=GRANT msg=audit(1000): pid=1 uid=0 op=record-nf obj=phase=- subject=1000 verdict=allow proto=icmp dst=10.0.0.1 dport=- origin=raw icmp=echo-request res=success
type=GRANT msg=audit(1000): pid=4 uid=0 op=record-mode obj=off res=success
type=GRANT msg=audit(1000): pid=3 uid=1000 op=mount obj=/dev/cdrom on /media/cdrom res=success engine=pfm span=23
type=DENIAL msg=audit(1000): pid=3 uid=1000 op=mount obj=/dev/sda2 on /etc res=failed engine=pfm span=24
type=DENIAL msg=audit(1000): pid=3 uid=1000 op=mount obj=/dev/sda2 on /etc res=failed engine=pfm span=25
type=GRANT msg=audit(1000): pid=3 uid=1000 op=umount obj=/media/cdrom res=success engine=pfm span=26
type=GRANT msg=audit(1000): pid=5 uid=101 op=bind obj=port 25/tcp by /usr/sbin/exim4 res=success engine=pfm span=27
type=DENIAL msg=audit(1000): pid=3 uid=1000 op=bind obj=port 25/tcp by /bin/sh res=failed engine=pfm span=28
type=DENIAL msg=audit(1000): pid=3 uid=1000 op=bind obj=port 53/udp by /bin/sh res=failed engine=pfm span=29
type=SUMMARY msg=audit: records=59 dropped=0
|}

let lsm_overflow_expected =
  {|type=GRANT msg=audit(1000): pid=3 uid=1000 op=mount obj=/dev/sda2 on /etc res=success engine=pfm span=122
type=GRANT msg=audit(1000): pid=3 uid=1000 op=record-mount obj=phase=setup subject=1000 verdict=recorded source=/dev/sda2 target=/etc fstype=ext4 flags=- res=success
type=GRANT msg=audit(1000): pid=3 uid=1000 op=record-ppp obj=phase=setup subject=1000 verdict=allow device=/dev/ttyS0 safe=1 res=success
type=SUMMARY msg=audit: records=1024 dropped=237
|}

let test_lsm_text () =
  let text, overflow = lsm_scenario () in
  Alcotest.(check string) "audit text" lsm_expected text;
  Alcotest.(check string) "overflow edge and summary" lsm_overflow_expected
    overflow

let suites =
  [ ("audit:records",
      [ Alcotest.test_case "mount decisions" `Quick test_mount_decisions_recorded;
        Alcotest.test_case "delegation decisions" `Quick test_delegation_denials_recorded;
        Alcotest.test_case "bind and ACL decisions" `Quick test_bind_and_acl_recorded;
        Alcotest.test_case "/proc/protego/audit" `Quick test_proc_interface;
        Alcotest.test_case "engine metadata" `Quick test_engine_metadata;
        Alcotest.test_case "ring bound" `Quick test_ring_bounded;
        Alcotest.test_case "LSM decision text" `Quick test_lsm_text ]) ]
