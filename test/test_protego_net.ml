open Protego_base
open Protego_kernel
open Ktypes
module Image = Protego_dist.Image
module Ipaddr = Protego_net.Ipaddr
module Packet = Protego_net.Packet

let check = Alcotest.(check bool)

let errno =
  Alcotest.testable (fun ppf e -> Fmt.string ppf (Errno.to_string e)) Errno.equal

let remote = Ipaddr.v 10 0 0 7

let raw_socket m task = Syscall.socket m task Af_inet Sock_raw 1

let test_raw_socket_marking () =
  let img = Image.build Image.Protego in
  let m = img.Image.machine in
  let alice = Image.login img "alice" in
  let fd = Syntax.expect_ok "raw socket as user" (raw_socket m alice) in
  (match List.assoc_opt fd alice.fds with
  | Some { fobj = F_socket s; _ } -> check "marked unprivileged" true s.unpriv_raw
  | _ -> Alcotest.fail "not a socket");
  let root = Image.login img "root" in
  let fd = Syntax.expect_ok "raw socket as root" (raw_socket m root) in
  match List.assoc_opt fd root.fds with
  | Some { fobj = F_socket s; _ } -> check "root socket unmarked" false s.unpriv_raw
  | _ -> Alcotest.fail "not a socket"

let test_raw_linux_denied () =
  let img = Image.build Image.Linux in
  let m = img.Image.machine in
  let alice = Image.login img "alice" in
  Alcotest.(check (result unit errno))
    "stock kernel wants CAP_NET_RAW" (Error Errno.EPERM)
    (Result.map (fun _ -> ()) (raw_socket m alice))

let test_netfilter_policy () =
  let img = Image.build Image.Protego in
  let m = img.Image.machine in
  let alice = Image.login img "alice" in
  let fd = Syntax.expect_ok "socket" (raw_socket m alice) in
  let src = Ipaddr.v 10 0 0 2 in
  (* Safe: ICMP echo request. *)
  let echo = Packet.echo_request ~src ~dst:remote ~seq:1 () in
  check "echo request passes" true
    (match Syscall.sendto m alice fd remote 0 (Packet.encode echo) with
    | Ok _ -> true
    | Error _ -> false);
  check "reply received" true
    (match Syscall.recvfrom m alice fd with
    | Ok data -> (
        match Packet.decode data with
        | Some { Packet.transport = Packet.Icmp_msg { icmp_type = Packet.Echo_reply; _ }; _ } ->
            true
        | _ -> false)
    | Error _ -> false);
  (* Unsafe: spoofed TCP from a raw socket is dropped by the origin rules. *)
  let spoof =
    { Packet.src; dst = remote; ttl = 64;
      transport = Packet.Tcp_seg { src_port = 22; dst_port = 445; syn = false; payload = "RST" } }
  in
  Alcotest.(check (result unit errno))
    "tcp spoof dropped" (Error Errno.EPERM)
    (Result.map (fun _ -> ()) (Syscall.sendto m alice fd remote 0 (Packet.encode spoof)));
  (* Unsafe ICMP types are also dropped (redirects). *)
  let redirect =
    { Packet.src; dst = remote; ttl = 64;
      transport = Packet.Icmp_msg { icmp_type = Packet.Redirect; code = 1; payload = "" } }
  in
  Alcotest.(check (result unit errno))
    "icmp redirect dropped" (Error Errno.EPERM)
    (Result.map (fun _ -> ()) (Syscall.sendto m alice fd remote 0 (Packet.encode redirect)));
  (* Root's raw sockets are kernel-trusted and unaffected by origin rules. *)
  let root = Image.login img "root" in
  let rfd = Syntax.expect_ok "root raw" (raw_socket m root) in
  check "root can send arbitrary raw" true
    (match Syscall.sendto m root rfd remote 0 (Packet.encode spoof) with
    | Ok _ -> true
    | Error _ -> false)

let test_admin_can_retune_rules () =
  let img = Image.build Image.Protego in
  let m = img.Image.machine in
  let alice = Image.login img "alice" in
  (* The administrator may tighten the rules via netfilter (what iptables
     would do): drop even echo requests from unprivileged raw sockets. *)
  Protego_net.Netfilter.insert m.netfilter Protego_net.Netfilter.Output
    { Protego_net.Netfilter.matches = [ Protego_net.Netfilter.Origin_raw ];
      target = Protego_net.Netfilter.Drop; comment = "lockdown" };
  let fd = Syntax.expect_ok "socket" (raw_socket m alice) in
  let echo = Packet.echo_request ~src:(Ipaddr.v 10 0 0 2) ~dst:remote ~seq:1 () in
  Alcotest.(check (result unit errno))
    "locked down" (Error Errno.EPERM)
    (Result.map (fun _ -> ()) (Syscall.sendto m alice fd remote 0 (Packet.encode echo)))

let test_bind_policy () =
  let img = Image.build Image.Protego in
  let m = img.Image.machine in
  let try_bind user exe port =
    let task = Image.login img user in
    task.exe_path <- exe;
    let fd = Syntax.expect_ok "socket" (Syscall.socket m task Af_inet Sock_stream 6) in
    let r = Syscall.bind m task fd Ipaddr.any port in
    ignore (Syscall.close m task fd);
    Machine.remove_task m task;
    r
  in
  Syntax.expect_ok "exim binds 25" (try_bind "Debian-exim" "/usr/sbin/exim4" 25);
  Syntax.expect_ok "exim binds 587" (try_bind "Debian-exim" "/usr/sbin/exim4" 587);
  Syntax.expect_ok "httpd binds 80" (try_bind "www-data" "/usr/sbin/httpd" 80);
  Alcotest.(check (result unit errno))
    "wrong uid refused" (Error Errno.EACCES)
    (try_bind "alice" "/usr/sbin/exim4" 25);
  Alcotest.(check (result unit errno))
    "wrong binary refused" (Error Errno.EACCES)
    (try_bind "Debian-exim" "/bin/evil" 25);
  Alcotest.(check (result unit errno))
    "unallocated port refused" (Error Errno.EACCES)
    (try_bind "Debian-exim" "/usr/sbin/exim4" 137);
  Syntax.expect_ok "root may bind anything" (try_bind "root" "/bin/anything" 137);
  Syntax.expect_ok "high ports free" (try_bind "alice" "/bin/sh" 8080)

let test_route_policy () =
  let img = Image.build Image.Protego in
  let m = img.Image.machine in
  let alice = Image.login img "alice" in
  let fd = Syntax.expect_ok "socket" (Syscall.socket m alice Af_inet Sock_dgram 17) in
  let route dest_s device =
    { Protego_net.Route.dest = Option.get (Ipaddr.Cidr.of_string dest_s);
      gateway = None; device; metric = 10; owner_uid = Some Image.alice_uid }
  in
  (* Non-conflicting route over a ppp device: allowed. *)
  Syntax.expect_ok "non-conflicting ppp route"
    (Result.map (fun _ -> ()) (Syscall.ioctl m alice fd (Ioctl_route_add (route "192.168.77.0/24" "ppp0"))));
  (* Conflicting: refused. *)
  Alcotest.(check (result unit errno))
    "conflicting route refused" (Error Errno.EPERM)
    (Result.map (fun _ -> ())
       (Syscall.ioctl m alice fd (Ioctl_route_add (route "10.0.0.0/25" "ppp0"))));
  (* Non-ppp device: refused for users. *)
  Alcotest.(check (result unit errno))
    "eth route refused" (Error Errno.EPERM)
    (Result.map (fun _ -> ())
       (Syscall.ioctl m alice fd (Ioctl_route_add (route "172.16.0.0/16" "eth0"))));
  (* Owner may delete own route; other users may not. *)
  let bob = Image.login img "bob" in
  let bfd = Syntax.expect_ok "socket" (Syscall.socket m bob Af_inet Sock_dgram 17) in
  Alcotest.(check (result unit errno))
    "bob cannot delete alice's route" (Error Errno.EPERM)
    (Result.map (fun _ -> ())
       (Syscall.ioctl m bob bfd
          (Ioctl_route_del (Option.get (Ipaddr.Cidr.of_string "192.168.77.0/24")))));
  Syntax.expect_ok "alice deletes own route"
    (Result.map (fun _ -> ())
       (Syscall.ioctl m alice fd
          (Ioctl_route_del (Option.get (Ipaddr.Cidr.of_string "192.168.77.0/24")))))

let test_dmcrypt_sysfs () =
  let img = Image.build Image.Protego in
  let m = img.Image.machine in
  let alice = Image.login img "alice" in
  let contents =
    Syntax.expect_ok "sysfs read"
      (Syscall.read_file m alice "/sys/block/dm-0/protego/device")
  in
  Alcotest.(check string) "underlying device only" "/dev/sda2" (String.trim contents);
  check "no key disclosure" false
    (let key = "0123deadbeefcafe" in
     let rec contains i =
       i + String.length key <= String.length contents
       && (String.sub contents i (String.length key) = key || contains (i + 1))
     in
     contains 0);
  (* The over-broad ioctl remains root-only even on Protego. *)
  let fd_result = Syscall.open_ m alice "/dev/dm-0" [ Syscall.O_RDONLY ] in
  check "device node still protected" true
    (match fd_result with Error Errno.EACCES -> true | _ -> false)

let test_ppp_binary_end_to_end () =
  (* The paper's §4.1.2 validation: pppd without root privilege brings the
     link up and installs the route. *)
  let img = Image.build Image.Protego in
  let m = img.Image.machine in
  let alice = Image.login img "alice" in
  let code =
    Image.run img alice "/usr/sbin/pppd"
      [ "/dev/ttyS0"; "192.168.77.2:192.168.77.1"; "route"; "192.168.77.0/24" ]
  in
  Alcotest.(check (result int errno)) "pppd succeeds" (Ok 0) code;
  check "link registered" true
    (List.exists (fun (l : Protego_net.Ppp.t) -> Protego_net.Ppp.is_up l) m.ppp_links);
  check "route installed" true
    (Protego_net.Route.lookup m.routes (Ipaddr.v 192 168 77 5) <> None);
  (* And the remote network is now reachable: TCP connect over the route. *)
  let fd = Syntax.expect_ok "socket" (Syscall.socket m alice Af_inet Sock_stream 6) in
  Syntax.expect_ok "connect over ppp route"
    (Syscall.connect m alice fd (Ipaddr.v 192 168 77 5) 80)

let test_modem_options () =
  let img = Image.build Image.Protego in
  let m = img.Image.machine in
  let alice = Image.login img "alice" in
  let fd = Syntax.expect_ok "open serial" (Syscall.open_ m alice "/dev/ttyS0" [ Syscall.O_RDWR ]) in
  let cfg opt =
    Syscall.ioctl m alice fd
      (Ioctl_modem_config { ioctl_dev = "/dev/ttyS0"; ppp_opt = opt })
  in
  Syntax.expect_ok "safe option"
    (Result.map (fun _ -> ()) (cfg (Protego_net.Ppp.Compression "deflate")));
  Alcotest.(check (result unit errno))
    "privileged option refused" (Error Errno.EPERM)
    (Result.map (fun _ -> ()) (cfg (Protego_net.Ppp.Modem_line_speed 115200)));
  (* A device the administrator did not allow. *)
  Alcotest.(check (result unit errno))
    "other device refused" (Error Errno.EPERM)
    (Result.map (fun _ -> ())
       (Syscall.ioctl m alice fd
          (Ioctl_modem_config
             { ioctl_dev = "/dev/ttyS9"; ppp_opt = Protego_net.Ppp.Accomp })))

let test_iptables_binary () =
  let img = Image.build Image.Protego in
  let m = img.Image.machine in
  let root = Image.login img "root" in
  let alice = Image.login img "alice" in
  (* Only the administrator may change rules. *)
  check "alice refused" true
    (Image.run img alice "/sbin/iptables"
       [ "-I"; "OUTPUT"; "--origin"; "raw"; "-j"; "DROP" ]
    <> Ok 0);
  (* Root locks down raw-origin traffic through the utility... *)
  Alcotest.(check bool) "root inserts" true
    (Image.run img root "/sbin/iptables"
       [ "-I"; "OUTPUT"; "--origin"; "raw"; "-j"; "DROP" ]
    = Ok 0);
  let fd = Syntax.expect_ok "raw" (raw_socket m alice) in
  let echo =
    Packet.echo_request ~src:(Ipaddr.v 10 0 0 2) ~dst:remote ~seq:1 ()
  in
  Alcotest.(check (result unit errno))
    "policy took effect" (Error Errno.EPERM)
    (Result.map (fun _ -> ())
       (Syscall.sendto m alice fd remote 0 (Packet.encode echo)));
  (* ...lists it... *)
  Alcotest.(check bool) "list works" true
    (Image.run img root "/sbin/iptables" [ "-L"; "OUTPUT" ] = Ok 0);
  check "lockdown rule visible" true
    (List.exists
       (fun l -> l = "  --origin raw -j DROP")
       (console_lines m));
  (* ...and a flush restores the open default (the Protego origin rules go
     with it; re-append via the spec grammar). *)
  Alcotest.(check bool) "flush" true
    (Image.run img root "/sbin/iptables" [ "-F"; "OUTPUT" ] = Ok 0);
  Alcotest.(check bool) "re-add ping rule" true
    (Image.run img root "/sbin/iptables"
       [ "-A"; "OUTPUT"; "--origin"; "raw"; "-p"; "icmp"; "--icmp-type";
         "echo-request"; "-j"; "ACCEPT" ]
    = Ok 0);
  Syntax.expect_ok "ping flows again"
    (Result.map (fun _ -> ())
       (Syscall.sendto m alice fd remote 0 (Packet.encode echo)))

let test_network_tools_equivalence () =
  let drive config =
    let img = Image.build config in
    let alice = Image.login img "alice" in
    [ Image.run img alice "/bin/ping" [ "-c"; "2"; "10.0.0.7" ];
      Image.run img alice "/bin/ping" [ "10.9.9.9" ];
      Image.run img alice "/usr/bin/traceroute" [ "10.0.0.7" ];
      Image.run img alice "/usr/bin/mtr" [ "10.0.0.7" ];
      Image.run img alice "/usr/bin/arping" [ "10.0.0.7" ];
      Image.run img alice "/usr/bin/fping" [ "10.0.0.7"; "10.9.9.9" ] ]
  in
  check "tools behave identically" true (drive Image.Linux = drive Image.Protego)

(* A raw socket's hand-built header is range-checked before any hook
   sees it: a port or a raw protocol number outside 0..65535 is EINVAL
   and, in record mode, leaves no nf record; 65535 is a port and its
   record reads 65535. *)
let test_header_ranges () =
  let module J = Protego_journal.Journal in
  let img = Image.build Image.Protego in
  let m = img.Image.machine in
  let root = Image.login img "root" in
  let alice = Image.login img "alice" in
  Syntax.expect_ok "record on"
    (Syscall.write_file m root "/proc/protego/record" "on\n");
  let dst = Ipaddr.v 10 0 0 1 in
  let send domain proto transport =
    let fd =
      Syntax.expect_ok "raw socket"
        (Syscall.socket m alice domain Sock_raw proto)
    in
    let pkt = { Packet.src = Ipaddr.v 10 0 0 2; dst; ttl = 64; transport } in
    let r = Syscall.sendto m alice fd dst 0 (Packet.encode pkt) in
    ignore (Syscall.close m alice fd);
    Result.map (fun _ -> ()) r
  in
  let nf_dports () =
    List.filter_map
      (function
        | J.Decision { J.d_req = J.Nf { dport; _ }; _ } -> Some dport
        | J.Decision _ | J.Kaudit _ -> None)
      (J.entries m.audit.J.sk_journal)
  in
  let tcp dst_port =
    Packet.Tcp_seg { src_port = 40000; dst_port; syn = true; payload = "" }
  in
  let udp dst_port =
    Packet.Udp_dgram { src_port = 40000; dst_port; payload = "" }
  in
  List.iter
    (fun (what, domain, proto, transport) ->
      Alcotest.(check (result unit errno)) what (Error Errno.EINVAL)
        (send domain proto transport))
    [ ("tcp port 70000", Af_inet, 6, tcp 70000);
      ("tcp port -1", Af_inet, 6, tcp (-1));
      ("udp port 70000", Af_inet, 17, udp 70000);
      ("udp port -1", Af_inet, 17, udp (-1));
      ("raw protocol 70000", Af_packet, 0x88cc,
       Packet.Raw_payload { protocol = 70000; payload = "" }) ];
  Alcotest.(check int) "no nf record for a refused header" 0
    (List.length (nf_dports ()));
  Alcotest.(check (result unit errno)) "tcp port 65535" (Ok ())
    (send Af_inet 6 (tcp 65535));
  Alcotest.(check (list (option int))) "its record reads 65535" [ Some 65535 ]
    (nf_dports ())

let suites =
  [ ("protego:rawsock",
      [ Alcotest.test_case "marking" `Quick test_raw_socket_marking;
        Alcotest.test_case "linux denies raw" `Quick test_raw_linux_denied;
        Alcotest.test_case "netfilter origin rules" `Quick test_netfilter_policy;
        Alcotest.test_case "admin retunes rules" `Quick test_admin_can_retune_rules;
        Alcotest.test_case "iptables end-to-end" `Quick test_iptables_binary;
        Alcotest.test_case "header ports and protocol range-checked" `Quick
          test_header_ranges ]);
    ("protego:bind", [ Alcotest.test_case "port map" `Quick test_bind_policy ]);
    ("protego:ppp",
      [ Alcotest.test_case "route policy" `Quick test_route_policy;
        Alcotest.test_case "pppd end-to-end" `Quick test_ppp_binary_end_to_end;
        Alcotest.test_case "modem options" `Quick test_modem_options ]);
    ("protego:dmcrypt", [ Alcotest.test_case "sysfs interface" `Quick test_dmcrypt_sysfs ]);
    ("protego:net-equiv",
      [ Alcotest.test_case "tool equivalence" `Quick test_network_tools_equivalence ]) ]
