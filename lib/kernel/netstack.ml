open Protego_base
open Ktypes
module Ipaddr = Protego_net.Ipaddr
module Packet = Protego_net.Packet
module Netfilter = Protego_net.Netfilter
module Route = Protego_net.Route

(* Fixed per-packet protocol-processing cost (checksums, queueing) — the
   counterpart of Syscall.trap for the network path.  Without it the
   netfilter rule scan would be measured against a near-zero base cost and
   overheads would look inflated relative to the paper's. *)
let packet_work_hops_of iterations = max 0 iterations * 66 / 100
let packet_work_hops = ref (packet_work_hops_of 2500)
let packet_work () = Cost.chain !packet_work_hops
let set_packet_work_iterations n = packet_work_hops := packet_work_hops_of n

let fresh_socket m task domain stype proto =
  let id = m.next_sock in
  m.next_sock <- m.next_sock + 1;
  let sock =
    { sock_id = id; domain; stype; sproto = proto; sock_uid = task.cred.euid;
      sock_exe = task.exe_path; sock_netns = task.netns; bound = None;
      listening = false; conn = None; unpriv_raw = false; sttl = 64;
      stream_buf = Buffer.create 64; dgram_queue = Queue.create ();
      closed = false }
  in
  m.sockets <- sock :: m.sockets;
  sock

let create_socket m task domain stype proto =
  match m.security.socket_create m task domain stype proto with
  | Error _ as e -> e
  | Ok () ->
      let sock = fresh_socket m task domain stype proto in
      let is_raw = stype = Sock_raw || domain = Af_packet in
      if is_raw && not (Cred.has_cap task.cred Cap.CAP_NET_RAW) then
        sock.unpriv_raw <- true;
      Ok sock

let proto_matches stype proto (pkt : Packet.t) =
  match stype with
  | Sock_raw -> (
      match (proto, Packet.proto_of_transport pkt.transport) with
      | 1, Packet.Icmp -> true
      | 6, Packet.Tcp -> true
      | 17, Packet.Udp -> true
      | 0, _ -> true (* proto 0: all, packet-socket style *)
      | p, Packet.Other q -> p = q
      | _, _ -> false)
  | Sock_dgram | Sock_stream -> false

let port_in_use m ?(netns = 0) proto port =
  List.exists
    (fun s ->
      (not s.closed) && s.sproto = proto && s.sock_netns = netns
      && match s.bound with Some (_, p) -> p = port | None -> false)
    m.sockets

let bind_socket m task sock addr port =
  if sock.bound <> None then Error Errno.EINVAL
  else
    let proto_num = match sock.stype with Sock_stream -> 6 | Sock_dgram -> 17 | Sock_raw -> sock.sproto in
    if port <> 0 && port_in_use m ~netns:sock.sock_netns proto_num port then
      Error Errno.EADDRINUSE
    else
      match m.security.socket_bind m task sock addr port with
      | Error _ as e -> e
      | Ok () ->
          let port =
            if port = 0 then (
              let p = m.next_ephemeral in
              m.next_ephemeral <- m.next_ephemeral + 1;
              p)
            else port
          in
          sock.bound <- Some (addr, port);
          Ok ()

let listen_socket m task sock =
  if sock.stype <> Sock_stream then Error Errno.EINVAL
  else
    match m.security.socket_listen m task sock with
    | Error _ as e -> e
    | Ok () ->
        sock.listening <- true;
        (* First listen is the serving transition (DESIGN.md §11): the
           program has finished its setup window and started accepting
           work.  Tighten-only: [advance] never moves the phase back. *)
        task.sec.phase <- Phase.advance task.sec.phase Phase.Serving;
        Ok ()

let is_local m addr =
  Ipaddr.equal addr Ipaddr.localhost
  || List.exists (Ipaddr.equal addr) m.local_addrs

let find_remote m addr =
  List.find_opt (fun rh -> Ipaddr.equal rh.rh_addr addr) m.remote_hosts

let ephemeral m =
  let p = m.next_ephemeral in
  m.next_ephemeral <- m.next_ephemeral + 1;
  p

let find_listener m ?(netns = 0) port =
  List.find_opt
    (fun s ->
      (not s.closed) && s.listening && s.sock_netns = netns
      && match s.bound with Some (_, p) -> p = port | None -> false)
    m.sockets

(* Egress: LSM hook, then the netfilter OUTPUT chain with the socket's
   packet origin. *)
let egress m task sock (pkt : Packet.t) =
  packet_work ();
  match m.security.socket_sendmsg m task sock pkt with
  | Error _ as e -> e
  | Ok () when sock.sock_netns <> 0 ->
      (* netfilter tables are per-namespace; a fresh namespace has an empty
         table with ACCEPT policy. *)
      Ok ()
  | Ok () ->
      let origin =
        if sock.unpriv_raw then
          if sock.domain = Af_packet then Packet.Packet_app { uid = sock.sock_uid }
          else Packet.Raw_app { uid = sock.sock_uid }
        else Packet.Kernel_stack
      in
      (match Netfilter.eval m.netfilter Netfilter.Output pkt ~origin with
      | Netfilter.Accept ->
          (* The wire queue is an observation window, not a buffer: keep only
             the most recent packets so long runs stay bounded. *)
          Queue.add (pkt, origin) m.wire;
          if Queue.length m.wire > 64 then ignore (Queue.pop m.wire);
          Ok ()
      | Netfilter.Drop -> Error Errno.EPERM
      | Netfilter.Reject -> Error Errno.EACCES)

let deliver_to_raw_sockets m ?(netns = 0) (pkt : Packet.t) =
  List.iter
    (fun s ->
      if (not s.closed) && s.stype = Sock_raw && s.sock_netns = netns
         && (s.domain = Af_inet || s.domain = Af_packet)
         && proto_matches Sock_raw s.sproto pkt
      then Queue.add pkt s.dgram_queue)
    m.sockets

let deliver_to_udp m ?(netns = 0) (pkt : Packet.t) =
  match pkt.transport with
  | Packet.Udp_dgram { dst_port; _ } ->
      List.iter
        (fun s ->
          if (not s.closed) && s.stype = Sock_dgram && s.sock_netns = netns
             && match s.bound with Some (_, p) -> p = dst_port | None -> false
          then Queue.add pkt s.dgram_queue)
        m.sockets
  | Packet.Icmp_msg _ | Packet.Tcp_seg _ | Packet.Raw_payload _ -> ()

let deliver_inbound ?(netns = 0) m pkt =
  packet_work ();
  let verdict =
    if netns <> 0 then Netfilter.Accept
    else Netfilter.eval m.netfilter Netfilter.Input pkt ~origin:Packet.Kernel_stack
  in
  match verdict with
  | Netfilter.Drop | Netfilter.Reject -> ()
  | Netfilter.Accept ->
      deliver_to_raw_sockets m ~netns pkt;
      deliver_to_udp m ~netns pkt

(* Behaviour of the simulated internet for one outbound packet. *)
let remote_reaction m (pkt : Packet.t) =
  match find_remote m pkt.dst with
  | None -> ()
  | Some rh -> (
      match pkt.transport with
      | Packet.Icmp_msg { icmp_type = Packet.Echo_request; _ } ->
          if pkt.ttl < rh.rh_hops then
            (* An intermediate gateway at hop [ttl] answers TIME_EXCEEDED. *)
            let hop_addr = Ipaddr.v 10 254 0 pkt.ttl in
            deliver_inbound m
              { Packet.src = hop_addr; dst = pkt.src; ttl = 64;
                transport =
                  Packet.Icmp_msg
                    { icmp_type = Packet.Time_exceeded; code = 0;
                      payload = Ipaddr.to_string pkt.dst } }
          else if rh.rh_echo then (
            match Packet.echo_reply_to pkt with
            | Some reply -> deliver_inbound m reply
            | None -> ())
      | Packet.Udp_dgram { src_port; dst_port; payload } ->
          if pkt.ttl < rh.rh_hops then
            let hop_addr = Ipaddr.v 10 254 0 pkt.ttl in
            deliver_inbound m
              { Packet.src = hop_addr; dst = pkt.src; ttl = 64;
                transport =
                  Packet.Icmp_msg
                    { icmp_type = Packet.Time_exceeded; code = 0;
                      payload = Ipaddr.to_string pkt.dst } }
          else if List.mem dst_port rh.rh_udp_echo_ports then
            deliver_inbound m
              { Packet.src = pkt.dst; dst = pkt.src; ttl = 64;
                transport =
                  Packet.Udp_dgram { src_port = dst_port; dst_port = src_port; payload } }
          else
            deliver_inbound m
              { Packet.src = pkt.dst; dst = pkt.src; ttl = 64;
                transport =
                  Packet.Icmp_msg
                    { icmp_type = Packet.Dest_unreachable; code = 3;
                      payload = Ipaddr.to_string pkt.dst } }
      | Packet.Tcp_seg { src_port; dst_port; syn = true; _ } ->
          if pkt.ttl < rh.rh_hops then
            let hop_addr = Ipaddr.v 10 254 0 pkt.ttl in
            deliver_inbound m
              { Packet.src = hop_addr; dst = pkt.src; ttl = 64;
                transport =
                  Packet.Icmp_msg
                    { icmp_type = Packet.Time_exceeded; code = 0;
                      payload = Ipaddr.to_string pkt.dst } }
          else if List.mem dst_port rh.rh_tcp_open_ports then
            (* SYN-ACK back to the prober. *)
            deliver_inbound m
              { Packet.src = pkt.dst; dst = pkt.src; ttl = 64;
                transport =
                  Packet.Tcp_seg { src_port = dst_port; dst_port = src_port;
                                   syn = true; payload = "SYNACK" } }
          else
            deliver_inbound m
              { Packet.src = pkt.dst; dst = pkt.src; ttl = 64;
                transport =
                  Packet.Tcp_seg { src_port = dst_port; dst_port = src_port;
                                   syn = false; payload = "RST" } }
      | Packet.Raw_payload { protocol = 0x0806; payload } ->
          (* ARP who-has: the owning host answers is-at. *)
          deliver_inbound m
            { Packet.src = pkt.dst; dst = pkt.src; ttl = 64;
              transport =
                Packet.Raw_payload
                  { protocol = 0x0806; payload = "is-at 52:54:00:12:34:56 " ^ payload } }
      | Packet.Icmp_msg _ | Packet.Tcp_seg _ | Packet.Raw_payload _ -> ())

let routable m (pkt : Packet.t) =
  is_local m pkt.dst || Route.lookup m.routes pkt.dst <> None

let sendto m task sock dst_addr dst_port payload =
  if sock.closed then Error Errno.EBADF
  else
    match sock.stype with
    | Sock_raw -> (
        match Packet.decode payload with
        | None -> Error Errno.EINVAL
        | Some pkt ->
            if sock.sock_netns <> 0 then (
              (* Inside a private network namespace: a fake network with no
                 routes to the outside world (§6, Namespaces).  Loopback
                 traffic stays inside the namespace. *)
              match egress m task sock pkt with
              | Error _ as e -> e
              | Ok () ->
                  if Ipaddr.equal pkt.dst Ipaddr.localhost then
                    deliver_inbound ~netns:sock.sock_netns m pkt;
                  Ok (String.length payload))
            else if not (routable m pkt) then Error Errno.ENETUNREACH
            else (
              match egress m task sock pkt with
              | Error _ as e -> e
              | Ok () ->
                  if is_local m pkt.dst then deliver_inbound m pkt
                  else remote_reaction m pkt;
                  Ok (String.length payload)))
    | Sock_dgram ->
        let src_port =
          match sock.bound with
          | Some (_, p) -> p
          | None ->
              let p = ephemeral m in
              sock.bound <- Some (Ipaddr.any, p);
              p
        in
        let pkt =
          { Packet.src = Ipaddr.localhost; dst = dst_addr; ttl = sock.sttl;
            transport = Packet.Udp_dgram { src_port; dst_port; payload } }
        in
        if sock.sock_netns <> 0 then (
          match egress m task sock pkt with
          | Error _ as e -> e
          | Ok () ->
              if Ipaddr.equal dst_addr Ipaddr.localhost then
                deliver_inbound ~netns:sock.sock_netns m pkt;
              Ok (String.length payload))
        else if not (routable m pkt) then Error Errno.ENETUNREACH
        else (
          match egress m task sock pkt with
          | Error _ as e -> e
          | Ok () ->
              if is_local m dst_addr then deliver_inbound m pkt
              else remote_reaction m pkt;
              Ok (String.length payload))
    | Sock_stream -> Error Errno.EINVAL

let recvfrom _m _task sock =
  if sock.closed then Error Errno.EBADF
  else
    match Queue.take_opt sock.dgram_queue with
    | None -> Error Errno.EAGAIN
    | Some pkt -> (
        match sock.stype with
        | Sock_raw -> Ok (Packet.encode pkt)
        | Sock_dgram | Sock_stream -> (
            match pkt.Packet.transport with
            | Packet.Udp_dgram { payload; _ } -> Ok payload
            | Packet.Icmp_msg _ | Packet.Tcp_seg _ | Packet.Raw_payload _ ->
                Ok (Packet.encode pkt)))

let connect_socket m task sock addr port =
  if sock.stype <> Sock_stream then Error Errno.EINVAL
  else if sock.conn <> None then Error Errno.EINVAL
  else if sock.sock_netns <> 0 && not (Ipaddr.equal addr Ipaddr.localhost) then
    Error Errno.ENETUNREACH
  else if is_local m addr then
    match find_listener m ~netns:sock.sock_netns port with
    | None -> Error Errno.ECONNREFUSED
    | Some server ->
        let accepted = fresh_socket m task sock.domain Sock_stream sock.sproto in
        (* The accepted endpoint lives in the server's accept backlog, not
           in the global port table (it shares the listener's address). *)
        m.sockets <- List.filter (fun s -> s != accepted) m.sockets;
        let client_port = ephemeral m in
        accepted.bound <- server.bound;
        accepted.conn <- Some (Conn_local sock);
        sock.bound <- Some (Ipaddr.localhost, client_port);
        sock.conn <- Some (Conn_local accepted);
        (* A SYN traverses OUTPUT so connection attempts are filterable. *)
        let syn =
          { Packet.src = Ipaddr.localhost; dst = addr; ttl = 64;
            transport = Packet.Tcp_seg { src_port = client_port; dst_port = port;
                                         syn = true; payload = "" } }
        in
        (match egress m task sock syn with
        | Ok () -> Ok (Some accepted)
        | Error _ as e ->
            sock.conn <- None;
            accepted.closed <- true;
            (match e with Error err -> Error err | Ok _ -> assert false))
  else
    match find_remote m addr with
    | Some rh when List.mem port rh.rh_tcp_open_ports ->
        if Route.lookup m.routes addr = None then Error Errno.ENETUNREACH
        else
          let client_port = ephemeral m in
          let syn =
            { Packet.src = Ipaddr.localhost; dst = addr; ttl = 64;
              transport = Packet.Tcp_seg { src_port = client_port; dst_port = port;
                                           syn = true; payload = "" } }
          in
          (match egress m task sock syn with
          | Error _ as e -> (match e with Error err -> Error err | Ok _ -> assert false)
          | Ok () ->
              sock.bound <- Some (Ipaddr.localhost, client_port);
              sock.conn <- Some (Conn_remote { r_addr = addr; r_port = port });
              Ok None)
    | Some _ -> Error Errno.ECONNREFUSED
    | None -> Error Errno.EHOSTUNREACH

let send_stream _m _task sock data =
  if sock.closed then Error Errno.EBADF
  else
    match sock.conn with
    | None -> Error Errno.EPIPE
    | Some (Conn_local peer) ->
        if peer.closed then Error Errno.EPIPE
        else (
          Buffer.add_string peer.stream_buf data;
          Ok (String.length data))
    | Some (Conn_remote _) ->
        (* Simulated remote echo service: data comes straight back. *)
        Buffer.add_string sock.stream_buf data;
        Ok (String.length data)

let recv_stream _m _task sock maxlen =
  if sock.closed then Error Errno.EBADF
  else if sock.conn = None then Error Errno.EINVAL
  else
    let available = Buffer.length sock.stream_buf in
    let n = min available maxlen in
    let data = Buffer.sub sock.stream_buf 0 n in
    let rest = Buffer.sub sock.stream_buf n (available - n) in
    Buffer.clear sock.stream_buf;
    Buffer.add_string sock.stream_buf rest;
    Ok data

let close_socket m sock =
  sock.closed <- true;
  m.sockets <- List.filter (fun s -> s != sock) m.sockets

let socketpair m task =
  let a = fresh_socket m task Af_unix Sock_stream 0 in
  let b = fresh_socket m task Af_unix Sock_stream 0 in
  a.conn <- Some (Conn_local b);
  b.conn <- Some (Conn_local a);
  Ok (a, b)
