(** In-kernel network stack: socket lifecycle, packet egress through
    netfilter, loopback and simulated-remote delivery.

    The {!Syscall} layer calls into this module; the LSM hooks
    ([socket_create], [socket_bind], [socket_sendmsg]) are invoked here so
    the call sites match where Linux places them. *)

open Protego_base

val set_packet_work_iterations : int -> unit
(** Calibrate (or zero, for unit tests) the fixed per-packet processing cost
    that models protocol work the simulator otherwise lacks.  Default
    2500 iterations.  One iteration is 0.66 of a {!Cost.chain} hop (a
    dependent L1 load), about 1.5 ns on a 2-core x86-64 development
    host, so the default costs about 3.7 µs there whatever the code's
    placement.  Negative counts as 0. *)

val create_socket :
  Ktypes.machine -> Ktypes.task -> Ktypes.sock_domain -> Ktypes.sock_type ->
  int -> (Ktypes.socket, Errno.t) result
(** Runs the [socket_create] LSM hook.  A raw or packet socket created by a
    task without [CAP_NET_RAW] (possible only when the active LSM permits it,
    i.e. under Protego) is marked [unpriv_raw]: its traffic is subject to the
    extra netfilter origin rules (§4.1.1). *)

val bind_socket :
  Ktypes.machine -> Ktypes.task -> Ktypes.socket -> Protego_net.Ipaddr.t ->
  int -> (unit, Errno.t) result
(** Address conflict check ([EADDRINUSE]) then the [socket_bind] hook. *)

val listen_socket :
  Ktypes.machine -> Ktypes.task -> Ktypes.socket -> (unit, Errno.t) result

val connect_socket :
  Ktypes.machine -> Ktypes.task -> Ktypes.socket -> Protego_net.Ipaddr.t ->
  int -> (Ktypes.socket option, Errno.t) result
(** Connect a stream socket.  For a loopback destination, finds the listening
    socket and returns the server-side accepted socket (so tests can drive
    both ends); for a simulated remote host, checks the port is open. *)

val send_stream :
  Ktypes.machine -> Ktypes.task -> Ktypes.socket -> string ->
  (int, Errno.t) result

val recv_stream :
  Ktypes.machine -> Ktypes.task -> Ktypes.socket -> int ->
  (string, Errno.t) result

val sendto :
  Ktypes.machine -> Ktypes.task -> Ktypes.socket -> Protego_net.Ipaddr.t ->
  int -> string -> (int, Errno.t) result
(** Datagram / raw send.  On a raw or packet socket the payload must be an
    {!Protego_net.Packet.encode}d packet — the application builds the headers
    itself.  The packet passes the [socket_sendmsg] LSM hook, then the
    netfilter OUTPUT chain with the socket's origin, then routing; replies
    from simulated remote hosts are delivered back through INPUT. *)

val recvfrom :
  Ktypes.machine -> Ktypes.task -> Ktypes.socket ->
  (string, Errno.t) result
(** Dequeue one datagram (encoded packet for raw sockets, payload for UDP);
    [EAGAIN] when empty. *)

val close_socket : Ktypes.machine -> Ktypes.socket -> unit

val deliver_inbound :
  ?netns:int -> Ktypes.machine -> Protego_net.Packet.t -> unit
(** Inject a packet as if it arrived from the network: INPUT chain, then
    delivery to matching local sockets of the given network namespace
    (default: the initial one).  Used by tests and by the remote-host
    simulation. *)

val socketpair :
  Ktypes.machine -> Ktypes.task -> (Ktypes.socket * Ktypes.socket, Errno.t) result
(** A connected AF_UNIX stream pair. *)
