(** Network packet model.

    Only the fields that the paper's policies inspect are modelled: protocol,
    addresses, ports, ICMP type, and whether the packet was hand-built by an
    application over a raw or packet socket (§4.1.1). *)

type icmp_type =
  | Echo_request
  | Echo_reply
  | Dest_unreachable
  | Time_exceeded
  | Timestamp_request
  | Timestamp_reply
  | Address_mask_request
  | Redirect

type proto = Icmp | Tcp | Udp | Other of int

type transport =
  | Icmp_msg of { icmp_type : icmp_type; code : int; payload : string }
  | Tcp_seg of { src_port : int; dst_port : int; syn : bool; payload : string }
  | Udp_dgram of { src_port : int; dst_port : int; payload : string }
  | Raw_payload of { protocol : int; payload : string }

type t = {
  src : Ipaddr.t;
  dst : Ipaddr.t;
  ttl : int;
  transport : transport;
}

(** Where a packet's headers were built — by the kernel's own TCP/UDP
    implementation, or by an application through a raw/packet socket.  The
    Protego netfilter extension keys its extra rules off this origin. *)
type origin = Kernel_stack | Raw_app of { uid : int } | Packet_app of { uid : int }

val proto_of_transport : transport -> proto
val proto_to_string : proto -> string
val proto_of_string : string -> proto option
val icmp_type_to_string : icmp_type -> string
val icmp_type_of_string : string -> icmp_type option
val icmp_type_code : icmp_type -> int
val icmp_type_of_code : int -> icmp_type option

val echo_request : src:Ipaddr.t -> dst:Ipaddr.t -> ?ttl:int -> seq:int -> unit -> t
(** Convenience constructor for a ping probe (payload encodes [seq]). *)

val echo_reply_to : t -> t option
(** The reply a remote host would send to an echo request, or [None] if the
    packet is not an echo request. *)

val dst_port : t -> int option
val src_port : t -> int option

(** Wire form: a length-prefixed byte encoding, used by the raw socket path
    so applications really do construct headers themselves. *)
val encode : t -> string

val decode : string -> t option
(** [None] for a malformed header, including a TCP/UDP port or a raw
    protocol number outside 0..65535 (a raw socket's [sendto] then
    returns EINVAL). *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
