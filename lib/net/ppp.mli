(** Point-to-point protocol link model (§4.1.2).

    A PPP link is brought up over a serial device by pppd.  The model keeps
    the LCP-style phase machine and the session options, and classifies each
    option as safe (settable by any user: compression, congestion-control
    session parameters) or privileged (hardware/modem configuration, which
    the kernel policy gates). *)

type phase = Dead | Establish | Authenticate | Network | Running

type option_ =
  | Compression of string      (** e.g. "deflate", "bsdcomp" — safe *)
  | Async_map of int           (** control-character escape map — safe *)
  | Mru of int                 (** max receive unit — safe *)
  | Accomp                     (** address/control compression — safe *)
  | Default_route              (** install default route — privileged decision *)
  | Modem_line_speed of int    (** modem hardware config — privileged *)
  | Modem_flow_control of string (** modem hardware config — privileged *)

val option_is_safe : option_ -> bool
val option_to_string : option_ -> string
val option_of_string : string -> option_ option

type t = {
  name : string;                        (** interface name, e.g. "ppp0" *)
  serial_device : string;               (** backing tty, e.g. "/dev/ttyS0" *)
  mutable phase : phase;
  mutable local_ip : Ipaddr.t option;
  mutable remote_ip : Ipaddr.t option;
  mutable options : option_ list;
  owner_uid : int;
}

val create : name:string -> serial_device:string -> owner_uid:int -> t

val advance : t -> phase
(** Step the phase machine one transition (Dead -> Establish ->
    Authenticate -> Network -> Running); returns the new phase. *)

val establish : t -> local_ip:Ipaddr.t -> remote_ip:Ipaddr.t -> unit
(** Drive the link all the way to [Running] with negotiated addresses. *)

val is_up : t -> bool
