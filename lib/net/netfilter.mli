(** Netfilter: packet-filtering tables, chains, rules and verdicts.

    Protego's §4.1.1 extension adds an [Origin_raw] / [Origin_packet] match so
    that rules can apply only to packets whose headers were hand-built by an
    unprivileged application over a raw or packet socket.  The stock matches
    (protocol, addresses, ports, owner) follow iptables semantics: a rule
    fires when all its matches hold; the first firing rule's target is the
    verdict; otherwise the chain's policy applies. *)

type verdict = Accept | Drop | Reject

val verdict_to_string : verdict -> string
(** ["ACCEPT"], ["DROP"] or ["REJECT"]. *)

type chain = Input | Output | Forward

type match_ =
  | Proto of Packet.proto
  | Src of Ipaddr.Cidr.t
  | Dst of Ipaddr.Cidr.t
  | Dst_port of { lo : int; hi : int }
  | Src_port of { lo : int; hi : int }
  | Icmp_type of Packet.icmp_type
  | Tcp_syn       (** TCP segments with only SYN set (tcptraceroute probes) *)
  | Owner_uid of int
  | Origin_raw     (** Protego extension: packet from an unprivileged raw socket *)
  | Origin_packet  (** Protego extension: packet from an unprivileged packet socket *)

type rule = { matches : match_ list; target : verdict; comment : string }

type t
(** One netfilter table (the simulator models the [filter] table). *)

val create : ?input_policy:verdict -> ?output_policy:verdict ->
  ?forward_policy:verdict -> unit -> t

val append : t -> chain -> rule -> unit
val insert : t -> chain -> rule -> unit
(** [insert] puts the rule at the head of the chain (iptables -I). *)

val flush : t -> chain -> unit
val rules : t -> chain -> rule list
val set_policy : t -> chain -> verdict -> unit
val policy : t -> chain -> verdict

val generation : t -> int
(** Bumped by every {!append}, {!insert}, {!flush} and {!set_policy}, on
    any chain: the staleness stamp of verdicts cached from this table.
    Starts at 0. *)

val matches_packet : match_ -> Packet.t -> origin:Packet.origin -> bool

val eval : t -> chain -> Packet.t -> origin:Packet.origin -> verdict
(** Walk the chain; first rule whose matches all hold decides.  On the
    [Output] chain, an installed override (see {!set_output_override})
    takes the place of the walk. *)

val walk : t -> chain -> Packet.t -> origin:Packet.origin -> verdict
(** The raw reference walk, never routed through the override.  This is
    the oracle the compiled filter-machine path is differentially tested
    against. *)

val set_output_override :
  t -> (Packet.t -> origin:Packet.origin -> verdict) option -> unit
(** Interpose on [Output]-chain evaluation.  Protego installs its
    filter-machine dispatcher here so the egress hot path runs compiled
    programs; the override must be behaviourally identical to {!walk}. *)

val rule_to_spec : rule -> string
(** iptables-save-like one-line form, parseable by {!rule_of_spec}. *)

val rule_of_spec : string -> (rule, string) result
(** Parse a specification such as
    ["-p icmp --icmp-type echo-request --origin raw -j ACCEPT # ping"]. *)
