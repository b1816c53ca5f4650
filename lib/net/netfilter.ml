type verdict = Accept | Drop | Reject
type chain = Input | Output | Forward

type match_ =
  | Proto of Packet.proto
  | Src of Ipaddr.Cidr.t
  | Dst of Ipaddr.Cidr.t
  | Dst_port of { lo : int; hi : int }
  | Src_port of { lo : int; hi : int }
  | Icmp_type of Packet.icmp_type
  | Tcp_syn
  | Owner_uid of int
  | Origin_raw
  | Origin_packet

type rule = { matches : match_ list; target : verdict; comment : string }

type t = {
  mutable input : rule list;
  mutable output : rule list;
  mutable forward : rule list;
  mutable input_policy : verdict;
  mutable output_policy : verdict;
  mutable forward_policy : verdict;
  mutable output_override :
    (Packet.t -> origin:Packet.origin -> verdict) option;
  mutable generation : int;  (* bumped by every rule or policy change *)
}

let create ?(input_policy = Accept) ?(output_policy = Accept)
    ?(forward_policy = Accept) () =
  { input = []; output = []; forward = [];
    input_policy; output_policy; forward_policy; output_override = None;
    generation = 0 }

let set_output_override t f = t.output_override <- f

let generation t = t.generation
let bump t = t.generation <- t.generation + 1

let append t chain rule =
  bump t;
  match chain with
  | Input -> t.input <- t.input @ [ rule ]
  | Output -> t.output <- t.output @ [ rule ]
  | Forward -> t.forward <- t.forward @ [ rule ]

let insert t chain rule =
  bump t;
  match chain with
  | Input -> t.input <- rule :: t.input
  | Output -> t.output <- rule :: t.output
  | Forward -> t.forward <- rule :: t.forward

let flush t chain =
  bump t;
  match chain with
  | Input -> t.input <- []
  | Output -> t.output <- []
  | Forward -> t.forward <- []

let rules t = function
  | Input -> t.input
  | Output -> t.output
  | Forward -> t.forward

let set_policy t chain v =
  bump t;
  match chain with
  | Input -> t.input_policy <- v
  | Output -> t.output_policy <- v
  | Forward -> t.forward_policy <- v

let policy t = function
  | Input -> t.input_policy
  | Output -> t.output_policy
  | Forward -> t.forward_policy

let origin_uid = function
  | Packet.Kernel_stack -> None
  | Packet.Raw_app { uid } | Packet.Packet_app { uid } -> Some uid

let matches_packet m (pkt : Packet.t) ~origin =
  match m with
  | Proto p -> Packet.proto_of_transport pkt.transport = p
  | Src cidr -> Ipaddr.Cidr.mem pkt.src cidr
  | Dst cidr -> Ipaddr.Cidr.mem pkt.dst cidr
  | Dst_port { lo; hi } -> (
      match Packet.dst_port pkt with Some p -> p >= lo && p <= hi | None -> false)
  | Src_port { lo; hi } -> (
      match Packet.src_port pkt with Some p -> p >= lo && p <= hi | None -> false)
  | Icmp_type ty -> (
      match pkt.transport with
      | Packet.Icmp_msg { icmp_type; _ } -> icmp_type = ty
      | Packet.Tcp_seg _ | Packet.Udp_dgram _ | Packet.Raw_payload _ -> false)
  | Tcp_syn -> (
      match pkt.transport with
      | Packet.Tcp_seg { syn; payload; _ } -> syn && payload = ""
      | Packet.Icmp_msg _ | Packet.Udp_dgram _ | Packet.Raw_payload _ -> false)
  | Owner_uid uid -> ( match origin_uid origin with Some u -> u = uid | None -> false)
  | Origin_raw -> ( match origin with Packet.Raw_app _ -> true | _ -> false)
  | Origin_packet -> ( match origin with Packet.Packet_app _ -> true | _ -> false)

let walk t chain pkt ~origin =
  let chain_rules = rules t chain in
  let rec go = function
    | [] -> policy t chain
    | r :: rest ->
        if List.for_all (fun m -> matches_packet m pkt ~origin) r.matches then r.target
        else go rest
  in
  go chain_rules

let eval t chain pkt ~origin =
  match (chain, t.output_override) with
  | Output, Some f -> f pkt ~origin
  | (Output | Input | Forward), _ -> walk t chain pkt ~origin

let verdict_to_string = function
  | Accept -> "ACCEPT"
  | Drop -> "DROP"
  | Reject -> "REJECT"

let verdict_of_string = function
  | "ACCEPT" -> Some Accept
  | "DROP" -> Some Drop
  | "REJECT" -> Some Reject
  | _ -> None

let match_to_spec = function
  | Proto p -> Printf.sprintf "-p %s" (Packet.proto_to_string p)
  | Src c -> Printf.sprintf "-s %s" (Ipaddr.Cidr.to_string c)
  | Dst c -> Printf.sprintf "-d %s" (Ipaddr.Cidr.to_string c)
  | Dst_port { lo; hi } ->
      if lo = hi then Printf.sprintf "--dport %d" lo
      else Printf.sprintf "--dport %d:%d" lo hi
  | Src_port { lo; hi } ->
      if lo = hi then Printf.sprintf "--sport %d" lo
      else Printf.sprintf "--sport %d:%d" lo hi
  | Icmp_type ty -> Printf.sprintf "--icmp-type %s" (Packet.icmp_type_to_string ty)
  | Tcp_syn -> "--syn"
  | Owner_uid uid -> Printf.sprintf "--uid-owner %d" uid
  | Origin_raw -> "--origin raw"
  | Origin_packet -> "--origin packet"

let rule_to_spec r =
  let matches = List.map match_to_spec r.matches in
  let base = String.concat " " (matches @ [ "-j"; verdict_to_string r.target ]) in
  if String.equal r.comment "" then base else base ^ " # " ^ r.comment

let parse_port_range s =
  match String.index_opt s ':' with
  | None ->
      Option.map (fun p -> (p, p)) (int_of_string_opt s)
  | Some i -> (
      let lo = String.sub s 0 i and hi = String.sub s (i + 1) (String.length s - i - 1) in
      match (int_of_string_opt lo, int_of_string_opt hi) with
      | Some lo, Some hi -> Some (lo, hi)
      | _, _ -> None)

let rule_of_spec spec =
  let spec, comment =
    match String.index_opt spec '#' with
    | None -> (spec, "")
    | Some i ->
        ( String.sub spec 0 i,
          String.trim (String.sub spec (i + 1) (String.length spec - i - 1)) )
  in
  let tokens =
    String.split_on_char ' ' spec |> List.filter (fun s -> s <> "")
  in
  let rec parse matches target = function
    | [] -> (
        match target with
        | Some t -> Ok { matches = List.rev matches; target = t; comment }
        | None -> Error "missing -j target")
    | "-p" :: v :: rest -> (
        match Packet.proto_of_string v with
        | Some p -> parse (Proto p :: matches) target rest
        | None -> Error ("bad protocol: " ^ v))
    | "-s" :: v :: rest -> (
        match Ipaddr.Cidr.of_string v with
        | Some c -> parse (Src c :: matches) target rest
        | None -> Error ("bad source prefix: " ^ v))
    | "-d" :: v :: rest -> (
        match Ipaddr.Cidr.of_string v with
        | Some c -> parse (Dst c :: matches) target rest
        | None -> Error ("bad destination prefix: " ^ v))
    | "--dport" :: v :: rest -> (
        match parse_port_range v with
        | Some (lo, hi) -> parse (Dst_port { lo; hi } :: matches) target rest
        | None -> Error ("bad port range: " ^ v))
    | "--sport" :: v :: rest -> (
        match parse_port_range v with
        | Some (lo, hi) -> parse (Src_port { lo; hi } :: matches) target rest
        | None -> Error ("bad port range: " ^ v))
    | "--syn" :: rest -> parse (Tcp_syn :: matches) target rest
    | "--icmp-type" :: v :: rest -> (
        match Packet.icmp_type_of_string v with
        | Some ty -> parse (Icmp_type ty :: matches) target rest
        | None -> Error ("bad icmp type: " ^ v))
    | "--uid-owner" :: v :: rest -> (
        match int_of_string_opt v with
        | Some uid -> parse (Owner_uid uid :: matches) target rest
        | None -> Error ("bad uid: " ^ v))
    | "--origin" :: "raw" :: rest -> parse (Origin_raw :: matches) target rest
    | "--origin" :: "packet" :: rest -> parse (Origin_packet :: matches) target rest
    | "-j" :: v :: rest -> (
        match verdict_of_string v with
        | Some t -> parse matches (Some t) rest
        | None -> Error ("bad target: " ^ v))
    | tok :: _ -> Error ("unknown token: " ^ tok)
  in
  parse [] None tokens
