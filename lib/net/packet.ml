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

type origin = Kernel_stack | Raw_app of { uid : int } | Packet_app of { uid : int }

let proto_of_transport = function
  | Icmp_msg _ -> Icmp
  | Tcp_seg _ -> Tcp
  | Udp_dgram _ -> Udp
  | Raw_payload { protocol; _ } -> (
      match protocol with 1 -> Icmp | 6 -> Tcp | 17 -> Udp | p -> Other p)

let proto_to_string = function
  | Icmp -> "icmp"
  | Tcp -> "tcp"
  | Udp -> "udp"
  | Other n -> string_of_int n

let proto_of_string = function
  | "icmp" -> Some Icmp
  | "tcp" -> Some Tcp
  | "udp" -> Some Udp
  | s -> Option.map (fun n -> Other n) (int_of_string_opt s)

let icmp_type_to_string = function
  | Echo_request -> "echo-request"
  | Echo_reply -> "echo-reply"
  | Dest_unreachable -> "destination-unreachable"
  | Time_exceeded -> "time-exceeded"
  | Timestamp_request -> "timestamp-request"
  | Timestamp_reply -> "timestamp-reply"
  | Address_mask_request -> "address-mask-request"
  | Redirect -> "redirect"

let all_icmp_types =
  [ Echo_request; Echo_reply; Dest_unreachable; Time_exceeded;
    Timestamp_request; Timestamp_reply; Address_mask_request; Redirect ]

let icmp_type_of_string s =
  List.find_opt (fun t -> String.equal (icmp_type_to_string t) s) all_icmp_types

(* RFC 792 type numbers. *)
let icmp_type_code = function
  | Echo_reply -> 0
  | Dest_unreachable -> 3
  | Redirect -> 5
  | Echo_request -> 8
  | Time_exceeded -> 11
  | Timestamp_request -> 13
  | Timestamp_reply -> 14
  | Address_mask_request -> 17

let icmp_type_of_code n =
  List.find_opt (fun t -> icmp_type_code t = n) all_icmp_types

let echo_request ~src ~dst ?(ttl = 64) ~seq () =
  { src; dst; ttl;
    transport = Icmp_msg { icmp_type = Echo_request; code = 0;
                           payload = Printf.sprintf "seq=%d" seq } }

let echo_reply_to pkt =
  match pkt.transport with
  | Icmp_msg { icmp_type = Echo_request; code; payload } ->
      Some { src = pkt.dst; dst = pkt.src; ttl = 64;
             transport = Icmp_msg { icmp_type = Echo_reply; code; payload } }
  | Icmp_msg _ | Tcp_seg _ | Udp_dgram _ | Raw_payload _ -> None

let dst_port pkt =
  match pkt.transport with
  | Tcp_seg { dst_port; _ } | Udp_dgram { dst_port; _ } -> Some dst_port
  | Icmp_msg _ | Raw_payload _ -> None

let src_port pkt =
  match pkt.transport with
  | Tcp_seg { src_port; _ } | Udp_dgram { src_port; _ } -> Some src_port
  | Icmp_msg _ | Raw_payload _ -> None

(* Wire format: "ip4|<src>|<dst>|<ttl>|<transport...>" with payload last so
   it may contain arbitrary bytes except '|' separators before it. *)
let encode pkt =
  let header = Printf.sprintf "ip4|%s|%s|%d|" (Ipaddr.to_string pkt.src)
      (Ipaddr.to_string pkt.dst) pkt.ttl in
  let body =
    match pkt.transport with
    | Icmp_msg { icmp_type; code; payload } ->
        Printf.sprintf "icmp|%d|%d|%s" (icmp_type_code icmp_type) code payload
    | Tcp_seg { src_port; dst_port; syn; payload } ->
        Printf.sprintf "tcp|%d|%d|%d|%s" src_port dst_port (if syn then 1 else 0) payload
    | Udp_dgram { src_port; dst_port; payload } ->
        Printf.sprintf "udp|%d|%d|%s" src_port dst_port payload
    | Raw_payload { protocol; payload } ->
        Printf.sprintf "raw|%d|%s" protocol payload
  in
  header ^ body

let split_n s n =
  (* Split [s] on '|' into at most [n] fields; the last keeps any '|'. *)
  let rec go start k acc =
    if k = 1 then List.rev (String.sub s start (String.length s - start) :: acc)
    else
      match String.index_from_opt s start '|' with
      | None -> List.rev (String.sub s start (String.length s - start) :: acc)
      | Some i -> go (i + 1) (k - 1) (String.sub s start (i - start) :: acc)
  in
  if String.length s = 0 then [] else go 0 n []

(* Ports and a raw protocol number are 16-bit on the wire: a header
   field outside 0..65535 is malformed, not a large port. *)
let u16 s =
  match int_of_string_opt s with
  | Some n when n >= 0 && n <= 0xFFFF -> Some n
  | Some _ | None -> None

let decode s =
  match split_n s 5 with
  | [ "ip4"; src_s; dst_s; ttl_s; rest ] -> (
      match (Ipaddr.of_string src_s, Ipaddr.of_string dst_s, int_of_string_opt ttl_s) with
      | Some src, Some dst, Some ttl -> (
          let transport =
            match split_n rest 4 with
            | [ "icmp"; ty; code; payload ] -> (
                match (Option.bind (int_of_string_opt ty) icmp_type_of_code,
                       int_of_string_opt code) with
                | Some icmp_type, Some code ->
                    Some (Icmp_msg { icmp_type; code; payload })
                | _, _ -> None)
            | [ "tcp"; sp; dp; syn ] -> (
                (* syn field itself contains "syn|payload" split; re-split. *)
                match (u16 sp, u16 dp, split_n syn 2) with
                | Some src_port, Some dst_port, [ syn_s; payload ] -> (
                    match int_of_string_opt syn_s with
                    | Some f -> Some (Tcp_seg { src_port; dst_port; syn = f <> 0; payload })
                    | None -> None)
                | _, _, _ -> None)
            | [ "udp"; sp; dp; payload ] -> (
                match (u16 sp, u16 dp) with
                | Some src_port, Some dst_port ->
                    Some (Udp_dgram { src_port; dst_port; payload })
                | _, _ -> None)
            | "raw" :: proto :: rest_fields -> (
                let payload = String.concat "|" rest_fields in
                match u16 proto with
                | Some protocol -> Some (Raw_payload { protocol; payload })
                | None -> None)
            | _ -> None
          in
          Option.map (fun transport -> { src; dst; ttl; transport }) transport)
      | _, _, _ -> None)
  | _ -> None

let pp ppf pkt =
  let proto = proto_to_string (proto_of_transport pkt.transport) in
  let detail =
    match pkt.transport with
    | Icmp_msg { icmp_type; _ } -> icmp_type_to_string icmp_type
    | Tcp_seg { src_port; dst_port; syn; _ } ->
        Printf.sprintf "%d->%d%s" src_port dst_port (if syn then " SYN" else "")
    | Udp_dgram { src_port; dst_port; _ } -> Printf.sprintf "%d->%d" src_port dst_port
    | Raw_payload { protocol; _ } -> Printf.sprintf "proto=%d" protocol
  in
  Format.fprintf ppf "%s %s -> %s (%s, ttl=%d)" proto (Ipaddr.to_string pkt.src)
    (Ipaddr.to_string pkt.dst) detail pkt.ttl

let equal a b =
  Ipaddr.equal a.src b.src && Ipaddr.equal a.dst b.dst && a.ttl = b.ttl
  && a.transport = b.transport
