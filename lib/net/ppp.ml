type phase = Dead | Establish | Authenticate | Network | Running

type option_ =
  | Compression of string
  | Async_map of int
  | Mru of int
  | Accomp
  | Default_route
  | Modem_line_speed of int
  | Modem_flow_control of string

let option_is_safe = function
  | Compression _ | Async_map _ | Mru _ | Accomp -> true
  | Default_route | Modem_line_speed _ | Modem_flow_control _ -> false

let option_to_string = function
  | Compression alg -> "compress " ^ alg
  | Async_map m -> Printf.sprintf "asyncmap %d" m
  | Mru n -> Printf.sprintf "mru %d" n
  | Accomp -> "accomp"
  | Default_route -> "defaultroute"
  | Modem_line_speed n -> Printf.sprintf "speed %d" n
  | Modem_flow_control s -> "flowcontrol " ^ s

let option_of_string s =
  match String.split_on_char ' ' (String.trim s) with
  | [ "compress"; alg ] -> Some (Compression alg)
  | [ "asyncmap"; n ] -> Option.map (fun m -> Async_map m) (int_of_string_opt n)
  | [ "mru"; n ] -> Option.map (fun m -> Mru m) (int_of_string_opt n)
  | [ "accomp" ] -> Some Accomp
  | [ "defaultroute" ] -> Some Default_route
  | [ "speed"; n ] -> Option.map (fun m -> Modem_line_speed m) (int_of_string_opt n)
  | [ "flowcontrol"; s ] -> Some (Modem_flow_control s)
  | _ -> None

type t = {
  name : string;
  serial_device : string;
  mutable phase : phase;
  mutable local_ip : Ipaddr.t option;
  mutable remote_ip : Ipaddr.t option;
  mutable options : option_ list;
  owner_uid : int;
}

let create ~name ~serial_device ~owner_uid =
  { name; serial_device; phase = Dead; local_ip = None; remote_ip = None;
    options = []; owner_uid }

let advance t =
  let next =
    match t.phase with
    | Dead -> Establish
    | Establish -> Authenticate
    | Authenticate -> Network
    | Network -> Running
    | Running -> Running
  in
  t.phase <- next;
  next

let establish t ~local_ip ~remote_ip =
  t.local_ip <- Some local_ip;
  t.remote_ip <- Some remote_ip;
  let rec run () = if t.phase <> Running then (ignore (advance t); run ()) in
  run ()

let is_up t = t.phase = Running
