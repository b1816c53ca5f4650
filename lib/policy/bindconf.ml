open Protego_base

type proto = Tcp | Udp

type entry = {
  port : int;
  proto : proto;
  exe : string;
  owner : int;
  phase : Phase.guard;
}

let proto_to_string = function Tcp -> "tcp" | Udp -> "udp"
let proto_of_string = function "tcp" -> Some Tcp | "udp" -> Some Udp | _ -> None

let parse_gen ~strict contents =
  let lines = String.split_on_char '\n' contents in
  (* (port, proto) pairs already claimed: the strict duplicate check. *)
  let claimed = Hashtbl.create 64 in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        let fields =
          String.split_on_char ' ' (String.trim line)
          |> List.filter (fun s -> s <> "")
        in
        let trimmed = String.trim line in
        if trimmed = "" || trimmed.[0] = '#' then go acc rest
        else
          let with_guard port_s proto_s exe owner_s phase =
            match
              (int_of_string_opt port_s, proto_of_string proto_s,
               int_of_string_opt owner_s)
            with
            | Some port, Some proto, Some owner ->
                if strict && (port < 1 || port >= 1024) then
                  Error ("bind: port out of privileged range: " ^ line)
                else if strict && Hashtbl.mem claimed (port, proto) then
                  Error (Printf.sprintf "bind: duplicate port %d" port)
                else begin
                  if strict then Hashtbl.replace claimed (port, proto) ();
                  go ({ port; proto; exe; owner; phase } :: acc) rest
                end
            | _, _, _ -> Error ("bind: malformed line: " ^ line)
          in
          match fields with
          | [ port_s; proto_s; exe; owner_s ] ->
              with_guard port_s proto_s exe owner_s Phase.Always
          | [ port_s; proto_s; exe; owner_s; guard_s ] -> (
              match Phase.parse_guard guard_s with
              | Some (Ok g) -> with_guard port_s proto_s exe owner_s g
              | Some (Error e) -> Error ("bind: " ^ e ^ ": " ^ line)
              | None -> Error ("bind: malformed line: " ^ line))
          | _ -> Error ("bind: malformed line: " ^ line))
  in
  go [] lines

let parse contents = parse_gen ~strict:true contents

let parse_lax contents = parse_gen ~strict:false contents

let to_string entries =
  let line e =
    let base =
      Printf.sprintf "%d %s %s %d" e.port (proto_to_string e.proto) e.exe
        e.owner
    in
    match e.phase with
    | Phase.Always -> base
    | g -> base ^ " " ^ Phase.guard_to_string g
  in
  String.concat "\n" (List.map line entries) ^ "\n"

let lookup ?phase entries ~port ~proto =
  List.find_opt
    (fun e ->
      e.port = port && e.proto = proto
      && match phase with None -> true | Some p -> Phase.active e.phase p)
    entries
