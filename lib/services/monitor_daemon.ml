open Protego_kernel
open Ktypes
module Fstab = Protego_policy.Fstab
module Sudoers = Protego_policy.Sudoers
module Polkit = Protego_policy.Polkit
module Pwdb = Protego_policy.Pwdb

type t = {
  m : machine;
  task : task;
  mutable self_writes : string list;  (* paths we write; ignore their events *)
}

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let flag_to_opt = function
  | Mf_readonly -> "ro"
  | Mf_nosuid -> "nosuid"
  | Mf_nodev -> "nodev"
  | Mf_noexec -> "noexec"

(* /etc/fstab user entries -> /proc/protego/mount_whitelist grammar. *)
let sync_fstab t =
  let m = t.m in
  match Syscall.read_file m t.task "/etc/fstab" with
  | Error _ -> ()
  | Ok contents -> (
      match Fstab.parse contents with
      | Error msg -> log_dmesg m "monitord: fstab parse error: %s" msg
      | Ok entries ->
          let rules =
            entries
            |> List.filter Fstab.user_mountable
            |> List.filter_map (fun e ->
                   let flags = Fstab.mount_flags e in
                   let flags_s =
                     match flags with
                     | [] -> "-"
                     | fs -> String.concat "," (List.map flag_to_opt fs)
                   in
                   let mode =
                     if List.mem "users" e.Fstab.fs_mntops then "users" else "user"
                   in
                   match Fstab.phase_guard e with
                   | Error msg ->
                       (* Shipping the entry without its guard would widen
                          it; dropping is the tighten-only failure mode. *)
                       log_dmesg m "monitord: %s: dropping %s" msg
                         e.Fstab.fs_file;
                       None
                   | Ok g ->
                       let guard_s =
                         match g with
                         | Protego_base.Phase.Always -> ""
                         | g -> " " ^ Protego_base.Phase.guard_to_string g
                       in
                       Some
                         (Printf.sprintf "allow %s %s %s %s %s%s"
                            e.Fstab.fs_spec e.Fstab.fs_file e.Fstab.fs_vfstype
                            flags_s mode guard_s))
          in
          ignore
            (Syscall.write_file m t.task "/proc/protego/mount_whitelist"
               (String.concat "\n" rules ^ "\n")))

let sync_sudoers t =
  let m = t.m in
  match Syscall.read_file m t.task "/etc/sudoers" with
  | Error _ -> ()
  | Ok main -> (
      match Sudoers.parse main with
      | Error msg -> log_dmesg m "monitord: sudoers parse error: %s" msg
      | Ok parsed ->
          let extra_files =
            List.concat_map
              (fun dir ->
                match Syscall.readdir m t.task dir with
                | Ok names -> List.map (fun n -> dir ^ "/" ^ n) names
                | Error _ -> [])
              parsed.Sudoers.includedirs
          in
          let merged =
            List.fold_left
              (fun acc path ->
                match Syscall.read_file m t.task path with
                | Error _ -> acc
                | Ok contents -> (
                    match Sudoers.parse contents with
                    | Ok extra -> Sudoers.merge acc extra
                    | Error msg ->
                        log_dmesg m "monitord: %s parse error: %s" path msg;
                        acc))
              parsed extra_files
          in
          (* PolicyKit rules are explicated in the same delegation
             language (§4.3). *)
          let polkit_rules =
            match Syscall.readdir m t.task "/etc/polkit-1/rules.d" with
            | Error _ -> []
            | Ok names ->
                List.concat_map
                  (fun name ->
                    match
                      Syscall.read_file m t.task
                        ("/etc/polkit-1/rules.d/" ^ name)
                    with
                    | Error _ -> []
                    | Ok contents -> (
                        match Polkit.parse contents with
                        | Ok rules -> Polkit.to_sudoers_rules rules
                        | Error msg ->
                            log_dmesg m "monitord: polkit %s: %s" name msg;
                            []))
                  (List.sort compare names)
          in
          let merged =
            { merged with Sudoers.rules = merged.Sudoers.rules @ polkit_rules }
          in
          ignore
            (Syscall.write_file m t.task "/proc/protego/delegation"
               (Sudoers.to_string merged)))

let sync_bind t =
  let m = t.m in
  match Syscall.read_file m t.task "/etc/bind" with
  | Error _ -> ()
  | Ok contents ->
      ignore (Syscall.write_file m t.task "/proc/protego/bind_map" contents)

let sync_ppp t =
  let m = t.m in
  match Syscall.read_file m t.task "/etc/ppp/options" with
  | Error _ -> ()
  | Ok contents ->
      ignore (Syscall.write_file m t.task "/proc/protego/ppp_policy" contents)

let read_fragment_dir t dir parse_entry =
  let m = t.m in
  match Syscall.readdir m t.task dir with
  | Error _ -> []
  | Ok names ->
      List.filter_map
        (fun name ->
          match Syscall.read_file m t.task (dir ^ "/" ^ name) with
          | Error _ -> None
          | Ok contents -> (
              match parse_entry (String.trim contents) with
              | Ok e -> Some e
              | Error msg ->
                  log_dmesg m "monitord: bad fragment %s/%s: %s" dir name msg;
                  None))
        names

let self_write t path contents =
  t.self_writes <- path :: t.self_writes;
  ignore (Syscall.write_file t.m t.task path contents)

(* Fragments -> kernel accounts grammar + regenerated legacy files. *)
let sync_accounts t =
  let users = read_fragment_dir t "/etc/passwds" Pwdb.parse_passwd_entry in
  let groups = read_fragment_dir t "/etc/groups" Pwdb.parse_group_entry in
  let shadows = read_fragment_dir t "/etc/shadows" Pwdb.parse_shadow_entry in
  if users <> [] then begin
    let csv_or_dash = function [] -> "-" | l -> String.concat "," l in
    let user_line (u : Pwdb.passwd_entry) =
      let supplementary =
        List.filter_map
          (fun (g : Pwdb.group_entry) ->
            if List.mem u.Pwdb.pw_name g.Pwdb.gr_members then
              Some g.Pwdb.gr_name
            else None)
          groups
      in
      Printf.sprintf "user %s %d %d %s" u.Pwdb.pw_name u.Pwdb.pw_uid
        u.Pwdb.pw_gid (csv_or_dash supplementary)
    in
    let group_line (g : Pwdb.group_entry) =
      Printf.sprintf "group %s %d %s%s" g.Pwdb.gr_name g.Pwdb.gr_gid
        (csv_or_dash g.Pwdb.gr_members)
        (match g.Pwdb.gr_password with Some h -> " " ^ h | None -> "")
    in
    let accounts =
      String.concat "\n" (List.map user_line users @ List.map group_line groups)
      ^ "\n"
    in
    ignore (Syscall.write_file t.m t.task "/proc/protego/accounts" accounts);
    (* Regenerate the legacy shared databases for unmodified applications. *)
    self_write t "/etc/passwd" (Pwdb.passwd_to_string users);
    if groups <> [] then self_write t "/etc/group" (Pwdb.group_to_string groups);
    if shadows <> [] then
      self_write t "/etc/shadow" (Pwdb.shadow_to_string shadows)
  end

let sync_all t =
  sync_fstab t;
  sync_sudoers t;
  sync_bind t;
  sync_ppp t;
  sync_accounts t

let start m =
  let cred = Cred.make ~uid:0 ~gid:0 () in
  let task = Machine.spawn_task m ~cred ~cwd:"/" () in
  task.exe_path <- "/usr/sbin/protego-monitord";
  let t = { m; task; self_writes = [] } in
  sync_all t;
  (* The initial sync's own events are stale; discard them. *)
  Queue.clear m.fs_events;
  t.self_writes <- [];
  t

let relevant_sync t path =
  if List.mem path t.self_writes then None
  else if path = "/etc/fstab" then Some sync_fstab
  else if
    path = "/etc/sudoers"
    || has_prefix ~prefix:"/etc/sudoers.d/" path
    || has_prefix ~prefix:"/etc/polkit-1/" path
  then Some sync_sudoers
  else if path = "/etc/bind" then Some sync_bind
  else if path = "/etc/ppp/options" then Some sync_ppp
  else if
    has_prefix ~prefix:"/etc/passwds/" path
    || has_prefix ~prefix:"/etc/groups/" path
    || has_prefix ~prefix:"/etc/shadows/" path
  then Some sync_accounts
  else None

let step t =
  let m = t.m in
  let actions = ref [] in
  let rec drain () =
    match Queue.take_opt m.fs_events with
    | None -> ()
    | Some ev ->
        (match relevant_sync t ev.ev_path with
        | Some sync ->
            if not (List.memq sync !actions) then actions := sync :: !actions
        | None -> ());
        drain ()
  in
  drain ();
  t.self_writes <- [];
  List.iter (fun sync -> sync t) (List.rev !actions);
  (* Our own syncs just queued events; swallow the ones we caused. *)
  let leftover = Queue.create () in
  Queue.transfer m.fs_events leftover;
  Queue.iter
    (fun ev -> if not (List.mem ev.ev_path t.self_writes) then Queue.add ev m.fs_events)
    leftover;
  t.self_writes <- [];
  List.length !actions
