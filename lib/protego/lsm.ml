open Protego_base
open Protego_kernel
open Ktypes
module Netfilter = Protego_net.Netfilter
module Packet = Protego_net.Packet
module Sudoers = Protego_policy.Sudoers
module Bindconf = Protego_policy.Bindconf
module Pppopts = Protego_policy.Pppopts

type t = {
  machine : machine;
  state : Policy_state.t;
  dispatch : Pfm_dispatch.t;
}

let state t = t.state
let dispatch t = t.dispatch

(* True if the task's real uid authenticated within the delegation
   timeout; otherwise invokes the trusted authentication agent (if
   registered), which prompts on the task's terminal and updates
   [cred.last_auth]. *)
let ensure_recent_auth m (st : Policy_state.t) task =
  let timeout = st.delegation.Sudoers.timestamp_timeout in
  let task_fresh =
    match task.cred.last_auth with
    | Some at -> m.now -. at <= timeout
    | None -> false
  in
  let tty_fresh =
    (* sudo's rule: a password entered on this terminal within the timeout
       counts, whichever process entered it. *)
    match task.tty with
    | Some tty -> (
        match List.assoc_opt (tty, task.cred.ruid) m.tty_auth with
        | Some at -> m.now -. at <= timeout
        | None -> false)
    | None -> false
  in
  task_fresh || tty_fresh
  ||
  match m.auth_agent with
  | Some agent -> agent m task task.cred.ruid
  | None -> false

(* The hard-coded whitelist of safe packets from unprivileged raw/packet
   sockets, derived from the studied setuid binaries: ICMP echo and
   timestamp probes, traceroute UDP probes, ARP — then a terminal DROP
   for everything else of raw origin. *)
let default_raw_socket_rules =
  let rule matches target comment = { Netfilter.matches; target; comment } in
  [ rule [ Netfilter.Origin_raw; Netfilter.Proto Packet.Icmp;
           Netfilter.Icmp_type Packet.Echo_request ]
      Netfilter.Accept "ping probes";
    rule [ Netfilter.Origin_raw; Netfilter.Proto Packet.Icmp;
           Netfilter.Icmp_type Packet.Echo_reply ]
      Netfilter.Accept "ping replies";
    rule [ Netfilter.Origin_raw; Netfilter.Proto Packet.Icmp;
           Netfilter.Icmp_type Packet.Timestamp_request ]
      Netfilter.Accept "mtr timestamp probes";
    rule [ Netfilter.Origin_raw; Netfilter.Proto Packet.Udp;
           Netfilter.Dst_port { lo = 33434; hi = 33534 } ]
      Netfilter.Accept "traceroute probes";
    rule [ Netfilter.Origin_packet; Netfilter.Proto (Packet.Other 0x0806) ]
      Netfilter.Accept "arping ARP frames";
    rule [ Netfilter.Origin_raw ] Netfilter.Drop "unprivileged raw default";
    rule [ Netfilter.Origin_packet ] Netfilter.Drop "unprivileged packet default" ]

(* --- hooks ------------------------------------------------------------ *)

let stock = Security.stock_linux

(* Each filter-backed decision leaves one typed LSM decision record in
   the machine's audit journal: the fixed fields (time, pid, uid,
   subject, serving phase, engine code, span) plus the raw arguments,
   with nothing formatted on the hook path; {!Audit.records} rebuilds
   the audit text on read.  Record mode (/proc/protego/record) is not a
   second record: it is the record's verdict — 1 for a genuine allow, 3
   for a would-deny the permissive mode flipped — plus its record-mode
   flag, from which the read side renders the [record-<hook>]
   descriptor line.  A ppp ioctl and a netfilter OUTPUT decision leave
   a record only in record mode; the latter, with no calling task, is
   the kernel task's, with the origin's uid as its subject. *)
let verdict disp allowed =
  if Pfm_dispatch.last_recorded disp then 3 else if allowed then 1 else 0

(* A request hook's one step once the stock check has failed: decide
   [req] and leave its record (a ppp ioctl's only in record mode). *)
let decide disp st m task req =
  let allowed = Pfm_dispatch.decide disp ~phase:task.sec.phase st req in
  let record = Pfm_dispatch.record_mode disp in
  (match req with
   | Request.Ppp_ioctl _ when not record -> ()
   | _ ->
       Request.sink m.audit ~time:m.now ~pid:task.tpid ~uid:task.cred.ruid
         ~phase:(Phase.index task.sec.phase)
         ~engine:(Pfm_dispatch.decision_engine disp)
         ~span:(Pfm_dispatch.last_span_id disp) ~verdict:(verdict disp allowed)
         ~record req);
  allowed

let sb_mount disp st m task ~source ~target ~fstype ~flags =
  match stock.sb_mount m task ~source ~target ~fstype ~flags with
  | Ok () -> Ok ()
  | Error _ ->
      let target = Vfs.normalize ~cwd:task.cwd target in
      let subject = task.cred.ruid in
      let req = Request.Mount { subject; source; target; fstype; flags } in
      if decide disp st m task req then Ok () else Error Errno.EPERM

let sb_umount disp st m task ~target =
  match stock.sb_umount m task ~target with
  | Ok () -> Ok ()
  | Error _ -> (
      let target = Vfs.normalize ~cwd:task.cwd target in
      match Vfs.mounted_at m.mounts target with
      | [] -> Error Errno.EINVAL
      | mnt :: _ ->
          let req =
            Request.Umount
              { subject = task.cred.ruid; target; mounted_by = mnt.mnt_by }
          in
          if decide disp st m task req then Ok () else Error Errno.EPERM)

let socket_create _st _m _task _domain _stype _proto =
  (* Raw and packet sockets no longer require CAP_NET_RAW; Netstack marks
     them unprivileged and the netfilter origin rules confine their
     traffic. *)
  Ok ()

let socket_bind disp st m task sock _addr port =
  if sock.sock_netns <> 0 then Ok ()
  else if port = 0 || not (Security.privileged_port port) then Ok ()
  else if stock.capable m task Cap.CAP_NET_BIND_SERVICE then Ok ()
  else
    let proto =
      match sock.stype with
      | Sock_stream -> Some Bindconf.Tcp
      | Sock_dgram -> Some Bindconf.Udp
      | Sock_raw -> None
    in
    match proto with
    | None -> Error Errno.EACCES
    | Some proto ->
        let req =
          Request.Bind
            { subject = task.cred.euid; port; proto; exe = task.exe_path }
        in
        if decide disp st m task req then Ok () else Error Errno.EACCES

let names_for_delegation st task =
  match Policy_state.name_of_uid st task.cred.ruid with
  | None -> None
  | Some user -> Some (user, Policy_state.group_names_of_user st user)

(* Authenticate as required by a rule set: sudo-style rules want a recent
   proof of the *invoker's* identity; TARGETPW (su-style) rules want the
   *target's* password, asked fresh each time. *)
let auth_for m st task ~targetpw ~target_uid ~nopasswd =
  if nopasswd then true
  else if targetpw then
    match m.auth_agent with
    | Some agent -> agent m task target_uid
    | None -> false
  else ensure_recent_auth m st task

let delegation_view (st : Policy_state.t) ~targetpw =
  let wants r = List.mem Sudoers.Targetpw r.Sudoers.tags = targetpw in
  { st.delegation with
    Sudoers.rules = List.filter wants st.delegation.Sudoers.rules }

(* A setuid transition DAC refuses is judged against two rule families:
   sudo-style rules authenticated by the invoker's own password, and
   TARGETPW (su-style) rules authenticated by the target's.  Unrestricted
   transitions authenticate and apply immediately; command-restricted ones
   defer to exec (§4.3), where the specific command selects the rule — and
   with it the NOPASSWD/SETENV tags and which password to ask for. *)
let task_fix_setuid st m task ~target =
  if Security.setuid_allowed_by_dac task.cred ~target then Ok Setuid_apply
  else
    match (names_for_delegation st task, Policy_state.name_of_uid st target) with
    | None, _ | _, None -> Error Errno.EPERM
    | Some (user, groups), Some target_name -> (
        let self_view = delegation_view st ~targetpw:false in
        let target_view = delegation_view st ~targetpw:true in
        let self_bins =
          Sudoers.allowed_binaries self_view ~user ~groups ~target:target_name
        in
        let target_bins =
          Sudoers.allowed_binaries target_view ~user ~groups ~target:target_name
        in
        let audit allowed detail =
          Audit.emit m task ~op:"setuid"
            ~obj:(Printf.sprintf "%s -> %s (%s)" user target_name detail)
            ~allowed
        in
        match (self_bins, target_bins) with
        | `Nothing, `Nothing ->
            audit false "no rule";
            Error Errno.EPERM
        | `Unrestricted, _ ->
            let nopasswd =
              match
                Sudoers.check self_view ~user ~groups ~target:target_name
                  ~command:None
              with
              | Sudoers.Allowed { nopasswd; _ } -> nopasswd
              | Sudoers.Denied -> false
            in
            if auth_for m st task ~targetpw:false ~target_uid:target ~nopasswd
            then begin
              audit true "unrestricted";
              Ok Setuid_apply
            end
            else begin
              audit false "authentication failed";
              Error Errno.EPERM
            end
        | `Nothing, `Unrestricted ->
            (* Pure su: prove the target's identity, then switch fully. *)
            if auth_for m st task ~targetpw:true ~target_uid:target
                 ~nopasswd:false
            then begin
              audit true "target password";
              Ok Setuid_apply
            end
            else begin
              audit false "target authentication failed";
              Error Errno.EPERM
            end
        | (`Only _ | `Nothing), (`Only _ | `Unrestricted | `Nothing) ->
            let bins = function `Only l -> l | `Unrestricted | `Nothing -> [] in
            let gate =
              if target_bins = `Unrestricted then []
              else List.sort_uniq compare (bins self_bins @ bins target_bins)
            in
            audit true "deferred to exec";
            Ok
              (Setuid_defer
                 { ps_target = target; ps_binaries = gate; ps_keep_env = false }))

let task_fix_setgid st m task ~target =
  if Security.setgid_allowed_by_dac task.cred ~target then Ok ()
  else
    match Policy_state.group_of_gid st target with
    | None -> Error Errno.EPERM
    | Some group -> (
        match Policy_state.name_of_uid st task.cred.ruid with
        | Some user when List.mem user group.Policy_state.ag_members -> Ok ()
        | Some _ | None -> (
            (* newgrp's password-protected groups: the caller must supply
               the group password (§4.3). *)
            match group.Policy_state.ag_password with
            | None -> Error Errno.EPERM
            | Some hash -> (
                match m.password_source task.cred.ruid with
                | Some typed
                  when Protego_policy.Pwdb.verify_password ~hash typed ->
                    Ok ()
                | Some _ | None -> Error Errno.EPERM)))

(* Exec of a task with a pending transition: the requested binary (and its
   arguments) must match a delegation rule; that rule's tags decide whether
   and how to authenticate, and whether the environment survives. *)
let bprm_check st m task ~path ~argv inode =
  match stock.bprm_check m task ~path ~argv inode with
  | Error _ as e -> e
  | Ok () -> (
      match task.sec.pending with
      | None -> Ok ()
      | Some p ->
          if p.ps_binaries <> [] && not (List.mem path p.ps_binaries) then
            Error Errno.EACCES
          else
            let args = match argv with [] -> [] | _ :: rest -> rest in
            (match
               ( names_for_delegation st task,
                 Policy_state.name_of_uid st p.ps_target )
             with
            | Some (user, groups), Some target_name -> (
                let decide ~targetpw =
                  match
                    Sudoers.check (delegation_view st ~targetpw) ~user ~groups
                      ~target:target_name ~command:(Some (path, args))
                  with
                  | Sudoers.Allowed { nopasswd; setenv } ->
                      if
                        auth_for m st task ~targetpw ~target_uid:p.ps_target
                          ~nopasswd
                      then Some setenv
                      else None
                  | Sudoers.Denied -> None
                in
                let verdict =
                  match decide ~targetpw:false with
                  | Some _ as v -> v
                  | None -> decide ~targetpw:true
                in
                match verdict with
                | Some setenv ->
                    Audit.emit m task ~op:"exec-as"
                      ~obj:(Printf.sprintf "%s as %s" path target_name)
                      ~allowed:true;
                    task.sec.pending <- Some { p with ps_keep_env = setenv };
                    Ok ()
                | None ->
                    Audit.emit m task ~op:"exec-as"
                      ~obj:(Printf.sprintf "%s as %s" path target_name)
                      ~allowed:false;
                    Error Errno.EACCES)
            | None, _ | _, None -> Error Errno.EACCES))

let inode_permission st m task ~path inode access =
  match stock.inode_permission m task ~path inode access with
  | Error _ as e -> e
  | Ok () ->
      if access = Mode.R || access = Mode.W then (
        match Policy_state.file_acl_allows st ~path ~exe:task.exe_path with
        | Some false ->
            Audit.emit m task ~op:"file-acl"
              ~obj:(path ^ " by " ^ task.exe_path) ~allowed:false;
            Error Errno.EACCES
        | Some true | None ->
            if
              access = Mode.R
              && Policy_state.needs_reauth_to_read st path
              && task.cred.euid <> 0
            then
              if ensure_recent_auth m st task then Ok ()
              else begin
                Audit.emit m task ~op:"shadow-read" ~obj:path ~allowed:false;
                Error Errno.EACCES
              end
            else Ok ())
      else Ok ()

let file_open st m task ~path file =
  match stock.file_open m task ~path file with
  | Error _ as e -> e
  | Ok () ->
      (* A handle on a fragmented shadow file may not be inherited. *)
      if Policy_state.needs_reauth_to_read st path then file.cloexec <- true;
      Ok ()

let is_ppp_device dev = String.starts_with ~prefix:"ppp" dev

let file_ioctl disp st m task req =
  match stock.file_ioctl m task req with
  | Ok () -> Ok ()
  | Error _ as stock_denial -> (
      match req with
      | Ioctl_route_add entry ->
          if
            Pppopts.user_routes_allowed st.Policy_state.ppp
            && is_ppp_device entry.Protego_net.Route.device
            && Protego_net.Route.conflicts_with m.routes
                 entry.Protego_net.Route.dest
               = None
          then Ok ()
          else Error Errno.EPERM
      | Ioctl_route_del dest -> (
          let owned =
            List.find_opt
              (fun (e : Protego_net.Route.entry) ->
                Protego_net.Ipaddr.Cidr.equal e.dest dest
                && e.owner_uid = Some task.cred.ruid)
              (Protego_net.Route.entries m.routes)
          in
          match owned with Some _ -> Ok () | None -> stock_denial)
      | Ioctl_modem_config { ioctl_dev; ppp_opt } ->
          let req =
            Request.Ppp_ioctl
              { subject = task.cred.ruid; device = ioctl_dev; opt = ppp_opt }
          in
          if decide disp st m task req then Ok () else Error Errno.EPERM
      | Ioctl_dm_table_status _ ->
          (* Interface redesign, not policy: the ioctl stays root-only and
             unprivileged readers use /sys (§4.1). *)
          stock_denial
      | Ioctl_video_modeset _ | Ioctl_tty_getattr -> stock_denial)

(* --- /proc and /sys interfaces ---------------------------------------- *)

(* Lint the Output chain alongside the /proc-loaded sources: the
   cross-source checks need it, and /proc/protego/lint reports on the
   whole loaded policy. *)
let current_chains m =
  [ ("output", Netfilter.rules m.netfilter Netfilter.Output,
     Netfilter.policy m.netfilter Netfilter.Output) ]

(* A policy write passes the load-time lint gate before it sticks: lint
   the candidate (a copy of the live state with [update] installed) over
   the written [sources], and [Policy_state.set] the update — which bumps
   the written source's generation — only if the gate does not refuse.  A
   refused write (EPERM, audited: the dispatcher is in enforce mode and
   the written sources carry error-severity findings) leaves the policy
   and the generation vector untouched, so no cached decision goes
   stale.  In warn mode defective policy loads, but tagged in the audit
   log — the differential-rollout posture. *)
let gated_load m st disp task ~file ~sources update =
  let verdict =
    Pfm_dispatch.check_policy_load disp ~chains:(current_chains m)
      (Policy_state.candidate st update) ~sources
  in
  let describe fs =
    let errors =
      List.length
        (List.filter
           (fun f ->
             f.Protego_analysis.Policy_lint.severity
             = Protego_analysis.Policy_lint.Error)
           fs)
    in
    Printf.sprintf "%s (%d finding(s), %d error(s))" file (List.length fs)
      errors
  in
  match verdict with
  | `Clean ->
      Policy_state.set st update;
      Ok ()
  | `Warned fs ->
      Policy_state.set st update;
      Audit.emit ~engine:(Pfm_dispatch.engine_name disp) m task
        ~op:"policy-load" ~obj:(describe fs) ~allowed:true;
      List.iter
        (fun f ->
          log_dmesg m "protego: lint: %s"
            (Protego_analysis.Policy_lint.finding_to_string f))
        fs;
      Ok ()
  | `Refused fs ->
      Audit.emit ~engine:(Pfm_dispatch.engine_name disp) m task
        ~op:"policy-load" ~obj:(describe fs) ~allowed:false;
      List.iter
        (fun f ->
          log_dmesg m "protego: lint refused %s: %s" file
            (Protego_analysis.Policy_lint.finding_to_string f))
        fs;
      Error Errno.EPERM

let install_proc_files m st disp =
  let kt = Machine.kernel_task m in
  let _ = Machine.mkdir_p m kt "/proc/protego" () in
  let add path ~read ~write =
    ignore (Machine.add_vnode m kt ~path ~mode:0o600 ~read ~write ())
  in
  add "/proc/protego/mount_whitelist"
    ~read:(fun _m _t -> Ok (Policy_state.mounts_to_string st.Policy_state.mounts))
    ~write:(fun m t contents ->
      match Policy_state.parse_mounts contents with
      | Ok rules ->
          gated_load m st disp t ~file:"mount_whitelist" ~sources:[ "mounts" ]
            (Policy_state.Set_mounts rules)
      | Error msg ->
          log_dmesg m "protego: mount_whitelist rejected: %s" msg;
          Error Errno.EINVAL);
  add "/proc/protego/record"
    ~read:(fun _m _t ->
      Ok ((if Pfm_dispatch.record_mode disp then "on" else "off") ^ "\n"))
    ~write:(fun m t contents ->
      match String.trim contents with
      | "on" | "off" ->
          let on = String.trim contents = "on" in
          Pfm_dispatch.set_record disp on;
          Audit.emit m t ~op:"record-mode"
            ~obj:(if on then "on" else "off")
            ~allowed:true;
          log_dmesg m "protego: record mode %s" (if on then "on" else "off");
          Ok ()
      | other ->
          log_dmesg m "protego: record takes on|off, got %S" other;
          Error Errno.EINVAL);
  add "/proc/protego/bind_map"
    ~read:(fun _m _t -> Ok (Bindconf.to_string st.Policy_state.binds))
    ~write:(fun m t contents ->
      match Bindconf.parse contents with
      | Ok entries ->
          gated_load m st disp t ~file:"bind_map" ~sources:[ "binds" ]
            (Policy_state.Set_binds entries)
      | Error msg ->
          log_dmesg m "protego: bind_map rejected: %s" msg;
          Error Errno.EINVAL);
  add "/proc/protego/delegation"
    ~read:(fun _m _t -> Ok (Sudoers.to_string st.Policy_state.delegation))
    ~write:(fun m t contents ->
      match Sudoers.parse contents with
      | Ok rules ->
          gated_load m st disp t ~file:"delegation" ~sources:[ "delegation" ]
            (Policy_state.Set_delegation rules)
      | Error msg ->
          log_dmesg m "protego: delegation rejected: %s" msg;
          Error Errno.EINVAL);
  add "/proc/protego/accounts"
    ~read:(fun _m _t ->
      Ok
        (Policy_state.accounts_to_string st.Policy_state.users
           st.Policy_state.groups))
    ~write:(fun m t contents ->
      match Policy_state.parse_accounts contents with
      | Ok (users, groups) ->
          (* New accounts re-resolve the names delegation rules are
             written in, so the gate re-checks that source (PL-S004).
             Bind owners are re-checked too, but by the cross-source
             PL-X002, which the gate runs on every write. *)
          gated_load m st disp t ~file:"accounts" ~sources:[ "delegation" ]
            (Policy_state.Set_accounts (users, groups))
      | Error msg ->
          log_dmesg m "protego: accounts rejected: %s" msg;
          Error Errno.EINVAL);
  add "/proc/protego/audit"
    ~read:(fun m _t -> Ok (Audit.render m))
    ~write:(fun m _t _s ->
      Audit.clear m;
      Ok ());
  add "/proc/protego/ppp_policy"
    ~read:(fun _m _t -> Ok (Pppopts.to_string st.Policy_state.ppp))
    ~write:(fun m t contents ->
      match Pppopts.parse contents with
      | Ok policy ->
          gated_load m st disp t ~file:"ppp_policy" ~sources:[ "ppp" ]
            (Policy_state.Set_ppp policy)
      | Error msg ->
          log_dmesg m "protego: ppp_policy rejected: %s" msg;
          Error Errno.EINVAL);
  add "/proc/protego/lint"
    ~read:(fun m _t ->
      let findings =
        Pfm_dispatch.lint_report ~chains:(current_chains m) st
      in
      Ok
        (Printf.sprintf "mode %s\n%s"
           (Pfm_dispatch.lint_mode_name disp)
           (Protego_analysis.Policy_lint.render findings)))
    ~write:(fun m _t contents ->
      match String.trim contents with
      | "mode warn" ->
          Pfm_dispatch.set_lint_mode disp `Warn;
          Ok ()
      | "mode enforce" ->
          Pfm_dispatch.set_lint_mode disp `Enforce;
          Ok ()
      | other ->
          log_dmesg m "protego: lint: unknown command: %s" other;
          Error Errno.EINVAL);
  add "/proc/protego/phase"
    ~read:(fun m _t ->
      (* One line per live task: "pid <pid> phase <name>". *)
      let b = Buffer.create 128 in
      List.iter
        (fun (pid, (task : task)) ->
          Buffer.add_string b
            (Printf.sprintf "pid %d phase %s\n" pid
               (Protego_base.Phase.to_string task.sec.phase)))
        m.tasks;
      Ok (Buffer.contents b))
    ~write:(fun m t contents ->
      (* "pid <pid> <phase>": advance the task's phase.  The transition
         machinery is one-way; a write naming an earlier phase is a
         loosening attempt — refused with EPERM and audited, exactly
         like a denied hook. *)
      match String.split_on_char ' ' (String.trim contents) with
      | [ "pid"; pid_s; phase_s ] -> (
          match
            (int_of_string_opt pid_s, Protego_base.Phase.of_string phase_s)
          with
          | Some pid, Some ph -> (
              match Ktypes.find_task m pid with
              | None -> Error Errno.ESRCH
              | Some target ->
                  let cur = target.sec.phase in
                  if Protego_base.Phase.compare ph cur < 0 then begin
                    Audit.emit m t ~op:"phase"
                      ~obj:
                        (Printf.sprintf "pid %d %s -> %s (loosening refused)"
                           pid
                           (Protego_base.Phase.to_string cur)
                           (Protego_base.Phase.to_string ph))
                      ~allowed:false;
                    Error Errno.EPERM
                  end
                  else begin
                    target.sec.phase <- Protego_base.Phase.advance cur ph;
                    Audit.emit m t ~op:"phase"
                      ~obj:
                        (Printf.sprintf "pid %d %s -> %s" pid
                           (Protego_base.Phase.to_string cur)
                           (Protego_base.Phase.to_string ph))
                      ~allowed:true;
                    Ok ()
                  end)
          | _ ->
              log_dmesg m "protego: phase: expected \"pid <pid> <phase>\"";
              Error Errno.EINVAL)
      | _ ->
          log_dmesg m "protego: phase: expected \"pid <pid> <phase>\"";
          Error Errno.EINVAL);
  (* The dispatcher's counter files: the render on read, the handler's
     commands on write (EINVAL plus a dmesg line on a bad one). *)
  let cache = Pfm_dispatch.cache disp and trace = Pfm_dispatch.trace disp in
  List.iter
    (fun (name, render, handle) ->
      add ("/proc/protego/" ^ name)
        ~read:(fun _m _t -> Ok (render ()))
        ~write:(fun m _t contents ->
          match handle contents with
          | Ok () -> Ok ()
          | Error msg ->
              log_dmesg m "protego: %s" msg;
              Error Errno.EINVAL))
    [ ( "filter_stats",
        (fun () -> Pfm_dispatch.render disp),
        Pfm_dispatch.handle_write disp );
      ( "cache_stats",
        (fun () -> Decision_cache.render cache),
        Decision_cache.handle_write cache );
      ( "trace",
        (fun () -> Trace.render_trace trace),
        Trace.handle_trace_write trace );
      ( "latency",
        (fun () -> Trace.render_latency trace),
        Trace.handle_latency_write trace ) ]

let install_sysfs_dm_files m =
  let kt = Machine.kernel_task m in
  Hashtbl.iter
    (fun path dev ->
      match dev with
      | Dev_dm meta ->
          let base = Filename.basename path in
          let dir = "/sys/block/" ^ base ^ "/protego" in
          ignore (Machine.mkdir_p m kt dir ());
          ignore
            (Machine.add_vnode m kt ~path:(dir ^ "/device") ~mode:0o444
               ~read:(fun _m _t -> Ok (meta.dm_underlying ^ "\n"))
               ~write:(Machine.vnode_read_only (fun _ _ -> Ok "")) ())
      | Dev_null | Dev_tty _ | Dev_serial _ | Dev_ppp | Dev_block _
      | Dev_video _ -> ())
    m.devices

let install_netfilter_rules m =
  List.iter (fun r -> Netfilter.append m.netfilter Netfilter.Output r)
    default_raw_socket_rules

let install m =
  let st = Policy_state.create () in
  let disp = Pfm_dispatch.create () in
  (* Each hook takes all its arguments at once: a [fun m task -> f st m
     task] would return a fresh partial application on every call. *)
  let ops =
    { stock with
      lsm_name = "protego";
      sb_mount =
        (fun m task ~source ~target ~fstype ~flags ->
          sb_mount disp st m task ~source ~target ~fstype ~flags);
      sb_umount = (fun m task ~target -> sb_umount disp st m task ~target);
      socket_create = socket_create st;
      socket_bind =
        (fun m task sock addr port ->
          socket_bind disp st m task sock addr port);
      socket_sendmsg = stock.socket_sendmsg;
      task_fix_setuid =
        (fun m task ~target -> task_fix_setuid st m task ~target);
      task_fix_setgid =
        (fun m task ~target -> task_fix_setgid st m task ~target);
      bprm_check =
        (fun m task ~path ~argv inode ->
          bprm_check st m task ~path ~argv inode);
      inode_permission =
        (fun m task ~path inode access ->
          inode_permission st m task ~path inode access);
      file_open = (fun m task ~path file -> file_open st m task ~path file);
      file_ioctl = (fun m task req -> file_ioctl disp st m task req) }
  in
  m.security <- ops;
  install_proc_files m st disp;
  install_sysfs_dm_files m;
  install_netfilter_rules m;
  Netfilter.set_output_override m.netfilter
    (Some
       (fun pkt ~origin ->
         let v = Pfm_dispatch.decide_nf_output disp m.netfilter pkt ~origin in
         if Pfm_dispatch.record_mode disp then
           Audit.decision_nf m (Machine.kernel_task m)
             ~engine:(Pfm_dispatch.decision_engine disp)
             ~span:(Pfm_dispatch.last_span_id disp) ~verdict:(verdict disp true)
             pkt origin;
         v));
  log_dmesg m "protego: LSM active";
  { machine = m; state = st; dispatch = disp }
