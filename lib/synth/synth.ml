module PS = Protego_core.Policy_state
module Bindconf = Protego_policy.Bindconf
module Pppopts = Protego_policy.Pppopts
module Netfilter = Protego_net.Netfilter
module Packet = Protego_net.Packet
module Ipaddr = Protego_net.Ipaddr
module Journal = Protego_journal.Journal
module Lint = Protego_analysis.Policy_lint
module Phase = Protego_base.Phase
module Ktypes = Protego_kernel.Ktypes
module Request = Protego_core.Request

(* --- observations ------------------------------------------------------- *)

type obs = {
  ob_subject : int;
  ob_phase : int;
  ob_req : Journal.req;
  ob_count : int;
  ob_recorded : int;
}

(* The typed request of a policy-hook observation, through the one
   journal decoder; [None] for a packet. *)
let request o = Request.of_journal ~subject:o.ob_subject o.ob_req

let all_flags =
  [ Ktypes.Mf_readonly; Ktypes.Mf_nosuid; Ktypes.Mf_nodev; Ktypes.Mf_noexec ]

let desc_of_req = function
  | Journal.Mount { source; target; fstype; flags } ->
      Printf.sprintf "mount source=%s target=%s fstype=%s flags=%s" source
        target fstype
        (PS.flags_to_string (Protego_filter.Pfm_compile.flags_of_mask flags))
  | Journal.Umount { target; mounted_by } ->
      Printf.sprintf "umount target=%s mounted_by=%d" target mounted_by
  | Journal.Bind { port; proto; exe } ->
      Printf.sprintf "bind port=%d proto=%s exe=%s" port
        (Journal.proto_name proto) exe
  | Journal.Ppp { device; safe } ->
      Printf.sprintf "ppp device=%s safe=%d" device (if safe then 1 else 0)
  | Journal.Nf { origin; proto; dst; dport; icmp } ->
      "nf " ^ Journal.nf_fields ~origin ~proto ~dst ~dport ~icmp

let key_of_obs o =
  Printf.sprintf "subject=%d phase=%d %s" o.ob_subject o.ob_phase
    (desc_of_req o.ob_req)

let observations entries =
  let tbl = Hashtbl.create 256 in
  List.iter
    (function
      | Journal.Kaudit _ -> ()
      | Journal.Decision d -> (
          (* A plane worker's or an LSM hook's record: its subject,
             serving phase (0 for a packet, which has none) and request;
             any verdict other than plain allow (deny, reject, or the
             record-mode code 3) counts as would-deny demand. *)
          let o =
            { ob_subject = d.Journal.d_subject; ob_phase = d.Journal.d_phase;
              ob_req = d.Journal.d_req; ob_count = 1;
              ob_recorded = (if d.Journal.d_verdict <> 1 then 1 else 0) }
          in
          let key = key_of_obs o in
          match Hashtbl.find_opt tbl key with
          | Some prev ->
              Hashtbl.replace tbl key
                { prev with
                  ob_count = prev.ob_count + 1;
                  ob_recorded = prev.ob_recorded + o.ob_recorded }
          | None -> Hashtbl.add tbl key o))
    entries;
  Hashtbl.fold (fun k o acc -> (k, o) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

(* --- admissibility ------------------------------------------------------ *)

(* Synthesized output must pass `protego-lint --strict`, and strictness
   makes some observed demand impossible to admit: a mount whose
   requested flags lack nosuid/nodev can only be matched by a rule that
   itself trips PL-M002/PL-M003 (rules require flags, and a request must
   carry at least what its rule requires), no clean bind map names an
   unprivileged port (PL-B003), no policy makes an unsafe ppp option
   safe (option safety is intrinsic), and so on.  Such observations are
   excluded and reported, never silently admitted. *)
let classify o =
  let target_ok target =
    if
      target = "/"
      || List.exists (fun p -> Lint.path_under p target) Lint.sensitive_prefixes
    then Error "target shadows a system path (PL-M004)"
    else Ok ()
  in
  match request o with
  | Some (Request.Mount { target; flags; _ }) ->
      if not (List.mem Ktypes.Mf_nosuid flags) then
        Error "requested flags lack nosuid (PL-M002)"
      else if not (List.mem Ktypes.Mf_nodev flags) then
        Error "requested flags lack nodev (PL-M003)"
      else target_ok target
  | Some (Request.Umount { target; _ }) -> target_ok target
  | Some (Request.Bind { port; _ }) ->
      if port < 1 || port > 1023 then
        Error "port outside the privileged range 1-1023 (PL-B003)"
      else Ok ()
  | Some (Request.Ppp_ioctl { device; opt; _ }) ->
      if not (Protego_net.Ppp.option_is_safe opt) then
        Error "unsafe session option (no policy admits it)"
      else if not (Lint.path_under "/dev" device) then
        Error "device not under /dev (PL-P002)"
      else Ok ()
  | None -> Ok ()

(* --- synthesis ---------------------------------------------------------- *)

type step = { g_desc : string; g_cost : int; g_applied : bool }

type result = {
  r_mounts : PS.mount_rule list;
  r_binds : Bindconf.entry list;
  r_ppp : Pppopts.t;
  r_nf_rules : Netfilter.rule list;
  r_nf_policy : Netfilter.verdict;
  r_steps : step list;
  r_inadmissible : (string * string) list;
  r_budget : int;
  r_used : int;
  r_observed : int;
}

(* Modeled universes for the false-allow accounting: a generalization's
   cost is the volume it admits beyond what was observed, measured in a
   finite model (DESIGN.md §12). *)
let fstype_universe = 12      (* distinct user-mountable fstypes modeled *)
let device_minor_space = 32   (* serial minors behind one device stem *)
let cidr24_space = 256
let port_space = 65536

(* Downward-closed by construction: [phase<=max-observed], widening to
   [Always] when the tuple was seen through the final phase.  PL-PH001
   cannot fire on synthesized guards. *)
let guard_of_max ph =
  if ph >= Phase.count - 1 then Phase.Always
  else Phase.Upto (Phase.of_index ph)

let group_by key xs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun x ->
      let k = key x in
      let prev = try Hashtbl.find tbl k with Not_found -> [] in
      Hashtbl.replace tbl k (x :: prev))
    xs;
  Hashtbl.fold (fun k v acc -> (k, List.rev v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let max_phase os = List.fold_left (fun m o -> max m o.ob_phase) 0 os

(* Strip trailing decimal digits: the candidate glob stem of a device
   family ([/dev/ttyS0] -> [/dev/ttyS]). *)
let stem_of device =
  let n = String.length device in
  let i = ref n in
  while !i > 0 && device.[!i - 1] >= '0' && device.[!i - 1] <= '9' do
    decr i
  done;
  String.sub device 0 !i

let synthesize ?(budget = 64) obs =
  let inadmissible = ref [] in
  let mark o reason = inadmissible := (key_of_obs o, reason) :: !inadmissible in
  let remaining = ref budget in
  let steps = ref [] in
  (* Deterministic greedy budget: candidate generalizations are proposed
     in a fixed order (mount groups, then ppp stems, then netfilter
     aggregates, each canonically sorted) and applied while the running
     total fits. *)
  let try_step desc cost =
    let applied = cost <= !remaining in
    if applied then remaining := !remaining - cost;
    steps := { g_desc = desc; g_cost = cost; g_applied = applied } :: !steps;
    applied
  in
  let adm =
    List.filter
      (fun o ->
        match classify o with
        | Ok () -> true
        | Error reason ->
            mark o reason;
            false)
      obs
  in
  (* The admitted observations of each hook, in observation order. *)
  let mounts = ref [] and umounts = ref [] and binds = ref [] in
  let ppps = ref [] and nfs = ref [] in
  List.iter
    (fun o ->
      match (request o, o.ob_req) with
      | Some (Request.Mount { source; target; fstype; flags; _ }), _ ->
          mounts := (o, source, target, fstype, flags) :: !mounts
      | Some (Request.Umount { target; mounted_by; _ }), _ ->
          umounts := (o, target, mounted_by) :: !umounts
      | Some (Request.Bind { port; proto; exe; _ }), _ ->
          binds := (o, port, proto, exe) :: !binds
      | Some (Request.Ppp_ioctl { device; _ }), _ ->
          ppps := (o, device) :: !ppps
      | None, Journal.Nf { proto; dst; dport; origin; icmp } ->
          nfs := (o, proto, dst, dport, origin, icmp) :: !nfs
      | None, _ -> () (* only a packet decodes to no request *))
    (List.rev adm);
  let mounts = !mounts and umounts = !umounts and binds = !binds in
  let ppps = !ppps and nfs = !nfs in
  (* Mounts: one rule (or one fstype family) per (source, target).  The
     required flags are the intersection of everything observed, so no
     admitted observation requests less than the rule demands — and the
     admissibility gate guarantees nosuid+nodev survive the
     intersection, keeping PL-M002/M003 clean. *)
  let umount_by_target = group_by (fun (_, t, _) -> t) umounts in
  let umount_mode um =
    if List.exists (fun (o, _, mounted_by) -> mounted_by <> o.ob_subject) um
    then `Users
    else `User
  in
  let umount_max um =
    List.fold_left (fun m (o, _, _) -> max m o.ob_phase) 0 um
  in
  let mount_groups =
    group_by (fun (_, source, target, _, _) -> (source, target)) mounts
  in
  let mount_rules = ref [] in
  List.iter
    (fun ((source, target), grp) ->
      let flags =
        List.filter
          (fun f -> List.for_all (fun (_, _, _, _, fl) -> List.mem f fl) grp)
          all_flags
      in
      let fstypes =
        List.sort_uniq compare (List.map (fun (_, _, _, ft, _) -> ft) grp)
      in
      let um = try List.assoc target umount_by_target with Not_found -> [] in
      let mode = umount_mode um in
      let ph =
        max
          (max_phase (List.map (fun (o, _, _, _, _) -> o) grp))
          (umount_max um)
      in
      let mk fstype =
        { PS.mr_source = source; mr_target = target; mr_fstype = fstype;
          mr_flags = flags; mr_mode = mode; mr_phase = guard_of_max ph }
      in
      match fstypes with
      | [ f ] -> mount_rules := mk f :: !mount_rules
      | fs ->
          let cost = max 0 (fstype_universe - List.length fs) in
          if
            try_step
              (Printf.sprintf "mount %s %s: fstype -> auto (%d observed)"
                 source target (List.length fs))
              cost
          then mount_rules := mk "auto" :: !mount_rules
          else begin
            (* Budget denied the fold.  One rule per fstype is not an
               option: in the compiled mount ladder a later
               same-(source, target) rule's "auto" fallback test is
               provably constant once the earlier rule's fstype check
               has failed, a strict-lint finding.  The family resolves
               winner-take-all instead — most observed demand survives,
               ties to the lexicographically smallest fstype — exactly
               like conflicting bind demand. *)
            let scored =
              List.map
                (fun (ft, os) ->
                  ( ft,
                    List.fold_left
                      (fun n (o, _, _, _, _) -> n + o.ob_count)
                      0 os,
                    os ))
                (group_by (fun (_, _, _, ft, _) -> ft) grp)
            in
            let winner, _, _ =
              List.fold_left
                (fun ((_, wn, _) as w) ((_, n, _) as c) ->
                  if n > wn then c else w)
                (List.hd scored) (List.tl scored)
            in
            mount_rules := mk winner :: !mount_rules;
            List.iter
              (fun (ft, _, os) ->
                if ft <> winner then
                  List.iter
                    (fun (o, _, _, _, _) ->
                      mark o
                        (Printf.sprintf
                           "fstype family at %s %s exceeds the false-allow \
                            budget; losing fstype %s excluded (budget)"
                           source target ft))
                    os)
              scored
          end)
    mount_groups;
  (* Umount-only targets get a placeholder rule: umount matching reads
     only the target and mode, and the ["none"] source never matches
     observed mount demand, so the placeholder admits no extra mounts
     (a cost-0 step, reported for the record). *)
  let covered = List.map (fun ((_, target), _) -> target) mount_groups in
  List.iter
    (fun (target, um) ->
      if not (List.mem target covered) then begin
        ignore
          (try_step
             (Printf.sprintf "umount-only target %s: placeholder rule" target)
             0);
        mount_rules :=
          { PS.mr_source = "none"; mr_target = target; mr_fstype = "auto";
            mr_flags = [ Ktypes.Mf_nosuid; Ktypes.Mf_nodev ];
            mr_mode = umount_mode um;
            mr_phase = guard_of_max (umount_max um) }
          :: !mount_rules
      end)
    umount_by_target;
  let mount_rules =
    List.sort
      (fun a b ->
        compare
          (a.PS.mr_target, a.PS.mr_source, a.PS.mr_fstype)
          (b.PS.mr_target, b.PS.mr_source, b.PS.mr_fstype))
      !mount_rules
  in
  (* Binds: strict lint admits one binary per port (PL-B002, across
     protocols) and one entry per (port, proto) (PL-B001), and an entry
     names one owner.  Conflicting demand loses deterministically —
     highest observation count, ties broken lexicographically — and the
     losers are reported with the forcing code. *)
  let by_port = group_by (fun (_, port, _, _) -> port) binds in
  let bind_entries = ref [] in
  List.iter
    (fun (port, grp) ->
      let score key xs =
        group_by key xs
        |> List.map (fun (k, g) ->
               (k, List.fold_left (fun n (o, _, _, _) -> n + o.ob_count) 0 g))
      in
      let winner scored =
        fst
          (List.fold_left
             (fun (wk, ws) (k, s) ->
               if s > ws || (s = ws && k < wk) then (k, s) else (wk, ws))
             (List.hd scored) (List.tl scored))
      in
      let winner_exe = winner (score (fun (_, _, _, exe) -> exe) grp) in
      let mine, losers =
        List.partition (fun (_, _, _, exe) -> exe = winner_exe) grp
      in
      List.iter
        (fun (o, _, _, exe) ->
          mark o
            (Printf.sprintf
               "port %d maps to %s; losing binary %s excluded (PL-B002)" port
               winner_exe exe))
        losers;
      List.iter
        (fun (proto, pgrp) ->
          let winner_uid =
            winner (score (fun (o, _, _, _) -> o.ob_subject) pgrp)
          in
          let keep, lost =
            List.partition (fun (o, _, _, _) -> o.ob_subject = winner_uid) pgrp
          in
          List.iter
            (fun (o, _, _, _) ->
              mark o
                (Printf.sprintf
                   "port %d/%s owned by uid %d; losing owner excluded \
                    (PL-B001)"
                   port
                   (Bindconf.proto_to_string proto)
                   winner_uid))
            lost;
          let ph = max_phase (List.map (fun (o, _, _, _) -> o) keep) in
          bind_entries :=
            { Bindconf.port; proto; exe = winner_exe; owner = winner_uid;
              phase = guard_of_max ph }
            :: !bind_entries)
        (group_by (fun (_, _, proto, _) -> proto) mine))
    by_port;
  let bind_entries =
    List.sort
      (fun (a : Bindconf.entry) (b : Bindconf.entry) ->
        compare
          (a.Bindconf.port, a.Bindconf.proto = Bindconf.Udp)
          (b.Bindconf.port, b.Bindconf.proto = Bindconf.Udp))
      !bind_entries
  in
  (* Ppp: a family of observed devices sharing a stem folds into one
     trailing-* glob when the budget covers the unobserved rest of the
     modeled minor space; otherwise exact entries. *)
  let by_device = group_by (fun (_, d) -> d) ppps in
  let by_stem = group_by (fun (d, _) -> stem_of d) by_device in
  let ppp_dirs = ref [] in
  List.iter
    (fun (stem, devs) ->
      let glob_ok =
        List.length devs >= 2
        && stem <> ""
        && Lint.path_under "/dev" stem
        && try_step
             (Printf.sprintf "ppp devices %s*: glob over %d observed devices"
                stem (List.length devs))
             (max 0 (device_minor_space - List.length devs))
      in
      if glob_ok then begin
        let ph =
          List.fold_left
            (fun m (_, g) -> max m (max_phase (List.map fst g)))
            0 devs
        in
        ppp_dirs :=
          Pppopts.Allow_device (stem ^ "*", guard_of_max ph) :: !ppp_dirs
      end
      else
        List.iter
          (fun (device, g) ->
            ppp_dirs :=
              Pppopts.Allow_device
                (device, guard_of_max (max_phase (List.map fst g)))
              :: !ppp_dirs)
          devs)
    by_stem;
  let ppp_dirs =
    List.sort
      (fun a b ->
        match (a, b) with
        | Pppopts.Allow_device (d1, _), Pppopts.Allow_device (d2, _) ->
            compare d1 d2
        | _ -> compare a b)
      !ppp_dirs
  in
  (* Netfilter: kernel-origin traffic is already admitted by the ACCEPT
     policy and needs no rule.  Raw/packet-origin observations become
     Accept rules ahead of per-origin default-deny tails — the stock
     posture for hand-built headers, loosened exactly where traffic was
     seen.  Every accept carries more matches than the tails and
     distinct accepts never subsume each other, so PL-N001/N002 stay
     quiet; no emitted rule matches on ports alone, so PL-X001 cannot
     pair them with the bind map. *)
  let nf_rules = ref [] in
  let emit_rule matches comment =
    nf_rules :=
      { Netfilter.matches; target = Netfilter.Accept; comment } :: !nf_rules
  in
  List.iter
    (fun origin ->
      let om =
        match origin with
        | `Raw -> Netfilter.Origin_raw
        | `Packet -> Netfilter.Origin_packet
      in
      let origin = (origin :> Journal.nf_origin) in
      let oname = Journal.origin_name origin in
      let mine = List.filter (fun (_, _, _, _, o, _) -> o = origin) nfs in
      if mine <> [] then begin
        (* icmp: one rule per observed type, an untyped catch-all last *)
        let icmps =
          List.filter (fun (_, p, _, _, _, _) -> p = Packet.Icmp) mine
        in
        let typed =
          List.sort_uniq compare
            (List.filter_map (fun (_, _, _, _, _, i) -> i) icmps)
        in
        List.iter
          (fun t ->
            emit_rule
              [ om; Netfilter.Proto Packet.Icmp; Netfilter.Icmp_type t ]
              (Printf.sprintf "synth %s icmp %s" oname
                 (Packet.icmp_type_to_string t)))
          typed;
        if List.exists (fun (_, _, _, _, _, i) -> i = None) icmps then
          emit_rule
            [ om; Netfilter.Proto Packet.Icmp ]
            (Printf.sprintf "synth %s icmp" oname);
        (* tcp/udp: destination folding and port ranges under budget.  A
           portless observation is a raw socket's hand-built payload:
           only a rule with no port match admits it, and that rule
           admits every port of its destinations too, so it costs the
           unobserved rest of the port space or is excluded. *)
        List.iter
          (fun proto ->
            let grp = List.filter (fun (_, p, _, _, _, _) -> p = proto) mine in
            let pname = Packet.proto_to_string proto in
            let portless, ported =
              List.partition (fun (_, _, _, dp, _, _) -> dp = None) grp
            in
            let ports =
              List.sort_uniq compare
                (List.filter_map (fun (_, _, _, dp, _, _) -> dp) ported)
            in
            let any_port =
              portless <> []
              && try_step
                   (Printf.sprintf
                      "nf %s %s dport any: %d portless payload(s)" oname pname
                      (List.length portless))
                   (port_space - List.length ports)
            in
            if not any_port then
              List.iter
                (fun (o, _, _, _, _, _) ->
                  mark o
                    (Printf.sprintf
                       "portless %s payload: a rule that admits it admits \
                        every port, beyond the false-allow budget (budget)"
                       pname))
                portless;
            let grp = if any_port then grp else ported in
            if grp <> [] then begin
              let port_matches =
                if any_port then [ [] ]
                else
                  List.map
                    (fun (lo, hi) -> [ Netfilter.Dst_port { lo; hi } ])
                    (match ports with
                     | [] | [ _ ] -> List.map (fun p -> (p, p)) ports
                     | ps ->
                         let lo = List.hd ps in
                         let hi = List.nth ps (List.length ps - 1) in
                         let span = hi - lo + 1 in
                         let cost = span - List.length ps in
                         if
                           cost > 0
                           && try_step
                                (Printf.sprintf
                                   "nf %s %s dport %d-%d: range over %d \
                                    observed ports"
                                   oname pname lo hi (List.length ps))
                                cost
                         then [ (lo, hi) ]
                         else
                           (* consecutive observed ports merge for free *)
                           let rec runs acc cur = function
                             | [] -> List.rev (cur :: acc)
                             | p :: rest ->
                                 let l, h = cur in
                                 if p = h + 1 then runs acc (l, p) rest
                                 else runs (cur :: acc) (p, p) rest
                           in
                           runs [] (List.hd ps, List.hd ps) (List.tl ps))
              in
              let dsts =
                List.sort_uniq Ipaddr.compare
                  (List.map (fun (_, _, d, _, _, _) -> d) grp)
              in
              let dst_cidrs =
                match dsts with
                | [ d ] -> [ Ipaddr.Cidr.make d 32 ]
                | ds ->
                    let c24s =
                      List.sort_uniq compare
                        (List.map
                           (fun d ->
                             Ipaddr.Cidr.to_string (Ipaddr.Cidr.make d 24))
                           ds)
                    in
                    if
                      List.length c24s = 1
                      && try_step
                           (Printf.sprintf
                              "nf %s %s dst %s: /24 over %d observed hosts"
                              oname pname (List.hd c24s) (List.length ds))
                           (max 0 (cidr24_space - List.length ds))
                    then [ Ipaddr.Cidr.make (List.hd ds) 24 ]
                    else List.map (fun d -> Ipaddr.Cidr.make d 32) ds
              in
              List.iter
                (fun c ->
                  List.iter
                    (fun pm ->
                      emit_rule
                        ([ om; Netfilter.Proto proto; Netfilter.Dst c ] @ pm)
                        (Printf.sprintf "synth %s %s" oname pname))
                    port_matches)
                dst_cidrs
            end)
          [ Packet.Tcp; Packet.Udp ];
        (* other protocols: exact *)
        List.iter
          (fun n ->
            emit_rule
              [ om; Netfilter.Proto (Packet.Other n) ]
              (Printf.sprintf "synth %s proto %d" oname n))
          (List.sort_uniq compare
             (List.filter_map
                (fun (_, p, _, _, _, _) ->
                  match p with Packet.Other n -> Some n | _ -> None)
                mine))
      end)
    [ `Raw; `Packet ];
  let nf_rules =
    List.rev !nf_rules
    @ [ { Netfilter.matches = [ Netfilter.Origin_raw ];
          target = Netfilter.Drop; comment = "unobserved raw default" };
        { Netfilter.matches = [ Netfilter.Origin_packet ];
          target = Netfilter.Drop; comment = "unobserved packet default" } ]
  in
  { r_mounts = mount_rules;
    r_binds = bind_entries;
    r_ppp = { Pppopts.directives = ppp_dirs };
    r_nf_rules = nf_rules;
    r_nf_policy = Netfilter.Accept;
    r_steps = List.rev !steps;
    r_inadmissible =
      List.sort (fun (a, _) (b, _) -> compare a b) !inadmissible;
    r_budget = budget;
    r_used = budget - !remaining;
    r_observed = List.length obs }

(* --- reporting ---------------------------------------------------------- *)

let report r =
  let b = Buffer.create 1024 in
  Buffer.add_string b "protego-synth coverage report\n";
  Buffer.add_string b
    (Printf.sprintf "observations %d inadmissible %d budget %d used %d\n"
       r.r_observed
       (List.length r.r_inadmissible)
       r.r_budget r.r_used);
  Buffer.add_string b
    (Printf.sprintf "rules mounts %d binds %d ppp %d nf %d policy %s\n"
       (List.length r.r_mounts)
       (List.length r.r_binds)
       (List.length r.r_ppp.Pppopts.directives)
       (List.length r.r_nf_rules)
       (Netfilter.verdict_to_string r.r_nf_policy));
  Buffer.add_string b "generalization steps:\n";
  List.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf "  %s cost=%d %s\n"
           (if s.g_applied then "applied" else "skipped")
           s.g_cost s.g_desc))
    r.r_steps;
  Buffer.add_string b "inadmissible observations:\n";
  List.iter
    (fun (key, reason) ->
      Buffer.add_string b (Printf.sprintf "  %s :: %s\n" key reason))
    r.r_inadmissible;
  Buffer.contents b

(* --- output files ------------------------------------------------------- *)

let header what =
  Printf.sprintf
    "# %s synthesized by protego-synth; regenerate from the journal rather \
     than editing.\n"
    what

let mounts_text r = header "mount whitelist" ^ PS.mounts_to_string r.r_mounts

let binds_text r = header "bind map" ^ Bindconf.to_string r.r_binds

let ppp_text r = header "ppp options" ^ Pppopts.to_string r.r_ppp

let chain_text r =
  header "netfilter Output chain"
  ^ Printf.sprintf "policy %s\n" (Netfilter.verdict_to_string r.r_nf_policy)
  ^ String.concat "\n" (List.map Netfilter.rule_to_spec r.r_nf_rules)
  ^ "\n"

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let write_dir dir r =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  write_file (Filename.concat dir "mount_whitelist") (mounts_text r);
  write_file (Filename.concat dir "bind.map") (binds_text r);
  write_file (Filename.concat dir "options.ppp") (ppp_text r);
  write_file (Filename.concat dir "output.chain") (chain_text r);
  write_file (Filename.concat dir "coverage.report") (report r)

(* --- verification ------------------------------------------------------- *)

let state_of r =
  let st = PS.create () in
  PS.set st (PS.Set_mounts r.r_mounts);
  PS.set st (PS.Set_binds r.r_binds);
  PS.set st (PS.Set_ppp r.r_ppp);
  st

let netfilter_of r =
  let nf = Netfilter.create () in
  Netfilter.set_policy nf Netfilter.Output r.r_nf_policy;
  List.iter (Netfilter.append nf Netfilter.Output) r.r_nf_rules;
  nf

(* Rebuild the packet an nf record describes.  A record with neither an
   ICMP type nor a port is a raw socket's hand-built payload, and stays
   one: a rule that matches on a port never admits it.  The source
   address is immaterial: no synthesized rule matches on [Src]. *)
let packet_of ~proto ~dst ~dport ~icmp =
  let transport =
    match (proto, icmp, dport) with
    | Packet.Icmp, Some t, _ ->
        Packet.Icmp_msg { icmp_type = t; code = 0; payload = "" }
    | Packet.Tcp, _, Some p ->
        Packet.Tcp_seg
          { src_port = 40000; dst_port = p; syn = false; payload = "" }
    | Packet.Udp, _, Some p ->
        Packet.Udp_dgram { src_port = 40000; dst_port = p; payload = "" }
    | (Packet.Icmp | Packet.Tcp | Packet.Udp | Packet.Other _), _, _ ->
        let protocol =
          match proto with
          | Packet.Icmp -> 1
          | Packet.Tcp -> 6
          | Packet.Udp -> 17
          | Packet.Other n -> n
        in
        Packet.Raw_payload { protocol; payload = "" }
  in
  { Packet.src = Ipaddr.any; dst; ttl = 64; transport }

(* An observation against the synthesized policy: a policy-hook request
   through the one reference oracle, a packet through the chain walk. *)
let judge st nf o =
  match (request o, o.ob_req) with
  | Some req, _ -> Request.oracle ~phase:(Phase.of_index o.ob_phase) st req
  | None, Journal.Nf { proto; dst; dport; origin; icmp } ->
      let pkt = packet_of ~proto ~dst ~dport ~icmp in
      let porigin =
        match origin with
        | `Kernel -> Packet.Kernel_stack
        | `Raw -> Packet.Raw_app { uid = o.ob_subject }
        | `Packet -> Packet.Packet_app { uid = o.ob_subject }
      in
      Netfilter.walk nf Netfilter.Output pkt ~origin:porigin = Netfilter.Accept
  | None, _ -> false

let admits r o = judge (state_of r) (netfilter_of r) o

let verify obs r =
  let st = state_of r in
  let nf = netfilter_of r in
  List.filter_map
    (fun o ->
      let key = key_of_obs o in
      let expected =
        not (List.exists (fun (k, _) -> k = key) r.r_inadmissible)
      in
      let got = judge st nf o in
      if got = expected then None
      else
        Some
          ( key,
            Printf.sprintf "synthesized policy %s it, but it is %s"
              (if got then "admits" else "denies")
              (if expected then "admissible (false deny)"
               else "inadmissible (false allow)") ))
    obs
