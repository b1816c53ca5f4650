(* Cross-source semantic lint over the declarative Protego policies.

   Each check answers one question about what a policy *means*: does an
   entry ever take effect, does it grant more than the administrator
   plausibly intended, does one source contradict another.  Structural
   validity (parse errors, duplicate ports on the enforcement path) is
   the parsers' job; this module assumes parsed input — including input
   from the lax parsers, precisely so that it can report the defects the
   strict parsers would reject.

   Every check has a stable finding code (PL-* for declarative checks,
   PFM-* for facts derived from the compiled bytecode via Pfm_absint).
   Codes are append-only: tools and CI match on them. *)

module Pfm = Protego_filter.Pfm
module Pfm_compile = Protego_filter.Pfm_compile
module Ktypes = Protego_kernel.Ktypes
module Bindconf = Protego_policy.Bindconf
module Sudoers = Protego_policy.Sudoers
module Pppopts = Protego_policy.Pppopts
module Netfilter = Protego_net.Netfilter
module Ipaddr = Protego_net.Ipaddr
module Phase = Protego_base.Phase

type severity = Info | Warning | Error

let severity_to_string = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

let severity_rank = function Info -> 0 | Warning -> 1 | Error -> 2

type finding = {
  code : string;
  severity : severity;
  source : string;   (* "mounts" | "binds" | "delegation" | "netfilter:<chain>"
                        | "ppp" | "cross" *)
  locus : string;    (* rule/entry identification within the source *)
  message : string;
}

let finding_to_string f =
  Printf.sprintf "%s %s %s (%s): %s" f.code
    (severity_to_string f.severity)
    f.source f.locus f.message

type accounts = {
  user_names : (string * int) list;   (* name, uid *)
  group_names : string list;
}

let no_accounts = { user_names = []; group_names = [] }

type input = {
  mounts : Pfm_compile.mount_rule list;
  binds : Bindconf.entry list;
  delegation : Sudoers.t;
  accounts : accounts;
  ppp : Pppopts.t option;
  chains : (string * Netfilter.rule list * Netfilter.verdict) list;
}

let empty_input =
  {
    mounts = [];
    binds = [];
    delegation = Sudoers.empty;
    accounts = no_accounts;
    ppp = None;
    chains = [];
  }

(* --- phase guards: PL-PH* ------------------------------------------------

   Phases only ever advance (Setup -> Serving -> Steady, DESIGN.md §11),
   so a guard is tighten-only exactly when it is downward closed: active
   from the start of life and, once inactive, inactive forever.  A guard
   that activates a rule *later* in the lifecycle grants privilege a
   task did not start with — the loosening the one-way transition
   machinery exists to rule out — and is an error in every source. *)

let check_guard emit what g =
  match g with
  | Phase.Always -> ()
  | g when Phase.downward_closed g -> ()
  | g ->
      emit
        (Printf.sprintf
           "%s has phase guard `%s' that activates later in the lifecycle: \
            guards must be tighten-only (downward closed)"
           (what ()) (Phase.guard_to_string g))

let guards_overlap a b =
  List.exists (fun p -> Phase.active a p && Phase.active b p) Phase.all

(* --- mounts: PL-M* ------------------------------------------------------ *)

let sensitive_prefixes =
  [ "/etc"; "/usr"; "/bin"; "/sbin"; "/lib"; "/boot"; "/root"; "/proc"; "/sys" ]

let path_under prefix p =
  p = prefix
  || String.length p > String.length prefix
     && String.starts_with ~prefix p
     && p.[String.length prefix] = '/'

(* The phases a guard is active in, as a bitmask over {!Phase.index}.
   First-match shadowing claims are conditioned on coverage: an earlier
   rule shadows a later one only if it is active in every phase the
   later one is ([mask later] a subset of [mask earlier]) — an earlier
   rule active only during setup does not shadow a later always-active
   rule. *)
let phase_mask g =
  List.fold_left
    (fun m p -> if Phase.active g p then m lor (1 lsl Phase.index p) else m)
    0 Phase.all

(* The per-source lints below format a rule's locus and text only when
   the rule yields a finding: a clean policy write formats nothing. *)
let lint_mounts rules =
  let fs = ref [] in
  let f code severity j fmt =
    Printf.ksprintf
      (fun message ->
        let locus = "rule " ^ string_of_int j in
        fs := { code; severity; source = "mounts"; locus; message } :: !fs)
      fmt
  in
  let arr = Array.of_list rules in
  (* PL-M001 index: per (source, target), in rule order, the first rule
     of each (fstype, phase mask).  A later rule with the same pair is
     never the earliest shadower, so a bucket stays bounded by the
     distinct fstypes and guards at one (source, target), not by the
     rule count. *)
  let earlier = Hashtbl.create (Array.length arr) in
  Array.iteri
    (fun j r ->
      let text () = Pfm_compile.mount_rule_text r in
      check_guard
        (fun m -> f "PL-PH001" Error j "%s" m)
        (fun () -> "`" ^ text () ^ "'") r.Pfm_compile.fm_phase;
      (* PL-M001: an earlier first-match rule fires on every request this
         one would, so this one never takes effect (its flag requirement
         in particular is silently replaced by the earlier rule's). *)
      let key = (r.Pfm_compile.fm_source, r.Pfm_compile.fm_target) in
      let mask = phase_mask r.Pfm_compile.fm_phase in
      let bucket = Option.value ~default:[] (Hashtbl.find_opt earlier key) in
      (* A rule whose fstype is the "auto" wildcard matches any request;
         otherwise its own fstype plus the "auto" request wildcard. *)
      (match
         List.find_opt
           (fun (fstype, m, _) ->
             (fstype = "auto" || fstype = r.Pfm_compile.fm_fstype)
             && mask land m = mask)
           bucket
       with
       | Some (_, _, i) ->
           f "PL-M001" Warning j
             "shadowed by rule %d: first match decides, so `%s' never \
              takes effect%s"
             i (text ())
             (if arr.(i).Pfm_compile.fm_flags <> r.Pfm_compile.fm_flags then
                " (and the rules require different mount flags)"
              else "")
       | None -> ());
      if
        not
          (List.exists
             (fun (fstype, m, _) ->
               fstype = r.Pfm_compile.fm_fstype && m = mask)
             bucket)
      then
        Hashtbl.replace earlier key
          (bucket @ [ (r.Pfm_compile.fm_fstype, mask, j) ]);
      (* PL-M002 / PL-M003: a user-mountable filesystem without nosuid
         re-opens the setuid hole the whitelist exists to close; without
         nodev it hands out device nodes. *)
      if not (List.mem Ktypes.Mf_nosuid r.Pfm_compile.fm_flags) then
        f "PL-M002" Error j
          "`%s' lacks nosuid: a user-controlled filesystem may carry \
           setuid binaries"
          (text ());
      if not (List.mem Ktypes.Mf_nodev r.Pfm_compile.fm_flags) then
        f "PL-M003" Warning j
          "`%s' lacks nodev: a user-controlled filesystem may carry \
           device nodes"
          (text ());
      (* PL-M004: mounting over system paths hides or replaces them. *)
      if
        r.Pfm_compile.fm_target = "/"
        || List.exists
             (fun p -> path_under p r.Pfm_compile.fm_target)
             sensitive_prefixes
      then
        f "PL-M004" Warning j "target %s shadows a system path"
          r.Pfm_compile.fm_target)
    arr;
  List.rev !fs

(* --- binds: PL-B* ------------------------------------------------------- *)

let lint_binds entries =
  let fs = ref [] in
  let f code severity j fmt =
    Printf.ksprintf
      (fun message ->
        let locus = "entry " ^ string_of_int j in
        fs := { code; severity; source = "binds"; locus; message } :: !fs)
      fmt
  in
  (* Earlier entries by port, most recent first: PL-B001 and PL-B002
     only ever compare entries that share a port. *)
  let by_port = Hashtbl.create (List.length entries) in
  List.iteri
    (fun j (e : Bindconf.entry) ->
      check_guard
        (fun m -> f "PL-PH001" Error j "%s" m)
        (fun () ->
          Printf.sprintf "entry %d/%s" e.port (Bindconf.proto_to_string e.proto))
        e.Bindconf.phase;
      let prior = Option.value ~default:[] (Hashtbl.find_opt by_port e.port) in
      let earlier = List.rev prior in
      (* PL-B001: a port maps to exactly one application instance; the
         first entry wins (among entries whose guards can be active
         together) and this one never takes effect.  The strict parser
         refuses such files, so one reaching the kernel would bypass
         review. *)
      (match
         List.find_opt
           (fun (_, (d : Bindconf.entry)) ->
             d.Bindconf.proto = e.proto
             && guards_overlap d.Bindconf.phase e.Bindconf.phase)
           earlier
       with
       | Some (i, d) ->
           f "PL-B001" Error j
             "duplicate %d/%s: entry %d (%s uid %d) already claims it, \
              this entry never takes effect"
             e.port
             (Bindconf.proto_to_string e.proto)
             i d.Bindconf.exe d.Bindconf.owner
       | None -> ());
      (* PL-B002: the same port number handed to different binaries on
         tcp vs udp is usually a typo for one service. *)
      List.iter
        (fun (i, (d : Bindconf.entry)) ->
          if d.Bindconf.proto <> e.proto && d.Bindconf.exe <> e.exe then
            f "PL-B002" Warning j
              "port %d maps to %s (%s) but to %s (%s) in entry %d" e.port
              e.exe
              (Bindconf.proto_to_string e.proto)
              d.Bindconf.exe
              (Bindconf.proto_to_string d.Bindconf.proto)
              i)
        earlier;
      Hashtbl.replace by_port e.port ((j, e) :: prior);
      (* PL-B003: the kernel consults the bind map only for ports below
         1024; anything else here is inert. *)
      if e.port < 1 || e.port >= 1024 then
        f "PL-B003" Warning j
          "port %d is outside the privileged range [1,1023]; the entry \
           has no effect"
          e.port)
    entries;
  List.rev !fs

(* --- delegation: PL-S* -------------------------------------------------- *)

let rule_locus i = Printf.sprintf "rule %d" i

let lint_delegation (t : Sudoers.t) accounts =
  let fs = ref [] in
  let f code severity locus fmt =
    Printf.ksprintf
      (fun message ->
        fs := { code; severity; source = "delegation"; locus; message } :: !fs)
      fmt
  in
  let rules = Array.of_list t.Sudoers.rules in
  (* PL-S001: a delegation cycle between concrete non-root users means
     each can reach the other's privileges; combined with one NOPASSWD
     link the whole cycle is password-free.  Edges: `u ALL=(v) ...'. *)
  let edges =
    Array.to_list rules
    |> List.concat_map (fun (r : Sudoers.rule) ->
           match (r.who, r.runas) with
           | Sudoers.User u, Sudoers.Runas_users vs when u <> "root" ->
               List.filter_map
                 (fun v -> if v <> "root" && v <> u then Some (u, v) else None)
                 vs
           | _ -> [])
  in
  let successors u = List.filter_map (fun (a, b) -> if a = u then Some b else None) edges in
  let reported = Hashtbl.create 8 in
  let rec dfs path u =
    if List.mem u path then begin
      (* Cycle = the path suffix from the first occurrence of [u]. *)
      let rec suffix = function
        | [] -> []
        | x :: _ when x = u -> [ x ]
        | x :: rest -> x :: suffix rest
      in
      let cycle = List.rev (suffix path) in
      let canon = List.sort compare cycle in
      if not (Hashtbl.mem reported canon) then begin
        Hashtbl.replace reported canon ();
        f "PL-S001" Warning
          (Printf.sprintf "users %s" (String.concat "," canon))
          "delegation cycle: %s"
          (String.concat " -> " (cycle @ [ u ]))
      end
    end
    else List.iter (dfs (u :: path)) (successors u)
  in
  List.iter (fun (u, _) -> dfs [] u) edges;
  Array.iteri
    (fun i (r : Sudoers.rule) ->
      let who_s =
        match r.who with
        | Sudoers.User u -> u
        | Sudoers.Group g -> "%" ^ g
        | Sudoers.All_users -> "ALL"
      in
      check_guard
        (fun m -> f "PL-PH001" Error (rule_locus i) "%s" m)
        (fun () -> Printf.sprintf "rule for %s" who_s)
        r.Sudoers.rphase;
      let unrestricted = List.mem Sudoers.Any_command r.commands in
      (* PL-S002: passwordless unrestricted delegation from a non-root
         principal is root-equivalence without authentication — the exact
         thing the recency-of-authentication design exists to prevent. *)
      if
        unrestricted
        && List.mem Sudoers.Nopasswd r.tags
        && r.who <> Sudoers.User "root"
      then
        f "PL-S002" Error (rule_locus i)
          "%s may run ALL commands with NOPASSWD: root-equivalent without \
           authentication"
          who_s;
      (* PL-S003: SETENV on an unrestricted rule lets the invoker smuggle
         LD_PRELOAD & co. into any target-uid process. *)
      if unrestricted && List.mem Sudoers.Setenv r.tags then
        f "PL-S003" Warning (rule_locus i)
          "SETENV on an unrestricted rule: environment reaches every \
           command run as the target";
      (* PL-S004: names that resolve to nobody silently disable the rule
         (or worse, a later-created account inherits it). *)
      if accounts.user_names <> [] then begin
        let known u = List.mem_assoc u accounts.user_names in
        (match r.who with
        | Sudoers.User u when not (known u) ->
            f "PL-S004" Warning (rule_locus i) "unknown user %s" u
        | Sudoers.Group g when not (List.mem g accounts.group_names) ->
            f "PL-S004" Warning (rule_locus i) "unknown group %%%s" g
        | _ -> ());
        match r.runas with
        | Sudoers.Runas_users vs ->
            List.iter
              (fun v ->
                if not (known v) then
                  f "PL-S004" Warning (rule_locus i) "unknown runas user %s" v)
              vs
        | Sudoers.Runas_any -> ()
      end)
    rules;
  List.rev !fs

(* --- netfilter: PL-N* --------------------------------------------------- *)

let cidr_subset inner outer =
  Ipaddr.Cidr.prefix_len outer <= Ipaddr.Cidr.prefix_len inner
  && Ipaddr.Cidr.mem (Ipaddr.Cidr.network inner) outer

(* [match_implies a b]: does match [a] holding imply match [b] holds? *)
let match_implies a b =
  a = b
  ||
  match (a, b) with
  | Netfilter.Src c1, Netfilter.Src c2 | Netfilter.Dst c1, Netfilter.Dst c2 ->
      cidr_subset c1 c2
  | Netfilter.Dst_port p1, Netfilter.Dst_port p2 ->
      p2.lo <= p1.lo && p1.hi <= p2.hi
  | Netfilter.Src_port p1, Netfilter.Src_port p2 ->
      p2.lo <= p1.lo && p1.hi <= p2.hi
  | _ -> false

(* [rule_subsumes e r]: does [e] fire on every packet [r] fires on?
   Conservative: each of [e]'s matches must be implied by one of [r]'s
   (a match-free [e] fires on everything). *)
let rule_subsumes (e : Netfilter.rule) (r : Netfilter.rule) =
  List.for_all
    (fun me -> List.exists (fun mr -> match_implies mr me) r.Netfilter.matches)
    e.Netfilter.matches

let lint_chain name rules _policy =
  let source = "netfilter:" ^ name in
  let fs = ref [] in
  let f code severity locus fmt =
    Printf.ksprintf
      (fun message -> fs := { code; severity; source; locus; message } :: !fs)
      fmt
  in
  let arr = Array.of_list rules in
  Array.iteri
    (fun j (r : Netfilter.rule) ->
      try
        for i = 0 to j - 1 do
          let e = arr.(i) in
          if rule_subsumes e r then begin
            if e.Netfilter.target <> r.Netfilter.target then
              (* PL-N001: the earlier rule always fires first with the
                 opposite verdict — this rule is a lie about the policy. *)
              f "PL-N001" Error (rule_locus j)
                "`%s' is unreachable: rule %d (`%s') matches first with a \
                 conflicting target"
                (Netfilter.rule_to_spec r)
                i
                (Netfilter.rule_to_spec e)
            else
              (* PL-N002: harmless but dead weight. *)
              f "PL-N002" Warning (rule_locus j)
                "`%s' is redundant: rule %d already matches everything it \
                 does"
                (Netfilter.rule_to_spec r)
                i;
            raise Exit
          end
        done
      with Exit -> ())
    arr;
  List.rev !fs

(* --- ppp: PL-P* --------------------------------------------------------- *)

let lint_ppp (t : Pppopts.t) =
  let fs = ref [] in
  let f code severity locus fmt =
    Printf.ksprintf
      (fun message ->
        fs := { code; severity; source = "ppp"; locus; message } :: !fs)
      fmt
  in
  let seen = Hashtbl.create 8 in
  List.iteri
    (fun i d ->
      match d with
      | Pppopts.Allow_device (dev, g) ->
          let locus = Printf.sprintf "directive %d" i in
          check_guard
            (fun m -> f "PL-PH001" Error locus "%s" m)
            (fun () -> Printf.sprintf "allow-device %s" dev) g;
          (match Hashtbl.find_opt seen dev with
          | Some g' when guards_overlap g g' ->
              f "PL-P001" Warning locus "duplicate allow-device %s" dev
          | Some _ -> ()
          | None -> Hashtbl.replace seen dev g);
          if not (path_under "/dev" dev) then
            f "PL-P002" Warning locus
              "allow-device %s is not under /dev: unprivileged pppd would \
               get ioctl access to an arbitrary file"
              dev
      | _ -> ())
    t.Pppopts.directives;
  List.rev !fs

(* --- cross-source: PL-X* ------------------------------------------------ *)

(* Walk a chain considering only the matches determined by (port, proto):
   a rule carrying any other match kind may or may not fire, so it can't
   prove the port blocked — only an unconditional (for this packet
   shape) DROP/REJECT before any possible ACCEPT does. *)
let port_blocked rules policy ~port ~proto =
  let decided =
    List.find_opt
      (fun (r : Netfilter.rule) ->
        List.for_all
          (function
            | Netfilter.Proto p -> p = proto
            | Netfilter.Dst_port { lo; hi } -> lo <= port && port <= hi
            | _ -> false (* conditional on more than the port: skip rule *))
          r.Netfilter.matches)
      rules
  in
  match decided with
  | Some r -> r.Netfilter.target <> Netfilter.Accept
  | None -> policy <> Netfilter.Accept

let lint_cross (inp : input) =
  let fs = ref [] in
  let f code severity locus fmt =
    Printf.ksprintf
      (fun message ->
        fs := { code; severity; source = "cross"; locus; message } :: !fs)
      fmt
  in
  (* PL-X001: a service the bind map authorizes on a port the packet
     filter then drops — the two sources disagree about intent.  Only a
     rule whose every match is a protocol or destination port can decide
     [port_blocked], so each chain is cut down to those rules once. *)
  let chains =
    List.map
      (fun (name, rules, policy) ->
        ( name,
          List.filter
            (fun (r : Netfilter.rule) ->
              List.for_all
                (function
                  | Netfilter.Proto _ | Netfilter.Dst_port _ -> true
                  | _ -> false)
                r.Netfilter.matches)
            rules,
          policy ))
      inp.chains
  in
  List.iteri
    (fun j (e : Bindconf.entry) ->
      let proto =
        match e.proto with
        | Bindconf.Tcp -> Protego_net.Packet.Tcp
        | Bindconf.Udp -> Protego_net.Packet.Udp
      in
      List.iter
        (fun (name, rules, policy) ->
          if port_blocked rules policy ~port:e.port ~proto then
            f "PL-X001" Warning
              (Printf.sprintf "binds entry %d" j)
              "port %d/%s is bind-mapped to %s but netfilter chain %s \
               blocks it"
              e.port
              (Bindconf.proto_to_string e.proto)
              e.exe name)
        chains)
    inp.binds;
  (* PL-X002: a bind entry owned by a uid the account database has never
     heard of can never successfully bind. *)
  if inp.accounts.user_names <> [] then
    List.iteri
      (fun j (e : Bindconf.entry) ->
        if not (List.exists (fun (_, uid) -> uid = e.owner) inp.accounts.user_names)
        then
          f "PL-X002" Warning
            (Printf.sprintf "binds entry %d" j)
            "owner uid %d does not match any account" e.owner)
      inp.binds;
  List.rev !fs

(* --- compiled-program lints: PFM-* -------------------------------------- *)

module Absint = Pfm_absint

(* [entries] is the number of declarative rules behind the program: an
   empty whitelist compiles to a deny-all (never-Allow by design) and an
   empty chain to its policy verdict (possibly always-Allow by design),
   so the verdict-shape findings only make sense when rules exist. *)
let lint_program ~source ?(notes = []) ?(entries = 0) (p : Pfm.program) =
  let fs = ref [] in
  let f code severity locus fmt =
    Printf.ksprintf
      (fun message -> fs := { code; severity; source; locus; message } :: !fs)
      fmt
  in
  let s = Absint.analyze p in
  if entries > 0 then begin
    if Absint.always_allows s then
      f "PFM-ALWAYS-ALLOW" Error
        (Printf.sprintf "program %s" p.Pfm.pname)
        "the compiled policy allows every request: %d rule(s) have no \
         effect at all"
        entries;
    if Absint.never_allows s then
      f "PFM-NEVER-ALLOW" Warning
        (Printf.sprintf "program %s" p.Pfm.pname)
        "the compiled policy cannot allow any request despite %d rule(s)"
        entries
  end;
  (* Per-rule reachability: a note range containing unreachable
     instructions marks a rule that cannot (fully) take effect.  The
     abstract interpreter over-approximates reachability, so these are
     definite (see Pfm_absint's soundness note). *)
  let n = Array.length p.Pfm.insns in
  let ranges = Absint.note_ranges ~notes n in
  (* [in_dead.(pc)]: [pc] lies in a rule range with unreachable code —
     marked once here, so the constant-branch pass below is linear. *)
  let in_dead = Array.make n false in
  List.iter
    (fun (lo, hi, text) ->
      if lo <= hi then begin
        let dead = ref 0 in
        for pc = lo to hi do
          if not s.Absint.reachable.(pc) then incr dead
        done;
        if !dead > 0 then Array.fill in_dead lo (hi - lo + 1) true;
        if !dead = hi - lo + 1 then
          f "PFM-DEAD" Warning text
            "no input reaches this rule's code: it is dead (shadowed by \
             earlier rules)"
        else if !dead > 0 then
          f "PFM-DEAD" Warning text
            "part of this rule's code (%d of %d instructions) is \
             unreachable: earlier rules already decide every request it \
             could distinguish"
            !dead (hi - lo + 1)
      end)
    ranges;
  (* Constant conditionals outside already-reported dead rules: the test
     is decided before it runs.  Informational — first-match chains
     legitimately re-test refuted conditions. *)
  List.iter
    (fun (pc, dir) ->
      if not in_dead.(pc) then
        f "PFM-CONST-BRANCH" Info
          (match Absint.attribute ~notes pc with
          | Some text -> text
          | None -> Printf.sprintf "pc %d" pc)
          "conditional at pc %d always takes its %s edge" pc
          (if dir then "true" else "false"))
    s.Absint.const_branches;
  List.rev !fs

(* Per-phase reachability: for a phased source, compile the residual
   program each phase sees (guards resolved statically, {!Pfm_compile}'s
   [?phase]) and flag rules whose guard says they are active in that
   phase but whose code no input can reach there — shadowed by earlier
   rules active in the same phase.  The whole-policy PFM-DEAD check
   cannot see these: in the full program the rule's ladder code is
   reachable via some other phase. *)
let lint_phase_residuals ~source ~phased ~compile_at =
  if not phased then []
  else
    List.concat_map
      (fun ph ->
        let (p : Pfm.program), notes = compile_at ph in
        let s = Absint.analyze p in
        let ranges = Absint.note_ranges ~notes (Array.length p.Pfm.insns) in
        List.filter_map
          (fun (lo, hi, text) ->
            let all_dead = ref (lo <= hi) in
            for pc = lo to hi do
              if s.Absint.reachable.(pc) then all_dead := false
            done;
            if !all_dead then
              Some
                { code = "PFM-PHASE-DEAD"; severity = Warning; source;
                  locus = Printf.sprintf "phase %s: %s" (Phase.to_string ph) text;
                  message =
                    Printf.sprintf
                      "the rule's guard makes it active in phase %s, but no \
                       request can reach its code there: earlier rules \
                       active in the same phase already decide everything \
                       it could match"
                      (Phase.to_string ph) }
            else None)
          ranges)
      Phase.all

(* --- driver ------------------------------------------------------------- *)

let all_sources (inp : input) =
  [ "mounts"; "binds"; "delegation" ]
  @ List.map (fun (name, _, _) -> "netfilter:" ^ name) inp.chains
  @ match inp.ppp with Some _ -> [ "ppp" ] | None -> []

type programs = {
  mount_program : unit -> Pfm.program * (int * string) list;
  umount_program : unit -> Pfm.program * (int * string) list;
  bind_program : unit -> Pfm.program * (int * string) list;
  ppp_program : unit -> Pfm.program * (int * string) list;
}

let compile_programs (inp : input) =
  { mount_program = (fun () -> Pfm_compile.mount_notes inp.mounts);
    umount_program = (fun () -> Pfm_compile.umount_notes inp.mounts);
    bind_program = (fun () -> Pfm_compile.bind_notes inp.binds);
    ppp_program =
      (fun () ->
        Pfm_compile.ppp_ioctl_notes
          (Option.value inp.ppp ~default:{ Pppopts.directives = [] })) }

(* One entry point for the whole lint and for the load-time gate: each source
   in [sources] gets its declarative checks, its compiled-program checks
   and its per-phase residuals; sources outside the set are not compiled
   or analysed at all.  The cross-source checks run on every call.  The
   result is the whole lint's findings for those sources, in the same
   order. *)
let lint ?programs ?sources (inp : input) =
  let sources = match sources with Some s -> s | None -> all_sources inp in
  let part source run = if List.mem source sources then run () else [] in
  let progs =
    match programs with Some p -> p | None -> compile_programs inp
  in
  let mounts () =
    let p, notes = progs.mount_program () in
    let mp =
      lint_program ~source:"mounts" ~notes ~entries:(List.length inp.mounts) p
    in
    let p, notes = progs.umount_program () in
    (* The umount program's verdict shape tracks the mount one; re-flagging
       NEVER-ALLOW here would duplicate every mounts finding. *)
    let up = lint_program ~source:"mounts" ~notes ~entries:0 p in
    List.concat
      [
        lint_mounts inp.mounts;
        mp;
        up;
        lint_phase_residuals ~source:"mounts"
          ~phased:
            (List.exists
               (fun r -> r.Pfm_compile.fm_phase <> Phase.Always)
               inp.mounts)
          ~compile_at:(fun ph -> Pfm_compile.mount_notes ~phase:ph inp.mounts);
      ]
  in
  let binds () =
    let p, notes = progs.bind_program () in
    List.concat
      [
        lint_binds inp.binds;
        lint_program ~source:"binds" ~notes ~entries:(List.length inp.binds) p;
        lint_phase_residuals ~source:"binds"
          ~phased:
            (List.exists
               (fun (e : Bindconf.entry) -> e.phase <> Phase.Always)
               inp.binds)
          ~compile_at:(fun ph -> Pfm_compile.bind_notes ~phase:ph inp.binds);
      ]
  in
  let chains run =
    List.concat_map
      (fun ((name, _, _) as c) -> part ("netfilter:" ^ name) (fun () -> run c))
      inp.chains
  in
  let ppp t () =
    let p, notes = progs.ppp_program () in
    List.concat
      [
        lint_ppp t;
        lint_program ~source:"ppp" ~notes ~entries:0 p;
        lint_phase_residuals ~source:"ppp"
          ~phased:
            (List.exists
               (function
                 | Pppopts.Allow_device (_, g) -> g <> Phase.Always
                 | _ -> false)
               t.Pppopts.directives)
          ~compile_at:(fun ph -> Pfm_compile.ppp_ioctl_notes ~phase:ph t);
      ]
  in
  List.concat
    [
      part "mounts" mounts;
      part "binds" binds;
      part "delegation" (fun () -> lint_delegation inp.delegation inp.accounts);
      chains (fun (name, rules, policy) -> lint_chain name rules policy);
      chains (fun (name, rules, policy) ->
          let p, notes = Pfm_compile.netfilter_notes ~rules ~policy in
          lint_program ~source:("netfilter:" ^ name) ~notes
            ~entries:(List.length rules) p);
      (match inp.ppp with None -> [] | Some t -> part "ppp" (ppp t));
      lint_cross inp;
    ]

(* --- reporting ---------------------------------------------------------- *)

let has_errors findings = List.exists (fun f -> f.severity = Error) findings

let render findings =
  match findings with
  | [] -> "no findings\n"
  | fs ->
      let lines = List.map finding_to_string fs in
      let errors = List.length (List.filter (fun f -> f.severity = Error) fs) in
      let warnings =
        List.length (List.filter (fun f -> f.severity = Warning) fs)
      in
      let infos = List.length (List.filter (fun f -> f.severity = Info) fs) in
      String.concat "\n" lines
      ^ Printf.sprintf "\n%d finding(s): %d error(s), %d warning(s), %d \
                        info\n"
          (List.length fs) errors warnings infos

(* --- netfilter chain files ---------------------------------------------- *)

(* The lint CLI reads a chain as a file of rule specs with an optional
   leading `policy ACCEPT|DROP|REJECT' line:

     policy DROP
     -p tcp --dport 22 -j ACCEPT
     -p icmp --icmp-type echo-request -j ACCEPT
*)
let parse_chain contents =
  let lines = String.split_on_char '\n' contents in
  let rec go policy rules = function
    | [] -> Ok (List.rev rules, policy)
    | line :: rest -> (
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go policy rules rest
        else
          match String.split_on_char ' ' line with
          | [ "policy"; v ] -> (
              match v with
              | "ACCEPT" -> go Netfilter.Accept rules rest
              | "DROP" -> go Netfilter.Drop rules rest
              | "REJECT" -> go Netfilter.Reject rules rest
              | _ -> Error (Printf.sprintf "unknown chain policy %s" v))
          | _ -> (
              match Netfilter.rule_of_spec line with
              | Ok r -> go policy (r :: rules) rest
              | Error e -> Error e))
  in
  go Netfilter.Accept [] lines
