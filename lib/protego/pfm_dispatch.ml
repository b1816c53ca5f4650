module Pfm = Protego_filter.Pfm
module Compile = Protego_filter.Pfm_compile
module Netfilter = Protego_net.Netfilter
module Packet = Protego_net.Packet
module Bindconf = Protego_policy.Bindconf
module Phase = Protego_base.Phase

module Policy_lint = Protego_analysis.Policy_lint
module Pfm_opt = Protego_filter.Pfm_opt
module Pfm_equiv = Protego_analysis.Pfm_equiv

type engine = Decider.engine
type lint_mode = [ `Warn | `Enforce ]

type hook_stats = {
  mutable evals : int;
  mutable allow : int;
  mutable deny : int;
  mutable reject : int;
  mutable invalidations : int;
  mutable insns : int;
}

(* One hook's program, keyed on the physical identity of the policy
   source it was built from, with the reloads a source change forced and
   the bytecode instructions its runs retired.  The key is the source
   value, not its generation: a bare generation bump (a reload that
   changes no value) must stale the cached verdicts without touching the
   program. *)
type 'k prog = {
  mutable slot : ('k * Pfm.program) option;
  mutable invalidations : int;
  mutable insns : int;
}

(* A hook's ladder and its program, whatever their argument and source
   types: what the per-hook /proc and optimizer walks iterate over. *)
type any_hook = Hook : ('e, 'a) Decider.hook * 'k prog -> any_hook

(* A packet decision's raw arguments.  The table key and the compiled
   program both read the packet's PFM context: whichever runs first
   builds it, once per decision. *)
type packet = {
  pkt : Packet.t;
  origin : Packet.origin;
  mutable ctx : Pfm.ctx;  (* [no_ctx] until built *)
}

let no_ctx = { Pfm.ints = [||]; strs = [||] }

let packet_ctx p =
  if p.ctx == no_ctx then p.ctx <- Compile.packet_ctx p.pkt ~origin:p.origin;
  p.ctx

type t = {
  mutable engine : engine;
  mutable lint_mode : lint_mode;
  dec : Decider.t;
  (* the ladder's hooks, keyed by their raw argument tuples *)
  mount :
    ( Policy_state.t,
      string * string * string * Protego_kernel.Ktypes.mount_flag list )
    Decider.hook;
  umount : (Policy_state.t, string * int) Decider.hook;
  bind : (Policy_state.t, string * int * Bindconf.proto) Decider.hook;
  nf : (Netfilter.t, packet) Decider.hook;
  ppp : (Policy_state.t, string * Protego_net.Ppp.option_) Decider.hook;
  hooks : (string * any_hook) list;  (* filter_stats order, by name *)
  (* profile-guided recompilation: per hook the (original, optimized)
     pair currently installed, a human-readable status, the running
     count of gate rejections, and pending log lines for dmesg/audit *)
  opt_installed : (string, Pfm.program * Pfm.program) Hashtbl.t;
  opt_status : (string, string) Hashtbl.t;
  mutable opt_rejects : int;
  mutable opt_log : string list; (* newest first *)
}

let fresh_prog () = { slot = None; invalidations = 0; insns = 0 }

let reload c key p =
  if Option.is_some c.slot then c.invalidations <- c.invalidations + 1;
  c.slot <- Some (key, p);
  p

let eval_counted c p ctx =
  let before = p.Pfm.retired in
  let v = Pfm.eval p ctx in
  c.insns <- c.insns + (p.Pfm.retired - before);
  v

(* A [Policy_state]-backed hook: when the source value changed since the
   slot was filled, take a counter-fresh clone of the store's program for
   the new value — the store, not the dispatcher, compiles. *)
let run_stored c st kind key ctx =
  let p =
    match c.slot with
    | Some (k, p) when k == key -> p
    | _ -> reload c key (Pfm.clone (Policy_state.program st kind))
  in
  eval_counted c p ctx

(* The netfilter OUTPUT hook: its chain lives on the machine, not in
   [Policy_state], so it keeps a lazy compile keyed by (rules identity,
   policy). *)
let run_nf c nf ctx =
  let rules = Netfilter.rules nf Netfilter.Output
  and policy = Netfilter.policy nf Netfilter.Output in
  let p =
    match c.slot with
    | Some ((r, pol), p) when r == rules && pol = policy -> p
    | _ -> reload c (rules, policy) (Compile.netfilter ~rules ~policy)
  in
  eval_counted c p ctx

let of_bool b = if b then Pfm.Allow else Pfm.Deny

let create () =
  let dec =
    Decider.create ~cache:(Decision_cache.create ()) ~trace:(Trace.create ())
  in
  let mount_prog = fresh_prog () and umount_prog = fresh_prog () in
  let bind_prog = fresh_prog () and nf_prog = fresh_prog () in
  let ppp_prog = fresh_prog () in
  (* Each hook's engine runs its policy source's PFM program, or the
     reference walk.  Registration order fixes the order of the
     cache_stats and latency lines. *)
  let mount =
    Decider.hook dec Decider.Mount
      ~key:(fun k phase (source, target, fstype, flags) ->
        Decider.mount_key k ~phase ~source ~target ~fstype ~flags)
      ~eval:(fun st engine ~phase ~subject:_ (source, target, fstype, flags) ->
        match engine with
        | `Ref ->
            of_bool
              (Policy_state.mount_decision ~phase:(Phase.of_index phase) st
                 ~source ~target ~fstype ~flags)
        | `Pfm ->
            run_stored mount_prog st Policy_state.Mount_program
              st.Policy_state.mounts
              (Compile.mount_ctx ~phase ~source ~target ~fstype ~flags))
  in
  let umount =
    Decider.hook dec Decider.Umount
      ~key:(fun k phase (target, mounted_by) ->
        Decider.umount_key k ~phase ~target ~mounted_by)
      ~eval:(fun st engine ~phase ~subject:ruid (target, mounted_by) ->
        match engine with
        | `Ref ->
            of_bool
              (Policy_state.umount_decision ~phase:(Phase.of_index phase) st
                 ~target ~mounted_by ~ruid)
        | `Pfm ->
            run_stored umount_prog st Policy_state.Umount_program
              st.Policy_state.mounts
              (Compile.umount_ctx ~phase ~target ~mounted_by ~ruid))
  in
  let bind =
    Decider.hook dec Decider.Bind
      ~key:(fun k phase (exe, port, proto) ->
        Decider.bind_key k ~phase ~port ~proto ~exe)
      ~eval:(fun st engine ~phase ~subject:uid (exe, port, proto) ->
        match engine with
        | `Ref ->
            of_bool
              (Policy_state.bind_allowed ~phase:(Phase.of_index phase) st ~port
                 ~proto ~exe ~uid)
        | `Pfm ->
            run_stored bind_prog st Policy_state.Bind_program
              st.Policy_state.binds
              (Compile.bind_ctx ~phase ~port ~proto ~exe ~uid))
  in
  let nf =
    Decider.hook dec Decider.Nf_output
      ~key:(fun k _ p -> Decider.nf_key k (packet_ctx p))
      ~eval:(fun nf engine ~phase:_ ~subject:_ p ->
        match engine with
        | `Ref ->
            Compile.verdict_of_netfilter
              (Netfilter.walk nf Netfilter.Output p.pkt ~origin:p.origin)
        | `Pfm -> run_nf nf_prog nf (packet_ctx p))
  in
  let ppp =
    Decider.hook dec Decider.Ppp_ioctl
      ~key:(fun k phase (device, opt) -> Decider.ppp_key k ~phase ~device ~opt)
      ~eval:(fun st engine ~phase ~subject:_ (device, opt) ->
        match engine with
        | `Ref ->
            of_bool
              (Policy_state.ppp_ioctl_decision ~phase:(Phase.of_index phase) st
                 ~device ~opt)
        | `Pfm ->
            run_stored ppp_prog st Policy_state.Ppp_program st.Policy_state.ppp
              (Compile.ppp_ctx ~phase ~device ~opt))
  in
  let hooks =
    List.map
      (fun (Hook (h, _) as hp) -> (Decider.kind_name (Decider.kind h), hp))
      [ Hook (mount, mount_prog); Hook (umount, umount_prog);
        Hook (bind, bind_prog); Hook (nf, nf_prog); Hook (ppp, ppp_prog) ]
  in
  { engine = `Pfm; lint_mode = `Warn; dec; mount; umount; bind; nf; ppp; hooks;
    opt_installed = Hashtbl.create 8; opt_status = Hashtbl.create 8;
    opt_rejects = 0; opt_log = [] }

let engine t = t.engine
let set_engine t e = t.engine <- e
let engine_name t = match t.engine with `Pfm -> "pfm" | `Ref -> "ref"
let decision_engine t = Decider.last_engine t.dec

let decision_engine_name t =
  Protego_journal.Journal.engine_name (Decider.last_engine t.dec)
let lint_mode t = t.lint_mode
let set_lint_mode t m = t.lint_mode <- m

let record_mode t = Decider.record t.dec
let set_record t on = Decider.set_record t.dec on
let last_recorded t = Decider.last_recorded t.dec

let lint_mode_name t =
  match t.lint_mode with `Warn -> "warn" | `Enforce -> "enforce"

let cache t = Decider.cache t.dec
let trace t = Decider.trace t.dec
let last_span t = Decider.last_span t.dec
let last_span_id t = Decider.last_span_id t.dec

let stats t =
  List.map
    (fun (name, Hook (h, p)) ->
      let s = Decider.stats h in
      ( name,
        { evals = s.Decider.evals; allow = s.Decider.eval_allow;
          deny = s.Decider.eval_deny; reject = s.Decider.eval_reject;
          invalidations = p.invalidations; insns = p.insns } ))
    t.hooks

let reset_stats t =
  List.iter
    (fun (_, Hook (h, p)) ->
      Decider.reset_stats h;
      p.invalidations <- 0;
      p.insns <- 0)
    t.hooks

let cached_program t name =
  match List.assoc_opt name t.hooks with
  | Some (Hook (_, { slot = Some (_, p); _ })) -> Some p
  | Some (Hook (_, { slot = None; _ })) | None -> None

(* --- profile-guided recompilation --------------------------------------- *)

let log_opt t line = t.opt_log <- line :: t.opt_log

let drain_opt_log t =
  let l = List.rev t.opt_log in
  t.opt_log <- [];
  l

let opt_rejects t = t.opt_rejects

(* Gate and install one hook's optimized program.  The slot keeps its
   key, so a policy reload still replaces it with the new source's
   program (after which the installed optimization reads as stale in
   {!render}).  Soundness
   rests entirely on the gate: {!Pfm.verify} must accept AND
   {!Pfm_equiv.prove} must return [Equal].  A counterexample or an
   [Unknown] keeps the original program running and leaves an audit line
   — "trust me" never installs. *)
let optimize_slot t (name, Hook (_, c)) =
  match c.slot with
  | None -> (name, "skipped: no compiled program")
  | Some (key, p) ->
      let already =
        match Hashtbl.find_opt t.opt_installed name with
        | Some (_, q) -> q == p
        | None -> false
      in
      if already then (name, "unchanged: optimization already installed")
      else begin
        match Pfm_opt.optimize p with
        | None -> (name, "unchanged: no profitable rewrite")
        | Some (q, rep) -> (
            let reject reason =
              t.opt_rejects <- t.opt_rejects + 1;
              Hashtbl.replace t.opt_status name ("rejected: " ^ reason);
              log_opt t (Printf.sprintf "opt %s rejected: %s" name reason);
              (name, "rejected: " ^ reason)
            in
            match Pfm.verify q with
            | Error e -> reject ("verify: " ^ Pfm.verify_error_to_string e)
            | Ok () -> (
                match Pfm_equiv.prove p q with
                | Pfm_equiv.Equal ->
                    c.slot <- Some (key, q);
                    Hashtbl.replace t.opt_installed name (p, q);
                    let d = Pfm_opt.report_to_string rep in
                    Hashtbl.replace t.opt_status name ("active: " ^ d);
                    log_opt t (Printf.sprintf "opt %s installed: %s" name d);
                    (name, "installed: " ^ d)
                | Pfm_equiv.Not_equal _ as r ->
                    reject ("refuted: " ^ Pfm_equiv.result_to_string r)
                | Pfm_equiv.Unknown m -> reject ("unproven: " ^ m)))
      end

let optimize t = List.map (optimize_slot t) t.hooks

let deoptimize_slot t (name, Hook (_, c)) =
  match Hashtbl.find_opt t.opt_installed name with
  | None -> ()
  | Some (orig, q) ->
      (match c.slot with
       | Some (key, cur) when cur == q -> c.slot <- Some (key, orig)
       | _ -> () (* policy changed since: slot already holds fresh code *));
      Hashtbl.remove t.opt_installed name;
      Hashtbl.remove t.opt_status name;
      log_opt t (Printf.sprintf "opt %s reverted" name)

let deoptimize t = List.iter (deoptimize_slot t) t.hooks

(* The status {!render} shows: "active" only while the optimized program
   is still the one the slot serves; a reload that replaced the slot's
   program demotes it to stale. *)
let opt_status_line t (name, Hook (_, c)) =
  ( name,
    match Hashtbl.find_opt t.opt_status name with
    | None -> "none"
    | Some s -> (
        match Hashtbl.find_opt t.opt_installed name, c.slot with
        | Some (_, q), Some (_, cur) when cur == q -> s
        | Some _, _ -> "stale (policy changed)"
        | None, _ -> s) )

let opt_statuses t = List.map (opt_status_line t) t.hooks

(* --- hook decisions ---------------------------------------------------- *)

(* Callers without task context (bench, fuzz) default to [Phase.initial],
   which is verdict-neutral for unphased policies.  Each decision serves
   [Decider.flip] of the ladder's true verdict. *)

let decide_mount t ?(subject = 0) ?(phase = Phase.initial) (st : Policy_state.t)
    ~source ~target ~fstype ~flags =
  let d = t.dec and h = t.mount in
  let gen = Policy_state.generation st Policy_state.Mounts in
  let v =
    match Decider.probe d h ~stamp:gen ~gen ~subject ~phase:(Phase.index phase) with
    | Some (sr, tg, fs, fl)
      when sr == source && tg == target && fs == fstype && fl == flags ->
        Decider.hit d h
    | _ ->
        Decider.miss d h st ~raw:(source, target, fstype, flags) ~engine:t.engine
  in
  Decider.flip d v = Pfm.Allow

let decide_umount t ?(phase = Phase.initial) (st : Policy_state.t) ~target
    ~mounted_by ~ruid =
  let d = t.dec and h = t.umount in
  let gen = Policy_state.generation st Policy_state.Mounts in
  let v =
    match
      Decider.probe d h ~stamp:gen ~gen ~subject:ruid ~phase:(Phase.index phase)
    with
    | Some (tg, mb) when tg == target && mb = mounted_by -> Decider.hit d h
    | _ -> Decider.miss d h st ~raw:(target, mounted_by) ~engine:t.engine
  in
  Decider.flip d v = Pfm.Allow

let decide_bind t ?(phase = Phase.initial) (st : Policy_state.t) ~port ~proto
    ~exe ~uid =
  let d = t.dec and h = t.bind in
  let gen = Policy_state.generation st Policy_state.Binds in
  let v =
    match
      Decider.probe d h ~stamp:gen ~gen ~subject:uid ~phase:(Phase.index phase)
    with
    | Some (e, po, pr) when e == exe && po = port && pr = proto ->
        Decider.hit d h
    | _ -> Decider.miss d h st ~raw:(exe, port, proto) ~engine:t.engine
  in
  Decider.flip d v = Pfm.Allow

let decide_ppp_ioctl t ?(subject = 0) ?(phase = Phase.initial)
    (st : Policy_state.t) ~device ~opt =
  let d = t.dec and h = t.ppp in
  let gen = Policy_state.generation st Policy_state.Ppp in
  let v =
    match Decider.probe d h ~stamp:gen ~gen ~subject ~phase:(Phase.index phase) with
    | Some (dv, op) when dv == device && op == opt -> Decider.hit d h
    | _ -> Decider.miss d h st ~raw:(device, opt) ~engine:t.engine
  in
  Decider.flip d v = Pfm.Allow

let decide_nf_output t nf pkt ~origin =
  let d = t.dec and h = t.nf in
  let gen = Netfilter.generation nf in
  let v =
    match Decider.probe d h ~stamp:gen ~gen ~subject:0 ~phase:0 with
    | Some p when p.pkt == pkt && p.origin = origin -> Decider.hit d h
    | _ ->
        Decider.miss d h nf ~raw:{ pkt; origin; ctx = no_ctx } ~engine:t.engine
  in
  Compile.netfilter_of_verdict (Decider.flip d v)

(* --- load-time policy lint --------------------------------------------- *)

let lint_input ?(chains = []) (st : Policy_state.t) =
  {
    Policy_lint.mounts = List.map Policy_state.filter_rule st.Policy_state.mounts;
    binds = st.Policy_state.binds;
    delegation = st.Policy_state.delegation;
    accounts =
      {
        Policy_lint.user_names =
          List.map
            (fun (u : Policy_state.account_user) ->
              (u.Policy_state.au_name, u.Policy_state.au_uid))
            st.Policy_state.users;
        group_names =
          List.map
            (fun (g : Policy_state.account_group) -> g.Policy_state.ag_name)
            st.Policy_state.groups;
      };
    ppp = Some st.Policy_state.ppp;
    chains;
  }

(* The whole-source programs of [st], from its program store.  [stage]:
   [st] is a load-gate candidate whose programs go live only if
   {!Policy_state.set} installs its value. *)
let store_programs ?stage st =
  let from kind () = Policy_state.compiled ?stage st kind in
  { Policy_lint.mount_program = from Policy_state.Mount_program;
    umount_program = from Policy_state.Umount_program;
    bind_program = from Policy_state.Bind_program;
    ppp_program = from Policy_state.Ppp_program }

let lint_report ?chains st =
  Policy_lint.lint ~programs:(store_programs st) (lint_input ?chains st)

(* The load-time gate: lint the candidate state a /proc policy write
   would install, over the written [sources] only — each source's own
   findings plus the cross-source checks.  A delegation typo must not
   veto a bind-map install, so the gate never looks wider than the write
   at hand, and never pays for compiling the sources it leaves alone.
   The written sources' programs come from the store, staged: this is
   the write's one compile, and {!Policy_state.set} makes them live if
   the write is accepted.  [`Refused fs] (enforce mode, error-severity findings) means the
   caller must not install the candidate; [`Warned fs] means install but
   tag the audit trail. *)
let check_policy_load t ?chains st ~sources =
  let findings =
    Policy_lint.lint ~programs:(store_programs ~stage:true st) ~sources
      (lint_input ?chains st)
  in
  if t.lint_mode = `Enforce && Policy_lint.has_errors findings then
    `Refused findings
  else if findings <> [] then `Warned findings
  else `Clean

(* --- /proc/protego/filter_stats ---------------------------------------- *)

let render t =
  let b = Buffer.create 256 in
  Buffer.add_string b "engine ";
  Buffer.add_string b (engine_name t);
  Buffer.add_char b '\n';
  List.iter
    (fun (name, s) ->
      Buffer.add_string b
        (Printf.sprintf
           "hook %s evals %d allow %d deny %d reject %d invalidations %d insns %d\n"
           name s.evals s.allow s.deny s.reject s.invalidations s.insns))
    (stats t);
  List.iter
    (fun (name, status) ->
      Buffer.add_string b (Printf.sprintf "opt %s %s\n" name status))
    (opt_statuses t);
  Buffer.add_string b (Printf.sprintf "opt_rejects %d\n" t.opt_rejects);
  Buffer.contents b

let handle_write t contents =
  match String.trim contents with
  | "reset" -> reset_stats t; Ok ()
  | "engine pfm" -> t.engine <- `Pfm; Ok ()
  | "engine ref" -> t.engine <- `Ref; Ok ()
  | "optimize" ->
      (* Gate rejections are not write errors: the original program
         keeps serving and the rejection is audited via the opt log. *)
      ignore (optimize t : (string * string) list);
      Ok ()
  | "deoptimize" -> deoptimize t; Ok ()
  | other -> Error ("filter_stats: unknown command: " ^ other)

(* --- /proc/protego/cache_stats ------------------------------------------ *)

let render_cache t = Decision_cache.render (cache t)
let handle_cache_write t contents = Decision_cache.handle_write (cache t) contents

(* --- /proc/protego/trace and /proc/protego/latency ---------------------- *)

let render_trace t = Trace.render_trace (trace t)
let handle_trace_write t contents = Trace.handle_trace_write (trace t) contents
let render_latency t = Trace.render_latency (trace t)

let handle_latency_write t contents =
  Trace.handle_latency_write (trace t) contents
