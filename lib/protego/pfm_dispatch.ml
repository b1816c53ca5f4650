module Pfm = Protego_filter.Pfm
module Compile = Protego_filter.Pfm_compile
module Netfilter = Protego_net.Netfilter
module Packet = Protego_net.Packet
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

type status =
  | Inactive
  | Active of Pfm_opt.report
  | Refused of string
  | Stale

type outcome =
  | Installed of { replaced : Pfm.program; report : Pfm_opt.report }
  | Already_installed
  | No_rewrite
  | Rejected of string
  | Skipped
  | Reverted

(* One hook's program, keyed on the physical identity of what it was
   built from (a request hook: the store's program for the source value;
   the packet hook: the chain), with the reloads a source change forced
   and the bytecode instructions its runs retired.  The key is not the
   generation: a bare generation bump (a reload that changes no value)
   must stale the cached verdicts without touching the program.  The
   optimizer's state rides along: the (original, optimized) pair it
   installed, and the last gate result ([status], never [Stale]). *)
type 'k prog = {
  mutable slot : ('k * Pfm.program) option;
  mutable invalidations : int;
  mutable insns : int;
  mutable installed : (Pfm.program * Pfm.program) option;
  mutable status : status;
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
  (* the ladder's hooks: the four request hooks by {!Request.index}, and
     the packet hook *)
  reqs : (Policy_state.t, Request.t) Decider.hook array;
  nf : (Netfilter.t, packet) Decider.hook;
  hooks : (string * any_hook) list;  (* filter_stats order, by name *)
  mutable opt_rejects : int;  (* gate rejections since [create] *)
}

let fresh_prog () =
  { slot = None; invalidations = 0; insns = 0; installed = None;
    status = Inactive }

let reload c key p =
  if Option.is_some c.slot then c.invalidations <- c.invalidations + 1;
  c.slot <- Some (key, p);
  p

let eval_counted c p ctx =
  let before = p.Pfm.retired in
  let v = Pfm.eval p ctx in
  c.insns <- c.insns + (p.Pfm.retired - before);
  v

(* A request hook: when the store's program for the live source value
   is not the one the slot was filled from (the value changed), take a
   counter-fresh clone of it — the store, not the dispatcher, compiles. *)
let run_stored c st kind ctx =
  let orig = Policy_state.program st kind in
  let p =
    match c.slot with
    | Some (k, p) when k == orig -> p
    | _ -> reload c orig (Pfm.clone orig)
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

let create () =
  let dec =
    Decider.create ~cache:(Decision_cache.create ()) ~trace:(Trace.create ())
  in
  let progs = Array.init Request.count (fun _ -> fresh_prog ()) in
  (* The request hooks share one key and one engine ({!Request.eval});
     the program is a clone of the store's, per hook. *)
  let request i =
    Decider.hook dec (Request.kind_of_index i) ~key:Request.key
      ~eval:(Request.eval ~state:Fun.id ~run:(run_stored progs.(i)))
  in
  (* Registration order fixes the order of the cache_stats and latency
     lines: mount, umount, bind, nf_output, ppp_ioctl. *)
  let mount = request 0 in
  let umount = request 1 in
  let bind = request 2 in
  let nf_prog = fresh_prog () in
  let nf =
    Decider.hook dec Decider.Nf_output
      ~key:(fun k _ p -> Decider.nf_key k (packet_ctx p))
      ~eval:(fun nf engine ~phase:_ p ->
        match engine with
        | `Ref ->
            Compile.verdict_of_netfilter
              (Netfilter.walk nf Netfilter.Output p.pkt ~origin:p.origin)
        | `Pfm -> run_nf nf_prog nf (packet_ctx p))
  in
  let ppp = request 3 in
  let reqs = [| mount; umount; bind; ppp |] in
  let hooks =
    List.map
      (fun (Hook (h, _) as hp) -> (Decider.kind_name (Decider.kind h), hp))
      [ Hook (mount, progs.(0)); Hook (umount, progs.(1));
        Hook (bind, progs.(2)); Hook (nf, nf_prog); Hook (ppp, progs.(3)) ]
  in
  { engine = `Pfm; lint_mode = `Warn; dec; reqs; nf; hooks; opt_rejects = 0 }

let engine t = t.engine
let set_engine t e = t.engine <- e
let engine_name t = match t.engine with `Pfm -> "pfm" | `Ref -> "ref"
let decision_engine t = Decider.last_engine t.dec

let decision_engine_name t =
  Protego_journal.Journal.engine_name (Decider.last_engine t.dec)
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

let opt_rejects t = t.opt_rejects

let outcome_to_string = function
  | Installed { report; _ } -> "installed: " ^ Pfm_opt.report_to_string report
  | Already_installed -> "unchanged: optimization already installed"
  | No_rewrite -> "unchanged: no profitable rewrite"
  | Rejected reason -> "rejected: " ^ reason
  | Skipped -> "skipped: no compiled program"
  | Reverted -> "reverted"

let audited = function
  | Installed _ | Reverted -> Some true
  | Rejected _ -> Some false
  | Already_installed | No_rewrite | Skipped -> None

let status_to_string = function
  | Inactive -> "none"
  | Active report -> "active: " ^ Pfm_opt.report_to_string report
  | Refused reason -> "rejected: " ^ reason
  | Stale -> "stale (policy changed)"

(* The slot still serves the optimization installed in it. *)
let serving c =
  match c.installed, c.slot with
  | Some (_, q), Some (_, cur) -> q == cur
  | _ -> false

(* Gate and install one hook's optimized program.  The slot keeps its
   key, so a policy reload still replaces it with the new source's
   program (after which the installed optimization reads as stale in
   {!statuses}).  Soundness rests entirely on the gate: {!Pfm.verify}
   must accept AND {!Pfm_equiv.prove} must return [Equal].  A
   counterexample or an [Unknown] keeps the original program running
   and is reported as [Rejected] — "trust me" never installs. *)
let optimize_slot t (name, Hook (_, c)) =
  ( name,
    match c.slot with
    | None -> Skipped
    | Some _ when serving c -> Already_installed
    | Some (key, p) -> (
        match Pfm_opt.optimize p with
        | None -> No_rewrite
        | Some (q, report) -> (
            let reject reason =
              t.opt_rejects <- t.opt_rejects + 1;
              c.status <- Refused reason;
              Rejected reason
            in
            match Pfm.verify q with
            | Error e -> reject ("verify: " ^ Pfm.verify_error_to_string e)
            | Ok () -> (
                match Pfm_equiv.prove p q with
                | Pfm_equiv.Equal ->
                    c.slot <- Some (key, q);
                    c.installed <- Some (p, q);
                    c.status <- Active report;
                    Installed { replaced = p; report }
                | Pfm_equiv.Not_equal _ as r ->
                    reject ("refuted: " ^ Pfm_equiv.result_to_string r)
                | Pfm_equiv.Unknown m -> reject ("unproven: " ^ m)))) )

let optimize t = List.map (optimize_slot t) t.hooks

let deoptimize t =
  List.filter_map
    (fun (name, Hook (_, c)) ->
      match c.installed with
      | None -> None
      | Some (orig, _) ->
          (* after a policy change the slot already holds fresh code *)
          (match c.slot with
           | Some (key, _) when serving c -> c.slot <- Some (key, orig)
           | _ -> ());
          c.installed <- None;
          c.status <- Inactive;
          Some (name, Reverted))
    t.hooks

(* The stored status, unless the slot no longer serves the installed
   program: a reload that replaced it demotes the hook to [Stale],
   whatever the gate said since. *)
let statuses t =
  List.map
    (fun (name, Hook (_, c)) ->
      ( name,
        if Option.is_some c.installed && not (serving c) then Stale
        else c.status ))
    t.hooks

(* --- hook decisions ---------------------------------------------------- *)

(* Each decision serves [Decider.flip] of the ladder's true verdict. *)
let decide t ~phase st req =
  let i = Request.index req in
  let gen = Policy_state.generation st (Request.source_of_index i) in
  let v =
    Decider.decide t.dec t.reqs.(i) st ~stamp:gen ~gen
      ~subject:(Request.subject req) ~phase:(Phase.index phase) ~engine:t.engine
      req
  in
  Decider.flip t.dec v = Pfm.Allow

let decide_nf_output t nf pkt ~origin =
  let gen = Netfilter.generation nf in
  let v =
    Decider.decide t.dec t.nf nf ~stamp:gen ~gen ~subject:0 ~phase:0
      ~engine:t.engine { pkt; origin; ctx = no_ctx }
  in
  Compile.netfilter_of_verdict (Decider.flip t.dec v)

(* --- load-time policy lint --------------------------------------------- *)

let lint_accounts users groups =
  { Policy_lint.user_names =
      List.map
        (fun (u : Policy_state.account_user) ->
          (u.Policy_state.au_name, u.Policy_state.au_uid))
        users;
    group_names =
      List.map (fun (g : Policy_state.account_group) -> g.Policy_state.ag_name)
        groups }

let lint_input ?(chains = []) (st : Policy_state.t) =
  {
    Policy_lint.mounts = List.map Policy_state.filter_rule st.Policy_state.mounts;
    binds = st.Policy_state.binds;
    delegation = st.Policy_state.delegation;
    accounts = lint_accounts st.Policy_state.users st.Policy_state.groups;
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
      Buffer.add_string b
        (Printf.sprintf "opt %s %s\n" name (status_to_string status)))
    (statuses t);
  Buffer.add_string b (Printf.sprintf "opt_rejects %d\n" t.opt_rejects);
  Buffer.contents b

let handle_write t contents =
  match String.trim contents with
  | "reset" -> reset_stats t; Ok []
  | "engine pfm" -> t.engine <- `Pfm; Ok []
  | "engine ref" -> t.engine <- `Ref; Ok []
  (* Gate rejections are not write errors: the original program keeps
     serving and the rejection is among the outcomes. *)
  | "optimize" -> Ok (optimize t)
  | "deoptimize" -> Ok (deoptimize t)
  | other -> Error ("filter_stats: unknown command: " ^ other)
