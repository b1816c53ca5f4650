module Pfm = Protego_filter.Pfm
module Compile = Protego_filter.Pfm_compile
module Netfilter = Protego_net.Netfilter
module Packet = Protego_net.Packet
module Phase = Protego_base.Phase

module Policy_lint = Protego_analysis.Policy_lint

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

(* One hook's program, keyed on the physical identity of what it was
   built from (a request hook: the store's program for the source value;
   the packet hook: the chain), with the reloads a source change forced
   and the bytecode instructions its runs retired.  The key is not the
   generation: a bare generation bump (a reload that changes no value)
   must stale the cached verdicts without touching the program. *)
type 'k prog = {
  mutable slot : ('k * Pfm.program) option;
  mutable invalidations : int;
  mutable insns : int;
}

(* A hook's ladder and its program, whatever their argument and source
   types: what the per-hook /proc walks iterate over. *)
type any_hook = Hook : ('e, 'a) Decider.hook * 'k prog -> any_hook

type t = {
  mutable engine : engine;
  mutable lint_mode : lint_mode;
  dec : Decider.t;
  cache : Decision_cache.t;  (* the packet hook's table *)
  (* the ladder's hooks: the four request hooks by {!Request.index}, and
     the packet hook *)
  reqs : (Policy_state.t, Request.t) Decider.hook array;
  nf : (Netfilter.t, Packet.t) Decider.hook;
  (* the packet hook's arguments, refilled per send: the table key and
     the compiled chain read the context, the reference walk the origin *)
  nf_ctx : Pfm.ctx;
  nf_origin : Packet.origin ref;
  hooks : (string * any_hook) list;  (* filter_stats order, by name *)
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

(* A request hook's program runner: when the store's program for the
   live source value is not the one the slot was filled from (the value
   changed), take a counter-fresh clone of it — the store, not the
   dispatcher, compiles.  A closure of the runner's own arity, like
   {!Request.eval}'s. *)
let run_stored c =
  let run st kind ctx =
    let orig = Policy_state.program st kind in
    let p =
      match c.slot with
      | Some (k, p) when k == orig -> p
      | _ -> reload c orig (Pfm.clone orig)
    in
    eval_counted c p ctx
  in
  run

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
  let dec = Decider.create ~trace:(Trace.create ()) in
  let progs = Array.init Request.count (fun _ -> fresh_prog ()) in
  (* The request hooks share one engine ({!Request.eval}): the program is
     a clone of the store's, per hook. *)
  let request i =
    Decider.hook dec (Request.kind_of_index i)
      (Request.eval ~state:Fun.id ~run:(run_stored progs.(i)))
  in
  (* Registration order fixes the order of the latency lines: mount,
     umount, bind, nf_output, ppp_ioctl. *)
  let mount = request 0 in
  let umount = request 1 in
  let bind = request 2 in
  let nf_prog = fresh_prog () in
  let cache = Decision_cache.create () in
  let nf_ctx = { Pfm.ints = Array.make Compile.packet_ints 0; strs = [||] } in
  let nf_origin = ref Packet.Kernel_stack in
  let nf =
    Decider.hook dec Decider.Nf_output (fun nf engine ~phase:_ pkt ->
        match engine with
        | `Ref ->
            Compile.verdict_of_netfilter
              (Netfilter.walk nf Netfilter.Output pkt ~origin:!nf_origin)
        | `Pfm -> run_nf nf_prog nf nf_ctx)
  in
  let ppp = request 3 in
  let reqs = [| mount; umount; bind; ppp |] in
  let hooks =
    List.map
      (fun (Hook (h, _) as hp) -> (Decider.kind_name (Decider.kind h), hp))
      [ Hook (mount, progs.(0)); Hook (umount, progs.(1));
        Hook (bind, progs.(2)); Hook (nf, nf_prog); Hook (ppp, progs.(3)) ]
  in
  { engine = `Pfm; lint_mode = `Warn; dec; cache; reqs; nf; nf_ctx; nf_origin;
    hooks }

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

let cache t = t.cache
let trace t = Decider.trace t.dec
let last_span t = Decider.last_span t.dec
let last_span_id t = Decider.last_span_id t.dec

let stats t =
  List.map
    (fun (name, Hook (h, p)) ->
      let s = Decider.stats h in
      ( name,
        { evals = s.Decider.evals; allow = s.Decider.allow;
          deny = s.Decider.deny; reject = s.Decider.reject;
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

(* --- hook decisions ---------------------------------------------------- *)

(* Each decision serves [Decider.flip] of the ladder's true verdict.  A
   request's [gen] only stamps its span: the hook has no table. *)
let decide t ~phase st req =
  let i = Request.index req in
  let v =
    Decider.decide t.dec t.reqs.(i) st
      ~gen:(Policy_state.generation st (Request.source_of_index i))
      ~phase:(Phase.index phase) ~engine:t.engine req
  in
  Decider.flip t.dec v = Pfm.Allow

(* The packet hook's table key is its PFM context's ints, refilled in
   place ([Decision_cache.add] copies them). *)
let decide_nf_output t nf pkt ~origin =
  t.nf_origin := origin;
  Compile.packet_into t.nf_ctx pkt ~origin;
  let v =
    Decider.decide_cached t.dec t.nf t.cache ~key:t.nf_ctx.Pfm.ints nf
      ~gen:(Netfilter.generation nf) ~engine:t.engine pkt
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
  Buffer.contents b

let handle_write t contents =
  match String.trim contents with
  | "reset" -> reset_stats t; Ok ()
  | "engine pfm" -> t.engine <- `Pfm; Ok ()
  | "engine ref" -> t.engine <- `Ref; Ok ()
  | other -> Error ("filter_stats: unknown command: " ^ other)
