module Pfm = Protego_filter.Pfm
module Compile = Protego_filter.Pfm_compile
module Errno = Protego_base.Errno
module DC = Decision_cache
module J = Protego_journal.Journal

type kind = Mount | Umount | Bind | Nf_output | Ppp_ioctl

let kind_name = function
  | Mount -> "mount"
  | Umount -> "umount"
  | Bind -> "bind"
  | Nf_output -> "nf_output"
  | Ppp_ioctl -> "ppp_ioctl"

let deny_errno = function
  | Bind -> Some Errno.EACCES
  | Mount | Umount | Ppp_ioctl -> Some Errno.EPERM
  | Nf_output -> None

let errno kind (v : Pfm.verdict) =
  match v with Pfm.Allow -> None | Pfm.Deny | Pfm.Reject -> deny_errno kind

(* --- the packet key -----------------------------------------------------

   The request hooks' keys are {!Request.key}.  The packet context is
   the canonical integer encoding of everything the chain can match on;
   ints are zigzag varints, so the layout is injective. *)
let nf_key k (ctx : Pfm.ctx) =
  let ints = ctx.Pfm.ints in
  for i = 0 to Array.length ints - 1 do
    DC.Key.int k (Array.unsafe_get ints i)
  done

(* --- deciders and hooks ------------------------------------------------ *)

type engine = [ `Pfm | `Ref ]

type stats = {
  mutable served : int;
  mutable served_allow : int;
  mutable served_deny : int;
  mutable evals : int;
  mutable eval_allow : int;
  mutable eval_deny : int;
  mutable eval_reject : int;
}

type ('e, 'a) hook = {
  kind : kind;
  ch : DC.hook;
  encode : DC.Key.t -> int -> 'a -> unit;
  eval : 'e -> engine -> phase:int -> 'a -> Pfm.verdict;
  k_cache : Trace.key;
  k_pfm : Trace.key;
  k_ref : Trace.key;
  stats : stats;
  (* the front slot *)
  mutable s_epoch : int;  (* decision-cache epoch; -1: never filled *)
  mutable s_stamp : int;
  mutable s_sub : int;
  mutable s_ph : int;
  mutable s_raw : 'a option;
  mutable s_verdict : Pfm.verdict;
}

type t = {
  cache : DC.t;
  trace : Trace.t;
  key : DC.Key.t;  (* the table key of a decision, rewritten per slot miss *)
  mutable traced : bool;
      (* mirror of [Trace.armed trace] (kept current via [Trace.on_arm]):
         the prologue reads it here instead of chasing into the tracer *)
  mutable record : bool;
  mutable last_recorded : bool;
  mutable last_engine : int;  (* a journal engine code *)
  mutable last_span : int;
      (* 0 when none: kept unboxed so the untraced path never writes it *)
}

let create ~cache ~trace =
  let d =
    { cache; trace; key = DC.Key.create (); traced = false; record = false;
      last_recorded = false; last_engine = J.engine_pfm; last_span = 0 }
  in
  (* Clearing last_span here (not per decision) keeps the unarmed hot
     path store-free: while armed every decision sets it in [conclude],
     while unarmed it stays 0. *)
  Trace.on_arm trace (fun armed ->
      d.traced <- armed;
      d.last_span <- 0);
  d

let hook d kind ~key ~eval =
  let name = kind_name kind in
  let series engine = Trace.register d.trace ~hook:name ~engine in
  let k_cache = series "cache" in
  let k_pfm = series "pfm" in
  let k_ref = series "ref" in
  { kind; ch = DC.register d.cache name; encode = key; eval;
    k_cache; k_pfm; k_ref;
    stats =
      { served = 0; served_allow = 0; served_deny = 0; evals = 0;
        eval_allow = 0; eval_deny = 0; eval_reject = 0 };
    s_epoch = -1; s_stamp = 0; s_sub = 0; s_ph = 0; s_raw = None;
    s_verdict = Pfm.Deny }

let cache d = d.cache
let trace d = d.trace
let kind h = h.kind
let stats h = h.stats
let hits h = h.ch.DC.h_hits

let reset_stats h =
  let s = h.stats in
  s.served <- 0; s.served_allow <- 0; s.served_deny <- 0; s.evals <- 0;
  s.eval_allow <- 0; s.eval_deny <- 0; s.eval_reject <- 0

let record d = d.record
let set_record d on = d.record <- on; d.last_recorded <- false
let last_recorded d = d.last_recorded
let last_engine d = d.last_engine
let last_span d = if d.last_span = 0 then None else Some d.last_span
let last_span_id d = d.last_span

let flip d v =
  let r = d.record && v <> Pfm.Allow in
  d.last_recorded <- r;
  if r then Pfm.Allow else v

(* --- the ladder --------------------------------------------------------- *)

let served s (v : Pfm.verdict) =
  s.served <- s.served + 1;
  match v with
  | Pfm.Allow -> s.served_allow <- s.served_allow + 1
  | Pfm.Deny | Pfm.Reject -> s.served_deny <- s.served_deny + 1

let evaluated s (v : Pfm.verdict) =
  s.evals <- s.evals + 1;
  match v with
  | Pfm.Allow -> s.eval_allow <- s.eval_allow + 1
  | Pfm.Deny -> s.eval_deny <- s.eval_deny + 1
  | Pfm.Reject -> s.eval_reject <- s.eval_reject + 1

(* Close out a traced decision: the serving engine's histogram always sees
   the latency; a span is recorded only when spans are on ([stages] is
   oldest-first by then). *)
let conclude d h k ~t0 ~gen ~stages v =
  let tr = d.trace in
  let fin = Trace.now tr in
  Trace.observe k ~ns:(fin - t0);
  d.last_span <-
    (match
       Trace.record_span tr ~hook:k.Trace.k_hook ~engine:k.Trace.k_engine
         ~verdict:v ~errno:(errno h.kind v) ~gen ~epoch:(DC.epoch d.cache)
         ~start:t0 ~finish:fin ~stages
     with
     | Some id -> id
     | None -> 0)

let since d t0 = Trace.now d.trace - t0

(* The slot, then the table, then the engine.  The slot serves when it
   is fresh for these scalars and holds [raw] itself; a stage is
   recorded as each rung is passed. *)
let decide d h env ~stamp ~gen ~subject ~phase ~engine raw =
  let t0 = if d.traced then Trace.now d.trace else 0 in
  let c = d.cache in
  let on = DC.enabled c in
  let sp = d.traced && Trace.spans_enabled d.trace in
  if
    on && h.s_epoch = DC.epoch c && h.s_stamp = stamp && h.s_sub = subject
    && h.s_ph = phase
    && (match h.s_raw with Some r -> r == raw | None -> false)
  then begin
    DC.record_hit c h.ch;
    d.last_engine <- J.engine_cache;
    let v = h.s_verdict in
    served h.stats v;
    if d.traced then
      conclude d h h.k_cache ~t0 ~gen
        ~stages:(if sp then [ ("slot", since d t0) ] else [])
        v;
    v
  end
  else begin
    let stages = if sp then [ ("slot", since d t0) ] else [] in
    (* find/add ignore the key while the cache is off: skip encoding it. *)
    let key = d.key in
    if on then begin
      DC.Key.reset key;
      h.encode key phase raw
    end;
    let found = DC.find c h.ch ~subject ~key ~gen in
    let stages = if sp then ("table", since d t0) :: stages else stages in
    let v, k, stages =
      match found with
      | Some v ->
          d.last_engine <- J.engine_cache;
          (v, h.k_cache, stages)
      | None ->
          let v = h.eval env engine ~phase raw in
          evaluated h.stats v;
          DC.add c h.ch ~subject ~key ~gen ~verdict:v;
          let k =
            match engine with
            | `Pfm -> d.last_engine <- J.engine_pfm; h.k_pfm
            | `Ref -> d.last_engine <- J.engine_ref; h.k_ref
          in
          (v, k, if sp then ("engine", since d t0) :: stages else stages)
    in
    (* A bypassed decision never refills the slot, so it is never
       replayed after re-enabling. *)
    if on then begin
      h.s_epoch <- DC.epoch c;
      h.s_stamp <- stamp;
      h.s_sub <- subject;
      h.s_ph <- phase;
      h.s_raw <- Some raw;
      h.s_verdict <- v
    end;
    served h.stats v;
    if d.traced then conclude d h k ~t0 ~gen ~stages:(List.rev stages) v;
    v
  end
