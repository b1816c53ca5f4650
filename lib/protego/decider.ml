module Pfm = Protego_filter.Pfm
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

(* --- deciders and hooks ------------------------------------------------ *)

type engine = [ `Pfm | `Ref ]

type stats = {
  mutable evals : int;
  mutable allow : int;
  mutable deny : int;
  mutable reject : int;
}

type ('e, 'a) hook = {
  kind : kind;
  eval : 'e -> engine -> phase:int -> 'a -> Pfm.verdict;
  k_cache : Trace.key;  (* table hits: the packet hook's; [k_pfm] otherwise *)
  k_pfm : Trace.key;
  k_ref : Trace.key;
  stats : stats;
}

type t = {
  trace : Trace.t;
  mutable traced : bool;
      (* mirror of [Trace.armed trace] (kept current via [Trace.on_arm]):
         the prologue reads it here instead of chasing into the tracer *)
  mutable record : bool;
  mutable last_recorded : bool;
  mutable last_engine : int;  (* a journal engine code *)
  mutable last_span : int;
      (* 0 when none: kept unboxed so the untraced path never writes it *)
}

let create ~trace =
  let d =
    { trace; traced = false; record = false; last_recorded = false;
      last_engine = J.engine_pfm; last_span = 0 }
  in
  (* Clearing last_span here (not per decision) keeps the unarmed hot
     path store-free: while armed every decision sets it in [conclude],
     while unarmed it stays 0. *)
  Trace.on_arm trace (fun armed ->
      d.traced <- armed;
      d.last_span <- 0);
  d

let hook d kind eval =
  let series engine = Trace.register d.trace ~hook:(kind_name kind) ~engine in
  (* Only the packet hook has a table ({!decide_cached}); the series of its
     hits comes first. *)
  let k_cache = if kind = Nf_output then Some (series "cache") else None in
  let k_pfm = series "pfm" in
  let k_ref = series "ref" in
  { kind; eval; k_cache = Option.value k_cache ~default:k_pfm; k_pfm; k_ref;
    stats = { evals = 0; allow = 0; deny = 0; reject = 0 } }

let trace d = d.trace
let kind h = h.kind
let stats h = h.stats

let reset_stats h =
  let s = h.stats in
  s.evals <- 0; s.allow <- 0; s.deny <- 0; s.reject <- 0

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

(* The engine rung: evaluate, count, and name the engine that served. *)
let run d h env engine ~phase raw =
  let v = h.eval env engine ~phase raw in
  let s = h.stats in
  s.evals <- s.evals + 1;
  (match v with
   | Pfm.Allow -> s.allow <- s.allow + 1
   | Pfm.Deny -> s.deny <- s.deny + 1
   | Pfm.Reject -> s.reject <- s.reject + 1);
  (match engine with
   | `Pfm -> d.last_engine <- J.engine_pfm
   | `Ref -> d.last_engine <- J.engine_ref);
  v

(* Close out a traced decision: the serving engine's histogram always sees
   the latency; a span is recorded only when spans are on ([stages] is
   empty otherwise). *)
let conclude d h k ~t0 ~gen ~epoch ~stages v =
  let tr = d.trace in
  let fin = Trace.now tr in
  Trace.observe k ~ns:(fin - t0);
  d.last_span <-
    (match
       Trace.record_span tr ~hook:k.Trace.k_hook ~engine:k.Trace.k_engine
         ~verdict:v ~errno:(errno h.kind v) ~gen ~epoch ~start:t0 ~finish:fin
         ~stages
     with
     | Some id -> id
     | None -> 0)

let since d t0 = Trace.now d.trace - t0

let engine_key h = function `Pfm -> h.k_pfm | `Ref -> h.k_ref

(* A request hook decides with its engine alone.  A traced decision's
   span still carries [slot], [table] and [engine] marks in that order:
   no hook has a front slot and a request hook has no table, so those
   two are marked zero-width at the decision's start. *)
let decide d h env ~gen ~phase ~engine raw =
  if not d.traced then run d h env engine ~phase raw
  else begin
    let t0 = Trace.now d.trace in
    let sp = Trace.spans_enabled d.trace in
    let v = run d h env engine ~phase raw in
    let stages =
      if sp then [ ("slot", 0); ("table", 0); ("engine", since d t0) ] else []
    in
    conclude d h (engine_key h engine) ~t0 ~gen ~epoch:0 ~stages v;
    v
  end

(* The packet hook: its table, then its engine, the engine's verdict
   memoized under [key].  A hit's span has no [engine] mark. *)
let decide_cached d h cache ~key env ~gen ~engine raw =
  let t0 = if d.traced then Trace.now d.trace else 0 in
  let sp = d.traced && Trace.spans_enabled d.trace in
  let found = DC.find cache ~key ~gen in
  let t_table = if sp then since d t0 else 0 in
  match found with
  | Some v ->
      d.last_engine <- J.engine_cache;
      if d.traced then
        conclude d h h.k_cache ~t0 ~gen ~epoch:(DC.epoch cache)
          ~stages:(if sp then [ ("slot", 0); ("table", t_table) ] else [])
          v;
      v
  | None ->
      let v = run d h env engine ~phase:0 raw in
      DC.add cache ~key ~gen ~verdict:v;
      if d.traced then
        conclude d h (engine_key h engine) ~t0 ~gen ~epoch:(DC.epoch cache)
          ~stages:
            (if sp then
               [ ("slot", 0); ("table", t_table); ("engine", since d t0) ]
             else [])
          v;
      v
