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

   The packet context is the canonical integer encoding of everything
   the chain can match on; ints are zigzag varints, so the layout is
   injective. *)
let nf_key k (ctx : Pfm.ctx) =
  let ints = ctx.Pfm.ints in
  for i = 0 to Array.length ints - 1 do
    DC.Key.int k (Array.unsafe_get ints i)
  done

(* --- deciders and hooks ------------------------------------------------ *)

type engine = [ `Pfm | `Ref ]

type stats = {
  mutable evals : int;
  mutable allow : int;
  mutable deny : int;
  mutable reject : int;
}

(* A hook's table: the cache, its per-hook line, the key encoder, the
   scratch key it writes each decision into, and the latency series of
   the decisions the table serves. *)
type 'a table = {
  cache : DC.t;
  ch : DC.hook;
  encode : DC.Key.t -> int -> 'a -> unit;
  key : DC.Key.t;
  k_cache : Trace.key;
}

type ('e, 'a) hook = {
  kind : kind;
  table : 'a table option;
  eval : 'e -> engine -> phase:int -> 'a -> Pfm.verdict;
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

let hook d kind ?table eval =
  let name = kind_name kind in
  let series engine = Trace.register d.trace ~hook:name ~engine in
  let table =
    Option.map
      (fun (cache, encode) ->
        let k_cache = series "cache" in
        { cache; ch = DC.register cache name; encode; key = DC.Key.create ();
          k_cache })
      table
  in
  let k_pfm = series "pfm" in
  let k_ref = series "ref" in
  { kind; table; eval; k_pfm; k_ref;
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
   oldest-first by then). *)
let conclude d h k ~t0 ~gen ~stages v =
  let tr = d.trace in
  let fin = Trace.now tr in
  Trace.observe k ~ns:(fin - t0);
  let epoch = match h.table with Some tb -> DC.epoch tb.cache | None -> 0 in
  d.last_span <-
    (match
       Trace.record_span tr ~hook:k.Trace.k_hook ~engine:k.Trace.k_engine
         ~verdict:v ~errno:(errno h.kind v) ~gen ~epoch ~start:t0 ~finish:fin
         ~stages
     with
     | Some id -> id
     | None -> 0)

let since d t0 = Trace.now d.trace - t0

(* The whole ladder, for a traced decision or a hook with a table.  No
   hook has a front slot, and a hook without a table has no table rung:
   a rung a hook lacks is marked zero-width at the decision's start, so
   every span carries [slot], [table] and [engine] marks in that order. *)
let ladder d h env ~gen ~subject ~phase ~engine raw =
  let t0 = if d.traced then Trace.now d.trace else 0 in
  let sp = d.traced && Trace.spans_enabled d.trace in
  let found =
    match h.table with
    | None -> None
    | Some tb ->
        (* find/add ignore the key while the cache is off: skip encoding
           it. *)
        if DC.enabled tb.cache then begin
          DC.Key.reset tb.key;
          tb.encode tb.key phase raw
        end;
        DC.find tb.cache tb.ch ~subject ~key:tb.key ~gen
  in
  let stages =
    if not sp then []
    else
      [ ("table", if Option.is_none h.table then 0 else since d t0);
        ("slot", 0) ]
  in
  match (found, h.table) with
  | Some v, Some tb ->
      d.last_engine <- J.engine_cache;
      if d.traced then
        conclude d h tb.k_cache ~t0 ~gen ~stages:(List.rev stages) v;
      v
  | _ ->
      let v = run d h env engine ~phase raw in
      (match h.table with
       | Some tb -> DC.add tb.cache tb.ch ~subject ~key:tb.key ~gen ~verdict:v
       | None -> ());
      if d.traced then begin
        let k = match engine with `Pfm -> h.k_pfm | `Ref -> h.k_ref in
        let stages = if sp then ("engine", since d t0) :: stages else stages in
        conclude d h k ~t0 ~gen ~stages:(List.rev stages) v
      end;
      v

(* A hook without a table decides with its engine alone; a traced
   decision takes [ladder] for its marks. *)
let decide d h env ~gen ~subject ~phase ~engine raw =
  if d.traced || Option.is_some h.table then
    ladder d h env ~gen ~subject ~phase ~engine raw
  else run d h env engine ~phase raw
