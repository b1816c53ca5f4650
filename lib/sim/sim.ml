(* Deterministic simulation of the decision plane and the LSM-side
   dispatcher.  One OCaml domain, one splitmix64 stream: every decision
   step, publish point, reload, journal append and chain edit is a
   scheduler-chosen event, so any interleaving is replayable from
   (seed, spec) alone — and any recorded action script replays
   byte-for-byte without the seed. *)

module PS = Protego_core.Policy_state
module PD = Protego_core.Pfm_dispatch
module Compile = Protego_filter.Pfm_compile
module Request = Protego_core.Request
module Plane = Protego_plane.Plane
module Snapshot = Protego_plane.Snapshot
module J = Protego_journal.Journal
module Pfm = Protego_filter.Pfm
module Pfm_equiv = Protego_analysis.Pfm_equiv
module Errno = Protego_base.Errno
module Prng = Protego_workload.Prng
module Workload = Protego_workload.Workload
module Netfilter = Protego_net.Netfilter
module Packet = Protego_net.Packet
module Ipaddr = Protego_net.Ipaddr
module Bindconf = Protego_policy.Bindconf
module Ktypes = Protego_kernel.Ktypes
module Phase = Protego_base.Phase

(* --- specs -------------------------------------------------------------- *)

type lane = Lane_plane | Lane_dispatch

type fault_kind = F_crash | F_stale | F_dup | F_drop | F_delay | F_wrap

type spec = {
  sp_lane : lane;
  sp_golden : bool;
  sp_seed : int;
  sp_workers : int;
  sp_steps : int;
  sp_reloads : int;
  sp_edits : int;
  sp_wseed : int;
  sp_flood : bool;
  sp_seg_bytes : int;
  sp_segments : int;
  sp_phases : bool;
  sp_faults : (fault_kind * int) list;
}

let default =
  { sp_lane = Lane_plane; sp_golden = false; sp_seed = 1; sp_workers = 2;
    sp_steps = 64; sp_reloads = 3; sp_edits = 0; sp_wseed = 42;
    sp_flood = false; sp_seg_bytes = 4096; sp_segments = 8; sp_phases = false;
    sp_faults = [] }

let lane_name = function Lane_plane -> "plane" | Lane_dispatch -> "dispatch"

let fault_name = function
  | F_crash -> "crash"
  | F_stale -> "stale"
  | F_dup -> "dup"
  | F_drop -> "drop"
  | F_delay -> "delay"
  | F_wrap -> "wrap"

let fault_of_name = function
  | "crash" -> Some F_crash
  | "stale" -> Some F_stale
  | "dup" -> Some F_dup
  | "drop" -> Some F_drop
  | "delay" -> Some F_delay
  | "wrap" -> Some F_wrap
  | _ -> None

let has_fault k sp = List.exists (fun (k', n) -> k' = k && n > 0) sp.sp_faults

let spec_to_string sp =
  let base =
    Printf.sprintf
      "lane=%s,golden=%d,seed=%d,workers=%d,steps=%d,reloads=%d,edits=%d,\
       wseed=%d,flood=%d,segbytes=%d,segments=%d"
      (lane_name sp.sp_lane)
      (if sp.sp_golden then 1 else 0)
      sp.sp_seed sp.sp_workers sp.sp_steps sp.sp_reloads sp.sp_edits sp.sp_wseed
      (if sp.sp_flood then 1 else 0)
      sp.sp_seg_bytes sp.sp_segments
  in
  (* [phases] and [faults] print only when set, so pre-phase spec
     strings round-trip byte-identically. *)
  let base = if sp.sp_phases then base ^ ",phases=on" else base in
  match sp.sp_faults with
  | [] -> base
  | fs ->
      base ^ ",faults="
      ^ String.concat ";"
          (List.map (fun (k, n) -> fault_name k ^ ":" ^ string_of_int n) fs)

let spec_of_string s =
  let parse_faults v =
    let items = String.split_on_char ';' v in
    List.fold_left
      (fun acc item ->
        match acc with
        | Error _ -> acc
        | Ok fs -> (
            match String.split_on_char ':' item with
            | [ name; n ] -> (
                match (fault_of_name name, int_of_string_opt n) with
                | Some k, Some n when n >= 0 -> Ok (fs @ [ (k, n) ])
                | _ -> Error ("sim: bad fault " ^ item))
            | _ -> Error ("sim: bad fault " ^ item)))
      (Ok []) items
  in
  let field sp k v =
    let int f = match int_of_string_opt v with
      | Some n when n >= 0 -> Ok (f n)
      | _ -> Error (Printf.sprintf "sim: bad value %s=%s" k v)
    in
    match k with
    | "lane" -> (
        match v with
        | "plane" -> Ok { sp with sp_lane = Lane_plane }
        | "dispatch" -> Ok { sp with sp_lane = Lane_dispatch }
        | _ -> Error ("sim: unknown lane " ^ v))
    | "golden" -> int (fun n -> { sp with sp_golden = n <> 0 })
    | "seed" -> int (fun n -> { sp with sp_seed = n })
    | "workers" -> int (fun n -> { sp with sp_workers = n })
    | "steps" -> int (fun n -> { sp with sp_steps = n })
    | "reloads" -> int (fun n -> { sp with sp_reloads = n })
    | "edits" -> int (fun n -> { sp with sp_edits = n })
    | "wseed" -> int (fun n -> { sp with sp_wseed = n })
    | "flood" -> int (fun n -> { sp with sp_flood = n <> 0 })
    | "segbytes" -> int (fun n -> { sp with sp_seg_bytes = n })
    | "segments" -> int (fun n -> { sp with sp_segments = n })
    | "phases" -> (
        match v with
        | "on" | "1" -> Ok { sp with sp_phases = true }
        | "off" | "0" -> Ok { sp with sp_phases = false }
        | _ -> Error (Printf.sprintf "sim: bad value phases=%s" v))
    | "faults" -> (
        match parse_faults v with
        | Ok fs -> Ok { sp with sp_faults = fs }
        | Error e -> Error e)
    | _ -> Error ("sim: unknown spec field " ^ k)
  in
  List.fold_left
    (fun acc kv ->
      match acc with
      | Error _ -> acc
      | Ok sp -> (
          match String.index_opt kv '=' with
          | Some i ->
              field sp
                (String.sub kv 0 i)
                (String.sub kv (i + 1) (String.length kv - i - 1))
          | None -> Error ("sim: bad spec field " ^ kv)))
    (Ok default)
    (List.filter (fun s -> s <> "") (String.split_on_char ',' (String.trim s)))

(* --- actions ------------------------------------------------------------ *)

type action =
  | Decide of int
  | Reload
  | Reload_dropped
  | Reload_delayed
  | Flush
  | Crash of int
  | Stale of int
  | Dup of int
  | Flood
  | Edit
  | Probe
  | Phase_step of int

let action_to_string = function
  | Decide w -> "d" ^ string_of_int w
  | Reload -> "r"
  | Reload_dropped -> "r-"
  | Reload_delayed -> "r+"
  | Flush -> "f"
  | Crash w -> "c" ^ string_of_int w
  | Stale w -> "s" ^ string_of_int w
  | Dup w -> "u" ^ string_of_int w
  | Flood -> "w"
  | Edit -> "e"
  | Probe -> "p"
  | Phase_step s -> "h" ^ string_of_int s

let action_of_string s =
  let indexed c mk =
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some w when w >= 0 -> Ok (mk w)
    | _ -> Error (Printf.sprintf "sim: bad action %c<w>: %s" c s)
  in
  match s with
  | "r" -> Ok Reload
  | "r-" -> Ok Reload_dropped
  | "r+" -> Ok Reload_delayed
  | "f" -> Ok Flush
  | "w" -> Ok Flood
  | "e" -> Ok Edit
  | "p" -> Ok Probe
  | _ when String.length s >= 2 && s.[0] = 'd' -> indexed 'd' (fun w -> Decide w)
  | _ when String.length s >= 2 && s.[0] = 'c' -> indexed 'c' (fun w -> Crash w)
  | _ when String.length s >= 2 && s.[0] = 's' -> indexed 's' (fun w -> Stale w)
  | _ when String.length s >= 2 && s.[0] = 'u' -> indexed 'u' (fun w -> Dup w)
  | _ when String.length s >= 2 && s.[0] = 'h' ->
      indexed 'h' (fun s -> Phase_step s)
  | _ -> Error ("sim: unknown action " ^ s)

let script_to_string = function
  | [] -> "-"
  | acts -> String.concat "." (List.map action_to_string acts)

let script_of_string s =
  match String.trim s with
  | "" | "-" -> Ok []
  | s ->
      List.fold_left
        (fun acc tok ->
          match acc with
          | Error _ -> acc
          | Ok l -> (
              match action_of_string tok with
              | Ok a -> Ok (l @ [ a ])
              | Error e -> Error e))
        (Ok [])
        (String.split_on_char '.' s)

(* --- events ------------------------------------------------------------- *)

type event =
  | E_decide of {
      d_worker : int;
      d_seq : int;
      d_hook : int;
      d_verdict : int;
      d_errno : int;
      d_epoch : int;
      d_phase : int;
      d_live_ok : bool;
      d_journaled : bool;
      d_stale : bool;
      d_torn : bool;
    }
  | E_phase of { h_subject : int; h_from : int; h_to : int }
  | E_mutate of { m_label : string }
  | E_publish of { p_epoch : int }
  | E_crash of { c_worker : int }
  | E_dup of { u_worker : int; u_seq : int }
  | E_flood of { f_bytes : int; f_overrun : bool }
  | E_overrun of { o_worker : int }
  | E_edit of { e_label : string; e_proved : bool }
  | E_nf of { n_port : int; n_ok : bool }
  | E_pd of { pd_seq : int; pd_ok : bool }

let event_to_string = function
  | E_decide d ->
      Printf.sprintf "decide w%d seq %d hook %d verdict %d errno %d epoch %d%s%s%s%s%s"
        d.d_worker d.d_seq d.d_hook d.d_verdict d.d_errno d.d_epoch
        (* phase 0 is silent so pre-phase golden traces are unchanged *)
        (if d.d_phase > 0 then Printf.sprintf " phase %d" d.d_phase else "")
        (if d.d_live_ok then "" else " live-divergent")
        (if d.d_journaled then "" else " unjournaled")
        (if d.d_stale then " stale" else "")
        (if d.d_torn then " torn" else "")
  | E_phase h ->
      Printf.sprintf "phase subject %d %d -> %d" h.h_subject h.h_from h.h_to
  | E_mutate m -> "mutate " ^ m.m_label
  | E_publish p -> Printf.sprintf "publish epoch %d" p.p_epoch
  | E_crash c -> Printf.sprintf "crash w%d" c.c_worker
  | E_dup u -> Printf.sprintf "dup w%d seq %d" u.u_worker u.u_seq
  | E_flood f ->
      Printf.sprintf "flood %d bytes%s" f.f_bytes
        (if f.f_overrun then " overrun" else "")
  | E_overrun o -> Printf.sprintf "overrun w%d" o.o_worker
  | E_edit e -> "edit " ^ e.e_label ^ if e.e_proved then "" else " unproved"
  | E_nf n -> Printf.sprintf "nf port %d %s" n.n_port (if n.n_ok then "ok" else "DIVERGED")
  | E_pd p -> Printf.sprintf "pd seq %d %s" p.pd_seq (if p.pd_ok then "ok" else "DIVERGED")

type ctx = {
  x_spec : spec;
  x_script : action list;
  x_trace : event array;
  x_plane : Plane.t option;
  x_run : int;
  x_requests : Plane.request array;
  x_journal : J.decision list;
  x_dropped : int;
}

let trace_to_string ctx =
  String.concat "\n" (Array.to_list (Array.map event_to_string ctx.x_trace))

type mode = Seeded | Scripted of action list

(* --- golden fixtures ----------------------------------------------------

   The exact policy, probe battery and three semantic flips of the
   legacy hand-fixed interleaving harness (test_interleave.ml), so its
   20 merge orders survive as pinned scripts. *)

let cdrom flags mode =
  { PS.mr_source = "/dev/cdrom"; mr_target = "/media/cdrom";
    mr_fstype = "iso9660"; mr_flags = flags; mr_mode = mode;
    mr_phase = PS.Phase.Always }

let exim port proto =
  { Bindconf.port; proto; exe = "/usr/sbin/exim4"; owner = 0;
    phase = Protego_base.Phase.Always }

let golden_plane_setup st =
  PS.set st (PS.Set_mounts [ cdrom [] `Users ]);
  PS.set st (PS.Set_binds [ exim 777 Bindconf.Tcp ])

(* P1 adds a flag requirement (bare mount flips allow -> deny), P2 moves
   the port grant tcp -> udp, P3 drops the cdrom rule. *)
let golden_plane_flip k st =
  match k with
  | 0 ->
      PS.set st
        (PS.Set_mounts
           [ cdrom [ Ktypes.Mf_readonly; Mf_nosuid; Mf_nodev ] `Users ]);
      "P1"
  | 1 ->
      PS.set st (PS.Set_binds [ exim 777 Bindconf.Udp ]);
      "P2"
  | 2 ->
      PS.set st (PS.Set_mounts []);
      "P3"
  | _ -> invalid_arg "Sim.golden_plane_flip"

let golden_flip_count = 3

(* One probe battery: each request asked twice, the repeat against the
   same interned value. *)
let golden_battery () =
  let m_bare =
    Plane.Mount { subject = 1000; source = "/dev/cdrom"; target = "/media/cdrom";
                  fstype = "iso9660"; flags = [] }
  in
  let m_full =
    Plane.Mount { subject = 1000; source = "/dev/cdrom"; target = "/media/cdrom";
                  fstype = "iso9660";
                  flags = [ Ktypes.Mf_readonly; Mf_nosuid; Mf_nodev ] }
  in
  let b_tcp =
    Plane.Bind { subject = 0; port = 777; proto = Bindconf.Tcp;
                 exe = "/usr/sbin/exim4" }
  in
  let b_udp =
    Plane.Bind { subject = 0; port = 777; proto = Bindconf.Udp;
                 exe = "/usr/sbin/exim4" }
  in
  [| m_bare; m_bare; m_full; m_full; b_tcp; b_tcp; b_udp; b_udp |]

let golden_battery_len = 8

(* 3 scripted batteries + the settle battery the engine always runs. *)
let golden_requests () =
  let b = golden_battery () in
  Array.concat [ b; b; b; b ]

(* All merge orders preserving the relative order within each script. *)
let rec interleavings xs ys =
  match (xs, ys) with
  | [], rest | rest, [] -> [ rest ]
  | x :: xs', y :: ys' ->
      List.map (fun r -> x :: r) (interleavings xs' ys)
      @ List.map (fun r -> y :: r) (interleavings xs ys')

let golden_plane_scripts =
  interleavings [ `R 0; `R 1; `R 2 ] [ `D; `D; `D ]
  |> List.map (fun steps ->
         let name =
           String.concat ""
             (List.map
                (function `R i -> Printf.sprintf "P%d" (i + 1) | `D -> "D")
                steps)
         in
         let script =
           List.concat_map
             (function
               | `R _ -> [ Reload ]
               | `D -> List.init golden_battery_len (fun _ -> Decide 0))
             steps
         in
         (name, script))

(* --- the scheduler --------------------------------------------------------

   One driver runs every lane.  A lane supplies two functions:
   - [ready a] is [Some run] when action [a] can run now, [run] being
     its effect.  The guard reads lane state only: a budget that only
     seeded runs keep is not part of it.
   - [offers ()] lists what a seeded run may draw next: a weight and a
     generator that draws the action's target from the stream, built
     over [ready] with {!offer} and {!offer_any}, so nothing is offered
     that cannot run.  Seeded budgets (the fault pool, the golden
     dispatch lane's probe cap) live here, spent by the generator ({!spending}).
   [Scripted] runs each action that is ready and skips the rest;
   [Seeded] draws an offer by weight and runs it until nothing is
   offered.  Both record exactly the actions that ran, so a recorded
   script replays its run. *)

let drive sp mode ~ready ~offers =
  let ran = ref [] in
  let step a =
    match ready a with
    | Some run ->
        run ();
        ran := a :: !ran;
        true
    | None -> false
  in
  (match mode with
  | Scripted script -> List.iter (fun a -> ignore (step a : bool)) script
  | Seeded ->
      let rng = Prng.create sp.sp_seed in
      let rec pick r = function
        | [] -> assert false
        | (w, gen) :: rest -> if r < w then gen else pick (r - w) rest
      in
      let rec loop () =
        (* walked last-listed first: the order the pinned traces hold *)
        match List.rev (offers ()) with
        | [] -> ()
        | offered ->
            let total = List.fold_left (fun acc (w, _) -> acc + w) 0 offered in
            let a = pick (Prng.int rng total) offered rng in
            if not (step a) then
              invalid_arg ("Sim.drive: offered " ^ action_to_string a);
            loop ()
      in
      loop ());
  List.rev !ran

(* [a] with weight [w] if it can run now. *)
let offer ready w a = if Option.is_some (ready a) then [ (w, fun _ -> a) ] else []

(* A uniform draw among the [acts] that can run now, with weight [w]. *)
let offer_any ready w acts =
  match List.filter (fun a -> Option.is_some (ready a)) acts with
  | [] -> []
  | elig -> [ (w, fun rng -> List.nth elig (Prng.int rng (List.length elig))) ]

(* The offers, each spending a seeded budget when drawn. *)
let spending spend =
  List.map (fun (w, gen) -> (w, fun rng -> spend (); gen rng))

(* --- plane lane --------------------------------------------------------- *)

let verdict_code = function Pfm.Allow -> 1 | Pfm.Deny -> 0 | Pfm.Reject -> 2
let errno_code = function None -> 0 | Some e -> Errno.to_code e

type pworker = {
  pw_id : int;
  mutable pw_next : int;
  mutable pw_alive : bool;
  mutable pw_last : (int * Plane.request * Plane.outcome) option;
}

let workload_spec sp =
  let phase = if sp.sp_flood then Workload.Deny_flood else Workload.Steady in
  let base =
    Workload.default ~seed:sp.sp_wseed ~phases:[ (phase, sp.sp_steps) ] ()
  in
  { base with Workload.rules = 16; pool = 48 }

let run_plane sp mode =
  let workers = if sp.sp_golden then 1 else max 1 sp.sp_workers in
  let want_flood = has_fault F_wrap sp in
  let need_terms = workers + if want_flood then 1 else 0 in
  if need_terms > sp.sp_segments then
    invalid_arg
      (Printf.sprintf
         "Sim: %d journal segments cannot host %d worker terms%s"
         sp.sp_segments workers (if want_flood then " + the flood term" else ""));
  let st = PS.create () in
  let requests, flip, flip_count =
    if sp.sp_golden then begin
      golden_plane_setup st;
      (golden_requests (), (fun k -> golden_plane_flip k st), golden_flip_count)
    end
    else begin
      let wl = workload_spec sp in
      Workload.install_policy wl st;
      let sched = Workload.generate wl ~workers:1 in
      let orig_mounts = st.PS.mounts and orig_binds = st.PS.binds in
      let flip k =
        match k mod 4 with
        | 0 ->
            PS.set st
              (PS.Set_mounts (match orig_mounts with [] -> [] | _ :: tl -> tl));
            "drop-mount"
        | 1 ->
            PS.set st (PS.Set_mounts orig_mounts);
            "restore-mount"
        | 2 ->
            PS.set st
              (PS.Set_binds (match orig_binds with [] -> [] | _ :: tl -> tl));
            "drop-bind"
        | _ ->
            PS.set st (PS.Set_binds orig_binds);
            "restore-bind"
      in
      (sched.Workload.s_requests, flip, max_int)
    end
  in
  let plane =
    Plane.create ~domains:workers ~journal_seg_bytes:sp.sp_seg_bytes
      ~journal_segments:sp.sp_segments st
  in
  let flood_term =
    if want_flood then Some (J.term (Plane.journal plane) ~domain:workers)
    else None
  in
  let run_id = Plane.sim_begin plane in
  let stale_snap = Plane.current plane in
  let nreq = Array.length requests in
  let pws =
    Array.init workers (fun i ->
        { pw_id = i; pw_next = i; pw_alive = true; pw_last = None })
  in
  let events = ref [] in
  let emit e = events := e :: !events in
  let reload_done = ref 0 in
  let reload_cap = min sp.sp_reloads flip_count in
  let pending = ref false in
  let journal_dead = ref false in
  let can_decide w = w.pw_alive && w.pw_next < nreq in
  (* A journal append that overruns kills the journal for the run. *)
  let journal w ~seq req o =
    match Plane.journal_decision plane ~worker:w.pw_id ~run:run_id ~seq req o with
    | () -> true
    | exception Failure _ ->
        journal_dead := true;
        emit (E_overrun { o_worker = w.pw_id });
        false
  in
  let do_decide ?(stale = false) ?(crash = false) w =
    let seq = w.pw_next in
    let req = requests.(seq) in
    w.pw_next <- w.pw_next + workers;
    let o =
      if stale then Plane.decide_against plane ~worker:w.pw_id stale_snap req
      else Plane.decide_on plane ~worker:w.pw_id req
    in
    let live_ok =
      Request.oracle ~phase:(Phase.of_index o.Plane.o_phase) st req
      = (o.Plane.o_verdict = Pfm.Allow)
    in
    let journaled, torn =
      if crash then begin
        (* A mid-record crash: the claim is placed but never committed,
           leaving the term's tail torn for readers to suppress. *)
        ignore (J.unsafe_claim (Plane.worker_term plane w.pw_id) 64 : int);
        w.pw_alive <- false;
        (false, true)
      end
      else if !journal_dead then (false, false)
      else if journal w ~seq req o then begin
        w.pw_last <- Some (seq, req, o);
        (true, false)
      end
      else (false, false)
    in
    emit
      (E_decide
         { d_worker = w.pw_id; d_seq = seq; d_hook = Request.index req;
           d_verdict = verdict_code o.Plane.o_verdict;
           d_errno = errno_code o.Plane.o_errno; d_epoch = o.Plane.o_epoch;
           d_phase = o.Plane.o_phase; d_live_ok = live_ok;
           d_journaled = journaled; d_stale = stale; d_torn = torn });
    if crash then emit (E_crash { c_worker = w.pw_id })
  in
  let publish () =
    let snap = Plane.publish plane in
    emit (E_publish { p_epoch = snap.Snapshot.epoch })
  in
  let mutate () =
    let k = !reload_done in
    incr reload_done;
    emit (E_mutate { m_label = flip k })
  in
  let do_dup w (seq, req, o) =
    if journal w ~seq req o then emit (E_dup { u_worker = w.pw_id; u_seq = seq })
  in
  (* Lifecycle steps target the generated workload's subject space;
     golden fixtures predate phases and never step. *)
  let nsubjects =
    if sp.sp_phases && not sp.sp_golden then (workload_spec sp).Workload.subjects
    else 0
  in
  let can_phase s =
    s >= 0 && s < nsubjects
    && not
         (Phase.equal (Plane.subject_phase plane ~subject:s) Phase.final)
  in
  let do_phase s =
    let cur = Plane.subject_phase plane ~subject:s in
    let nxt = Phase.succ cur in
    match Plane.set_subject_phase plane ~subject:s nxt with
    | Ok () ->
        emit
          (E_phase
             { h_subject = s; h_from = Phase.index cur; h_to = Phase.index nxt })
    | Error _ -> ()
  in
  let do_flood term =
    let j = Plane.journal plane in
    let t0 = J.tail j in
    let obj = String.make 160 'x' in
    let overrun = ref false in
    let budget = ref ((2 * J.capacity j / 200) + 16) in
    (try
       while !budget > 0 do
         decr budget;
         J.append_kaudit term ~time:0. ~pid:0 ~uid:0 ~op:"flood" ~obj
           ~allowed:false ~engine:None ~span:None
       done
     with Failure _ ->
       overrun := true;
       journal_dead := true);
    emit (E_flood { f_bytes = J.tail j - t0; f_overrun = !overrun });
    if !overrun then emit (E_overrun { o_worker = -1 })
  in
  let worker w = if w >= 0 && w < workers then Some pws.(w) else None in
  let deciding w =
    match worker w with Some w when can_decide w -> Some w | _ -> None
  in
  let reloadable () = !reload_done < reload_cap && not !pending in
  let ready = function
    | Decide w -> Option.map (fun w () -> do_decide w) (deciding w)
    | Crash w -> Option.map (fun w () -> do_decide ~crash:true w) (deciding w)
    | Stale w -> Option.map (fun w () -> do_decide ~stale:true w) (deciding w)
    | Dup w when not !journal_dead -> (
        match worker w with
        | Some ({ pw_last = Some last; _ } as w) -> Some (fun () -> do_dup w last)
        | _ -> None)
    | Reload when reloadable () ->
        Some
          (fun () ->
            mutate ();
            publish ())
    | Reload_dropped when reloadable () -> Some mutate
    | Reload_delayed when reloadable () ->
        Some
          (fun () ->
            mutate ();
            pending := true)
    | Flush when !pending ->
        Some
          (fun () ->
            pending := false;
            publish ())
    | Flood when not !journal_dead -> Option.map (fun t () -> do_flood t) flood_term
    | Phase_step s when can_phase s -> Some (fun () -> do_phase s)
    | Dup _ | Reload | Reload_dropped | Reload_delayed | Flush | Flood | Edit
    | Probe | Phase_step _ ->
        None
  in
  let offer = offer ready and offer_any = offer_any ready in
  let each_worker mk = List.init workers mk in
  (* Each injected fault instance is offered until it is drawn once. *)
  let faults =
    ref (List.concat_map (fun (k, n) -> List.init n (fun _ -> k)) sp.sp_faults)
  in
  let offer_fault = function
    | F_crash -> offer_any 1 (each_worker (fun w -> Crash w))
    | F_stale -> offer_any 1 (each_worker (fun w -> Stale w))
    | F_dup -> offer_any 1 (each_worker (fun w -> Dup w))
    | F_drop -> offer 1 Reload_dropped
    | F_delay -> offer 1 Reload_delayed
    | F_wrap -> offer 1 Flood
  in
  let offers () =
    List.concat
      (List.mapi
         (fun i k ->
           spending
             (fun () -> faults := List.filteri (fun j _ -> j <> i) !faults)
             (offer_fault k))
         !faults
      @ [ offer 3 Flush; offer 2 Reload;
          offer_any 2 (List.init nsubjects (fun s -> Phase_step s)) ]
      @ each_worker (fun w -> offer 8 (Decide w)))
  in
  let script = drive sp mode ~ready ~offers in
  (* The settle battery: in golden mode the scripts drive only the three
     interleaved batteries; whatever remains is decided in order on
     worker 0, mirroring the legacy harness's final probe pass. *)
  if sp.sp_golden then begin
    let w = pws.(0) in
    while can_decide w do
      do_decide w
    done
  end;
  Plane.sim_end plane;
  let j = Plane.journal plane in
  let jds = List.filter (fun d -> d.J.d_run = run_id) (J.decisions j) in
  { x_spec = sp; x_script = script;
    x_trace = Array.of_list (List.rev !events); x_plane = Some plane;
    x_run = run_id; x_requests = requests; x_journal = jds;
    x_dropped = J.dropped j }

(* --- dispatch lane ------------------------------------------------------ *)

let port_rule port target =
  { Netfilter.matches =
      [ Netfilter.Dst_port { lo = port; hi = port }; Netfilter.Proto Packet.Tcp ];
    target; comment = "" }

(* 16 singleton-port accepts over a Drop policy: a run the compiler
   dispatches through one switch. *)
let filler_rules = List.init 16 (fun i -> port_rule (40000 + i) Netfilter.Accept)

(* The chain edits, in turn: dport 7 joins the head of the run (Drop ->
   Accept), a repeated port 40000 ahead of it splits the run (Accept ->
   Drop), a rule outside any run follows it, and the policy flips. *)
let chain_edits =
  [| ("insert dport 7 accept",
      fun nf -> Netfilter.insert nf Netfilter.Output (port_rule 7 Netfilter.Accept));
     ("insert dport 40000 drop",
      fun nf -> Netfilter.insert nf Netfilter.Output (port_rule 40000 Netfilter.Drop));
     ("append icmp reject",
      fun nf ->
        Netfilter.append nf Netfilter.Output
          { Netfilter.matches = [ Netfilter.Proto Packet.Icmp ];
            target = Netfilter.Reject; comment = "" });
     ("flip policy",
      fun nf ->
        Netfilter.set_policy nf Netfilter.Output
          (match Netfilter.policy nf Netfilter.Output with
           | Netfilter.Drop -> Netfilter.Accept
           | _ -> Netfilter.Drop)) |]

let opkt dport =
  { Packet.src = Ipaddr.v 10 0 0 2; dst = Ipaddr.v 8 8 8 8; ttl = 64;
    transport =
      Packet.Tcp_seg
        { src_port = 5000; dst_port = dport; syn = false; payload = "" } }

let oprobe_ports = [ 7; 22; 40000; 40007; 40015; 41000 ]

let run_dispatch sp mode =
  let disp = PD.create () in
  let events = ref [] in
  let emit e = events := e :: !events in
  (* Golden: chain edits and nf probe batteries.  Non-golden: a
     generated workload through the sequential dispatcher, with chain
     edits. *)
  let golden = sp.sp_golden in
  let nf = Netfilter.create ~output_policy:Netfilter.Drop () in
  List.iter (Netfilter.append nf Netfilter.Output) filler_rules;
  let st = PS.create () in
  let requests =
    if golden then [||]
    else begin
      let wl = workload_spec sp in
      Workload.install_policy wl st;
      (Workload.generate wl ~workers:1).Workload.s_requests
    end
  in
  let nreq = Array.length requests in
  let next = ref 0 in
  let edits = if golden then 3 else sp.sp_edits in
  let edits_done = ref 0 in
  (* One edit, then one decision, which loads the edited chain's
     program into the hook; that served program must prove [Equal] to
     the straight-line compile of the live chain. *)
  let do_edit () =
    let label, edit = chain_edits.(!edits_done mod Array.length chain_edits) in
    incr edits_done;
    edit nf;
    ignore
      (PD.decide_nf_output disp nf (opkt 7) ~origin:Packet.Kernel_stack
        : Netfilter.verdict);
    let linear =
      Compile.netfilter_linear
        ~rules:(Netfilter.rules nf Netfilter.Output)
        ~policy:(Netfilter.policy nf Netfilter.Output)
    in
    let proved =
      match PD.cached_program disp "nf_output" with
      | Some served -> Pfm_equiv.prove served linear = Pfm_equiv.Equal
      | None -> false
    in
    emit (E_edit { e_label = label; e_proved = proved })
  in
  let do_probe () =
    List.iter
      (fun dport ->
        let oracle =
          Netfilter.walk nf Netfilter.Output (opkt dport)
            ~origin:Packet.Kernel_stack
        in
        let ask () =
          PD.decide_nf_output disp nf (opkt dport) ~origin:Packet.Kernel_stack
        in
        let ok = ask () = oracle && ask () = oracle in
        emit (E_nf { n_port = dport; n_ok = ok }))
      oprobe_ports
  in
  let do_pd () =
    let seq = !next in
    incr next;
    let req = requests.(seq) in
    let ok =
      PD.decide disp ~phase:Phase.initial st req = Request.oracle st req
    in
    emit (E_pd { pd_seq = seq; pd_ok = ok })
  in
  let ready = function
    | Edit when !edits_done < edits -> Some do_edit
    | Probe when golden -> Some do_probe
    | Decide 0 when (not golden) && !next < nreq -> Some do_pd
    | _ -> None
  in
  (* A seeded golden run probes at most 3 times. *)
  let probes = ref 0 in
  let offers () =
    List.concat
      [ offer ready 1 Edit;
        (if !probes < 3 then spending (fun () -> incr probes) (offer ready 4 Probe)
         else []);
        offer ready 8 (Decide 0) ]
  in
  let script = drive sp mode ~ready ~offers in
  (* Whatever the order, the settled chain must decide identically. *)
  if golden then do_probe ();
  { x_spec = sp; x_script = script;
    x_trace = Array.of_list (List.rev !events); x_plane = None; x_run = 0;
    x_requests = requests; x_journal = []; x_dropped = 0 }

let run sp mode =
  match sp.sp_lane with
  | Lane_plane -> run_plane sp mode
  | Lane_dispatch -> run_dispatch sp mode
