(* The deterministic simulation harness: bit-replayability of seeded
   runs, scripted replay fidelity, spec/script string codecs, seeded
   sweeps over the temporal-property registry, and one
   catch-and-shrink test per injected fault class — each deliberately
   broken property must be caught, shrunk to a <= 10-action schedule,
   and reproduced from its printed replay command's strings alone. *)

module Sim = Protego_sim.Sim
module Prop = Protego_sim.Prop
module Shrink = Protego_sim.Shrink

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let contains = Test_support.contains

let verdict_lines ctx props =
  List.map
    (fun (p, out) -> p.Prop.p_name ^ " " ^ Prop.outcome_to_string out)
    (Prop.check ctx props)

(* --- sim:replay — determinism ------------------------------------------- *)

let test_seeded_bit_replay () =
  let sp =
    { Sim.default with Sim.sp_seed = 11; sp_workers = 3; sp_steps = 80;
      sp_reloads = 4 }
  in
  let a = Sim.run sp Sim.Seeded in
  let b = Sim.run sp Sim.Seeded in
  check_string "identical event traces" (Sim.trace_to_string a)
    (Sim.trace_to_string b);
  check_string "identical recorded scripts"
    (Sim.script_to_string a.Sim.x_script)
    (Sim.script_to_string b.Sim.x_script);
  check_bool "identical journal trails" true
    (a.Sim.x_journal = b.Sim.x_journal);
  check_int "identical drop counts" a.Sim.x_dropped b.Sim.x_dropped;
  let props = Prop.applicable sp in
  check_bool "identical property verdicts" true
    (verdict_lines a props = verdict_lines b props);
  (* A different seed is a different schedule — the seed is load-bearing. *)
  let c = Sim.run { sp with Sim.sp_seed = 12 } Sim.Seeded in
  check_bool "different seed, different script" true
    (Sim.script_to_string a.Sim.x_script
     <> Sim.script_to_string c.Sim.x_script)

let test_scripted_replay_matches_seeded () =
  let sp = { Sim.default with Sim.sp_seed = 5; sp_workers = 2; sp_steps = 48 } in
  let seeded = Sim.run sp Sim.Seeded in
  let scripted = Sim.run sp (Sim.Scripted seeded.Sim.x_script) in
  check_string "scripted replay reproduces the trace"
    (Sim.trace_to_string seeded) (Sim.trace_to_string scripted);
  check_string "and records the same script"
    (Sim.script_to_string seeded.Sim.x_script)
    (Sim.script_to_string scripted.Sim.x_script);
  check_bool "and the same journal" true
    (seeded.Sim.x_journal = scripted.Sim.x_journal)

let test_spec_roundtrip () =
  let specs =
    [ Sim.default;
      { Sim.default with Sim.sp_seed = 99; sp_workers = 4; sp_steps = 200;
        sp_flood = true; sp_seg_bytes = 8192; sp_segments = 16 };
      { Sim.default with Sim.sp_faults = [ (Sim.F_crash, 1); (Sim.F_wrap, 1) ] };
      { Sim.default with Sim.sp_lane = Sim.Lane_dispatch; sp_edits = 4 };
      { Sim.default with Sim.sp_phases = true };
      { Sim.default with Sim.sp_golden = true; sp_reloads = 0 } ]
  in
  List.iter
    (fun sp ->
      let s = Sim.spec_to_string sp in
      match Sim.spec_of_string s with
      | Ok sp' -> check_bool ("spec round-trips: " ^ s) true (sp = sp')
      | Error e -> Alcotest.failf "spec %s failed to parse back: %s" s e)
    specs;
  (match Sim.spec_of_string "lane=plane,bogus=1" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unknown spec field accepted");
  let script =
    [ Sim.Decide 2; Sim.Reload; Sim.Reload_dropped; Sim.Reload_delayed;
      Sim.Flush; Sim.Crash 0; Sim.Stale 1; Sim.Dup 3; Sim.Flood; Sim.Edit;
      Sim.Probe; Sim.Phase_step 2 ]
  in
  (match Sim.script_of_string (Sim.script_to_string script) with
   | Ok script' -> check_bool "script round-trips" true (script = script')
   | Error e -> Alcotest.fail e);
  (match Sim.script_of_string "-" with
   | Ok [] -> ()
   | Ok _ -> Alcotest.fail "'-' should be the empty script"
   | Error e -> Alcotest.fail e);
  (match Sim.action_of_string "zz" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "junk action token accepted")

(* Traces pinned across versions: fixtures/sim/digests.txt holds the
   digest of each seeded run's trace and script, one line per
   (spec, seed), and each fixtures/sim/*.trace file one run in full.
   fixtures/sim/gen.ml writes them. *)

let sim_fixtures_dir =
  List.find Sys.file_exists
    [ Filename.concat "fixtures" "sim";
      Filename.concat "test" (Filename.concat "fixtures" "sim") ]

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      String.split_on_char '\n' (really_input_string ic (in_channel_length ic)))

let fixture_spec s =
  match Sim.spec_of_string s with
  | Ok sp -> sp
  | Error e -> Alcotest.failf "fixture spec %s: %s" s e

let test_pinned_traces () =
  let digests =
    List.filter (( <> ) "")
      (read_lines (Filename.concat sim_fixtures_dir "digests.txt"))
  in
  check_bool "at least 12 specs x 20 seeds pinned" true
    (List.length digests >= 240);
  List.iter
    (fun line ->
      match String.index_opt line ' ' with
      | None -> Alcotest.failf "bad digest line %S" line
      | Some i ->
          let spec = String.sub line (i + 1) (String.length line - i - 1) in
          let ctx = Sim.run (fixture_spec spec) Sim.Seeded in
          check_string ("digest of " ^ spec) (String.sub line 0 i)
            (Digest.to_hex
               (Digest.string
                  (Sim.trace_to_string ctx ^ "\n"
                  ^ Sim.script_to_string ctx.Sim.x_script))))
    digests;
  let traces =
    List.filter
      (fun f -> Filename.check_suffix f ".trace")
      (Array.to_list (Sys.readdir sim_fixtures_dir))
  in
  check_bool "full traces present" true (List.length traces >= 5);
  List.iter
    (fun f ->
      match read_lines (Filename.concat sim_fixtures_dir f) with
      | spec :: script :: trace ->
          let spec = String.sub spec 5 (String.length spec - 5) in
          let ctx = Sim.run (fixture_spec spec) Sim.Seeded in
          check_string (f ^ ": script") script
            ("script " ^ Sim.script_to_string ctx.Sim.x_script);
          check_string (f ^ ": trace")
            (String.concat "\n" trace)
            (Sim.trace_to_string ctx ^ "\n")
      | _ -> Alcotest.failf "%s: truncated trace fixture" f)
    traces

(* --- sim:sweep — seeded schedules against the property registry --------- *)

let sweep name sp ~from ~seeds =
  for seed = from to from + seeds - 1 do
    let sp = { sp with Sim.sp_seed = seed } in
    let ctx = Sim.run sp Sim.Seeded in
    List.iter
      (fun (p, out) ->
        match out with
        | Prop.Holds -> ()
        | Prop.Violated _ ->
            Alcotest.failf "%s seed %d: %s %s (replay: %s)" name seed
              p.Prop.p_name (Prop.outcome_to_string out)
              (Shrink.replay_command sp p
                 (Shrink.minimize sp p ctx.Sim.x_script)))
      (Prop.check ctx (Prop.applicable sp))
  done

let test_sweep_plane_steady () =
  sweep "plane-steady"
    { Sim.default with Sim.sp_workers = 3; sp_steps = 64; sp_reloads = 4 }
    ~from:0 ~seeds:150

let test_sweep_plane_flood () =
  sweep "plane-flood"
    { Sim.default with Sim.sp_flood = true; sp_steps = 64; sp_reloads = 3 }
    ~from:0 ~seeds:50

let test_sweep_plane_phased () =
  (* Lifecycle dimension on: seeded phase transitions interleave with
     decisions and reloads, and the phase-monotone / phase-consistent
     properties must hold on every schedule — plus a structural check
     that the dimension actually exercises itself. *)
  let sp =
    { Sim.default with Sim.sp_workers = 3; sp_steps = 64; sp_reloads = 4;
      sp_phases = true }
  in
  sweep "plane-phased" sp ~from:0 ~seeds:50;
  let stepped = ref false in
  for seed = 0 to 9 do
    let ctx = Sim.run { sp with Sim.sp_seed = seed } Sim.Seeded in
    Array.iter
      (function Sim.E_phase _ -> stepped := true | _ -> ())
      ctx.Sim.x_trace
  done;
  check_bool "phased schedules emit transitions" true !stepped

let test_sweep_plane_faulted () =
  (* Injected faults legitimately break their catch properties; the
     remaining applicable invariants must survive every schedule. *)
  sweep "plane-faulted"
    { Sim.default with Sim.sp_workers = 2; sp_steps = 48;
      sp_faults = [ (Sim.F_crash, 1); (Sim.F_wrap, 1) ] }
    ~from:0 ~seeds:40

let test_sweep_dispatch () =
  sweep "dispatch-golden"
    { Sim.default with Sim.sp_lane = Sim.Lane_dispatch; sp_golden = true }
    ~from:0 ~seeds:10;
  sweep "dispatch-workload"
    { Sim.default with Sim.sp_lane = Sim.Lane_dispatch; sp_steps = 48;
      sp_edits = 4 }
    ~from:0 ~seeds:20

(* --- sim:faults — catch and shrink every injected fault class ----------- *)

let find_prop name =
  match Prop.find name with Ok p -> p | Error e -> Alcotest.fail e

(* First seed under [limit] whose schedule violates [prop]. *)
let hunt ?(limit = 300) sp prop =
  let rec go seed =
    if seed >= limit then None
    else
      let sp = { sp with Sim.sp_seed = seed } in
      let ctx = Sim.run sp Sim.Seeded in
      match prop.Prop.p_eval ctx with
      | Prop.Violated _ -> Some (sp, ctx)
      | Prop.Holds -> go (seed + 1)
  in
  go 0

(* The full acceptance loop for one fault class: hunt a violating
   seed, shrink its schedule, re-fail it from the shrunk script, and
   re-fail it once more from the printed replay command's spec/script
   strings alone — the one-liner is self-contained. *)
let catch_and_shrink name sp prop_name =
  let prop = find_prop prop_name in
  match hunt sp prop with
  | None -> Alcotest.failf "%s: no violating seed under 300" name
  | Some (sp, ctx) ->
      let shrunk = Shrink.minimize sp prop ctx.Sim.x_script in
      check_bool (name ^ ": shrunk schedule still fails") true
        (Shrink.still_fails sp prop shrunk);
      check_bool
        (Printf.sprintf "%s: shrunk to <= 10 actions (got %d)" name
           (List.length shrunk))
        true
        (List.length shrunk <= 10);
      let cmd = Shrink.replay_command sp prop shrunk in
      Printf.printf "%s: %s\n" name cmd;
      check_bool (name ^ ": printed as a replay command") true
        (contains cmd "protego-sim replay");
      check_bool (name ^ ": command names the property") true
        (contains cmd prop_name);
      let sp' =
        match Sim.spec_of_string (Sim.spec_to_string sp) with
        | Ok s -> s
        | Error e -> Alcotest.fail e
      in
      let script' =
        match Sim.script_of_string (Sim.script_to_string shrunk) with
        | Ok s -> s
        | Error e -> Alcotest.fail e
      in
      (match (find_prop prop_name).Prop.p_eval
               (Sim.run sp' (Sim.Scripted script'))
       with
       | Prop.Violated _ -> ()
       | Prop.Holds ->
           Alcotest.failf "%s: round-tripped replay no longer fails" name)

let test_catch_stale () =
  catch_and_shrink "stale"
    { Sim.default with Sim.sp_faults = [ (Sim.F_stale, 1) ] }
    "epoch-monotone"

let test_catch_drop () =
  catch_and_shrink "drop"
    { Sim.default with Sim.sp_faults = [ (Sim.F_drop, 1) ] }
    "reload-acked"

let test_catch_delay () =
  catch_and_shrink "delay"
    { Sim.default with Sim.sp_faults = [ (Sim.F_delay, 1) ] }
    "no-decide-under-pending-mutate"

let test_catch_crash () =
  catch_and_shrink "crash"
    { Sim.default with Sim.sp_faults = [ (Sim.F_crash, 1) ] }
    "all-journaled"

let test_catch_dup () =
  catch_and_shrink "dup"
    { Sim.default with Sim.sp_faults = [ (Sim.F_dup, 1) ] }
    "journal-faithful"

let test_catch_wrap () =
  catch_and_shrink "wrap"
    { Sim.default with Sim.sp_segments = 4;
      sp_faults = [ (Sim.F_wrap, 1) ] }
    "no-overrun"

(* --- sim:golden — the pinned legacy interleavings ------------------------ *)

let unique_names scripts =
  let names = List.map fst scripts in
  List.length (List.sort_uniq compare names) = List.length names

let test_golden_pinned () =
  check_int "20 plane interleavings" 20 (List.length Sim.golden_plane_scripts);
  check_bool "plane names unique" true (unique_names Sim.golden_plane_scripts);
  List.iter
    (fun (name, script) ->
      match Sim.script_of_string (Sim.script_to_string script) with
      | Ok script' ->
          check_bool ("golden script round-trips: " ^ name) true
            (script = script')
      | Error e -> Alcotest.failf "golden %s: %s" name e)
    Sim.golden_plane_scripts

let test_golden_deterministic () =
  let sp = { Sim.default with Sim.sp_golden = true } in
  let _, script = List.hd Sim.golden_plane_scripts in
  let a = Sim.run sp (Sim.Scripted script) in
  let b = Sim.run sp (Sim.Scripted script) in
  check_string "golden replay is bit-identical" (Sim.trace_to_string a)
    (Sim.trace_to_string b);
  List.iter
    (fun (p, out) ->
      check_bool ("golden holds " ^ p.Prop.p_name) true (out = Prop.Holds))
    (Prop.check a (Prop.applicable sp))

let suites =
  [ ("sim:replay",
     [ Alcotest.test_case "seeded run is bit-replayable" `Quick
         test_seeded_bit_replay;
       Alcotest.test_case "scripted replay reproduces the seeded run" `Quick
         test_scripted_replay_matches_seeded;
       Alcotest.test_case "spec and script codecs round-trip" `Quick
         test_spec_roundtrip;
       Alcotest.test_case "traces match the pinned fixture" `Quick
         test_pinned_traces ]);
    ("sim:sweep",
     [ Alcotest.test_case "plane steady, 150 seeds" `Quick
         test_sweep_plane_steady;
       Alcotest.test_case "plane deny-flood, 50 seeds" `Quick
         test_sweep_plane_flood;
       Alcotest.test_case "plane phased, 50 seeds" `Quick
         test_sweep_plane_phased;
       Alcotest.test_case "plane crash+wrap faults, 40 seeds" `Quick
         test_sweep_plane_faulted;
       Alcotest.test_case "dispatch lane, 30 seeds" `Quick test_sweep_dispatch ]);
    ("sim:faults",
     [ Alcotest.test_case "stale read breaks epoch-monotone" `Quick
         test_catch_stale;
       Alcotest.test_case "dropped publish breaks reload-acked" `Quick
         test_catch_drop;
       Alcotest.test_case "delayed publish breaks mutate atomicity" `Quick
         test_catch_delay;
       Alcotest.test_case "crash breaks all-journaled" `Quick test_catch_crash;
       Alcotest.test_case "duplicate append breaks journal-faithful" `Quick
         test_catch_dup;
       Alcotest.test_case "wraparound flood breaks no-overrun" `Quick
         test_catch_wrap ]);
    ("sim:golden",
     [ Alcotest.test_case "20 interleavings pinned" `Quick
         test_golden_pinned;
       Alcotest.test_case "golden replay deterministic and clean" `Quick
         test_golden_deterministic ]) ]
