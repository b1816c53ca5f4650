(* protego-sim: run, replay and sweep deterministic simulations of the
   decision plane and the LSM-side dispatcher (Protego_sim). *)

module Sim = Protego_sim.Sim
module Prop = Protego_sim.Prop
module Shrink = Protego_sim.Shrink
open Cmdliner

let parse_spec s =
  match Sim.spec_of_string s with
  | Ok sp -> sp
  | Error e ->
      prerr_endline e;
      exit 2

let print_verdicts results =
  List.iter
    (fun (p, out) ->
      Printf.printf "property %-30s %s\n" p.Prop.p_name
        (Prop.outcome_to_string out))
    results

let failures results =
  List.filter (fun (_, out) -> out <> Prop.Holds) results

(* --- run ---------------------------------------------------------------- *)

let run_cmd spec_s seed trace =
  let sp = parse_spec spec_s in
  let sp = match seed with None -> sp | Some s -> { sp with Sim.sp_seed = s } in
  let ctx = Sim.run sp Sim.Seeded in
  Printf.printf "spec   %s\n" (Sim.spec_to_string sp);
  Printf.printf "script %s\n" (Sim.script_to_string ctx.Sim.x_script);
  Printf.printf "events %d  journal %d  dropped %d\n"
    (Array.length ctx.Sim.x_trace)
    (List.length ctx.Sim.x_journal)
    ctx.Sim.x_dropped;
  if trace then print_endline (Sim.trace_to_string ctx);
  let results = Prop.check ctx (Prop.applicable sp) in
  print_verdicts results;
  match failures results with
  | [] ->
      print_endline "sim: all applicable properties hold";
      0
  | (p, _) :: _ ->
      let script = Shrink.minimize sp p ctx.Sim.x_script in
      Printf.printf "sim: %s failed; shrunk to %d action(s)\n" p.Prop.p_name
        (List.length script);
      print_endline (Shrink.replay_command sp p script);
      1

(* --- replay ------------------------------------------------------------- *)

let replay_cmd spec_s script_s prop_name trace =
  let sp = parse_spec spec_s in
  let script =
    match Sim.script_of_string script_s with
    | Ok s -> s
    | Error e ->
        prerr_endline e;
        exit 2
  in
  let ctx = Sim.run sp (Sim.Scripted script) in
  if trace then print_endline (Sim.trace_to_string ctx);
  let props =
    match prop_name with
    | None -> Prop.applicable sp
    | Some name -> (
        match Prop.find name with
        | Ok p -> [ p ]
        | Error e ->
            prerr_endline e;
            exit 2)
  in
  let results = Prop.check ctx props in
  print_verdicts results;
  if failures results = [] then 0 else 1

(* --- sweep -------------------------------------------------------------- *)

let sweep_cmd spec_s seeds from out =
  let sp = parse_spec spec_s in
  let failed = ref None in
  let seed = ref from in
  while !failed = None && !seed < from + seeds do
    let sp = { sp with Sim.sp_seed = !seed } in
    let ctx = Sim.run sp Sim.Seeded in
    (match failures (Prop.check ctx (Prop.applicable sp)) with
    | [] -> ()
    | (p, o) :: _ -> failed := Some (sp, p, o, ctx));
    incr seed
  done;
  match !failed with
  | None ->
      Printf.printf "sim: %d seeds clean (%d..%d) over %s\n" seeds from
        (from + seeds - 1) (Sim.spec_to_string sp);
      0
  | Some (sp, p, o, ctx) ->
      let script = Shrink.minimize sp p ctx.Sim.x_script in
      let cmd = Shrink.replay_command sp p script in
      let report =
        String.concat "\n"
          [ "sim sweep failure";
            "spec: " ^ Sim.spec_to_string sp;
            "property: " ^ p.Prop.p_name;
            "outcome: " ^ Prop.outcome_to_string o;
            "shrunk script: " ^ Sim.script_to_string script;
            "replay: " ^ cmd; "" ]
      in
      print_string report;
      (match out with
      | None -> ()
      | Some path ->
          let oc = open_out path in
          output_string oc report;
          close_out oc;
          Printf.printf "sim: failure report written to %s\n" path);
      1

(* --- cmdliner plumbing -------------------------------------------------- *)

let spec_arg =
  Arg.(value & opt string "" & info [ "spec" ] ~docv:"SPEC"
         ~doc:"Simulation spec, comma-separated k=v fields (see Sim).")

let trace_arg =
  Arg.(value & flag & info [ "trace" ] ~doc:"Print the full event trace.")

let run_t =
  let seed = Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED"
                    ~doc:"Override the spec's scheduler seed.") in
  Term.(const run_cmd $ spec_arg $ seed $ trace_arg)

let replay_t =
  let script = Arg.(value & opt string "-" & info [ "script" ] ~docv:"SCRIPT"
                      ~doc:"Dot-joined action script to replay.") in
  let prop = Arg.(value & opt (some string) None & info [ "prop" ] ~docv:"PROP"
                    ~doc:"Check only this property (default: applicable).") in
  Term.(const replay_cmd $ spec_arg $ script $ prop $ trace_arg)

let sweep_t =
  let seeds = Arg.(value & opt int 200 & info [ "seeds" ] ~docv:"N"
                     ~doc:"Number of consecutive seeds to sweep.") in
  let from = Arg.(value & opt int 0 & info [ "from" ] ~docv:"K"
                    ~doc:"First seed of the sweep.") in
  let out = Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
                   ~doc:"Write the shrunk failure report to FILE.") in
  Term.(const sweep_cmd $ spec_arg $ seeds $ from $ out)

let cmd_info name doc = Cmd.info name ~doc

let () =
  let cmds =
    [ Cmd.v (cmd_info "run" "one seeded simulation + property check") run_t;
      Cmd.v (cmd_info "replay" "replay a recorded or shrunk script") replay_t;
      Cmd.v
        (cmd_info "sweep"
           "sweep consecutive seeds; shrink and report the first failure")
        sweep_t ]
  in
  let info =
    Cmd.info "protego-sim" ~version:"v1"
      ~doc:"deterministic simulation harness for the Protego decision plane"
  in
  exit (Cmd.eval' (Cmd.group info cmds))
