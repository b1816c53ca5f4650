(* bench_gate: validate a BENCH_protego.json report and gate performance
   regressions against a committed baseline.

   CI runs this instead of grepping bench stdout: the report is parsed as
   Bench_report schema 1, structurally validated (required keys, sane
   non-zero rates), and — when a baseline is given — every *_ns metric is
   compared with a generous tolerance, so only a real slowdown (default
   >3x) fails the build while runner noise cannot.

   Exit status: 0 clean, 1 validation/regression failure, 2 usage or I/O
   error (cmdliner's convention for bad command lines is also ~2). *)

module BR = Protego_study.Bench_report

(* --floor SCENARIO,METRIC,MIN: assert an absolute lower bound on one
   metric of the fresh report — e.g. the compiled filter engine must
   keep a real speedup over the reference walk, not merely avoid
   regressing against the baseline.  Scenario names contain ':', so the
   spec is comma-separated. *)
let parse_floor spec =
  match String.split_on_char ',' spec with
  | [ scenario; metric; min_s ] -> (
      match float_of_string_opt min_s with
      | Some f -> (scenario, metric, f)
      | None ->
          Printf.eprintf "bench-gate: --floor %s: MIN is not a number\n%!" spec;
          exit 2)
  | _ ->
      Printf.eprintf
        "bench-gate: --floor %s: expected SCENARIO,METRIC,MIN\n%!" spec;
      exit 2

let check_floor current (scenario, metric, min_v) =
  match
    List.find_opt (fun s -> s.BR.sc_name = scenario) current.BR.scenarios
  with
  | None ->
      Printf.eprintf "bench-gate: floor: scenario %s missing from report\n%!"
        scenario;
      true
  | Some s -> (
      match List.assoc_opt metric s.BR.sc_metrics with
      | None ->
          Printf.eprintf "bench-gate: floor: %s has no metric %s\n%!" scenario
            metric;
          true
      | Some v when v < min_v ->
          Printf.eprintf "bench-gate: floor: %s %s = %g < required %g\n%!"
            scenario metric v min_v;
          true
      | Some v ->
          Printf.printf "bench-gate: floor ok: %s %s = %g >= %g\n%!" scenario
            metric v min_v;
          false)

let gate report baseline tolerance floors =
  match BR.load_file report with
  | Error msg ->
      Printf.eprintf "bench-gate: cannot load report: %s\n%!" msg;
      exit 2
  | Ok current -> (
      (match BR.validate current with
      | Ok () ->
          Printf.printf "bench-gate: %s: structure ok (%d scenarios, %d \
                         latency series)\n%!"
            report
            (List.length current.BR.scenarios)
            (List.length current.BR.latency);
          (* Run provenance, when the report records it (older reports
             simply lack the key): which machine shape produced the
             numbers the gate is about to judge. *)
          List.iter
            (fun (k, v) -> Printf.printf "bench-gate:   env %s = %s\n%!" k v)
            current.BR.environment
      | Error problems ->
          Printf.eprintf "bench-gate: %s: validation failed:\n%!" report;
          List.iter (Printf.eprintf "  %s\n%!") problems;
          exit 1);
      let floor_failed =
        List.fold_left
          (fun acc spec -> check_floor current (parse_floor spec) || acc)
          false floors
      in
      if floor_failed then exit 1;
      match baseline with
      | None -> ()
      | Some path -> (
          match BR.load_file path with
          | Error msg ->
              Printf.eprintf "bench-gate: cannot load baseline: %s\n%!" msg;
              exit 2
          | Ok base -> (
              match BR.compare_baseline ~current ~baseline:base ~tolerance with
              | Ok () ->
                  Printf.printf
                    "bench-gate: no regression beyond %gx vs %s\n%!" tolerance
                    path
              | Error problems ->
                  Printf.eprintf "bench-gate: regression gate failed:\n%!";
                  List.iter (Printf.eprintf "  %s\n%!") problems;
                  exit 1)))

open Cmdliner

let report_arg =
  Arg.(required
       & pos 0 (some file) None
       & info [] ~docv:"REPORT" ~doc:"The BENCH_protego.json to check.")

let baseline_arg =
  Arg.(value
       & opt (some file) None
       & info [ "baseline" ] ~docv:"FILE"
           ~doc:"Baseline report to gate $(i,*_ns) metrics against.")

let tolerance_arg =
  Arg.(value
       & opt float 3.0
       & info [ "tolerance" ] ~docv:"X"
           ~doc:"Fail only when a metric exceeds X times its baseline.")

let floor_arg =
  Arg.(value
       & opt_all string []
       & info [ "floor" ] ~docv:"SCENARIO,METRIC,MIN"
           ~doc:
             "Require metric METRIC of scenario SCENARIO in the fresh \
              report to be at least MIN (absolute, not baseline-relative).  \
              Repeatable.")

let () =
  let term =
    Term.(const gate $ report_arg $ baseline_arg $ tolerance_arg $ floor_arg)
  in
  let info =
    Cmd.info "bench-gate"
      ~doc:"Validate a Protego bench report and gate regressions"
  in
  exit (Cmd.eval (Cmd.v info term))
