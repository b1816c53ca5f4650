(* protego-synth: the record -> generalize -> verify loop (DESIGN.md §12).

     record  run a seeded deny-flood workload in permissive record mode
             and save the journal: through the decision plane
             (--lane plane, the default), or as syscalls through the LSM
             hooks of a booted Protego image (--lane lsm), saving the
             machine's audit journal
     emit    synthesize minimal policy sources from saved journals
     verify  re-synthesize, check the emitted directory is byte-identical
             (determinism), strict-lint the result, parse every file with
             its enforce-mode parser, and replay every observation —
             admissible demand must see zero false denies

   Exit status: 0 clean, 1 verification failure, 2 usage or I/O error. *)

module J = Protego_journal.Journal
module Plane = Protego_plane.Plane
module PS = Protego_core.Policy_state
module Workload = Protego_workload.Workload
module Synth = Protego_synth.Synth
module Lint = Protego_analysis.Policy_lint
module Compile = Protego_filter.Pfm_compile
module Ktypes = Protego_kernel.Ktypes

let die fmt =
  Printf.ksprintf
    (fun s ->
      Printf.eprintf "protego-synth: %s\n%!" s;
      exit 2)
    fmt

(* --- record -------------------------------------------------------------- *)

(* The stock deny-flood mounts never request nodev (and only every third
   requests nosuid), so no strict-lint-clean policy could re-admit them
   — the whole mount dimension would synthesize away as inadmissible.
   Harden every mount request to nosuid+nodev so the recorded denials
   are recoverable demand; interning is preserved (one rewritten value
   per distinct original, physical sharing intact). *)
let harden_mounts requests =
  let memo = Hashtbl.create 64 in
  let add f fl = if List.mem f fl then fl else fl @ [ f ] in
  Array.map
    (fun r ->
      match r with
      | Plane.Mount m -> (
          match Hashtbl.find_opt memo r with
          | Some r' -> r'
          | None ->
              let r' =
                Plane.Mount
                  { m with
                    flags =
                      add Ktypes.Mf_nodev (add Ktypes.Mf_nosuid m.flags) }
              in
              Hashtbl.replace memo r r';
              r')
      | _ -> r)
    requests

let record_lsm spec reqs seg_bytes segments out =
  let module L = Protego_synth.Lsm_record in
  match L.run ~seg_bytes ~segments spec reqs with
  | Error msg -> die "%s" msg
  | Ok r ->
      J.save r.L.journal out;
      Printf.printf
        "protego-synth: recorded %d requests on the LSM path: %d LSM \
         decisions, %d would-deny, journal -> %s\n%!"
        r.L.requests r.L.decided r.L.recorded out

let record_plane seed spec seg_bytes segments out =
  let st = PS.create () in
  Workload.install_policy spec st;
  let plane =
    Plane.create ~journal_seg_bytes:seg_bytes ~journal_segments:segments st
  in
  let schedule = Workload.generate spec ~workers:1 in
  let reqs = harden_mounts schedule.Workload.s_requests in
  Plane.set_record_mode plane true;
  let rr = Plane.run plane reqs in
  (match rr.Plane.rr_audit_lost with
  | Some reason -> die "journal trail incomplete: %s" reason
  | None -> ());
  let dropped = (J.stats (Plane.journal plane)).J.s_dropped in
  if dropped > 0 then
    die "%d records lost to journal wraparound; raise --seg-bytes/--segments"
      dropped;
  let recorded = ref 0 in
  J.iter (Plane.journal plane) (fun e ->
      match e with
      | J.Decision d when d.J.d_verdict = 3 -> incr recorded
      | _ -> ());
  J.save (Plane.journal plane) out;
  Printf.printf
    "protego-synth: recorded %d requests (seed %d): %d would-deny, journal \
     -> %s\n%!"
    (Array.length reqs) seed !recorded out

let record seed requests seg_bytes segments out lane =
  let spec =
    Workload.default ~seed ~phases:[ (Workload.Deny_flood, requests) ] ()
  in
  match lane with
  | `Plane -> record_plane seed spec seg_bytes segments out
  | `Lsm ->
      let schedule = Workload.generate spec ~workers:1 in
      record_lsm spec
        (harden_mounts schedule.Workload.s_requests)
        seg_bytes segments out

(* --- shared loading ------------------------------------------------------ *)

let entries_of files =
  List.concat_map
    (fun file ->
      match J.load file with
      | Ok j -> J.entries j
      | Error msg -> die "%s: %s" file msg)
    files

let observations_of files = Synth.observations (entries_of files)

(* --- emit ---------------------------------------------------------------- *)

let emit files budget out =
  if files = [] then die "emit needs at least one --journal FILE";
  let obs = observations_of files in
  let r = Synth.synthesize ~budget obs in
  Synth.write_dir out r;
  print_string (Synth.report r);
  Printf.printf "protego-synth: policies -> %s\n%!" out

(* --- verify -------------------------------------------------------------- *)

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error msg -> die "%s" msg

let verify files budget dir =
  if files = [] then die "verify needs at least one --journal FILE";
  let obs = observations_of files in
  let r = Synth.synthesize ~budget obs in
  let failures = ref [] in
  let fail fmt =
    Printf.ksprintf (fun s -> failures := s :: !failures) fmt
  in
  (* 1. determinism: re-synthesis must be byte-identical to the emitted
        directory *)
  List.iter
    (fun (name, text) ->
      let path = Filename.concat dir name in
      if not (Sys.file_exists path) then fail "%s: missing" path
      else if read_file path <> text then
        fail "%s: differs from re-synthesis (determinism broken)" path)
    [ ("mount_whitelist", Synth.mounts_text r);
      ("bind.map", Synth.binds_text r);
      ("options.ppp", Synth.ppp_text r);
      ("output.chain", Synth.chain_text r);
      ("coverage.report", Synth.report r) ];
  (* 2. enforce-mode load: every emitted file must parse with the same
        strict parser the /proc write path uses *)
  let parsed_chain = ref None in
  (match PS.parse_mounts (read_file (Filename.concat dir "mount_whitelist"))
   with
  | Ok _ -> ()
  | Error e -> fail "mount_whitelist does not load: %s" e);
  (match Protego_policy.Bindconf.parse (read_file (Filename.concat dir "bind.map"))
   with
  | Ok _ -> ()
  | Error e -> fail "bind.map does not load: %s" e);
  (match Protego_policy.Pppopts.parse (read_file (Filename.concat dir "options.ppp"))
   with
  | Ok _ -> ()
  | Error e -> fail "options.ppp does not load: %s" e);
  (match Lint.parse_chain (read_file (Filename.concat dir "output.chain")) with
  | Ok rp -> parsed_chain := Some rp
  | Error e -> fail "output.chain does not load: %s" e);
  (* 3. strict lint: zero findings of any severity *)
  let input =
    { Lint.empty_input with
      Lint.mounts = List.map PS.filter_rule r.Synth.r_mounts;
      binds = r.Synth.r_binds;
      ppp = Some r.Synth.r_ppp;
      chains =
        (match !parsed_chain with
        | Some (rules, policy) -> [ ("output", rules, policy) ]
        | None -> [ ("output", r.Synth.r_nf_rules, r.Synth.r_nf_policy) ]) }
  in
  let findings = Lint.lint input in
  if findings <> [] then
    fail "strict lint: %d finding(s):\n%s" (List.length findings)
      (Lint.render findings);
  (* 4. the closed loop: replay every observation against the
        synthesized policy *)
  List.iter
    (fun (key, why) -> fail "replay mismatch: %s: %s" key why)
    (Synth.verify obs r);
  match List.rev !failures with
  | [] ->
      Printf.printf
        "protego-synth: verify ok (%d observations, %d inadmissible, zero \
         false denies)\n%!"
        r.Synth.r_observed
        (List.length r.Synth.r_inadmissible)
  | fs ->
      Printf.eprintf "protego-synth: verification failed:\n%!";
      List.iter (Printf.eprintf "  %s\n%!") fs;
      exit 1

(* --- cmdliner ------------------------------------------------------------ *)

open Cmdliner

let seed_arg =
  Arg.(value & opt int 42
       & info [ "seed" ] ~docv:"N" ~doc:"Workload PRNG seed.")

let requests_arg =
  Arg.(value & opt int 20000
       & info [ "requests" ] ~docv:"N"
           ~doc:"Deny-flood requests to record.")

let seg_bytes_arg =
  Arg.(value & opt int 262144
       & info [ "seg-bytes" ] ~docv:"N"
           ~doc:"Journal segment size in bytes (the arena is \
                 seg-bytes x segments; recording dies on wraparound).")

let segments_arg =
  Arg.(value & opt int 32
       & info [ "segments" ] ~docv:"N" ~doc:"Journal segment count.")

let out_journal_arg =
  Arg.(value & opt string "RECORD_protego.bin"
       & info [ "o"; "out" ] ~docv:"FILE"
           ~doc:"Where to save the recorded journal.")

let journals_arg =
  Arg.(value & opt_all file []
       & info [ "journal" ] ~docv:"FILE"
           ~doc:"A saved journal (repeatable; entries are concatenated).")

let budget_arg =
  Arg.(value & opt int 64
       & info [ "budget" ] ~docv:"N"
           ~doc:"False-allow budget: total admitted-but-unobserved volume \
                 the applied generalizations may reach.")

let dir_arg ~doc =
  Arg.(value & opt string "synthesized" & info [ "dir"; "d" ] ~docv:"DIR" ~doc)

let lane_arg =
  Arg.(value
       & opt (enum [ ("plane", `Plane); ("lsm", `Lsm) ]) `Plane
       & info [ "lane" ] ~docv:"LANE"
           ~doc:"Where the requests run: $(b,plane) (the decision plane) or \
                 $(b,lsm) (syscalls through the LSM hooks of a booted \
                 Protego image; subject $(i,s) runs as uid 2000+$(i,s)).")

let record_cmd =
  Cmd.v
    (Cmd.info "record"
       ~doc:"Run a seeded deny-flood workload in record mode; save the journal")
    Term.(
      const record $ seed_arg $ requests_arg $ seg_bytes_arg $ segments_arg
      $ out_journal_arg $ lane_arg)

let emit_cmd =
  Cmd.v
    (Cmd.info "emit" ~doc:"Synthesize policy sources from recorded journals")
    Term.(
      const emit $ journals_arg $ budget_arg
      $ dir_arg ~doc:"Directory to write the synthesized sources into.")

let verify_cmd =
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Re-synthesize and check determinism, lint, load and replay")
    Term.(
      const verify $ journals_arg $ budget_arg
      $ dir_arg ~doc:"Directory emit wrote the synthesized sources into.")

let () =
  let info =
    Cmd.info "protego-synth"
      ~doc:"Synthesize Protego policies from recorded traffic"
  in
  exit (Cmd.eval (Cmd.group info [ record_cmd; emit_cmd; verify_cmd ]))
