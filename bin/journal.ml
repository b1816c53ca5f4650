(* protego-journal: inspect and verify saved audit journals.

   A plane, a machine's audit sink (protego-synth record --lane lsm) or
   the bench harness saves its journal with Journal.save;
   this tool reads the file back and offers:

     dump FILE           one line per live record, oldest segment first
                         (--hook H, --deny-only, --record-only filter)
     stats FILE          the same stats block /proc/protego/journal shows
     verify FILE         structural checks over the live window

   verify asserts what the commit protocol and the stitcher guarantee:
   every live record decodes, the written/live/dropped counters agree,
   and no (run, seq) pair appears twice.  When nothing was dropped it
   further requires every run's sequence numbers to be exactly
   contiguous from 0 — zero lost, zero duplicated.  With --strict, any
   wraparound loss at all is a failure.

   Every command first loads the whole image, which decodes every
   committed record once; an image that is unreadable, of another
   format version, or holds a malformed record is rejected there.

   Exit status: 0 clean, 1 the image failed to load or to verify. *)

module J = Protego_journal.Journal

let load_or_die file =
  match J.load file with
  | Ok j -> j
  | Error msg ->
      Printf.eprintf "protego-journal: %s: %s\n%!" file msg;
      exit 1

(* Dump filters.  An entry's hook is the request kind of a decision
   record, plane or LSM; a kaudit record has none.  --deny-only keeps
   enforce-mode denials (verdict 0/2, or a disallowed kaudit);
   --record-only keeps the permissive record-mode trail (decision
   verdict 3, or any LSM decision made in record mode). *)
let hook_of_entry = function
  | J.Decision d -> (
      match d.J.d_req with
      | J.Mount _ -> Some "mount"
      | J.Umount _ -> Some "umount"
      | J.Bind _ -> Some "bind"
      | J.Ppp _ -> Some "ppp"
      | J.Nf _ -> Some "nf")
  | J.Kaudit _ -> None

let entry_selected ~hook ~deny_only ~record_only e =
  (match hook with None -> true | Some h -> hook_of_entry e = Some h)
  && (not deny_only
     ||
     match e with
     | J.Decision d -> d.J.d_verdict = 0 || d.J.d_verdict = 2
     | J.Kaudit k -> not k.J.k_allowed)
  && (not record_only
     ||
     match e with
     | J.Decision { J.d_lsm = Some l; _ } -> l.J.l_record
     | J.Decision d -> d.J.d_verdict = 3
     | J.Kaudit _ -> false)

let dump file hook deny_only record_only =
  let j = load_or_die file in
  J.iter j (fun e ->
      if entry_selected ~hook ~deny_only ~record_only e then
        print_endline (J.entry_to_string e))

let stats file =
  let j = load_or_die file in
  print_string (J.render_stats j)

let verify file strict =
  let j = load_or_die file in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let live = ref 0 in
  let seen = Hashtbl.create 4096 in        (* (run, seq) -> count *)
  let runs = Hashtbl.create 16 in          (* run -> max seq, count *)
  J.iter j (fun e ->
      incr live;
      match e with
      | J.Kaudit _ -> ()
      | J.Decision d ->
          let key = (d.J.d_run, d.J.d_seq) in
          (match Hashtbl.find_opt seen key with
          | Some () ->
              problem "duplicate record: run %d seq %d" d.J.d_run d.J.d_seq
          | None -> Hashtbl.add seen key ());
          let mx, n =
            match Hashtbl.find_opt runs d.J.d_run with
            | Some (mx, n) -> (max mx d.J.d_seq, n + 1)
            | None -> (d.J.d_seq, 1)
          in
          Hashtbl.replace runs d.J.d_run (mx, n));
  let st = J.stats j in
  if !live <> st.J.s_live then
    problem "live scan found %d records, stats say %d" !live st.J.s_live;
  if st.J.s_dropped <> st.J.s_records - st.J.s_live then
    problem "dropped %d <> records %d - live %d" st.J.s_dropped st.J.s_records
      st.J.s_live;
  if st.J.s_dropped < 0 then problem "negative dropped count";
  if strict && st.J.s_dropped > 0 then
    problem "strict: %d records lost to wraparound" st.J.s_dropped;
  (* With nothing dropped, every run must be present in full: seqs
     exactly 0..max with no gap.  After wraparound, mid-range gaps are
     expected (whole old segments are overwritten), so only the
     duplicate check applies. *)
  if st.J.s_dropped = 0 then
    Hashtbl.iter
      (fun run (mx, n) ->
        if n <> mx + 1 then
          problem "run %d: %d records for seq range 0..%d" run n mx)
      runs;
  match List.rev !problems with
  | [] ->
      Printf.printf
        "protego-journal: %s: ok (records=%d live=%d dropped=%d runs=%d)\n%!"
        file st.J.s_records st.J.s_live st.J.s_dropped (Hashtbl.length runs)
  | ps ->
      Printf.eprintf "protego-journal: %s: verification failed:\n%!" file;
      List.iter (Printf.eprintf "  %s\n%!") ps;
      exit 1

open Cmdliner

let file_arg =
  Arg.(required
       & pos 0 (some file) None
       & info [] ~docv:"FILE" ~doc:"A journal written by Journal.save.")

let strict_arg =
  Arg.(value
       & flag
       & info [ "strict" ]
           ~doc:"Fail if any record was lost to wraparound.")

let hook_arg =
  Arg.(value
       & opt (some (enum
                      [ ("mount", "mount"); ("umount", "umount");
                        ("bind", "bind"); ("ppp", "ppp"); ("nf", "nf") ]))
           None
       & info [ "hook" ] ~docv:"HOOK"
           ~doc:"Only decision records of this hook (nf: the netfilter \
                 OUTPUT hook's record-mode decisions).")

let deny_only_arg =
  Arg.(value & flag
       & info [ "deny-only" ]
           ~doc:"Only enforce-mode denials (decision verdict deny/reject, \
                 or disallowed kernel audit records).")

let record_only_arg =
  Arg.(value & flag
       & info [ "record-only" ]
           ~doc:"Only the permissive record-mode trail (decision verdict \
                 'recorded', or LSM decisions made in record mode).")

let dump_cmd =
  Cmd.v (Cmd.info "dump" ~doc:"Print every live record, one per line")
    Term.(const dump $ file_arg $ hook_arg $ deny_only_arg $ record_only_arg)

let stats_cmd =
  Cmd.v (Cmd.info "stats" ~doc:"Print the journal stats block")
    Term.(const stats $ file_arg)

let verify_cmd =
  Cmd.v (Cmd.info "verify" ~doc:"Check journal integrity invariants")
    Term.(const verify $ file_arg $ strict_arg)

let () =
  let info =
    Cmd.info "protego-journal" ~doc:"Inspect and verify saved audit journals"
  in
  exit (Cmd.eval (Cmd.group info [ dump_cmd; stats_cmd; verify_cmd ]))
