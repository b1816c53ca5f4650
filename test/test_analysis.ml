(* lib/analysis: the abstract interpreter's domain algebra and dead-code
   detection, the complete-diagnostics verifier, the golden lint
   fixtures under fixtures/lint/, and the load-time lint gate behind the
   /proc policy writes. *)

open Protego_base
open Protego_kernel
module Image = Protego_dist.Image
module Pfm = Protego_filter.Pfm
module Compile = Protego_filter.Pfm_compile
module Absint = Protego_analysis.Pfm_absint
module Lint = Protego_analysis.Policy_lint
module Bindconf = Protego_policy.Bindconf
module Sudoers = Protego_policy.Sudoers
module Pppopts = Protego_policy.Pppopts
module PS = Protego_core.Policy_state

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let errno =
  Alcotest.testable (fun ppf e -> Fmt.string ppf (Errno.to_string e)) Errno.equal

let contains haystack needle =
  let nl = String.length needle in
  let rec go i =
    i + nl <= String.length haystack
    && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

(* --- abstract domains --------------------------------------------------- *)

(* Values compare through the printer: the set-backed constructors are
   equal iff they print the same elements. *)
let check_iv name expected actual =
  check_str name (Absint.iv_to_string expected) (Absint.iv_to_string actual)

let check_sv name expected actual =
  check_str name (Absint.sv_to_string expected) (Absint.sv_to_string actual)

let iset l = Absint.Iset (Absint.ISet.of_list l)
let inot l = Absint.Inot (Absint.ISet.of_list l)
let sset l = Absint.Sset (Absint.SSet.of_list l)

let test_domains () =
  let open Absint in
  check_iv "join of sets unions" (iset [ 1; 2; 3 ])
    (ijoin (iset [ 1; 2 ]) (iset [ 2; 3 ]));
  check_iv "bot is join identity" (iset [ 7 ]) (ijoin Ibot (iset [ 7 ]));
  check_iv "meet range x set filters" (iset [ 5 ])
    (imeet (Irange (0, 10)) (iset [ 5; 12 ]));
  check_iv "meet with exclusion drops members" (iset [ 4; 6 ])
    (imeet (inot [ 5 ]) (iset [ 4; 5; 6 ]));
  check_iv "meet disjoint is bot" Ibot (imeet (iset [ 1 ]) (iset [ 2 ]));
  check_iv "meet of ranges intersects" (Irange (5, 8))
    (imeet (Irange (0, 8)) (Irange (5, 20)));
  check_sv "string join unions" (sset [ "a"; "b" ])
    (sjoin (sset [ "a" ]) (sset [ "b" ]));
  check_sv "string meet excludes" (sset [ "b" ])
    (smeet (Snot (SSet.singleton "a")) (sset [ "a"; "b" ]));
  check_sv "string meet disjoint is bot" Sbot
    (smeet (sset [ "a" ]) (sset [ "b" ]))

(* --- reachability on a hand-written program ----------------------------- *)

let prog ?(n_int = 1) ?(n_str = 0) insns =
  { Pfm.pname = "test"; n_int_fields = n_int; n_str_fields = n_str;
    insns = Array.of_list insns; counters = Array.make (List.length insns) 0;
    retired = 0 }

let test_absint_dead () =
  (* pc4 requires ints.(0) = 5 and ints.(0) = 6 at once: dead, and the
     second test is decided before it runs. *)
  let p =
    prog
      [ Pfm.Ld_int 0;                    (* 0 *)
        Pfm.Jif (Pfm.Eq 5, 0, 3);       (* 1: true->2, false->5 *)
        Pfm.Ld_int 0;                    (* 2 *)
        Pfm.Jif (Pfm.Eq 6, 0, 1);       (* 3: true->4, false->5 *)
        Pfm.Ret Pfm.Allow;               (* 4: infeasible *)
        Pfm.Ret Pfm.Deny ]               (* 5 *)
  in
  let s = Absint.analyze p in
  Alcotest.(check (list int)) "only pc4 dead" [ 4 ] (Absint.dead_pcs s);
  check "allow unreachable" false s.Absint.allow_reachable;
  check "deny reachable" true s.Absint.deny_reachable;
  check "never allows" true (Absint.never_allows s);
  check "const branch at pc3, false edge" true
    (List.mem (3, false) s.Absint.const_branches);
  (* Accumulator refinements must survive reloads: pc2 reloads the same
     field the true edge of pc1 refined. *)
  check "no edge reaches the infeasible pc" false s.Absint.reachable.(4);
  (* The same program with a satisfiable second test is fully live. *)
  let q =
    prog
      [ Pfm.Ld_int 0; Pfm.Jif (Pfm.Eq 5, 0, 3); Pfm.Ld_int 0;
        Pfm.Jif (Pfm.Ge 3, 0, 1); Pfm.Ret Pfm.Allow; Pfm.Ret Pfm.Deny ]
  in
  let s = Absint.analyze q in
  Alcotest.(check (list int)) "all live" [] (Absint.dead_pcs s);
  check "allow reachable" true s.Absint.allow_reachable

(* The compiled-policy path: a duplicate first-match rule must show up
   as dead code attributed to the right note. *)
let test_absint_dead_notes () =
  let rule src =
    { Compile.fm_source = src; fm_target = "/mnt/a"; fm_fstype = "vfat";
      fm_flags = [ Ktypes.Mf_nosuid; Ktypes.Mf_nodev ]; fm_user_only = true;
      fm_phase = Compile.Phase.Always }
  in
  let p, notes = Compile.mount_notes [ rule "/dev/x"; rule "/dev/x" ] in
  let s = Absint.analyze p in
  (* Partial deadness: the duplicate's prologue stays live (its first
     test must run to be refuted), so attribute each dead pc instead of
     asking for a fully-dead note range. *)
  let dead_rule pc =
    match Absint.attribute ~notes pc with Some t -> t | None -> "?"
  in
  let dead = List.map dead_rule (Absint.dead_pcs s) in
  check "some of the duplicate is dead" true (Absint.dead_pcs s <> []);
  check "dead code belongs to rule 1" true
    (List.for_all (fun t -> contains t "rule 1") dead);
  (* The lint layer reports the same thing as PFM-DEAD. *)
  let findings = Lint.lint_program ~source:"mounts" ~notes ~entries:2 p in
  check "PFM-DEAD finding emitted" true
    (List.exists
       (fun (f : Lint.finding) ->
         f.Lint.code = "PFM-DEAD" && contains f.Lint.locus "rule 1")
       findings)

(* --- verify_all: complete diagnostics ----------------------------------- *)

let verr =
  Alcotest.testable
    (fun ppf e -> Fmt.string ppf (Pfm.verify_error_to_string e))
    ( = )

let check_verify_all name expected p =
  Alcotest.(check (result unit (list verr))) name (Error expected)
    (Pfm.verify_all p)

let test_verify_all () =
  (* An ill-targeted jump is reported at the jump and makes its
     successor unreachable: both errors must surface. *)
  check_verify_all "out-of-range jump + unreachable tail"
    [ Pfm.Jump_out_of_range 1; Pfm.Unreachable_insn 1 ]
    (prog [ Pfm.Ret Pfm.Allow; Pfm.Jmp 5 ]);
  check_verify_all "backward jump + unreachable tail"
    [ Pfm.Backward_jump 0; Pfm.Unreachable_insn 1 ]
    (prog [ Pfm.Jmp (-2); Pfm.Ret Pfm.Allow ]);
  check_verify_all "bad field + missing verdict"
    [ Pfm.Missing_verdict 0; Pfm.Int_field_out_of_range (0, 3) ]
    (prog [ Pfm.Ld_int 3 ]);
  check "well-formed program passes" true
    (Pfm.verify_all (prog [ Pfm.Ret Pfm.Deny ]) = Ok ())

(* --- golden lint fixtures ----------------------------------------------- *)

(* dune runtest runs us next to fixtures/; `dune exec` from the root. *)
let fixtures_dir =
  List.find Sys.file_exists
    [ Filename.concat "fixtures" "lint";
      Filename.concat "test" (Filename.concat "fixtures" "lint") ]

let read_fixture name =
  let ic = open_in_bin (Filename.concat fixtures_dir name) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parsed name = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "fixture %s: %s" name msg

(* Assemble a Policy_lint.input from the fixture files sharing
   [base] — the same translation bin/lint.ml performs. *)
let fixture_input base exts =
  let has ext = List.mem ext exts in
  let file ext = base ^ "." ^ ext in
  { Lint.mounts =
      (if has "mounts" then
         parsed (file "mounts")
           (PS.parse_mounts (read_fixture (file "mounts")))
         |> List.map PS.filter_rule
       else []);
    binds =
      (if has "map" then
         parsed (file "map") (Bindconf.parse_lax (read_fixture (file "map")))
       else []);
    delegation =
      (if has "sudoers" then
         parsed (file "sudoers") (Sudoers.parse (read_fixture (file "sudoers")))
       else Sudoers.empty);
    accounts =
      (if has "accounts" then
         let users, groups =
           parsed (file "accounts")
             (PS.parse_accounts (read_fixture (file "accounts")))
         in
         Protego_core.Pfm_dispatch.lint_accounts users groups
       else Lint.no_accounts);
    ppp =
      (if has "ppp" then
         Some (parsed (file "ppp") (Pppopts.parse (read_fixture (file "ppp"))))
       else None);
    chains =
      (if has "chain" then
         let rules, policy =
           parsed (file "chain") (Lint.parse_chain (read_fixture (file "chain")))
         in
         [ ("output", rules, policy) ]
       else []) }

let test_golden_fixtures () =
  let by_base = Hashtbl.create 31 in
  Array.iter
    (fun name ->
      match String.rindex_opt name '.' with
      | None -> ()
      | Some i ->
          let base = String.sub name 0 i in
          let ext = String.sub name (i + 1) (String.length name - i - 1) in
          if ext <> "expected" then
            Hashtbl.replace by_base base
              (ext :: (try Hashtbl.find by_base base with Not_found -> [])))
    (Sys.readdir fixtures_dir);
  let bases = Hashtbl.fold (fun b _ acc -> b :: acc) by_base [] in
  check "fixture corpus present" true (List.length bases >= 18);
  List.iter
    (fun base ->
      let input = fixture_input base (Hashtbl.find by_base base) in
      let got = Lint.render (Lint.lint input) in
      check_str base (read_fixture (base ^ ".expected")) got)
    (List.sort compare bases);
  (* Every stable finding code appears somewhere in the goldens. *)
  let all_expected =
    String.concat ""
      (List.map (fun b -> read_fixture (b ^ ".expected")) bases)
  in
  List.iter
    (fun code ->
      check ("code exercised: " ^ code) true (contains all_expected code))
    [ "PL-M001"; "PL-M002"; "PL-M003"; "PL-M004"; "PL-B001"; "PL-B002";
      "PL-B003"; "PL-S001"; "PL-S002"; "PL-S003"; "PL-S004"; "PL-N001";
      "PL-N002"; "PL-P001"; "PL-P002"; "PL-X001"; "PL-X002"; "PFM-DEAD";
      "PFM-NEVER-ALLOW"; "PFM-ALWAYS-ALLOW"; "PFM-CONST-BRANCH" ]

(* --- the load-time gate behind /proc ------------------------------------ *)

let policy_loads m =
  List.filter (fun r -> r.Audit.au_op = "policy-load") (Audit.records m)

let test_lint_gate_proc () =
  let img = Image.build Image.Protego in
  let m = img.Image.machine in
  let root = Image.login img "root" in
  let read file = Syntax.expect_ok ("read " ^ file) (Syscall.read_file m root file) in
  let write file s = Syscall.write_file m root file s in
  (* A user-mountable filesystem without nosuid: PL-M002, error severity,
     but it parses — only the lint gate can object. *)
  let bad = "allow /dev/sdb9 /mnt/usb9 vfat - users\n" in
  let before = read "/proc/protego/mount_whitelist" in
  check "stock image lints clean" true
    (contains (read "/proc/protego/lint") "no findings");
  check "gate starts in warn mode" true
    (contains (read "/proc/protego/lint") "mode warn");
  (* Warn mode: the write sticks, the audit trail is tagged. *)
  Syntax.expect_ok "warn mode installs" (write "/proc/protego/mount_whitelist" bad);
  (match policy_loads m with
   | [ r ] ->
       check "warn-mode load allowed" true r.Audit.au_allowed;
       check "audit names the file" true (contains r.Audit.au_obj "mount_whitelist");
       check "audit counts errors" true (contains r.Audit.au_obj "error")
   | rs -> Alcotest.failf "expected one policy-load record, got %d" (List.length rs));
  check "findings visible in /proc/protego/lint" true
    (contains (read "/proc/protego/lint") "PL-M002");
  Syntax.expect_ok "restore whitelist" (write "/proc/protego/mount_whitelist" before);
  check "restored state lints clean" true
    (contains (read "/proc/protego/lint") "no findings");
  (* Enforce mode: the same write is refused and rolled back. *)
  Syntax.expect_ok "switch to enforce" (write "/proc/protego/lint" "mode enforce\n");
  check "mode reported" true (contains (read "/proc/protego/lint") "mode enforce");
  Alcotest.(check (result unit errno)) "enforce mode refuses"
    (Error Errno.EPERM)
    (write "/proc/protego/mount_whitelist" bad);
  check_str "refused write rolled back" before (read "/proc/protego/mount_whitelist");
  check "refusal audited" true
    (List.exists (fun r -> not r.Audit.au_allowed) (policy_loads m));
  (* Warning-severity findings do not trip the enforce gate. *)
  let warn_only = before ^ "allow tmpfs /usr/overlay tmpfs nosuid,nodev user\n" in
  Syntax.expect_ok "warnings still install under enforce"
    (write "/proc/protego/mount_whitelist" warn_only);
  check "warning visible" true (contains (read "/proc/protego/lint") "PL-M004");
  Syntax.expect_ok "restore again" (write "/proc/protego/mount_whitelist" before);
  Syntax.expect_ok "back to warn" (write "/proc/protego/lint" "mode warn\n");
  Alcotest.(check (result unit errno)) "junk mode command rejected"
    (Error Errno.EINVAL)
    (write "/proc/protego/lint" "mode strict\n")

(* A pre-existing defect in an unrelated source must not veto an
   install: the gate only looks at the sources being written. *)
let test_lint_gate_scoped () =
  let img = Image.build Image.Protego in
  let m = img.Image.machine in
  let root = Image.login img "root" in
  let write file s = Syscall.write_file m root file s in
  Syntax.expect_ok "defective whitelist installs under warn"
    (write "/proc/protego/mount_whitelist" "allow /dev/sdb9 /mnt/u vfat - users\n");
  Syntax.expect_ok "switch to enforce" (write "/proc/protego/lint" "mode enforce\n");
  Syntax.expect_ok "unrelated delegation write passes the gate"
    (write "/proc/protego/delegation" "alice ALL=(root) /usr/bin/lpr\n")

(* A refused write changes nothing: the gate lints a candidate copy of
   the state and only an accepted one is committed, so the written
   source's generation stays put and the hook keeps serving the
   unchanged policy's program. *)
let test_refused_write_keeps_generation () =
  let img = Image.build Image.Protego in
  let m = img.Image.machine in
  m.password_source <- (fun _ -> None);
  let lsm = Option.get img.Image.protego in
  let st = Protego_core.Lsm.state lsm in
  let disp = Protego_core.Lsm.dispatch lsm in
  let root = Image.login img "root" in
  let alice = Image.login img "alice" in
  let write file s = Syscall.write_file m root file s in
  let mount () =
    ignore
      (Syscall.mount m alice ~source:"/dev/sda2" ~target:"/etc" ~fstype:"ext4"
         ~flags:[])
  in
  mount ();
  let gen = PS.generation st PS.Mounts in
  let before = st.PS.mounts in
  Syntax.expect_ok "switch to enforce" (write "/proc/protego/lint" "mode enforce\n");
  Alcotest.(check (result unit errno)) "enforce mode refuses"
    (Error Errno.EPERM)
    (write "/proc/protego/mount_whitelist" "allow /dev/sdb9 /mnt/usb9 vfat - users\n");
  check "refused write leaves the whitelist" true (st.PS.mounts == before);
  Alcotest.(check int) "refused write leaves the generation" gen
    (PS.generation st PS.Mounts);
  let mount_stats () =
    List.assoc "mount" (Protego_core.Pfm_dispatch.stats disp)
  in
  let before = mount_stats () in
  mount ();
  check_str "identical decision served by the engine" "pfm"
    (Protego_core.Pfm_dispatch.decision_engine_name disp);
  Alcotest.(check int) "one more evaluation"
    (before.Protego_core.Pfm_dispatch.evals + 1)
    (mount_stats ()).Protego_core.Pfm_dispatch.evals;
  Alcotest.(check int) "the same program: no reload"
    before.Protego_core.Pfm_dispatch.invalidations
    (mount_stats ()).Protego_core.Pfm_dispatch.invalidations

(* --- scoped lint and the indexed checks --------------------------------- *)

module Gen = QCheck2.Gen
module NF = Protego_net.Netfilter

let guard_gen =
  Gen.oneofl
    Phase.[ Always; Always; Upto Setup; Upto Serving; Exactly Setup;
            Exactly Serving; From Serving; From Steady ]

(* Few sources, targets, ports and binaries, so rules collide often. *)
let mount_gen =
  Gen.map
    (fun (((src, tgt), (fstype, flags)), (user_only, phase)) ->
      { Compile.fm_source = src; fm_target = tgt; fm_fstype = fstype;
        fm_flags = flags; fm_user_only = user_only; fm_phase = phase })
    Gen.(
      pair
        (pair
           (pair (oneofl [ "/dev/sdb1"; "/dev/sdb2"; "/dev/cdrom" ])
              (oneofl [ "/mnt/usb"; "/mnt/cdrom"; "/etc/x" ]))
           (pair
              (oneofl [ "auto"; "auto"; "vfat"; "ext4" ])
              (oneofl
                 Ktypes.[ [ Mf_nosuid; Mf_nodev ]; [ Mf_readonly; Mf_nosuid; Mf_nodev ];
                          [ Mf_nosuid ]; [] ])))
        (pair bool guard_gen))

let bind_gen =
  Gen.map
    (fun ((port, proto), (exe, (owner, phase))) ->
      { Bindconf.port; proto; exe; owner; phase })
    Gen.(
      pair
        (pair (oneofl [ 22; 53; 80; 80; 443; 2000 ])
           (oneofl [ Bindconf.Tcp; Bindconf.Udp ]))
        (pair
           (oneofl [ "/usr/sbin/named"; "/usr/sbin/nginx"; "/usr/sbin/sshd" ])
           (pair (int_bound 3) guard_gen)))

let nf_rule_gen =
  Gen.map
    (fun (matches, target) -> { NF.matches; target; comment = "" })
    Gen.(
      pair
        (list_size (int_range 0 2)
           (oneofl
              [ NF.Proto Protego_net.Packet.Tcp; NF.Proto Protego_net.Packet.Udp;
                NF.Dst_port { lo = 50; hi = 90 }; NF.Dst_port { lo = 443; hi = 443 };
                NF.Owner_uid 33 ]))
        (oneofl [ NF.Accept; NF.Drop; NF.Reject ]))

let sudo_gen =
  Gen.map
    (fun ((who, runas), (tags, (any, rphase))) ->
      { Sudoers.who = Sudoers.User who; runas = Sudoers.Runas_users [ runas ];
        tags;
        commands =
          (if any then [ Sudoers.Any_command ]
           else [ Sudoers.Command { path = "/usr/bin/lpr"; args = None } ]);
        rphase })
    Gen.(
      pair
        (pair (oneofl [ "alice"; "bob"; "carol" ])
           (oneofl [ "root"; "alice"; "bob"; "mallory" ]))
        (pair
           (oneofl Sudoers.[ []; [ Nopasswd ]; [ Setenv ] ])
           (pair bool guard_gen)))

let input_gen =
  Gen.map
    (fun ((mounts, binds), ((chain, policy), (rules, (devices, owners)))) ->
      { Lint.mounts; binds;
        delegation = { Sudoers.empty with Sudoers.rules };
        accounts =
          (if owners = 0 then Lint.no_accounts
           else
             { Lint.user_names =
                 List.init owners (fun u -> (List.nth [ "root"; "alice"; "bob" ] u, u));
               group_names = [] });
        ppp =
          Some
            { Pppopts.directives =
                List.map (fun (d, g) -> Pppopts.Allow_device (d, g)) devices };
        chains = [ ("output", chain, policy) ] })
    Gen.(
      pair
        (pair (list_size (int_bound 12) mount_gen) (list_size (int_bound 12) bind_gen))
        (pair
           (pair (list_size (int_bound 6) nf_rule_gen)
              (oneofl [ NF.Accept; NF.Drop ]))
           (pair (list_size (int_bound 4) sudo_gen)
              (pair
                 (list_size (int_bound 3)
                    (pair (oneofl [ "/dev/ttyS0"; "/dev/ttyS1"; "/tmp/tty" ]) guard_gen))
                 (int_bound 3)))))

let print_findings inp = Lint.render (Lint.lint inp)

(* What each /proc write lints: the written sources plus "cross", exactly
   as the whole lint reports them. *)
let prop_scoped_matches_whole =
  QCheck2.Test.make ~name:"lint: scoped == whole filtered to the sources"
    ~count:300 ~print:print_findings input_gen (fun inp ->
      let whole = Lint.lint inp in
      List.for_all
        (fun sources ->
          Lint.lint ~sources inp
          = List.filter
              (fun (f : Lint.finding) ->
                List.mem f.Lint.source sources || f.Lint.source = "cross")
              whole)
        [ [ "mounts" ]; [ "binds" ]; [ "delegation" ]; [ "ppp" ] ])

(* The pairwise O(n^2) PL-M001, PL-B001 and PL-B002 loops the indexed
   checks replaced, kept as an oracle. *)
let quadratic_mounts rules =
  let arr = Array.of_list rules in
  let covers outer inner =
    List.for_all
      (fun p -> (not (Phase.active inner p)) || Phase.active outer p)
      Phase.all
  in
  List.concat
    (List.mapi
       (fun j (r : Compile.mount_rule) ->
         let rec first i =
           if i >= j then []
           else
             let e = arr.(i) in
             if
               e.Compile.fm_source = r.Compile.fm_source
               && e.Compile.fm_target = r.Compile.fm_target
               && (e.Compile.fm_fstype = "auto"
                  || e.Compile.fm_fstype = r.Compile.fm_fstype)
               && covers e.Compile.fm_phase r.Compile.fm_phase
             then
               [ { Lint.code = "PL-M001"; severity = Lint.Warning;
                   source = "mounts"; locus = Printf.sprintf "rule %d" j;
                   message =
                     Printf.sprintf
                       "shadowed by rule %d: first match decides, so `%s' \
                        never takes effect%s"
                       i (Compile.mount_rule_text r)
                       (if e.Compile.fm_flags <> r.Compile.fm_flags then
                          " (and the rules require different mount flags)"
                        else "") } ]
             else first (i + 1)
         in
         first 0)
       rules)

let quadratic_binds entries =
  let arr = Array.of_list entries in
  let overlap a b =
    List.exists (fun p -> Phase.active a p && Phase.active b p) Phase.all
  in
  let finding code severity j message =
    { Lint.code; severity; source = "binds"; locus = Printf.sprintf "entry %d" j;
      message }
  in
  List.concat
    (List.mapi
       (fun j (e : Bindconf.entry) ->
         let b001 =
           let rec first i =
             if i >= j then []
             else
               let d = arr.(i) in
               if
                 d.Bindconf.port = e.port && d.Bindconf.proto = e.proto
                 && overlap d.Bindconf.phase e.Bindconf.phase
               then
                 [ finding "PL-B001" Lint.Error j
                     (Printf.sprintf
                        "duplicate %d/%s: entry %d (%s uid %d) already claims \
                         it, this entry never takes effect"
                        e.port (Bindconf.proto_to_string e.proto) i
                        d.Bindconf.exe d.Bindconf.owner) ]
               else first (i + 1)
           in
           first 0
         in
         let b002 =
           List.concat
             (List.init j (fun i ->
                  let d = arr.(i) in
                  if
                    d.Bindconf.port = e.port && d.Bindconf.proto <> e.proto
                    && d.Bindconf.exe <> e.exe
                  then
                    [ finding "PL-B002" Lint.Warning j
                        (Printf.sprintf
                           "port %d maps to %s (%s) but to %s (%s) in entry %d"
                           e.port e.exe (Bindconf.proto_to_string e.proto)
                           d.Bindconf.exe
                           (Bindconf.proto_to_string d.Bindconf.proto)
                           i) ]
                  else []))
         in
         b001 @ b002)
       entries)

let only codes fs =
  List.filter (fun (f : Lint.finding) -> List.mem f.Lint.code codes) fs

let prop_indexed_mounts =
  QCheck2.Test.make ~name:"lint: indexed PL-M001 == pairwise oracle"
    ~count:500 Gen.(list_size (int_bound 40) mount_gen) (fun rules ->
      only [ "PL-M001" ] (Lint.lint_mounts rules) = quadratic_mounts rules)

let prop_indexed_binds =
  QCheck2.Test.make ~name:"lint: indexed PL-B001/B002 == pairwise oracle"
    ~count:500 Gen.(list_size (int_bound 40) bind_gen) (fun entries ->
      only [ "PL-B001"; "PL-B002" ] (Lint.lint_binds entries)
      = quadratic_binds entries)

(* The load gate analyzes every written policy's program.  The analysis
   of a 64-rule mount program (over 256 instructions, so its per-pc
   arrays live in the major heap) must allocate only into the nursery:
   seeding such an array with a young value makes the runtime empty the
   minor heap first, which every policy write would pay. *)
let test_absint_no_forced_collection () =
  let rule i =
    { Compile.fm_source = Printf.sprintf "/dev/sd%d" i;
      fm_target = Printf.sprintf "/media/m%d" i; fm_fstype = "vfat";
      fm_flags = [ Ktypes.Mf_nosuid; Ktypes.Mf_nodev ]; fm_user_only = true;
      fm_phase = Compile.Phase.Always }
  in
  let p = Compile.mount (List.init 64 rule) in
  check "program over 256 instructions" true (Array.length p.Pfm.insns > 256);
  ignore (Absint.analyze p);
  Gc.minor ();
  let c0 = (Gc.quick_stat ()).Gc.minor_collections in
  let s = Absint.analyze p in
  let c1 = (Gc.quick_stat ()).Gc.minor_collections in
  Alcotest.(check int) "no minor collection" c0 c1;
  Alcotest.(check (list int)) "every pc reachable" [] (Absint.dead_pcs s)

(* The minor words of analysing a 512-rule mount program (the widened
   benchmark policy's shape: distinct sources, one rule each), pinned at
   the measured 243,106 with 25% headroom.  Joining states at the [Ret]
   pcs, which no successor reads, doubles the figure. *)
let test_absint_minor_words () =
  let rule i =
    { Compile.fm_source = Printf.sprintf "/dev/wide%d" i;
      fm_target = Printf.sprintf "/media/wide%d" i; fm_fstype = "ext4";
      fm_flags = [ Ktypes.Mf_nosuid; Ktypes.Mf_nodev ]; fm_user_only = false;
      fm_phase = Compile.Phase.Always }
  in
  let p = Compile.mount (List.init 512 rule) in
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Absint.analyze p));
  let words = Gc.minor_words () -. w0 in
  if words > 243_106. *. 1.25 then
    Alcotest.failf "analysing a 512-rule mount program took %.0f minor words \
                    (pinned: 243106 + 25%%)" words

let suites =
  [ ("analysis:absint",
      [ Alcotest.test_case "domain algebra" `Quick test_domains;
        Alcotest.test_case "dead code and const branches" `Quick
          test_absint_dead;
        Alcotest.test_case "dead code attributed to notes" `Quick
          test_absint_dead_notes;
        Alcotest.test_case "a large program's analysis collects nothing"
          `Quick test_absint_no_forced_collection;
        Alcotest.test_case "a 512-rule analysis's minor words are pinned"
          `Quick test_absint_minor_words ]);
    ("analysis:verifier",
      [ Alcotest.test_case "verify_all reports every error" `Quick
          test_verify_all ]);
    ("analysis:lint",
      [ Alcotest.test_case "golden fixtures" `Quick test_golden_fixtures ]);
    ("analysis:gate",
      [ Alcotest.test_case "/proc/protego/lint warn and enforce" `Quick
          test_lint_gate_proc;
        Alcotest.test_case "gate scoped to written sources" `Quick
          test_lint_gate_scoped;
        Alcotest.test_case "refused write keeps the generation" `Quick
          test_refused_write_keeps_generation ]);
    ("analysis:scoped",
      List.map (QCheck_alcotest.to_alcotest ~long:false)
        [ prop_scoped_matches_whole; prop_indexed_mounts; prop_indexed_binds ]) ]
