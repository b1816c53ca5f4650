(* protego-lint: offline semantic lint over the Protego policy sources.

   Reads the same on-disk formats the userland ships to /proc/protego
   (plus /etc/fstab, which the monitor daemon translates) and runs
   {!Protego_analysis.Policy_lint} over them — including compiling each
   source to PFM bytecode and abstract-interpreting the result.

   Exit status: 0 clean, 1 when any finding reaches error severity
   (any finding at all under [--strict]), 2 on usage or parse errors. *)

module Lint = Protego_analysis.Policy_lint
module Bindconf = Protego_policy.Bindconf
module Sudoers = Protego_policy.Sudoers
module Pppopts = Protego_policy.Pppopts
module Fstab = Protego_policy.Fstab
module Policy_state = Protego_core.Policy_state
module Compile = Protego_filter.Pfm_compile
module Pfm = Protego_filter.Pfm
module Equiv = Protego_analysis.Pfm_equiv

exception Fail of string

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Ok (really_input_string ic (in_channel_length ic)))
  with Sys_error msg -> Error msg

let load what path parse =
  match read_file path with
  | Error msg -> raise (Fail msg)
  | Ok contents -> (
      match parse contents with
      | Ok v -> v
      | Error msg -> raise (Fail (Printf.sprintf "%s (%s): %s" what path msg)))

(* /etc/fstab user entries, translated exactly as the monitor daemon
   ships them to /proc/protego/mount_whitelist. *)
let fstab_rules path =
  load "fstab" path Fstab.parse
  |> List.filter Fstab.user_mountable
  |> List.map (fun (e : Fstab.entry) ->
         let phase =
           match Fstab.phase_guard e with
           | Ok g -> g
           | Error msg -> raise (Fail (Printf.sprintf "fstab (%s): %s" path msg))
         in
         { Compile.fm_source = e.Fstab.fs_spec;
           fm_target = e.Fstab.fs_file;
           fm_fstype = e.Fstab.fs_vfstype;
           fm_flags = Fstab.mount_flags e;
           fm_user_only = not (List.mem "users" e.Fstab.fs_mntops);
           fm_phase = phase })

let whitelist_rules path =
  load "mount whitelist" path Policy_state.parse_mounts
  |> List.map Policy_state.filter_rule

let load_accounts path =
  let users, groups = load "accounts" path Policy_state.parse_accounts in
  Protego_core.Pfm_dispatch.lint_accounts users groups

let load_chain spec =
  match String.index_opt spec '=' with
  | None ->
      raise (Fail (Printf.sprintf "--netfilter %s: expected NAME=FILE" spec))
  | Some i ->
      let name = String.sub spec 0 i in
      let path = String.sub spec (i + 1) (String.length spec - i - 1) in
      let rules, policy = load ("chain " ^ name) path Lint.parse_chain in
      (name, rules, policy)

(* --prove: translation validation of the production hook compilers.
   For every source provided, compile it twice — with the production
   compiler (shared-prefix dispatch, hashed switches) and with the
   naive linear reference compiler — and require the symbolic
   equivalence prover to certify the pair.  [Not_equal] means a
   compiler bug (the counterexample replays to a real divergence) and
   always fails; [Unknown] is a refused proof and fails under
   [--strict]. *)
let prove_sources input strict =
  let pairs =
    (match input.Lint.mounts with
     | [] -> []
     | rules ->
         [ ("mount", Compile.mount rules, Compile.mount_linear rules);
           ("umount", Compile.umount rules, Compile.umount_linear rules) ])
    @ (match input.Lint.binds with
       | [] -> []
       | entries ->
           [ ("bind", Compile.bind entries, Compile.bind_linear entries) ])
    @ (match input.Lint.ppp with
       | None -> []
       | Some ppp ->
           [ ("ppp_ioctl", Compile.ppp_ioctl ppp, Compile.ppp_linear ppp) ])
    @ List.map
        (fun (name, rules, policy) ->
          ( "netfilter:" ^ name,
            Compile.netfilter ~rules ~policy,
            Compile.netfilter_linear ~rules ~policy ))
        input.Lint.chains
  in
  if pairs = [] then begin
    prerr_endline "protego-lint: --prove: no compilable sources given";
    2
  end
  else
    List.fold_left
      (fun worst (name, prod, linear) ->
        match Equiv.prove prod linear with
        | Equiv.Equal ->
            Printf.printf "PROVE %s: equal (%d vs %d insns)\n" name
              (Array.length prod.Pfm.insns)
              (Array.length linear.Pfm.insns);
            worst
        | Equiv.Not_equal _ as r ->
            Printf.printf "PROVE %s: NOT EQUAL — compiler bug: %s\n" name
              (Equiv.result_to_string r);
            max worst 1
        | Equiv.Unknown msg ->
            Printf.printf "PROVE %s: unknown (%s)%s\n" name msg
              (if strict then " — refused under --strict" else "");
            if strict then max worst 1 else worst)
      0 pairs

let run fstab mounts binds delegation accounts ppp chain_specs strict prove =
  try
    let input =
      { Lint.mounts =
          (match fstab with None -> [] | Some p -> fstab_rules p)
          @ (match mounts with None -> [] | Some p -> whitelist_rules p);
        binds =
          (match binds with
           | None -> []
           | Some p -> load "bind map" p Bindconf.parse_lax);
        delegation =
          (match delegation with
           | None -> Sudoers.empty
           | Some p -> load "sudoers" p Sudoers.parse);
        accounts =
          (match accounts with
           | None -> Lint.no_accounts
           | Some p -> load_accounts p);
        ppp = Option.map (fun p -> load "ppp options" p Pppopts.parse) ppp;
        chains = List.map load_chain chain_specs }
    in
    let findings = Lint.lint input in
    print_string (Lint.render findings);
    let lint_rc =
      if Lint.has_errors findings || (strict && findings <> []) then 1 else 0
    in
    let prove_rc = if prove then prove_sources input strict else 0 in
    max lint_rc prove_rc
  with Fail msg ->
    prerr_endline ("protego-lint: " ^ msg);
    2

open Cmdliner

let path_opt names docv doc =
  Arg.(value & opt (some string) None & info names ~docv ~doc)

let fstab_t =
  path_opt [ "fstab" ] "FILE"
    "fstab(5) file; entries marked user/users become mount whitelist rules, \
     translated as the monitor daemon does."

let mounts_t =
  path_opt [ "mounts" ] "FILE"
    "Mount whitelist in the /proc/protego/mount_whitelist grammar."

let binds_t =
  path_opt [ "binds" ] "FILE"
    "Privileged-port bind map.  Parsed laxly: duplicate and out-of-range \
     entries are kept so the linter can report them with locations."

let delegation_t =
  path_opt [ "delegation" ] "FILE" "sudoers-style delegation policy."

let accounts_t =
  path_opt [ "accounts" ] "FILE"
    "Account database, enabling the name-resolution checks (PL-S004, \
     PL-X002)."

let ppp_t = path_opt [ "ppp" ] "FILE" "pppd options file."

let chains_t =
  Arg.(
    value
    & opt_all string []
    & info [ "netfilter" ] ~docv:"NAME=FILE"
        ~doc:
          "Netfilter chain file (rule specs one per line, optional policy \
           line).  Repeatable.")

let strict_t =
  Arg.(
    value & flag
    & info [ "strict" ] ~doc:"Exit nonzero on any finding, not only errors.")

let prove_t =
  Arg.(
    value & flag
    & info [ "prove" ]
        ~doc:
          "Translation-validate the hook compilers: compile each given \
           source with both the production and the linear reference \
           compiler and run the symbolic equivalence prover over the pair.  \
           A disproved pair (compiler bug, with a replayable \
           counterexample) always exits 1; an unproved pair exits 1 only \
           under $(b,--strict).")

let cmd =
  let doc = "semantic lint over Protego policy sources" in
  let man =
    [ `S Manpage.s_description;
      `P
        "Runs the cross-source policy checks and the PFM bytecode abstract \
         interpreter over the given policy files and prints one line per \
         finding: $(b,CODE SEVERITY SOURCE (LOCUS): MESSAGE).";
      `S Manpage.s_exit_status;
      `P "0 on no findings (or warnings only, without $(b,--strict));";
      `P "1 when findings reach error severity (any finding with \
          $(b,--strict));";
      `P "2 on usage or parse errors." ]
  in
  Cmd.v
    (Cmd.info "protego-lint" ~doc ~man)
    Term.(
      const run $ fstab_t $ mounts_t $ binds_t $ delegation_t $ accounts_t
      $ ppp_t $ chains_t $ strict_t $ prove_t)

let () = exit (Cmd.eval' cmd)
