open Protego_kernel
module Phase = Protego_base.Phase

type mount_rule = {
  mr_source : string;
  mr_target : string;
  mr_fstype : string;
  mr_flags : Ktypes.mount_flag list;
  mr_mode : [ `User | `Users ];
  mr_phase : Phase.guard;
}

let filter_rule r : Protego_filter.Pfm_compile.mount_rule =
  { fm_source = r.mr_source; fm_target = r.mr_target; fm_fstype = r.mr_fstype;
    fm_flags = r.mr_flags; fm_user_only = r.mr_mode = `User;
    fm_phase = r.mr_phase }

type account_user = {
  au_name : string;
  au_uid : int;
  au_gid : int;
  au_groups : string list;
}

type account_group = {
  ag_name : string;
  ag_gid : int;
  ag_members : string list;
  ag_password : string option;
}

type source = Mounts | Binds | Delegation | Accounts | Ppp

let source_count = 5

let source_index = function
  | Mounts -> 0
  | Binds -> 1
  | Delegation -> 2
  | Accounts -> 3
  | Ppp -> 4

let source_name = function
  | Mounts -> "mounts"
  | Binds -> "binds"
  | Delegation -> "delegation"
  | Accounts -> "accounts"
  | Ppp -> "ppp"

(* --- the program store --------------------------------------------------

   One compiled program (with its provenance notes) per program kind and
   source value.  Every source value is immutable, so a program is a pure
   function of the value it was compiled from, and the store keys on the
   value's physical identity: a bare generation bump keeps the key, and
   a key only ever maps to a program compiled from that very value, so
   reuse is sound under ABA too. *)

type program_kind = Mount_program | Umount_program | Bind_program | Ppp_program

type compiled = Protego_filter.Pfm.program * (int * string) list

(* One kind's programs: the newest installed value's, and the load
   gate's candidate, held apart until {!set} installs it so that a
   refused write never evicts the live program.  An older value's program
   is dropped, not kept: it would pin a whole program per kind in the
   heap to save a compile only when a source goes back to that value. *)
type 'k shelf = {
  build : 'k -> compiled;
  mutable live : ('k * compiled) option;
  mutable staged : ('k * compiled) option;
}

type store = {
  lock : Mutex.t;
  s_mount : mount_rule list shelf;
  s_umount : mount_rule list shelf;
  s_bind : Protego_policy.Bindconf.entry list shelf;
  s_ppp : Protego_policy.Pppopts.t shelf;
  mutable compiles : int;
}

let shelf build = { build; live = None; staged = None }

let create_store () =
  let module C = Protego_filter.Pfm_compile in
  { lock = Mutex.create ();
    s_mount = shelf (fun rules -> C.mount_notes (List.map filter_rule rules));
    s_umount = shelf (fun rules -> C.umount_notes (List.map filter_rule rules));
    s_bind = shelf (fun entries -> C.bind_notes entries);
    s_ppp = shelf (fun policy -> C.ppp_ioctl_notes policy);
    compiles = 0 }

(* A hit on the live entry takes no lock (the dispatcher looks its
   program up on every engine run): an entry is immutable once written,
   and a racing writer only replaces it with another value's. *)
let fetch store sh key ~stage =
  match sh.live with
  | Some (k, c) when k == key -> c
  | _ ->
      Mutex.protect store.lock (fun () ->
          match (sh.live, sh.staged) with
          | Some (k, c), _ when k == key -> c
          | _, Some (k, c) when k == key -> c
          | _ ->
              store.compiles <- store.compiles + 1;
              let e = (key, sh.build key) in
              if stage then sh.staged <- Some e else sh.live <- Some e;
              snd e)

(* [set] installed [key]: a candidate the gate staged for it goes live. *)
let promote store sh key =
  Mutex.protect store.lock (fun () ->
      match sh.staged with
      | Some (k, _) when k == key ->
          sh.live <- sh.staged;
          sh.staged <- None
      | _ -> ())

type t = {
  mutable mounts : mount_rule list;
  mutable binds : Protego_policy.Bindconf.entry list;
  mutable delegation : Protego_policy.Sudoers.t;
  mutable users : account_user list;
  mutable groups : account_group list;
  mutable ppp : Protego_policy.Pppopts.t;
  reauth_read_prefixes : string list;
  file_acl : (string * string list) list;
  generations : int Atomic.t array;
  store : store;
}

type update =
  | Set_mounts of mount_rule list
  | Set_binds of Protego_policy.Bindconf.entry list
  | Set_delegation of Protego_policy.Sudoers.t
  | Set_accounts of account_user list * account_group list
  | Set_ppp of Protego_policy.Pppopts.t

let create () =
  { mounts = []; binds = []; delegation = Protego_policy.Sudoers.empty;
    users = []; groups = []; ppp = { Protego_policy.Pppopts.directives = [] };
    reauth_read_prefixes = [ "/etc/shadows/" ];
    file_acl =
      [ ("/etc/ssh/ssh_host_rsa_key", [ "/usr/lib/openssh/ssh-keysign" ]) ];
    generations = Array.init source_count (fun _ -> Atomic.make 0);
    store = create_store () }

let sources = [ Mounts; Binds; Delegation; Accounts; Ppp ]

(* Generations are Atomic.t, not plain ints: the decision plane
   (lib/plane) freezes the vector from, and the /proc writers bump it
   from, different domains.  Single-domain behaviour is unchanged —
   [Atomic.get]/[Atomic.incr] on an uncontended cell cost the same as the
   plain loads and stores they replace — but multi-domain reads are
   well-defined instead of racy. *)
let generation t s = Atomic.get t.generations.(source_index s)

let bump_generation t s = Atomic.incr t.generations.(source_index s)

(* The only assignments to the policy fields: [t] is private outside this
   module, so every change goes through [set] and bumps its source's
   generation. *)
let install t = function
  | Set_mounts v -> t.mounts <- v; Mounts
  | Set_binds v -> t.binds <- v; Binds
  | Set_delegation v -> t.delegation <- v; Delegation
  | Set_accounts (users, groups) ->
      t.users <- users;
      t.groups <- groups;
      Accounts
  | Set_ppp v -> t.ppp <- v; Ppp

let set t u =
  let s = t.store in
  (match u with
   | Set_mounts v -> promote s s.s_mount v; promote s s.s_umount v
   | Set_binds v -> promote s s.s_bind v
   | Set_ppp v -> promote s s.s_ppp v
   | Set_delegation _ | Set_accounts _ -> ());
  bump_generation t (install t u)

(* The field values are immutable, so aliasing them is a deep-enough copy;
   the generation cells are fresh, and the program store is shared. *)
let copy t =
  let fresh g = Atomic.make (Atomic.get g) in
  { t with generations = Array.map fresh t.generations }

let candidate t u =
  let c = copy t in
  ignore (install c u : source);
  c

let compiled ?(stage = false) t kind =
  let s = t.store in
  match kind with
  | Mount_program -> fetch s s.s_mount t.mounts ~stage
  | Umount_program -> fetch s s.s_umount t.mounts ~stage
  | Bind_program -> fetch s s.s_bind t.binds ~stage
  | Ppp_program -> fetch s s.s_ppp t.ppp ~stage

let program t kind = fst (compiled t kind)
let compiles t = t.store.compiles

(* --- name service ---------------------------------------------------- *)

let name_of_uid t uid =
  List.find_opt (fun u -> u.au_uid = uid) t.users
  |> Option.map (fun u -> u.au_name)

let group_of_gid t gid = List.find_opt (fun g -> g.ag_gid = gid) t.groups

let group_names_of_user t name =
  match List.find_opt (fun u -> u.au_name = name) t.users with
  | None -> []
  | Some u ->
      let primary =
        match group_of_gid t u.au_gid with
        | Some g -> [ g.ag_name ]
        | None -> []
      in
      let members =
        List.filter_map
          (fun g -> if List.mem name g.ag_members then Some g.ag_name else None)
          t.groups
      in
      List.sort_uniq compare (primary @ u.au_groups @ members)

(* --- flags ------------------------------------------------------------ *)

let flag_to_string = Ktypes.mount_flag_name

let flag_of_string = function
  | "ro" -> Some Ktypes.Mf_readonly
  | "nosuid" -> Some Ktypes.Mf_nosuid
  | "nodev" -> Some Ktypes.Mf_nodev
  | "noexec" -> Some Ktypes.Mf_noexec
  | _ -> None

let flags_to_string = function
  | [] -> "-"
  | flags -> String.concat "," (List.map flag_to_string flags)

let flags_of_string s =
  if s = "-" then Ok []
  else
    let parts = String.split_on_char ',' s in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | p :: rest -> (
          match flag_of_string p with
          | Some f -> go (f :: acc) rest
          | None -> Error ("unknown mount flag: " ^ p))
    in
    go [] parts

(* --- /proc grammars ---------------------------------------------------- *)

let words line =
  String.split_on_char ' ' (String.trim line) |> List.filter (fun s -> s <> "")

let parse_mounts contents =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        let trimmed = String.trim line in
        if trimmed = "" || trimmed.[0] = '#' then go acc rest
        else
          let entry source target fstype flags_s mode_s mr_phase =
            match (flags_of_string flags_s, mode_s) with
            | Ok mr_flags, ("user" | "users") ->
                let mr_mode = if mode_s = "user" then `User else `Users in
                go
                  ({ mr_source = source; mr_target = target;
                     mr_fstype = fstype; mr_flags; mr_mode; mr_phase } :: acc)
                  rest
            | Error e, _ -> Error e
            | Ok _, m -> Error ("mount_whitelist: bad mode: " ^ m)
          in
          match words trimmed with
          | [ "allow"; source; target; fstype; flags_s; mode_s ] ->
              entry source target fstype flags_s mode_s Phase.Always
          | [ "allow"; source; target; fstype; flags_s; mode_s; guard_s ] -> (
              match Phase.parse_guard guard_s with
              | Some (Ok g) -> entry source target fstype flags_s mode_s g
              | Some (Error e) -> Error ("mount_whitelist: " ^ e)
              | None -> Error ("mount_whitelist: malformed line: " ^ trimmed))
          | _ -> Error ("mount_whitelist: malformed line: " ^ trimmed))
  in
  go [] (String.split_on_char '\n' contents)

let mounts_to_string rules =
  let line r =
    Printf.sprintf "allow %s %s %s %s %s%s" r.mr_source r.mr_target r.mr_fstype
      (flags_to_string r.mr_flags)
      (match r.mr_mode with `User -> "user" | `Users -> "users")
      (match r.mr_phase with
      | Phase.Always -> ""
      | g -> " " ^ Phase.guard_to_string g)
  in
  String.concat "\n" (List.map line rules) ^ "\n"

let parse_csv_or_dash s =
  if s = "-" then [] else String.split_on_char ',' s

let parse_accounts contents =
  let rec go users groups = function
    | [] -> Ok (List.rev users, List.rev groups)
    | line :: rest -> (
        let trimmed = String.trim line in
        if trimmed = "" || trimmed.[0] = '#' then go users groups rest
        else
          match words trimmed with
          | [ "user"; name; uid_s; gid_s; groups_s ] -> (
              match (int_of_string_opt uid_s, int_of_string_opt gid_s) with
              | Some au_uid, Some au_gid ->
                  go
                    ({ au_name = name; au_uid; au_gid;
                       au_groups = parse_csv_or_dash groups_s } :: users)
                    groups rest
              | _, _ -> Error ("accounts: bad uid/gid: " ^ trimmed))
          | "group" :: name :: gid_s :: members_s :: rest_fields -> (
              match int_of_string_opt gid_s with
              | Some ag_gid ->
                  let ag_password =
                    match rest_fields with [ h ] -> Some h | _ -> None
                  in
                  go users
                    ({ ag_name = name; ag_gid;
                       ag_members = parse_csv_or_dash members_s; ag_password }
                     :: groups)
                    rest
              | None -> Error ("accounts: bad gid: " ^ trimmed))
          | _ -> Error ("accounts: malformed line: " ^ trimmed))
  in
  go [] [] (String.split_on_char '\n' contents)

let accounts_to_string users groups =
  let csv_or_dash = function [] -> "-" | l -> String.concat "," l in
  let user_line u =
    Printf.sprintf "user %s %d %d %s" u.au_name u.au_uid u.au_gid
      (csv_or_dash u.au_groups)
  in
  let group_line g =
    Printf.sprintf "group %s %d %s%s" g.ag_name g.ag_gid
      (csv_or_dash g.ag_members)
      (match g.ag_password with Some h -> " " ^ h | None -> "")
  in
  String.concat "\n" (List.map user_line users @ List.map group_line groups) ^ "\n"

(* --- queries ----------------------------------------------------------- *)

let rule_active phase r =
  match phase with None -> true | Some p -> Phase.active r.mr_phase p

let find_mount_rule ?phase t ~source ~target ~fstype =
  List.find_opt
    (fun r ->
      rule_active phase r
      && r.mr_source = source && r.mr_target = target
      && (r.mr_fstype = fstype || fstype = "auto" || r.mr_fstype = "auto"))
    t.mounts

let flags_satisfy ~requested ~required =
  List.for_all (fun f -> List.mem f requested) required

let mount_decision ?phase t ~source ~target ~fstype ~flags =
  match find_mount_rule ?phase t ~source ~target ~fstype with
  | Some rule -> flags_satisfy ~requested:flags ~required:rule.mr_flags
  | None -> false

let umount_decision ?phase t ~target ~mounted_by ~ruid =
  match
    List.find_opt (fun r -> rule_active phase r && r.mr_target = target) t.mounts
  with
  | Some { mr_mode = `Users; _ } -> true
  | Some { mr_mode = `User; _ } -> mounted_by = ruid
  | None -> false

let ppp_ioctl_decision ?phase t ~device ~opt =
  Protego_policy.Pppopts.device_allowed ?phase t.ppp device
  && Protego_net.Ppp.option_is_safe opt

let bind_allowed ?phase t ~port ~proto ~exe ~uid =
  match Protego_policy.Bindconf.lookup ?phase t.binds ~port ~proto with
  | Some entry -> entry.exe = exe && entry.owner = uid
  | None -> false

let file_acl_allows t ~path ~exe =
  match List.assoc_opt path t.file_acl with
  | Some allowed -> Some (List.mem exe allowed)
  | None -> None

let needs_reauth_to_read t path =
  List.exists
    (fun prefix -> String.starts_with ~prefix path)
    t.reauth_read_prefixes
