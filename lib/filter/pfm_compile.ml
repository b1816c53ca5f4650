module Ktypes = Protego_kernel.Ktypes
module Netfilter = Protego_net.Netfilter
module Packet = Protego_net.Packet
module Ipaddr = Protego_net.Ipaddr
module Ppp = Protego_net.Ppp
module Phase = Protego_base.Phase
module Bindconf = Protego_policy.Bindconf
module Pppopts = Protego_policy.Pppopts
module Asm = Pfm.Asm

type mount_rule = {
  fm_source : string;
  fm_target : string;
  fm_fstype : string;
  fm_flags : Ktypes.mount_flag list;
  fm_user_only : bool;
  fm_phase : Phase.guard;
}

let checked p =
  match Pfm.verify p with
  | Ok () -> p
  | Error e ->
      invalid_arg
        (Printf.sprintf "Pfm_compile: compiler for %s emitted invalid code: %s"
           p.Pfm.pname (Pfm.verify_error_to_string e))

let trivial name verdict =
  checked
    { Pfm.pname = name; n_int_fields = 0; n_str_fields = 0;
      insns = [| Pfm.Ret verdict |]; counters = [| 0 |]; retired = 0 }

(* Continue to the next instruction when [cond] holds, jump to [jf]
   otherwise. *)
let check a cond ~jf =
  let l = Asm.fresh_label a in
  Asm.jif a cond ~jt:l ~jf;
  Asm.place a l

(* Group [items] by [key], preserving both the order of first appearance of
   each key and the relative order of items within a group (required for
   first-match fidelity). *)
let group_by key items =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun item ->
      let k = key item in
      match Hashtbl.find_opt tbl k with
      | Some group -> group := item :: !group
      | None ->
          Hashtbl.replace tbl k (ref [ item ]);
          order := k :: !order)
    items;
  List.rev_map (fun k -> (k, List.rev !(Hashtbl.find tbl k))) !order

(* --- phase dispatch ------------------------------------------------------

   Every task-scoped hook context leads with the task's lifecycle phase
   in ints.(0) (DESIGN.md §11).  When no rule of a policy carries a
   guard, the compilers skip the field entirely and emit exactly the
   time-invariant program they always did.  When at least one rule is
   guarded, the production compiler prefixes a leading iswitch on the
   phase index whose cases hold per-phase specializations of the rule
   ladder (out-of-range phases deny); the linear compiler instead
   clamps the phase once and re-checks each rule's guard inline, giving
   the equivalence prover a structurally different second derivation
   of the same per-phase semantics. *)

let i_phase = 0

let guard_cond = function
  | Phase.Upto q -> Pfm.Le (Phase.index q)
  | Phase.Exactly q -> Pfm.Eq (Phase.index q)
  | Phase.From q -> Pfm.Ge (Phase.index q)
  | Phase.Always -> invalid_arg "Pfm_compile.guard_cond: Always"

(* Production side: leading iswitch over the phase indices.  Each case
   gets a ladder over the rules active in that phase; a phase with no
   active rule (and any out-of-range phase value) denies. *)
let emit_phase_dispatch a ~l_deny ~emit_for_phase =
  Asm.ld_int a i_phase;
  let cases = List.map (fun p -> (Phase.index p, Asm.fresh_label a)) Phase.all in
  Asm.iswitch a cases ~default:l_deny;
  List.iter
    (fun (idx, lbl) ->
      Asm.place a lbl;
      emit_for_phase (Phase.of_index idx))
    cases

(* Linear side: one up-front clamp of the phase field (so out-of-range
   phases deny exactly as the production iswitch default does), then a
   per-rule inline guard check. *)
let emit_phase_clamp a ~l_deny =
  Asm.ld_int a i_phase;
  check a (Pfm.In_range (0, Phase.count - 1)) ~jf:l_deny

let emit_guard_check a g ~jf =
  match g with
  | Phase.Always -> ()
  | g ->
      Asm.ld_int a i_phase;
      check a (guard_cond g) ~jf

(* --- mount ------------------------------------------------------------- *)

let flag_bit f = 1 lsl Ktypes.mount_flag_code f

let flags_mask flags = List.fold_left (fun m f -> m lor flag_bit f) 0 flags

let flags_of_mask m =
  List.filter
    (fun f -> m land flag_bit f <> 0)
    Ktypes.[ Mf_readonly; Mf_nosuid; Mf_nodev; Mf_noexec ]

let s_source = 0
let s_target = 1
let s_fstype = 2
let i_flags = 1

(* Provenance notes are built on every policy write: [String.concat],
   not [Printf], keeps that cheap. *)
let mount_rule_text r =
  String.concat " "
    ("allow" :: r.fm_source :: r.fm_target :: r.fm_fstype
     :: (match r.fm_phase with
        | Phase.Always -> []
        | g -> [ Phase.guard_to_string g ]))

let mount_phased rules =
  List.exists (fun r -> r.fm_phase <> Phase.Always) rules

(* [?phase] compiles the policy as one phase sees it: guards are
   resolved statically (inactive rules dropped) and no phase dispatch
   is emitted — the per-phase residual program the lint layer feeds to
   the abstract interpreter. *)
let mount_notes ?phase rules =
  let rules =
    match phase with
    | None -> rules
    | Some p -> List.filter (fun r -> Phase.active r.fm_phase p) rules
  in
  let phased = phase = None && mount_phased rules in
  if rules = [] then (trivial "mount" Pfm.Deny, [])
  else begin
    let a = Asm.create () in
    let l_allow = Asm.fresh_label a and l_deny = Asm.fresh_label a in
    let emit_ladder rules =
      (* Keep the original rule index for provenance notes. *)
      let groups =
        List.map
          (fun (src, rs) -> (src, Asm.fresh_label a, rs))
          (group_by (fun (_, r) -> r.fm_source) rules)
      in
      Asm.ld_str a s_source;
      Asm.sswitch a
        (List.map (fun (src, lbl, _) -> (src, lbl)) groups)
        ~default:l_deny;
      List.iter
        (fun (_, lbl, rs) ->
          Asm.place a lbl;
          let n = List.length rs in
          List.iteri
            (fun i (idx, r) ->
              Asm.note a
                (String.concat ""
                   [ "rule "; string_of_int idx; ": "; mount_rule_text r ]);
              let l_next =
                if i = n - 1 then l_deny else Asm.fresh_label a
              in
              Asm.ld_str a s_target;
              check a (Pfm.Str_eq r.fm_target) ~jf:l_next;
              if r.fm_fstype <> "auto" then begin
                (* The request's fstype must equal the rule's, or be the
                   "auto" wildcard. *)
                let l_flags = Asm.fresh_label a in
                Asm.ld_str a s_fstype;
                let l_try_auto = Asm.fresh_label a in
                Asm.jif a (Pfm.Str_eq r.fm_fstype) ~jt:l_flags ~jf:l_try_auto;
                Asm.place a l_try_auto;
                Asm.jif a (Pfm.Str_eq "auto") ~jt:l_flags ~jf:l_next;
                Asm.place a l_flags
              end;
              (* First triple match decides: its flag requirement is final
                 (no fallback to later rules), exactly like the reference.
                 An empty flag requirement always holds — emit the jump
                 directly rather than a trivially-true All_bits 0 test, so
                 compiled programs contain no constant branches. *)
              let mask = flags_mask r.fm_flags in
              if mask = 0 then Asm.jmp a l_allow
              else begin
                Asm.ld_int a i_flags;
                Asm.jif a (Pfm.All_bits mask) ~jt:l_allow ~jf:l_deny
              end;
              if i < n - 1 then Asm.place a l_next)
            rs)
        groups
    in
    let indexed = List.mapi (fun i r -> (i, r)) rules in
    if phased then
      emit_phase_dispatch a ~l_deny ~emit_for_phase:(fun p ->
          Asm.note a ("phase " ^ Phase.to_string p ^ ":");
          match
            List.filter (fun (_, r) -> Phase.active r.fm_phase p) indexed
          with
          | [] -> Asm.jmp a l_deny
          | active -> emit_ladder active)
    else emit_ladder indexed;
    Asm.place a l_allow;
    Asm.ret a Pfm.Allow;
    Asm.place a l_deny;
    Asm.ret a Pfm.Deny;
    let p = checked (Asm.assemble a ~name:"mount" ~n_int_fields:2 ~n_str_fields:3) in
    (p, Asm.notes a)
  end

let mount ?phase rules = fst (mount_notes ?phase rules)

let mount_into (c : Pfm.ctx) ~phase ~source ~target ~fstype ~flags =
  c.ints.(i_phase) <- phase;
  c.ints.(i_flags) <- flags_mask flags;
  c.strs.(s_source) <- source;
  c.strs.(s_target) <- target;
  c.strs.(s_fstype) <- fstype

let mount_ctx ~phase ~source ~target ~fstype ~flags =
  let c = { Pfm.ints = Array.make 2 0; strs = Array.make 3 "" } in
  mount_into c ~phase ~source ~target ~fstype ~flags;
  c

(* --- umount ------------------------------------------------------------ *)

let u_target = 0
let i_mounted_by = 1
let i_ruid = 2

let umount_notes ?phase rules =
  let rules =
    match phase with
    | None -> rules
    | Some p -> List.filter (fun r -> Phase.active r.fm_phase p) rules
  in
  let phased = phase = None && mount_phased rules in
  if rules = [] then (trivial "umount" Pfm.Deny, [])
  else begin
    let a = Asm.create () in
    let l_allow = Asm.fresh_label a and l_deny = Asm.fresh_label a in
    let emit_ladder rules =
      (* Only the first rule naming a target is consulted by the reference
         walk, so one case per distinct target suffices. *)
      let groups =
        List.map
          (fun (target, rs) -> (target, Asm.fresh_label a, List.hd rs))
          (group_by (fun r -> r.fm_target) rules)
      in
      Asm.ld_str a u_target;
      Asm.sswitch a
        (List.map (fun (target, lbl, _) -> (target, lbl)) groups)
        ~default:l_deny;
      List.iter
        (fun (_, lbl, r) ->
          Asm.place a lbl;
          Asm.note a
            (String.concat ""
               [ "target "; r.fm_target;
                 (if r.fm_user_only then " (user)" else " (users)") ]);
          if r.fm_user_only then begin
            Asm.ld_int a i_mounted_by;
            Asm.jif a (Pfm.Eq_field i_ruid) ~jt:l_allow ~jf:l_deny
          end
          else Asm.jmp a l_allow)
        groups
    in
    if phased then
      emit_phase_dispatch a ~l_deny ~emit_for_phase:(fun p ->
          Asm.note a ("phase " ^ Phase.to_string p ^ ":");
          match List.filter (fun r -> Phase.active r.fm_phase p) rules with
          | [] -> Asm.jmp a l_deny
          | active -> emit_ladder active)
    else emit_ladder rules;
    Asm.place a l_allow;
    Asm.ret a Pfm.Allow;
    Asm.place a l_deny;
    Asm.ret a Pfm.Deny;
    let p = checked (Asm.assemble a ~name:"umount" ~n_int_fields:3 ~n_str_fields:1) in
    (p, Asm.notes a)
  end

let umount ?phase rules = fst (umount_notes ?phase rules)

let umount_into (c : Pfm.ctx) ~phase ~target ~mounted_by ~ruid =
  c.ints.(i_phase) <- phase;
  c.ints.(i_mounted_by) <- mounted_by;
  c.ints.(i_ruid) <- ruid;
  c.strs.(u_target) <- target

let umount_ctx ~phase ~target ~mounted_by ~ruid =
  let c = { Pfm.ints = Array.make 3 0; strs = Array.make 1 "" } in
  umount_into c ~phase ~target ~mounted_by ~ruid;
  c

(* --- bind -------------------------------------------------------------- *)

let b_exe = 0
let i_port = 1
let i_proto = 2
let i_uid = 3

let bind_proto_code = function Bindconf.Tcp -> 6 | Bindconf.Udp -> 17

let bind_phased entries =
  List.exists (fun (e : Bindconf.entry) -> e.phase <> Phase.Always) entries

let bind_notes ?phase entries =
  let entries =
    match phase with
    | None -> entries
    | Some p ->
        List.filter (fun (e : Bindconf.entry) -> Phase.active e.phase p) entries
  in
  let phased = phase = None && bind_phased entries in
  if entries = [] then (trivial "bind" Pfm.Deny, [])
  else begin
    let a = Asm.create () in
    let l_allow = Asm.fresh_label a and l_deny = Asm.fresh_label a in
    let emit_ladder entries =
      let groups =
        List.map
          (fun (port, es) -> (port, Asm.fresh_label a, es))
          (group_by (fun ((_, e) : int * Bindconf.entry) -> e.port) entries)
      in
      Asm.ld_int a i_port;
      Asm.iswitch a
        (List.map (fun (port, lbl, _) -> (port, lbl)) groups)
        ~default:l_deny;
      List.iter
        (fun (_, lbl, es) ->
          Asm.place a lbl;
          let n = List.length es in
          List.iteri
            (fun i ((idx, e) : int * Bindconf.entry) ->
              Asm.note a
                (String.concat ""
                   [ "entry "; string_of_int idx; ": "; string_of_int e.port;
                     " "; Bindconf.proto_to_string e.proto; " "; e.exe; " ";
                     string_of_int e.owner ]);
              let l_next = if i = n - 1 then l_deny else Asm.fresh_label a in
              Asm.ld_int a i_proto;
              check a (Pfm.Eq (bind_proto_code e.proto)) ~jf:l_next;
              (* Port and protocol matched: this entry decides; a wrong
                 binary or owner is a denial, not a fallthrough. *)
              Asm.ld_str a b_exe;
              check a (Pfm.Str_eq e.exe) ~jf:l_deny;
              Asm.ld_int a i_uid;
              Asm.jif a (Pfm.Eq e.owner) ~jt:l_allow ~jf:l_deny;
              if i < n - 1 then Asm.place a l_next)
            es)
        groups
    in
    let indexed = List.mapi (fun i e -> (i, e)) entries in
    if phased then
      emit_phase_dispatch a ~l_deny ~emit_for_phase:(fun p ->
          Asm.note a ("phase " ^ Phase.to_string p ^ ":");
          match
            List.filter
              (fun ((_, e) : int * Bindconf.entry) -> Phase.active e.phase p)
              indexed
          with
          | [] -> Asm.jmp a l_deny
          | active -> emit_ladder active)
    else emit_ladder indexed;
    Asm.place a l_allow;
    Asm.ret a Pfm.Allow;
    Asm.place a l_deny;
    Asm.ret a Pfm.Deny;
    let p = checked (Asm.assemble a ~name:"bind" ~n_int_fields:4 ~n_str_fields:1) in
    (p, Asm.notes a)
  end

let bind ?phase entries = fst (bind_notes ?phase entries)

let bind_into (c : Pfm.ctx) ~phase ~port ~proto ~exe ~uid =
  c.ints.(i_phase) <- phase;
  c.ints.(i_port) <- port;
  c.ints.(i_proto) <- bind_proto_code proto;
  c.ints.(i_uid) <- uid;
  c.strs.(b_exe) <- exe

let bind_ctx ~phase ~port ~proto ~exe ~uid =
  let c = { Pfm.ints = Array.make 4 0; strs = Array.make 1 "" } in
  bind_into c ~phase ~port ~proto ~exe ~uid;
  c

(* --- netfilter --------------------------------------------------------- *)

(* Packets are not tasks: the OUTPUT chain keeps its phase-free context
   layout — a lifecycle dimension only exists for task-scoped hooks. *)

let f_proto = 0
let f_src = 1
let f_dst = 2
let f_sport = 3
let f_dport = 4
let f_icmp = 5
let f_syn = 6
let f_origin = 7
let f_owner = 8
let packet_ints = f_owner + 1

(* [Other q] must never collide with the named protocols, mirroring the
   reference's variant comparison (assumes 0 <= q < 0x10000, the IP
   protocol number space). *)
let packet_proto_code = function
  | Packet.Icmp -> 1
  | Packet.Tcp -> 6
  | Packet.Udp -> 17
  | Packet.Other q -> 0x10000 lor q

let addr_int a = Int32.to_int (Ipaddr.to_int32 a) land 0xFFFFFFFF

let cidr_cond cidr =
  let len = Ipaddr.Cidr.prefix_len cidr in
  let mask = if len = 0 then 0 else 0xFFFFFFFF lsl (32 - len) land 0xFFFFFFFF in
  Pfm.Masked_eq { mask; value = addr_int (Ipaddr.Cidr.network cidr) land mask }

let verdict_of_netfilter = function
  | Netfilter.Accept -> Pfm.Allow
  | Netfilter.Drop -> Pfm.Deny
  | Netfilter.Reject -> Pfm.Reject

let netfilter_of_verdict = function
  | Pfm.Allow -> Netfilter.Accept
  | Pfm.Deny -> Netfilter.Drop
  | Pfm.Reject -> Netfilter.Reject

(* A /0 prefix matches every address: emit nothing rather than a
   trivially-true Masked_eq with mask 0 (no constant branches in compiled
   code).  [compile_match] therefore skips such matches. *)
let match_is_trivial = function
  | Netfilter.Src c | Netfilter.Dst c -> Ipaddr.Cidr.prefix_len c = 0
  | _ -> false

(* A match's field and test; [None] for a trivially true one. *)
let match_cond m =
  if match_is_trivial m then None
  else
    Some
      (match m with
      | Netfilter.Proto p -> (f_proto, Pfm.Eq (packet_proto_code p))
      | Netfilter.Src c -> (f_src, cidr_cond c)
      | Netfilter.Dst c -> (f_dst, cidr_cond c)
      | Netfilter.Dst_port { lo; hi } -> (f_dport, Pfm.In_range (lo, hi))
      | Netfilter.Src_port { lo; hi } -> (f_sport, Pfm.In_range (lo, hi))
      | Netfilter.Icmp_type ty -> (f_icmp, Pfm.Eq (Packet.icmp_type_code ty))
      | Netfilter.Tcp_syn -> (f_syn, Pfm.Eq 1)
      | Netfilter.Owner_uid uid -> (f_owner, Pfm.Eq uid)
      | Netfilter.Origin_raw -> (f_origin, Pfm.Eq 1)
      | Netfilter.Origin_packet -> (f_origin, Pfm.Eq 2))

let compile_match a m ~jf =
  match match_cond m with
  | None -> ()
  | Some (field, cond) ->
      Pfm.Asm.ld_int a field;
      check a cond ~jf

(* A rule whose first compiled match pins one int field to one value
   ([--dport N], an owner uid, an icmp type): the field, the value and
   the matches after it. *)
let keyed (r : Netfilter.rule) =
  let rec go = function
    | [] -> None
    | m :: rest -> (
        match match_cond m with
        | None -> go rest
        | Some (f, Pfm.Eq k) -> Some (f, k, rest)
        | Some (f, Pfm.In_range (lo, hi)) when lo = hi -> Some (f, lo, rest)
        | Some _ -> None)
  in
  go r.Netfilter.matches

(* The shortest run the compiler dispatches through a switch. *)
let min_run = 4

(* The run at the head of [rules]: the longest prefix keyed on one field
   with pairwise distinct values, as (field, [(value, rule, rest of its
   matches)], the rules after it), if it has [min_run] rules.  Distinct
   values make the run's rules mutually exclusive, so at most one can
   match a packet: a switch on the field finds it, and when its other
   matches fail no later rule of the run can match either. *)
let take_run rules =
  match rules with
  | [] -> None
  | r :: _ -> (
      match keyed r with
      | None -> None
      | Some (field, _, _) ->
          let seen = Hashtbl.create 16 in
          let rec go acc = function
            | r :: rest as all -> (
                match keyed r with
                | Some (f, k, ms) when f = field && not (Hashtbl.mem seen k) ->
                    Hashtbl.add seen k ();
                    go ((k, r, ms) :: acc) rest
                | _ -> (List.rev acc, all))
            | [] -> (List.rev acc, [])
          in
          let run, rest = go [] rules in
          if List.length run >= min_run then Some (field, run, rest) else None)

(* First-match translation of a chain.  With [~switch], each run
   ({!take_run}) becomes one [iswitch] on its field whose cases run the
   rest of a rule's matches in order; any failure, and the default, go
   to the code after the run.  Every rule keeps one note: a run's first
   at its dispatch, the others at their case bodies. *)
let netfilter_emit ~switch ~rules ~policy =
  let a = Asm.create () in
  let note_rule i r =
    Asm.note a
      (String.concat "" [ "rule "; string_of_int i; ": "; Netfilter.rule_to_spec r ])
  in
  let rec emit i rules =
    match (if switch then take_run rules else None) with
    | Some (field, run, rest) ->
        let l_out = Asm.fresh_label a in
        let cases = List.map (fun (k, r, ms) -> (k, r, ms, Asm.fresh_label a)) run in
        let _, first, _ = List.hd run in
        note_rule i first;
        Asm.ld_int a field;
        Asm.iswitch a (List.map (fun (k, _, _, l) -> (k, l)) cases) ~default:l_out;
        List.iteri
          (fun j (_, (r : Netfilter.rule), ms, l) ->
            Asm.place a l;
            if j > 0 then note_rule (i + j) r;
            List.iter (fun m -> compile_match a m ~jf:l_out) ms;
            Asm.ret a (verdict_of_netfilter r.target))
          cases;
        Asm.place a l_out;
        emit (i + List.length run) rest
    | None -> (
        match rules with
        | [] ->
            Asm.note a
              ("chain policy "
              ^ (match policy with
                 | Netfilter.Accept -> "ACCEPT"
                 | Netfilter.Drop -> "DROP"
                 | Netfilter.Reject -> "REJECT"));
            Asm.ret a (verdict_of_netfilter policy)
        | (r : Netfilter.rule) :: rest ->
            note_rule i r;
            if List.for_all match_is_trivial r.matches then
              (* A match-anything rule terminates the walk; later rules
                 are dead code the verifier would (rightly) reject. *)
              Asm.ret a (verdict_of_netfilter r.target)
            else begin
              let l_next = Asm.fresh_label a in
              List.iter (fun m -> compile_match a m ~jf:l_next) r.matches;
              Asm.ret a (verdict_of_netfilter r.target);
              Asm.place a l_next;
              emit (i + 1) rest
            end)
  in
  emit 0 rules;
  let p =
    checked
      (Asm.assemble a ~name:"nf_output" ~n_int_fields:packet_ints
         ~n_str_fields:0)
  in
  (p, Asm.notes a)

let netfilter_notes ~rules ~policy = netfilter_emit ~switch:true ~rules ~policy

let netfilter ~rules ~policy = fst (netfilter_notes ~rules ~policy)

let set_transport ints proto sport dport icmp syn =
  ints.(f_proto) <- proto;
  ints.(f_sport) <- sport;
  ints.(f_dport) <- dport;
  ints.(f_icmp) <- icmp;
  ints.(f_syn) <- syn

(* Refills a packet context in place, allocating nothing: the ports
   come from the transport directly, not through [Packet.src_port]'s
   option. *)
let packet_into (c : Pfm.ctx) (pkt : Packet.t) ~origin =
  let ints = c.Pfm.ints in
  (match pkt.transport with
  | Packet.Icmp_msg { icmp_type; _ } ->
      set_transport ints 1 min_int min_int (Packet.icmp_type_code icmp_type) 0
  | Packet.Tcp_seg { src_port; dst_port; syn; payload } ->
      set_transport ints 6 src_port dst_port min_int
        (if syn && payload = "" then 1 else 0)
  | Packet.Udp_dgram { src_port; dst_port; _ } ->
      set_transport ints 17 src_port dst_port min_int 0
  | Packet.Raw_payload { protocol; _ } ->
      set_transport ints (0x10000 lor protocol) min_int min_int min_int 0);
  ints.(f_src) <- addr_int pkt.src;
  ints.(f_dst) <- addr_int pkt.dst;
  let origin_code, owner =
    match origin with
    | Packet.Kernel_stack -> (0, min_int)
    | Packet.Raw_app { uid } -> (1, uid)
    | Packet.Packet_app { uid } -> (2, uid)
  in
  ints.(f_origin) <- origin_code;
  ints.(f_owner) <- owner

let packet_ctx pkt ~origin =
  let c = { Pfm.ints = Array.make packet_ints 0; strs = [||] } in
  packet_into c pkt ~origin;
  c

(* --- ppp modem-configuration ioctl ------------------------------------- *)

let p_device = 0
let i_safe = 1

let ppp_devices_of (policy : Pppopts.t) =
  List.filter_map
    (function Pppopts.Allow_device (d, g) -> Some (d, g) | _ -> None)
    policy.Pppopts.directives

let ppp_phased devices =
  List.exists (fun (_, g) -> g <> Phase.Always) devices

let ppp_ioctl_notes ?phase (policy : Pppopts.t) =
  let devices =
    let all = ppp_devices_of policy in
    match phase with
    | None -> all
    | Some p -> List.filter (fun (_, g) -> Phase.active g p) all
  in
  let phased = phase = None && ppp_phased devices in
  if devices = [] then (trivial "ppp_ioctl" Pfm.Deny, [])
  else begin
    let a = Asm.create () in
    let l_safe = Asm.fresh_label a in
    let l_allow = Asm.fresh_label a and l_deny = Asm.fresh_label a in
    let emit_switch devices =
      Asm.note a ("allow-device " ^ String.concat "," (List.map fst devices));
      (* Exact entries go through the string switch; glob entries
         ([/dev/ttyS*]) fall out of its default into a prefix-check
         chain.  Every match lands on the same safe-bit check, so the
         split is order-insensitive and stays provably equal to the
         linear first-match compilation. *)
      let exacts, globs =
        List.partition (fun (d, _) -> Pppopts.glob_stem d = None) devices
      in
      let stems =
        List.sort_uniq compare
          (List.filter_map (fun (d, _) -> Pppopts.glob_stem d) globs)
      in
      let emit_globs () =
        let n = List.length stems in
        List.iteri
          (fun i stem ->
            let l_next = if i = n - 1 then l_deny else Asm.fresh_label a in
            Asm.ld_str a p_device;
            Asm.jif a (Pfm.Str_prefix stem) ~jt:l_safe ~jf:l_next;
            if i < n - 1 then Asm.place a l_next)
          stems
      in
      match (exacts, stems) with
      | [], [] -> Asm.jmp a l_deny
      | [], _ -> emit_globs ()
      | _, [] ->
          Asm.ld_str a p_device;
          Asm.sswitch a
            (List.sort_uniq compare
               (List.map (fun (d, _) -> (d, l_safe)) exacts))
            ~default:l_deny
      | _, _ ->
          let l_globs = Asm.fresh_label a in
          Asm.ld_str a p_device;
          Asm.sswitch a
            (List.sort_uniq compare
               (List.map (fun (d, _) -> (d, l_safe)) exacts))
            ~default:l_globs;
          Asm.place a l_globs;
          emit_globs ()
    in
    if phased then
      emit_phase_dispatch a ~l_deny ~emit_for_phase:(fun p ->
          Asm.note a ("phase " ^ Phase.to_string p ^ ":");
          match List.filter (fun (_, g) -> Phase.active g p) devices with
          | [] -> Asm.jmp a l_deny
          | active -> emit_switch active)
    else emit_switch devices;
    Asm.place a l_safe;
    Asm.ld_int a i_safe;
    Asm.jif a (Pfm.Eq 1) ~jt:l_allow ~jf:l_deny;
    Asm.place a l_allow;
    Asm.ret a Pfm.Allow;
    Asm.place a l_deny;
    Asm.ret a Pfm.Deny;
    let p =
      checked (Asm.assemble a ~name:"ppp_ioctl" ~n_int_fields:2 ~n_str_fields:1)
    in
    (p, Asm.notes a)
  end

let ppp_ioctl ?phase policy = fst (ppp_ioctl_notes ?phase policy)

let ppp_into (c : Pfm.ctx) ~phase ~device ~opt =
  c.ints.(i_phase) <- phase;
  c.ints.(i_safe) <- (if Ppp.option_is_safe opt then 1 else 0);
  c.strs.(p_device) <- device

let ppp_ctx ~phase ~device ~opt =
  let c = { Pfm.ints = Array.make 2 0; strs = Array.make 1 "" } in
  ppp_into c ~phase ~device ~opt;
  c

(* --- reference (linear) compilers --------------------------------------

   Straight-line transliterations of each policy in declaration order,
   with none of the hash-dispatch or grouping tricks the production
   compilers use.  They exist to give `protego-lint --prove` and the
   equivalence test suites an independently-derived second program per
   source: if the production compiler's dispatch structure ever drifts
   from first-match semantics, Pfm_equiv.prove against these programs
   produces a replayable counterexample.  Phase guards are compiled
   inline (clamp once, then re-check per rule) rather than as a leading
   switch, so the prover relates two genuinely different derivations of
   the per-phase semantics. *)

let mount_linear rules =
  if rules = [] then trivial "mount_linear" Pfm.Deny
  else begin
    let a = Asm.create () in
    let l_allow = Asm.fresh_label a and l_deny = Asm.fresh_label a in
    let phased = mount_phased rules in
    if phased then emit_phase_clamp a ~l_deny;
    let n = List.length rules in
    List.iteri
      (fun i r ->
        let l_next = if i = n - 1 then l_deny else Asm.fresh_label a in
        emit_guard_check a r.fm_phase ~jf:l_next;
        Asm.ld_str a s_source;
        check a (Pfm.Str_eq r.fm_source) ~jf:l_next;
        Asm.ld_str a s_target;
        check a (Pfm.Str_eq r.fm_target) ~jf:l_next;
        if r.fm_fstype <> "auto" then begin
          let l_flags = Asm.fresh_label a in
          let l_try_auto = Asm.fresh_label a in
          Asm.ld_str a s_fstype;
          Asm.jif a (Pfm.Str_eq r.fm_fstype) ~jt:l_flags ~jf:l_try_auto;
          Asm.place a l_try_auto;
          Asm.jif a (Pfm.Str_eq "auto") ~jt:l_flags ~jf:l_next;
          Asm.place a l_flags
        end;
        let mask = flags_mask r.fm_flags in
        if mask = 0 then Asm.jmp a l_allow
        else begin
          Asm.ld_int a i_flags;
          Asm.jif a (Pfm.All_bits mask) ~jt:l_allow ~jf:l_deny
        end;
        if i < n - 1 then Asm.place a l_next)
      rules;
    Asm.place a l_allow;
    Asm.ret a Pfm.Allow;
    Asm.place a l_deny;
    Asm.ret a Pfm.Deny;
    checked
      (Asm.assemble a ~name:"mount_linear" ~n_int_fields:2 ~n_str_fields:3)
  end

let umount_linear rules =
  if rules = [] then trivial "umount_linear" Pfm.Deny
  else begin
    let a = Asm.create () in
    let l_allow = Asm.fresh_label a and l_deny = Asm.fresh_label a in
    let phased = mount_phased rules in
    if phased then emit_phase_clamp a ~l_deny;
    let n = List.length rules in
    (* The first rule naming a target decides in the reference walk;
       a straight in-order scan reproduces that without grouping. *)
    List.iteri
      (fun i r ->
        let l_next = if i = n - 1 then l_deny else Asm.fresh_label a in
        emit_guard_check a r.fm_phase ~jf:l_next;
        Asm.ld_str a u_target;
        check a (Pfm.Str_eq r.fm_target) ~jf:l_next;
        if r.fm_user_only then begin
          Asm.ld_int a i_mounted_by;
          Asm.jif a (Pfm.Eq_field i_ruid) ~jt:l_allow ~jf:l_deny
        end
        else Asm.jmp a l_allow;
        if i < n - 1 then Asm.place a l_next)
      rules;
    Asm.place a l_allow;
    Asm.ret a Pfm.Allow;
    Asm.place a l_deny;
    Asm.ret a Pfm.Deny;
    checked
      (Asm.assemble a ~name:"umount_linear" ~n_int_fields:3 ~n_str_fields:1)
  end

let bind_linear entries =
  if entries = [] then trivial "bind_linear" Pfm.Deny
  else begin
    let a = Asm.create () in
    let l_allow = Asm.fresh_label a and l_deny = Asm.fresh_label a in
    let phased = bind_phased entries in
    if phased then emit_phase_clamp a ~l_deny;
    let n = List.length entries in
    List.iteri
      (fun i (e : Bindconf.entry) ->
        let l_next = if i = n - 1 then l_deny else Asm.fresh_label a in
        emit_guard_check a e.phase ~jf:l_next;
        Asm.ld_int a i_port;
        check a (Pfm.Eq e.port) ~jf:l_next;
        Asm.ld_int a i_proto;
        check a (Pfm.Eq (bind_proto_code e.proto)) ~jf:l_next;
        (* Port and protocol matched: this entry decides, as in the
           production compiler and the reference walk. *)
        Asm.ld_str a b_exe;
        check a (Pfm.Str_eq e.exe) ~jf:l_deny;
        Asm.ld_int a i_uid;
        Asm.jif a (Pfm.Eq e.owner) ~jt:l_allow ~jf:l_deny;
        if i < n - 1 then Asm.place a l_next)
      entries;
    Asm.place a l_allow;
    Asm.ret a Pfm.Allow;
    Asm.place a l_deny;
    Asm.ret a Pfm.Deny;
    checked (Asm.assemble a ~name:"bind_linear" ~n_int_fields:4 ~n_str_fields:1)
  end

let netfilter_linear ~rules ~policy =
  (* Conjunction order inside a rule is semantically free; reversing it
     yields a genuinely different instruction stream for the prover to
     relate to the production one. *)
  let rev (r : Netfilter.rule) = { r with Netfilter.matches = List.rev r.matches } in
  fst (netfilter_emit ~switch:false ~rules:(List.map rev rules) ~policy)

let ppp_linear (policy : Pppopts.t) =
  let devices = ppp_devices_of policy in
  if devices = [] then trivial "ppp_linear" Pfm.Deny
  else begin
    let a = Asm.create () in
    let l_safe = Asm.fresh_label a in
    let l_allow = Asm.fresh_label a and l_deny = Asm.fresh_label a in
    let phased = ppp_phased devices in
    if phased then emit_phase_clamp a ~l_deny;
    let n = List.length devices in
    List.iteri
      (fun i (d, g) ->
        let l_next = if i = n - 1 then l_deny else Asm.fresh_label a in
        emit_guard_check a g ~jf:l_next;
        Asm.ld_str a p_device;
        (let cond =
           match Pppopts.glob_stem d with
           | Some stem -> Pfm.Str_prefix stem
           | None -> Pfm.Str_eq d
         in
         check a cond ~jf:l_next);
        Asm.jmp a l_safe;
        if i < n - 1 then Asm.place a l_next)
      devices;
    Asm.place a l_safe;
    Asm.ld_int a i_safe;
    Asm.jif a (Pfm.Eq 1) ~jt:l_allow ~jf:l_deny;
    Asm.place a l_allow;
    Asm.ret a Pfm.Allow;
    Asm.place a l_deny;
    Asm.ret a Pfm.Deny;
    checked (Asm.assemble a ~name:"ppp_linear" ~n_int_fields:2 ~n_str_fields:1)
  end
