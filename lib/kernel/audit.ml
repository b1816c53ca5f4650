module J = Protego_journal.Journal

type record = Ktypes.audit_record = {
  au_time : float;
  au_pid : Ktypes.pid;
  au_uid : Ktypes.uid;
  au_op : string;
  au_obj : string;
  au_allowed : bool;
  au_engine : string option;
  au_span : int option;
}

let capacity = 1024

(* Emission encodes straight into the machine's binary journal — no
   OCaml record is allocated.  The ring view below is decoded back out
   of the journal tail on demand (/proc reads, tests). *)
let emit ?engine m (task : Ktypes.task) ~op ~obj ~allowed =
  J.sink_emit m.Ktypes.audit ~time:m.Ktypes.now ~pid:task.Ktypes.tpid
    ~uid:task.Ktypes.cred.Ktypes.ruid ~op ~obj ~allowed ~engine ~span:None

(* The LSM hooks' typed decision records: the fixed fields and raw
   arguments only.  Nothing is formatted here; {!live} rebuilds the
   audit text on read. *)
let phase_of (task : Ktypes.task) =
  Protego_base.Phase.index task.Ktypes.sec.Ktypes.phase

let decision_mount m (task : Ktypes.task) ~subject ~engine ~span ~verdict
    ~record ~source ~target ~fstype ~flags =
  J.sink_mount m.Ktypes.audit ~time:m.Ktypes.now ~pid:task.Ktypes.tpid
    ~uid:task.Ktypes.cred.Ktypes.ruid ~subject ~phase:(phase_of task) ~engine
    ~span ~verdict ~record ~source ~target ~fstype ~flags
    ~flag_code:Ktypes.mount_flag_code

let decision_umount m (task : Ktypes.task) ~subject ~engine ~span ~verdict
    ~record ~target ~mounted_by =
  J.sink_umount m.Ktypes.audit ~time:m.Ktypes.now ~pid:task.Ktypes.tpid
    ~uid:task.Ktypes.cred.Ktypes.ruid ~subject ~phase:(phase_of task) ~engine
    ~span ~verdict ~record ~target ~mounted_by

let decision_bind m (task : Ktypes.task) ~subject ~engine ~span ~verdict
    ~record ~port ~proto ~exe =
  J.sink_bind m.Ktypes.audit ~time:m.Ktypes.now ~pid:task.Ktypes.tpid
    ~uid:task.Ktypes.cred.Ktypes.ruid ~subject ~phase:(phase_of task) ~engine
    ~span ~verdict ~record ~port ~proto ~exe

let decision_ppp m (task : Ktypes.task) ~subject ~engine ~span ~verdict
    ~device ~safe =
  J.sink_ppp m.Ktypes.audit ~time:m.Ktypes.now ~pid:task.Ktypes.tpid
    ~uid:task.Ktypes.cred.Ktypes.ruid ~subject ~phase:(phase_of task) ~engine
    ~span ~verdict ~device ~safe

(* The netfilter OUTPUT hook has no calling task: [task] is the kernel's. *)
let decision_nf m (task : Ktypes.task) ~engine ~span ~verdict pkt origin =
  J.sink_nf m.Ktypes.audit ~time:m.Ktypes.now ~pid:task.Ktypes.tpid
    ~uid:task.Ktypes.cred.Ktypes.ruid ~engine ~span ~verdict pkt origin

let flags_text = function
  | [] -> "-"
  | codes ->
      String.concat ","
        (List.map
           (fun c ->
             match Ktypes.mount_flag_of_code c with
             | Some f -> Ktypes.mount_flag_name f
             | None -> "flag" ^ string_of_int c)
           codes)

(* The view records of one LSM decision, newest first onto [acc]: in
   record mode a [record-<hook>] descriptor (a space-separated key=value
   rendering of the arguments and serving phase), then the decision
   line — except a ppp ioctl or an nf decision: descriptor only. *)
let views_of_decision (d : J.decision) (l : J.lsm) acc =
  let line ~op ~obj ~allowed ~engine ~span =
    { au_time = l.J.l_time; au_pid = l.J.l_pid; au_uid = l.J.l_uid; au_op = op;
      au_obj = obj; au_allowed = allowed; au_engine = engine; au_span = span }
  in
  let hook, obj, desc =
    match d.J.d_req with
    | J.Mount { source; target; fstype; _ } ->
        ( "mount",
          source ^ " on " ^ target,
          Printf.sprintf "source=%s target=%s fstype=%s flags=%s" source target
            fstype (flags_text l.J.l_flags) )
    | J.Umount { target; mounted_by } ->
        ( "umount",
          target,
          Printf.sprintf "target=%s mounted_by=%d" target mounted_by )
    | J.Bind { port; proto; exe } ->
        ( "bind",
          Printf.sprintf "port %d/%s by %s" port (J.proto_name proto) exe,
          Printf.sprintf "port=%d proto=%s exe=%s" port (J.proto_name proto) exe
        )
    | J.Ppp { device; safe } ->
        ("ppp", "", Printf.sprintf "device=%s safe=%d" device (Bool.to_int safe))
    | J.Nf { origin; proto; dst; dport; icmp } ->
        ("nf", "", J.nf_fields ~origin ~proto ~dst ~dport ~icmp)
  in
  let acc =
    if l.J.l_record then
      line ~op:("record-" ^ hook)
        ~obj:
          (Printf.sprintf "phase=%s subject=%d verdict=%s %s"
             (J.phase_name d) d.J.d_subject
             (if d.J.d_verdict = 3 then "recorded" else "allow")
             desc)
        ~allowed:true ~engine:None ~span:None
      :: acc
    else acc
  in
  match d.J.d_req with
  | J.Ppp _ | J.Nf _ -> acc
  | J.Mount _ | J.Umount _ | J.Bind _ ->
      line ~op:hook ~obj ~allowed:(d.J.d_verdict <> 0)
        ~engine:(Some (J.engine_name l.J.l_engine)) ~span:l.J.l_span
      :: acc

let live m =
  let acc = ref [] in
  J.iter m.Ktypes.audit.J.sk_journal (function
    | J.Kaudit k ->
        acc :=
          { au_time = k.J.k_time; au_pid = k.J.k_pid; au_uid = k.J.k_uid;
            au_op = k.J.k_op; au_obj = k.J.k_obj; au_allowed = k.J.k_allowed;
            au_engine = k.J.k_engine; au_span = k.J.k_span }
          :: !acc
    | J.Decision ({ J.d_lsm = Some l; _ } as d) ->
        acc := views_of_decision d l !acc
    | J.Decision { J.d_lsm = None; _ } -> ());
  List.rev !acc

let rec drop k l =
  if k <= 0 then l else match l with [] -> [] | _ :: tl -> drop (k - 1) tl

(* One decode of the window: the newest {!capacity} records, and the
   count of emitted records the view no longer holds. *)
let view m =
  let l = live m in
  let n = List.length l in
  (drop (n - capacity) l, max 0 (m.Ktypes.audit.J.sk_emitted - min n capacity))

let records m = fst (view m)
let dropped m = snd (view m)
let denials m = List.filter (fun r -> not r.au_allowed) (records m)
let by_engine m e = List.filter (fun r -> r.au_engine = Some e) (records m)
let clear m = J.sink_clear m.Ktypes.audit

let render m =
  let records, dropped = view m in
  let lines =
    records
    |> List.map (fun r ->
           Printf.sprintf
             "type=%s msg=audit(%.0f): pid=%d uid=%d op=%s obj=%s res=%s%s"
             (if r.au_allowed then "GRANT" else "DENIAL")
             r.au_time r.au_pid r.au_uid r.au_op r.au_obj
             (if r.au_allowed then "success" else "failed")
             ((match r.au_engine with
               | Some e -> " engine=" ^ e
               | None -> "")
              ^
              match r.au_span with
              | Some id -> " span=" ^ string_of_int id
              | None -> ""))
    |> String.concat "\n"
  in
  let summary =
    Printf.sprintf "type=SUMMARY msg=audit: records=%d dropped=%d\n"
      (List.length records) dropped
  in
  (if lines = "" then "" else lines ^ "\n") ^ summary
