(* The syscall-path workloads: lsm-hot, lsm-wide and policy-churn.

   Each op is one system call made by an unprivileged task of a booted
   Protego image: mount, umount, bind, a modem-config ioctl on /dev/ppp,
   or a raw-ICMP sendto.  The call passes the syscall entry, the LSM hook,
   the Pfm_dispatch ladder (front slot, decision-cache table, compiled
   engine) and, for mount/umount/bind, leaves a kaudit record in the
   machine's journal.  Every op's outcome is checked against a verdict
   precomputed with the reference engines. *)

open Protego_kernel
open Ktypes
module Errno = Protego_base.Errno
module Phase = Protego_base.Phase
module Image = Protego_dist.Image
module PS = Protego_core.Policy_state
module PD = Protego_core.Pfm_dispatch
module DC = Protego_core.Decision_cache
module Trace = Protego_core.Trace
module Lsm = Protego_core.Lsm
module Plane = Protego_plane.Plane
module Bindconf = Protego_policy.Bindconf
module Pppopts = Protego_policy.Pppopts
module NF = Protego_net.Netfilter
module Packet = Protego_net.Packet
module Ipaddr = Protego_net.Ipaddr
module Ppp = Protego_net.Ppp
module Prng = Protego_workload.Prng
module J = Protego_journal.Journal
module Compile = Protego_filter.Pfm_compile

type shape = Hot | Wide | Churn

(* Op kinds; also the index of their layer accumulators. *)
let k_mount = 0
let k_umount = 1
let k_bind = 2
let k_ioctl = 3
let k_sendto = 4
let kinds = 5
let kind_name = [| "mount"; "umount"; "bind"; "ioctl"; "sendto" |]
let hook_name = [| "sb_mount"; "sb_umount"; "socket_bind"; "file_ioctl"; "socket_sendmsg" |]
let dispatch_name = [| "mount"; "umount"; "bind"; "ppp_ioctl"; "nf_output" |]

type params = {
  tag : string;  (* stem of the bench's device, mount point and daemon names *)
  mount_rules : int;
  bind_entries : int;
  nf_rules : int;  (* filler rules ahead of the OUTPUT chain's defaults *)
  ppp_devices : int;  (* whitelisted serial devices *)
  pools : int * int * int * int;  (* mount, bind, ioctl, sendto requests *)
  zipf_s : float;
}

let params = function
  | Hot | Churn ->
      { tag = "hot"; mount_rules = 64; bind_entries = 64; nf_rules = 0;
        ppp_devices = 4; pools = (64, 64, 64, 64); zipf_s = 1.1 }
  | Wide ->
      { tag = "wide"; mount_rules = 512; bind_entries = 512; nf_rules = 128;
        ppp_devices = 8; pools = (6144, 4096, 2048, 4096); zipf_s = 0.5 }

let users = 16
let daemons = 8
let user_uid i = 1100 + i
let daemon_uid k = 1200 + k
let daemon_exe k = Printf.sprintf "/usr/sbin/benchd%d" k
let bind_base = 100
let reload_period = 2000  (* policy-churn: ops between admin writes *)
let stream_len = 1 lsl 17

type caller = { task : task; ppp_fd : int; raw_fd : int }

type req =
  | Mount of { source : string; target : string; fstype : string; flags : mount_flag list }
  | Bind of { port : int }
  | Ioctl of { device : string; opt : Ppp.option_ }
  | Send of { dst : Ipaddr.t; payload : string }

(* [expect]: [None] for success, [Some e] for that errno.  Mount
   templates also carry their paired umount's outcome. *)
type template = {
  caller : caller;
  req : req;
  expect : Errno.t option;
  expect_umount : Errno.t option;
}

(* --- tracing ---------------------------------------------------------------

   Traced runs wrap the LSM hook closures of the machine's [security]
   record (bench code, no program change) and switch on Pfm_dispatch's
   own spans; the bench times the syscall itself.  Spans stay in memory
   and are folded per op kind into raw-ns totals at each drain. *)

type kacc = {
  mutable n : int;
  mutable sys : float;  (* syscall span *)
  mutable sys_alloc : float;  (* minor words allocated inside the syscall *)
  mutable hook : float;  (* LSM hook span *)
  mutable hook_alloc : float;
  mutable hook_calls : int;
  mutable disp : float;  (* Pfm_dispatch decision span *)
  mutable decisions : int;
  mutable slot : float;  (* decision start to the front-slot check's end *)
  mutable table : float;  (* memo-table lookup *)
  mutable engine : float;  (* compiled-engine evaluation and memo insert *)
  mutable by_slot : int;
  mutable by_table : int;
  mutable by_engine : int;
  mutable clamped : float;  (* sum of layer self times, each clamped at 0 *)
}

let kacc () =
  { n = 0; sys = 0.; sys_alloc = 0.; hook = 0.; hook_alloc = 0.; hook_calls = 0;
    disp = 0.; decisions = 0; slot = 0.; table = 0.; engine = 0.; by_slot = 0;
    by_table = 0; by_engine = 0; clamped = 0. }

let merge_kacc ~into a s =
  into.n <- into.n + a.n;
  into.sys <- into.sys +. (a.sys *. s);
  into.sys_alloc <- into.sys_alloc +. a.sys_alloc;
  into.hook <- into.hook +. (a.hook *. s);
  into.hook_alloc <- into.hook_alloc +. a.hook_alloc;
  into.hook_calls <- into.hook_calls + a.hook_calls;
  into.disp <- into.disp +. (a.disp *. s);
  into.decisions <- into.decisions + a.decisions;
  into.slot <- into.slot +. (a.slot *. s);
  into.table <- into.table +. (a.table *. s);
  into.engine <- into.engine +. (a.engine *. s);
  into.by_slot <- into.by_slot + a.by_slot;
  into.by_table <- into.by_table + a.by_table;
  into.by_engine <- into.by_engine + a.by_engine;
  into.clamped <- into.clamped +. (a.clamped *. s)

let drain_every = 4096

type tracer = {
  tr : Trace.t;
  mutable h_ns : int;  (* hook time of the op in flight *)
  mutable h_alloc : float;
  mutable h_calls : int;
  mutable last_id : int;  (* span id of the most recent decision *)
  mutable next_id : int;  (* the id the next drained span must carry; -1 before the first *)
  p_kind : int array;
  p_sys : int array;
  p_sys_alloc : float array;
  p_hook : int array;
  p_hook_alloc : float array;
  p_hook_calls : int array;
  p_span : int array;
  mutable p_len : int;
  round : kacc array;
  total : kacc array;
  probe_alloc : float;  (* what an empty pair of Gc.minor_words reads *)
  mutable broken : int;  (* spans missing, wrapped or out of order *)
  mutable enc_ns : float;  (* journal encode, reference ns, summed per round *)
  mutable enc_rounds : int;
  mutable emitted : int;  (* kaudit records emitted in counted rounds *)
  mutable round_emit0 : int;
  mutable stale0 : int;
  mutable capacity0 : int;
  mutable stale : int;
  mutable capacity : int;
  insns0 : int array;  (* per dispatch hook: PD counters at the round's start *)
  evals0 : int array;
  insns : int array;  (* summed over counted rounds *)
  evals : int array;
}

let wrap_security tc m =
  let ops = m.security in
  let timed f =
    let a0 = Gc.minor_words () in
    let t0 = Meter.now () in
    let r = f () in
    let t1 = Meter.now () in
    let a1 = Gc.minor_words () in
    tc.h_ns <- tc.h_ns + (t1 - t0);
    tc.h_alloc <- tc.h_alloc +. (a1 -. a0 -. tc.probe_alloc);
    tc.h_calls <- tc.h_calls + 1;
    r
  in
  m.security <-
    { ops with
      sb_mount =
        (fun m task ~source ~target ~fstype ~flags ->
          timed (fun () -> ops.sb_mount m task ~source ~target ~fstype ~flags));
      sb_umount = (fun m task ~target -> timed (fun () -> ops.sb_umount m task ~target));
      socket_bind =
        (fun m task sock addr port ->
          timed (fun () -> ops.socket_bind m task sock addr port));
      socket_sendmsg =
        (fun m task sock pkt -> timed (fun () -> ops.socket_sendmsg m task sock pkt));
      file_ioctl = (fun m task req -> timed (fun () -> ops.file_ioctl m task req)) }

let drain tc =
  let spans = Array.of_list (Trace.spans tc.tr) in
  let first = if Array.length spans = 0 then tc.next_id else spans.(0).Trace.sp_id in
  if tc.next_id >= 0 && first <> tc.next_id then tc.broken <- tc.broken + 1;
  Array.iteri
    (fun i sp -> if sp.Trace.sp_id <> first + i then tc.broken <- tc.broken + 1)
    spans;
  tc.next_id <- first + Array.length spans;
  for i = 0 to tc.p_len - 1 do
    let k = tc.p_kind.(i) in
    let a = tc.round.(k) in
    let sys = float_of_int tc.p_sys.(i) and hook = float_of_int tc.p_hook.(i) in
    a.n <- a.n + 1;
    a.sys <- a.sys +. sys;
    a.sys_alloc <- a.sys_alloc +. tc.p_sys_alloc.(i);
    a.hook <- a.hook +. hook;
    a.hook_alloc <- a.hook_alloc +. tc.p_hook_alloc.(i);
    a.hook_calls <- a.hook_calls + tc.p_hook_calls.(i);
    let disp =
      let id = tc.p_span.(i) in
      if id = 0 then 0.
      else
        let j = id - first in
        if j < 0 || j >= Array.length spans then begin
          tc.broken <- tc.broken + 1;
          0.
        end
        else begin
          let sp = spans.(j) in
          let d = float_of_int sp.Trace.sp_ns in
          let off s = Option.map float_of_int (List.assoc_opt s sp.Trace.sp_stages) in
          a.decisions <- a.decisions + 1;
          a.disp <- a.disp +. d;
          (match (off "slot", off "table", off "engine") with
           | Some s, None, None ->
               a.by_slot <- a.by_slot + 1;
               a.slot <- a.slot +. s
           | Some s, Some t, None ->
               a.by_table <- a.by_table + 1;
               a.slot <- a.slot +. s;
               a.table <- a.table +. (t -. s)
           | Some s, Some t, Some e ->
               a.by_engine <- a.by_engine + 1;
               a.slot <- a.slot +. s;
               a.table <- a.table +. (t -. s);
               a.engine <- a.engine +. (e -. t)
           | _ -> tc.broken <- tc.broken + 1);
          d
        end
    in
    (* The nf_output decision runs in the netfilter walk after the hook
       returns; the other decisions run inside their hook. *)
    let inside = if k = k_sendto then 0. else disp in
    let outside = disp -. inside in
    a.clamped <-
      a.clamped
      +. Float.max 0. (sys -. hook -. outside)
      +. Float.max 0. (hook -. inside)
      +. disp
  done;
  tc.p_len <- 0;
  Trace.reset_spans tc.tr

let make_tracer disp m =
  let tr = PD.trace disp in
  Trace.set_span_capacity tr (2 * drain_every);
  Trace.set_clock tr Meter.now;
  Trace.set_spans tr true;
  let tc =
    { tr; h_ns = 0; h_alloc = 0.; h_calls = 0; last_id = 0; next_id = -1;
      p_kind = Array.make drain_every 0; p_sys = Array.make drain_every 0;
      p_sys_alloc = Array.make drain_every 0.; p_hook = Array.make drain_every 0;
      p_hook_alloc = Array.make drain_every 0.;
      p_hook_calls = Array.make drain_every 0; p_span = Array.make drain_every 0;
      p_len = 0; round = Array.init kinds (fun _ -> kacc ());
      total = Array.init kinds (fun _ -> kacc ()); probe_alloc = Meter.probe_alloc ();
      broken = 0; enc_ns = 0.; enc_rounds = 0; emitted = 0;
      round_emit0 = m.audit.J.sk_emitted; stale0 = 0; capacity0 = 0; stale = 0;
      capacity = 0; insns0 = Array.make kinds 0; evals0 = Array.make kinds 0;
      insns = Array.make kinds 0; evals = Array.make kinds 0 }
  in
  wrap_security tc m;
  tc

(* --- the instance --------------------------------------------------------- *)

type t = {
  shape : shape;
  img : Image.t;
  m : machine;
  st : PS.t;
  dispatcher : PD.t;
  root : task;
  pools : template array array;  (* indexed by k_mount, k_bind, k_ioctl, k_sendto *)
  s_kind : int array;  (* the op stream: kind and template index *)
  s_tpl : int array;
  mutable pos : int;
  mutable ops : int;  (* ops issued, reloads excluded *)
  mutable attempted : int;
  mutable failed : int;
  mutable audit_expected : int;  (* kaudit records the round's ops must leave *)
  mutable audit0 : int;
  mount_base : string;  (* the widened policy texts the admin edits *)
  bind_base : string;
  mutable writes : int;
  mutable reloads : float list;
  tracer : tracer option;
}

let expect_ok what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "setup: %s: %s" what (Errno.to_string e))

let ext4 = { media_fstype = "ext4"; media_files = [ ("README", "bench volume\n") ] }
let user_flags = [ Mf_nosuid; Mf_nodev ]

let mount_rule p i =
  { PS.mr_source = Printf.sprintf "/dev/%s%d" p.tag i;
    mr_target = Printf.sprintf "/media/%s%d" p.tag i; mr_fstype = "ext4";
    mr_flags = user_flags; mr_mode = `Users; mr_phase = Phase.Always }

(* Bench bind-map entry [i] owns the i-th privileged port from 100 up,
   skipping the image's own mail submission port. *)
let bind_port i = if bind_base + i >= 587 then bind_base + i + 1 else bind_base + i

let bind_entry i =
  { Bindconf.port = bind_port i; proto = Bindconf.Tcp; exe = daemon_exe (i mod daemons);
    owner = daemon_uid (i mod daemons); phase = Phase.Always }

(* The admin's filler edits: add or remove one rule no request names, so
   every verdict survives the reload. *)
let churn_uid = 1299
let mount_filler = "allow /dev/churn /media/churn ext4 nosuid,nodev users\n"
let bind_filler = Printf.sprintf "1000 tcp /usr/sbin/churnd %d\n" churn_uid

let spawn m ~uid ~exe =
  let cred = Cred.make ~uid ~gid:uid () in
  let task = Machine.spawn_task m ~cred ~cwd:"/" () in
  task.exe_path <- exe;
  task

(* Widen the image's policies through /proc, as an administrator would,
   and create the devices and mount points the new rules name.  The
   result must lint clean: a warned load would add audit records the
   op count check does not expect. *)
let widen p img root =
  let m = img.Image.machine in
  let lsm = Option.get img.Image.protego in
  let st = Lsm.state lsm in
  let kt = Machine.kernel_task m in
  let account name uid = { PS.au_name = name; au_uid = uid; au_gid = uid; au_groups = [] } in
  let accounts =
    List.init users (fun i -> account (Printf.sprintf "bench%d" i) (user_uid i))
    @ List.init daemons (fun k -> account (Printf.sprintf "benchd%d" k) (daemon_uid k))
    @ [ account "churnd" churn_uid ]
  in
  expect_ok "accounts"
    (Syscall.write_file m root "/proc/protego/accounts"
       (PS.accounts_to_string (st.PS.users @ accounts) st.PS.groups));
  let extra_mounts = max 0 (p.mount_rules - List.length st.PS.mounts) in
  let rules = List.init extra_mounts (mount_rule p) in
  List.iter
    (fun r ->
      expect_ok "mkdev"
        (Machine.mkdev m kt ~path:r.PS.mr_source ~mode:0o660
           (Dev_block { media = Some ext4 }));
      ignore (expect_ok "mkdir" (Machine.mkdir_p m kt r.PS.mr_target ~mode:0o755 ())))
    rules;
  let mount_text = PS.mounts_to_string (st.PS.mounts @ rules) in
  expect_ok "mount_whitelist"
    (Syscall.write_file m root "/proc/protego/mount_whitelist" mount_text);
  let extra_binds = max 0 (p.bind_entries - List.length st.PS.binds) in
  let bind_text = Bindconf.to_string (st.PS.binds @ List.init extra_binds bind_entry) in
  expect_ok "bind_map" (Syscall.write_file m root "/proc/protego/bind_map" bind_text);
  let added = (extra_mounts, extra_binds) in
  let ppp_text =
    Pppopts.to_string st.PS.ppp
    ^ String.concat ""
        (List.init (p.ppp_devices - 1) (fun i ->
             let dev = Printf.sprintf "/dev/ttyS%d" (i + 1) in
             expect_ok "mkdev"
               (Machine.mkdev m kt ~path:dev ~mode:0o660
                  (Dev_serial { serial_name = Filename.basename dev }));
             "allow-device " ^ dev ^ "\n"))
  in
  expect_ok "ppp_policy" (Syscall.write_file m root "/proc/protego/ppp_policy" ppp_text);
  if p.nf_rules > 0 then begin
    let defaults = NF.rules m.netfilter NF.Output in
    NF.flush m.netfilter NF.Output;
    for i = 0 to p.nf_rules - 1 do
      NF.append m.netfilter NF.Output
        { NF.matches =
            [ NF.Proto Packet.Icmp; NF.Dst (Ipaddr.Cidr.make (Ipaddr.v 172 16 i 0) 24) ];
          target = (if i mod 4 = 0 then NF.Drop else NF.Accept); comment = "bench" }
    done;
    List.iter (NF.append m.netfilter NF.Output) defaults
  end;
  let chains = [ ("output", NF.rules m.netfilter NF.Output, NF.policy m.netfilter NF.Output) ] in
  (match PD.lint_report ~chains st with
   | [] -> ()
   | fs -> failwith ("setup: widened policy lints unclean:\n" ^ Protego_analysis.Policy_lint.render fs));
  (mount_text, bind_text, added)

let icmp_packet ~dst icmp_type =
  { Packet.src = Ipaddr.v 10 0 0 2; dst; ttl = 64;
    transport = Packet.Icmp_msg { icmp_type; code = 0; payload = "bench" } }

(* Request pools over the [added] bench rules.  Hot pools mix ~90%
   allowed requests; the wide pools are mostly denials spread over large
   policies. *)
let requests (p : params) ~wide ~users:us ~daemons:ds ~added:(n, extra_binds) =
  let nm, nb, ni, ns = p.pools in
  let mounts =
    Array.init nm (fun j ->
        let r = j mod n in
        let src = Printf.sprintf "/dev/%s%d" p.tag r in
        let tgt, flags =
          if wide then
            if j mod 5 = 0 then (Printf.sprintf "/media/%s%d" p.tag r, user_flags)
            else (Printf.sprintf "/media/%s%d" p.tag ((r + 1 + (j / n)) mod n), user_flags)
          else if j mod 10 = 9 then (Printf.sprintf "/media/%s%d" p.tag r, [ Mf_nosuid ])
          else
            ( Printf.sprintf "/media/%s%d" p.tag r,
              if j mod 2 = 0 then Mf_readonly :: user_flags else user_flags )
        in
        (us.(j mod users), Mount { source = src; target = tgt; fstype = "ext4"; flags }))
  in
  let binds =
    Array.init nb (fun j ->
        let d = j mod daemons in
        let port =
          if wide then bind_port ((j / daemons) mod (1023 - bind_base))
          else
            let own = (daemons * ((j / daemons) mod (extra_binds / daemons))) + d in
            bind_port (if j mod 10 = 9 then own + 1 else own)
        in
        (ds.(d), Bind { port }))
  in
  let ioctls =
    Array.init ni (fun j ->
        let device, opt =
          if wide then
            ( Printf.sprintf "/dev/ttyS%d" ((j / users) mod 16),
              if j mod 4 = 3 then Ppp.Modem_line_speed (9600 + j) else Ppp.Mru (100 + j) )
          else
            ( Printf.sprintf "/dev/ttyS%d" (j mod p.ppp_devices),
              if j mod 10 = 9 then Ppp.Modem_line_speed 115200
              else
                match j mod 4 with
                | 0 -> Ppp.Compression "deflate"
                | 1 -> Ppp.Async_map j
                | 2 -> Ppp.Mru (500 + j)
                | _ -> Ppp.Accomp )
        in
        (us.(j mod users), Ioctl { device; opt }))
  in
  let sends =
    Array.init ns (fun j ->
        let pkt =
          if wide then
            icmp_packet ~dst:(Ipaddr.v 172 16 (j mod 128) (j / 128 mod 256)) Packet.Echo_request
          else
            icmp_packet
              ~dst:(Ipaddr.v 10 0 0 (100 + (j mod 64)))
              (if j mod 10 = 9 then Packet.Dest_unreachable
               else if j mod 2 = 0 then Packet.Echo_request
               else Packet.Timestamp_request)
        in
        (us.(j mod users), Send { dst = pkt.Packet.dst; payload = Packet.encode pkt }))
  in
  [| mounts; binds; ioctls; sends |]

(* The reference verdict of each request: Policy_state's list-walking
   oracles and Netfilter.walk, then the syscall's own outcome for an
   allowed request (every allowed request is built to succeed). *)
let oracle m st (c : caller) req =
  let phase = c.task.sec.phase in
  let deny e b = if b then None else Some e in
  match req with
  | Mount { source; target; fstype; flags } ->
      let ok = PS.mount_decision ~phase st ~source ~target ~fstype ~flags in
      let uid = c.task.cred.ruid in
      ( deny Errno.EPERM ok,
        if ok then
          deny Errno.EPERM (PS.umount_decision ~phase st ~target ~mounted_by:uid ~ruid:uid)
        else Some Errno.EINVAL )
  | Bind { port } ->
      ( deny Errno.EACCES
          (PS.bind_allowed ~phase st ~port ~proto:Bindconf.Tcp ~exe:c.task.exe_path
             ~uid:c.task.cred.euid),
        None )
  | Ioctl { device; opt } ->
      (deny Errno.EPERM (PS.ppp_ioctl_decision ~phase st ~device ~opt), None)
  | Send { payload; _ } -> (
      let pkt = Option.get (Packet.decode payload) in
      match
        NF.walk m.netfilter NF.Output pkt ~origin:(Packet.Raw_app { uid = c.task.cred.euid })
      with
      | NF.Accept -> (None, None)
      | NF.Drop -> (Some Errno.EPERM, None)
      | NF.Reject -> (Some Errno.EACCES, None))

let setup ~shape ~seed ~trace =
  let p = params shape in
  let rng = Prng.create seed in
  let img = Image.build Image.Protego in
  let m = img.Image.machine in
  let lsm = Option.get img.Image.protego in
  let st = Lsm.state lsm and disp = Lsm.dispatch lsm in
  let root = Image.login img "root" in
  let mount_base, bind_base, added = widen p img root in
  let us =
    Array.init users (fun i ->
        let task = spawn m ~uid:(user_uid i) ~exe:"/bin/sh" in
        { task;
          ppp_fd = expect_ok "open /dev/ppp" (Syscall.open_ m task "/dev/ppp" [ Syscall.O_RDWR ]);
          raw_fd = expect_ok "raw socket" (Syscall.socket m task Af_inet Sock_raw 1) })
  in
  let ds =
    Array.init daemons (fun k ->
        { task = spawn m ~uid:(daemon_uid k) ~exe:(daemon_exe k); ppp_fd = -1; raw_fd = -1 })
  in
  (* Popularity follows pool order, which interleaves allowed and denied
     requests evenly; the seed draws the op stream over it. *)
  let pools =
    Array.map
      (Array.map (fun (caller, req) ->
           let expect, expect_umount = oracle m st caller req in
           { caller; req; expect; expect_umount }))
      (requests p ~wide:(shape = Wide) ~users:us ~daemons:ds ~added)
  in
  let cdfs = Array.map (fun pool -> Work.zipf_cdf (Array.length pool) p.zipf_s) pools in
  (* Mix mount 3 : umount 3 : bind 2 : ioctl 1 : sendto 1; each mount is
     followed by its umount, so the mount table never grows. *)
  let s_kind = Array.make stream_len 0 and s_tpl = Array.make stream_len 0 in
  let i = ref 0 in
  while !i < stream_len do
    let pick = Prng.int rng 7 in
    (* The stream ends on a whole mount/umount pair. *)
    let pick = if pick < 3 && !i = stream_len - 1 then 3 else pick in
    let pool = if pick < 3 then 0 else if pick < 5 then 1 else if pick < 6 then 2 else 3 in
    let tpl = Work.zipf_draw cdfs.(pool) rng in
    let emit k =
      s_kind.(!i) <- k;
      s_tpl.(!i) <- tpl;
      incr i
    in
    if pool = 0 then begin
      emit k_mount;
      emit k_umount
    end
    else emit (match pool with 1 -> k_bind | 2 -> k_ioctl | _ -> k_sendto)
  done;
  m.dmesg <- [];
  let tracer = if trace then Some (make_tracer disp m) else None in
  { shape; img; m; st; dispatcher = disp; root; pools; s_kind; s_tpl; pos = 0; ops = 0;
    attempted = 0; failed = 0; audit_expected = 0; audit0 = m.audit.J.sk_emitted;
    mount_base; bind_base; writes = 0; reloads = []; tracer }

(* One admin write: add or remove the filler rule of mount_whitelist or
   bind_map, alternating; its raw ns go to [reloads]. *)
let admin_write t =
  let w = t.writes in
  t.writes <- w + 1;
  let add = w mod 4 < 2 in
  let path, text =
    if w mod 2 = 0 then
      ("/proc/protego/mount_whitelist", if add then t.mount_base ^ mount_filler else t.mount_base)
    else ("/proc/protego/bind_map", if add then t.bind_base ^ bind_filler else t.bind_base)
  in
  t.attempted <- t.attempted + 1;
  let t0 = Meter.now () in
  let r = Syscall.write_file t.m t.root path text in
  let dt = Meter.now () - t0 in
  if r <> Ok () then t.failed <- t.failed + 1;
  t.reloads <- float_of_int dt :: t.reloads

let fresh_opt = function
  | Ppp.Compression s -> Ppp.Compression (Work.fresh s)
  | Ppp.Async_map n -> Ppp.Async_map n
  | Ppp.Mru n -> Ppp.Mru n
  | Ppp.Modem_line_speed n -> Ppp.Modem_line_speed n
  | Ppp.Modem_flow_control s -> Ppp.Modem_flow_control (Work.fresh s)
  | (Ppp.Accomp | Ppp.Default_route) as o -> o

(* Drain right after the op that fills the buffer, while that op's span
   is still in the ring with the others. *)
let record tc kind sys sys_alloc disp =
  let i = tc.p_len in
  tc.p_kind.(i) <- kind;
  tc.p_sys.(i) <- sys;
  tc.p_sys_alloc.(i) <- sys_alloc;
  tc.p_hook.(i) <- tc.h_ns;
  tc.p_hook_alloc.(i) <- tc.h_alloc;
  tc.p_hook_calls.(i) <- tc.h_calls;
  tc.p_span.(i) <-
    (match PD.last_span disp with
     | Some id when id <> tc.last_id ->
         tc.last_id <- id;
         id
     | Some _ | None -> 0);
  tc.p_len <- i + 1;
  if tc.p_len = drain_every then drain tc

(* Time [call], check its outcome; the untraced path adds two clock reads. *)
let timed t kind expect call =
  match t.tracer with
  | None ->
      let t0 = Meter.now () in
      let r = call () in
      let dt = Meter.now () - t0 in
      if not (Work.matches expect r) then t.failed <- t.failed + 1;
      dt
  | Some tc ->
      tc.h_ns <- 0;
      tc.h_alloc <- 0.;
      tc.h_calls <- 0;
      let a0 = Gc.minor_words () in
      let t0 = Meter.now () in
      let r = call () in
      let t1 = Meter.now () in
      let a1 = Gc.minor_words () in
      if not (Work.matches expect r) then t.failed <- t.failed + 1;
      record tc kind (t1 - t0) (a1 -. a0 -. tc.probe_alloc) t.dispatcher;
      t1 - t0

let op t () =
  if t.shape = Churn && t.ops > 0 && t.ops mod reload_period = 0 then admin_write t;
  let p = t.pos in
  t.pos <- (if p + 1 = stream_len then 0 else p + 1);
  t.ops <- t.ops + 1;
  t.attempted <- t.attempted + 1;
  let kind = t.s_kind.(p) in
  let pool = if kind <= k_umount then 0 else kind - 1 in
  let tpl = t.pools.(pool).(t.s_tpl.(p)) in
  let m = t.m and task = tpl.caller.task in
  try
    float_of_int
      (match tpl.req with
       | Mount { source; target; fstype; flags } when kind = k_mount ->
           let source = Work.fresh source and target = Work.fresh target in
           let fstype = Work.fresh fstype in
           t.audit_expected <- t.audit_expected + 1;
           timed t kind tpl.expect (fun () -> Syscall.mount m task ~source ~target ~fstype ~flags)
       | Mount { target; _ } ->
           let target = Work.fresh target in
           if tpl.expect_umount <> Some Errno.EINVAL then
             t.audit_expected <- t.audit_expected + 1;
           timed t kind tpl.expect_umount (fun () -> Syscall.umount m task ~target)
       | Bind { port } ->
           let fd = expect_ok "socket" (Syscall.socket m task Af_inet Sock_stream 6) in
           t.audit_expected <- t.audit_expected + 1;
           let dt =
             timed t kind tpl.expect (fun () -> Syscall.bind m task fd Ipaddr.any port)
           in
           ignore (Syscall.close m task fd);
           dt
       | Ioctl { device; opt } ->
           let req = Ioctl_modem_config { ioctl_dev = Work.fresh device; ppp_opt = fresh_opt opt } in
           timed t kind tpl.expect (fun () -> Syscall.ioctl m task tpl.caller.ppp_fd req)
       | Send { dst; payload } ->
           timed t kind tpl.expect (fun () ->
               Syscall.sendto m task tpl.caller.raw_fd dst 0 payload))
  with e ->
    Printf.eprintf "lsmbench: %s op raised %s\n%!" kind_name.(kind) (Printexc.to_string e);
    t.failed <- t.failed + 1;
    nan

(* Every LSM-decided mount, umount and bind leaves exactly one kaudit
   record; admin writes that lint clean leave none. *)
let end_round t () =
  let emitted = t.m.audit.J.sk_emitted - t.audit0 in
  if emitted <> t.audit_expected then begin
    Printf.eprintf "lsmbench: %d kaudit records for %d audited ops\n%!" emitted
      t.audit_expected;
    t.failed <- t.failed + abs (emitted - t.audit_expected)
  end;
  t.audit0 <- t.m.audit.J.sk_emitted;
  t.audit_expected <- 0;
  (* Drain the kernel log and inotify feed, as syslog and the monitoring
     daemon would. *)
  t.m.dmesg <- [];
  Queue.clear t.m.fs_events

let take_reloads t () =
  let r = t.reloads in
  t.reloads <- [];
  r

(* --- traced-run reports ----------------------------------------------------- *)

(* Re-encode the kaudit records the journal window holds into a scratch
   sink: the journal-encode layer, timed apart from the hook around it. *)
let encode_ns t =
  let recs = ref [] in
  J.iter t.m.audit.J.sk_journal (function
    | J.Kaudit k -> recs := k :: !recs
    | J.Decision _ -> ());
  let recs = List.rev !recs in
  let n = List.length recs in
  if n = 0 then nan
  else begin
    let sink = J.sink () in
    let t0 = Meter.now () in
    List.iter
      (fun (k : J.kaudit) ->
        J.sink_emit sink ~time:k.J.k_time ~pid:k.J.k_pid ~uid:k.J.k_uid ~op:k.J.k_op
          ~obj:k.J.k_obj ~allowed:k.J.k_allowed ~engine:k.J.k_engine ~span:k.J.k_span)
      recs;
    float_of_int (Meter.now () - t0) /. float_of_int n
  end

let trace_round t ~scale =
  match t.tracer with
  | None -> ()
  | Some tc ->
      drain tc;
      let cache = PD.cache t.dispatcher in
      let emitted = t.m.audit.J.sk_emitted in
      let stats = PD.stats t.dispatcher in
      let counter k f = f (List.assoc dispatch_name.(k) stats) in
      (match scale with
       | Some s ->
           Array.iteri (fun k a -> merge_kacc ~into:tc.total.(k) a s) tc.round;
           let e = encode_ns t in
           if not (Float.is_nan e) then begin
             tc.enc_ns <- tc.enc_ns +. (e *. s);
             tc.enc_rounds <- tc.enc_rounds + 1
           end;
           for k = 0 to kinds - 1 do
             tc.insns.(k) <- tc.insns.(k) + counter k (fun h -> h.PD.insns) - tc.insns0.(k);
             tc.evals.(k) <- tc.evals.(k) + counter k (fun h -> h.PD.evals) - tc.evals0.(k)
           done;
           tc.emitted <- tc.emitted + (emitted - tc.round_emit0);
           tc.stale <- tc.stale + (DC.stale_evictions cache - tc.stale0);
           tc.capacity <- tc.capacity + (DC.capacity_evictions cache - tc.capacity0)
       | None -> ());
      for k = 0 to kinds - 1 do
        tc.insns0.(k) <- counter k (fun h -> h.PD.insns);
        tc.evals0.(k) <- counter k (fun h -> h.PD.evals)
      done;
      tc.round_emit0 <- emitted;
      tc.stale0 <- DC.stale_evictions cache;
      tc.capacity0 <- DC.capacity_evictions cache;
      Array.iteri (fun k _ -> tc.round.(k) <- kacc ()) tc.round

(* Every pooled request's context, paired with the program the
   dispatcher currently runs for its hook. *)
let engine_contexts t =
  let prog name = PD.cached_program t.dispatcher name in
  Array.to_list t.pools
  |> List.concat_map (fun pool ->
         Array.to_list pool
         |> List.concat_map (fun tpl ->
                let uid = tpl.caller.task.cred.euid in
                match tpl.req with
                | Mount { source; target; fstype; flags } ->
                    [ (prog "mount", Compile.mount_ctx ~phase:0 ~source ~target ~fstype ~flags);
                      (prog "umount", Compile.umount_ctx ~phase:0 ~target ~mounted_by:uid ~ruid:uid) ]
                | Bind { port } ->
                    [ (prog "bind",
                       Compile.bind_ctx ~phase:0 ~port ~proto:Bindconf.Tcp
                         ~exe:tpl.caller.task.exe_path ~uid) ]
                | Ioctl { device; opt } -> [ (prog "ppp_ioctl", Compile.ppp_ctx ~phase:0 ~device ~opt) ]
                | Send { payload; _ } ->
                    [ (prog "nf_output",
                       Compile.packet_ctx (Option.get (Packet.decode payload))
                         ~origin:(Packet.Raw_app { uid })) ]))
  |> List.filter_map (fun (p, c) -> Option.map (fun p -> (p, c)) p)
  |> Array.of_list

let layers t () =
  match t.tracer with
  | None -> []
  | Some tc ->
      let sum f = Array.fold_left (fun acc a -> acc +. f a) 0. tc.total in
      let ops = sum (fun a -> float_of_int a.n) in
      let sys = sum (fun a -> a.sys) in
      let disp = sum (fun a -> a.disp) in
      let decisions = sum (fun a -> float_of_int a.decisions) in
      let inside k a = if k = k_sendto then 0. else a.disp in
      let hook_self =
        Array.fold_left ( +. ) 0. (Array.mapi (fun k a -> a.hook -. inside k a) tc.total)
      in
      let additivity =
        Array.fold_left
          (fun acc a -> if a.n = 0 then acc else Float.max acc (Float.abs (a.clamped -. a.sys) /. a.sys))
          0. tc.total
      in
      let chains = [ ("output", NF.rules t.m.netfilter NF.Output, NF.policy t.m.netfilter NF.Output) ] in
      let plane = Option.get t.img.Image.plane in
      let universal =
        [ ("trace.op_ns", Work.ratio sys ops, "ns");
          ("decision.ns", Work.ratio disp decisions, "ns");
          ("decision.hit_ratio",
           Work.ratio (sum (fun a -> float_of_int (a.by_slot + a.by_table))) decisions, "fraction");
          ("decision.engine_ratio", Work.ratio (sum (fun a -> float_of_int a.by_engine)) decisions,
           "fraction");
          ("decision.share", Work.ratio disp sys, "fraction");
          ("lsm.share", Work.ratio hook_self sys, "fraction");
          ("syscall.share",
           Work.ratio (sys -. sum (fun a -> a.hook) -. tc.total.(k_sendto).disp) sys, "fraction");
          ("journal.encode_ns", Work.ratio tc.enc_ns (float_of_int tc.enc_rounds), "ns");
          ("journal.records_per_op", Work.ratio (float_of_int tc.emitted) ops, "count");
          ("journal.bytes_per_record",
           (let s = J.stats t.m.audit.J.sk_journal in
            Work.ratio (float_of_int s.J.s_bytes) (float_of_int s.J.s_records)), "B");
          ("gc.minor_words_per_op", Work.ratio (sum (fun a -> a.sys_alloc)) ops, "words");
          ("additivity.max_err", additivity, "fraction");
          ("trace.broken_spans", float_of_int tc.broken, "count") ]
        @ Work.engine_cost (engine_contexts t)
        @ Work.reload_stages ~chains t.dispatcher t.st (fun () -> ignore (Plane.publish plane))
      in
      let kops = ops /. 1000. in
      let detail =
        List.concat
          (List.init kinds (fun k ->
               let a = tc.total.(k) in
               let n = float_of_int a.n and dn = float_of_int a.decisions in
               let name = kind_name.(k) and hook = hook_name.(k) and d = dispatch_name.(k) in
               let outside = if k = k_sendto then a.disp else 0. in
               let insns = Work.ratio (float_of_int tc.insns.(k)) (float_of_int tc.evals.(k)) in
               [ ("syscall." ^ name ^ ".ns", Work.ratio a.sys n, "ns");
                 ("syscall." ^ name ^ ".self_ns", Work.ratio (a.sys -. a.hook -. outside) n, "ns");
                 ("syscall." ^ name ^ ".alloc_words",
                  Work.ratio (a.sys_alloc -. a.hook_alloc) n, "words");
                 ("lsm." ^ hook ^ ".self_ns", Work.ratio (a.hook -. (a.disp -. outside)) n, "ns");
                 ("lsm." ^ hook ^ ".alloc_words", Work.ratio a.hook_alloc n, "words");
                 ("lsm." ^ hook ^ ".calls", Work.ratio (float_of_int a.hook_calls) n, "count");
                 ("dispatch." ^ d ^ ".ns", Work.ratio a.disp dn, "ns");
                 ("dispatch." ^ d ^ ".slot_ratio", Work.ratio (float_of_int a.by_slot) dn, "fraction");
                 ("dispatch." ^ d ^ ".table_ratio", Work.ratio (float_of_int a.by_table) dn,
                  "fraction");
                 ("dispatch." ^ d ^ ".engine_ratio", Work.ratio (float_of_int a.by_engine) dn,
                  "fraction");
                 ("decision_cache." ^ d ^ ".slot_ns", Work.ratio a.slot dn, "ns");
                 ("decision_cache." ^ d ^ ".table_ns",
                  Work.ratio a.table (float_of_int (a.by_table + a.by_engine)), "ns");
                 ("pfm." ^ d ^ ".engine_ns", Work.ratio a.engine (float_of_int a.by_engine), "ns");
                 ("pfm." ^ d ^ ".insns_per_eval", insns, "count");
                 ("additivity." ^ name ^ ".err", Work.ratio (Float.abs (a.clamped -. a.sys)) a.sys,
                  "fraction") ]))
        @ [ ("decision_cache.stale_evictions_per_kop", Work.ratio (float_of_int tc.stale) kops, "count");
            ("decision_cache.capacity_evictions_per_kop",
             Work.ratio (float_of_int tc.capacity) kops, "count") ]
      in
      universal @ detail

let work t =
  { Work.op = op t; per_op = 1; after_op = None; end_round = end_round t;
    take_reloads = take_reloads t;
    probe_reload = (if t.shape = Churn then None else Some (fun () -> admin_write t));
    attempted = (fun () -> t.attempted); failed = (fun () -> t.failed);
    trace_round = trace_round t; layers = layers t }
