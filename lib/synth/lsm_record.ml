open Protego_kernel
open Ktypes
module J = Protego_journal.Journal
module Syntax = Protego_base.Syntax
module Image = Protego_dist.Image
module Plane = Protego_plane.Plane
module Workload = Protego_workload.Workload
module Bindconf = Protego_policy.Bindconf
module PS = Protego_core.Policy_state
module Packet = Protego_net.Packet
module Ipaddr = Protego_net.Ipaddr

let uid_base = 2000

(* Raw- and packet-socket traffic each subject sends after its requests:
   raw UDP outside the traceroute range (33434-33534), a raw TCP SYN and
   a non-ARP frame on a packet socket. *)
let nf_battery =
  let pkt transport =
    { Packet.src = Ipaddr.v 10 0 0 2; dst = Ipaddr.v 10 0 0 1; ttl = 64;
      transport }
  in
  [ (Af_inet, 17,
     pkt (Packet.Udp_dgram { src_port = 40000; dst_port = 53; payload = "" }));
    (Af_inet, 6,
     pkt
       (Packet.Tcp_seg
          { src_port = 40000; dst_port = 80; syn = true; payload = "" }));
    (Af_packet, 0x88cc,
     pkt (Packet.Raw_payload { protocol = 0x88cc; payload = "lldp" })) ]

type result = {
  journal : J.t;
  state : PS.t;
  netfilter : Protego_net.Netfilter.t;
  requests : int;
  decided : int;
  recorded : int;
}

let run ?(seg_bytes = 262144) ?(segments = 32) spec requests =
  let img = Image.build Image.Protego in
  let m = img.Image.machine in
  let lsm = Option.get img.Image.protego in
  let st = Protego_core.Lsm.state lsm in
  Workload.install_policy spec st;
  PS.set st
    (PS.Set_binds
       (List.map
          (fun (e : Bindconf.entry) -> { e with owner = uid_base + e.owner })
          st.PS.binds));
  let root = Image.login img "root" in
  let kt = Machine.kernel_task m in
  J.sink_clear ~seg_bytes ~segments m.audit;
  Syntax.expect_ok "record on"
    (Syscall.write_file m root "/proc/protego/record" "on\n");
  let spawn ?caps uid =
    Machine.spawn_task m ~cred:(Cred.make ?caps ~uid ~gid:uid ()) ~cwd:"/" ()
  in
  let tasks = Hashtbl.create 32 and helpers = Hashtbl.create 32 in
  let seen = ref [] in
  let memo tbl key make =
    match Hashtbl.find_opt tbl key with
    | Some v -> v
    | None ->
        let v = make () in
        Hashtbl.add tbl key v;
        v
  in
  (* A subject's task and its descriptor on /dev/ppp. *)
  let subject s =
    memo tasks s (fun () ->
        seen := s :: !seen;
        let task = spawn (uid_base + s) in
        let fd =
          Syntax.expect_ok "open /dev/ppp"
            (Syscall.open_ m task "/dev/ppp" [ Syscall.O_RDWR ])
        in
        (task, fd))
  in
  (* The mount an umount request names, owned by [uid]: a capable
     helper running as [uid] makes it, so no hook decides it. *)
  let mounted_as ~target uid =
    let mount () =
      ignore (Machine.mkdir_p m kt target ~mode:0o755 ());
      let helper =
        memo helpers uid (fun () -> spawn ~caps:Protego_base.Cap.Set.full uid)
      in
      Syntax.expect_ok "helper mount"
        (Syscall.mount m helper ~source:"none" ~target ~fstype:"tmpfs"
           ~flags:[])
    in
    match Vfs.mounted_at m.mounts target with
    | mnt :: _ when mnt.mnt_by = uid -> ()
    | _ :: _ ->
        ignore (Syscall.umount m root ~target);
        mount ()
    | [] -> mount ()
  in
  Array.iter
    (fun (req : Plane.request) ->
      match req with
      | Plane.Mount { subject = s; source; target; fstype; flags } ->
          let task, _ = subject s in
          ignore (Syscall.mount m task ~source ~target ~fstype ~flags)
      | Plane.Umount { subject = s; target; mounted_by } ->
          let task, _ = subject s in
          mounted_as ~target (uid_base + mounted_by);
          ignore (Syscall.umount m task ~target)
      | Plane.Bind { subject = s; port; proto; exe } ->
          let task, _ = subject s in
          task.exe_path <- exe;
          let stype =
            match proto with Bindconf.Tcp -> Sock_stream | Bindconf.Udp -> Sock_dgram
          in
          let fd = Syntax.expect_ok "socket" (Syscall.socket m task Af_inet stype 0) in
          ignore (Syscall.bind m task fd Protego_net.Ipaddr.any port);
          ignore (Syscall.close m task fd)
      | Plane.Ppp_ioctl { subject = s; device; opt } ->
          let task, fd = subject s in
          ignore
            (Syscall.ioctl m task fd
               (Ioctl_modem_config { ioctl_dev = device; ppp_opt = opt })))
    requests;
  (* The nf battery, per subject in order of first appearance. *)
  List.iter
    (fun s ->
      let task, _ = subject s in
      List.iter
        (fun (domain, proto, (pkt : Packet.t)) ->
          let fd =
            Syntax.expect_ok "raw socket"
              (Syscall.socket m task domain Sock_raw proto)
          in
          ignore (Syscall.sendto m task fd pkt.dst 0 (Packet.encode pkt));
          ignore (Syscall.close m task fd))
        nf_battery)
    (List.rev !seen);
  let journal = m.audit.J.sk_journal in
  let dropped = J.dropped journal in
  if dropped > 0 then
    Error
      (Printf.sprintf
         "%d records lost to journal wraparound; raise --seg-bytes/--segments"
         dropped)
  else begin
    let decided = ref 0 and recorded = ref 0 in
    J.iter journal (function
      | J.Decision d ->
          incr decided;
          if d.J.d_verdict = 3 then incr recorded
      | J.Kaudit _ -> ());
    Ok
      { journal; state = st; netfilter = m.netfilter;
        requests = Array.length requests; decided = !decided;
        recorded = !recorded }
  end
