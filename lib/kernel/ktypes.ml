(* Shared mutable state of the simulated machine.

   Every kernel object the paper's mechanisms touch lives here, in one
   mutually recursive type block: inodes and the VFS, open files, sockets,
   tasks with credentials, the mount table, devices, the LSM operation
   vector, and the machine itself.  Behaviour lives in the sibling modules
   (Vfs, Syscall, Security, Netstack, ...), which all operate on these
   types. *)

open Protego_base

type uid = int
type gid = int
type pid = int

(* Credentials, mirroring struct cred.  [last_auth] is Protego's addition:
   the time the real uid last proved its identity to the trusted
   authentication service (§4.3 "The Protego kernel tracks the last
   authentication time in the task_struct"). *)
type cred = {
  mutable ruid : uid;
  mutable euid : uid;
  mutable suid : uid;
  mutable fsuid : uid;
  mutable rgid : gid;
  mutable egid : gid;
  mutable sgid : gid;
  mutable groups : gid list;
  mutable caps : Cap.Set.t;
  mutable last_auth : float option;
}

type fs_event_kind = Ev_create | Ev_modify | Ev_delete
type fs_event = { ev_path : string; ev_kind : fs_event_kind }

(* Security audit record (LSM audit facility); emitted by policy modules. *)
type audit_record = {
  au_time : float;
  au_pid : pid;
  au_uid : uid;
  au_op : string;
  au_obj : string;
  au_allowed : bool;
  au_engine : string option;
      (* evaluating engine for filtered hooks: "pfm" or "ref" *)
  au_span : int option;
      (* trace span id of the decision, when spans were being recorded *)
}

(* Devices under /dev.  Block devices may hold removable media (a CD-ROM or
   USB stick image: an fstype plus a file listing); the device-mapper node
   additionally carries dm-crypt metadata whose ioctl discloses both the
   underlying device and the encryption key (§4.1 dmcrypt row of Table 4). *)
type media = { media_fstype : string; media_files : (string * string) list }

type dmcrypt_meta = {
  dm_underlying : string; (* e.g. "/dev/sda2" *)
  dm_cipher : string;
  dm_key : string;        (* the secret the legacy ioctl leaks *)
}

type device =
  | Dev_null
  | Dev_tty of { tty_index : int }
  | Dev_serial of { serial_name : string }  (* modem / crossover cable *)
  | Dev_ppp
  | Dev_block of { mutable media : media option }
  | Dev_dm of dmcrypt_meta
  | Dev_video of { mutable kms : bool; mutable video_mode : string }

type mount_flag = Mf_readonly | Mf_nosuid | Mf_nodev | Mf_noexec

(* A flag's code is the bit it sets in a flags mask; the name is its
   fstab/mount_whitelist spelling. *)
let mount_flag_code = function
  | Mf_readonly -> 0
  | Mf_nosuid -> 1
  | Mf_nodev -> 2
  | Mf_noexec -> 3

let mount_flag_name = function
  | Mf_readonly -> "ro"
  | Mf_nosuid -> "nosuid"
  | Mf_nodev -> "nodev"
  | Mf_noexec -> "noexec"

let mount_flag_of_code = function
  | 0 -> Some Mf_readonly
  | 1 -> Some Mf_nosuid
  | 2 -> Some Mf_nodev
  | 3 -> Some Mf_noexec
  | _ -> None

(* --- the recursive block -------------------------------------------- *)

type inode = {
  ino : int;
  mutable kind : file_kind;
  mutable mode : Mode.t;
  mutable iuid : uid;
  mutable igid : gid;
  mutable data : Buffer.t;                       (* Reg file contents *)
  mutable children : (string * inode) list;      (* Dir entries, ordered *)
  mutable nlink : int;
  mutable mtime : float;
  mutable program : string option;               (* key into machine.programs *)
  mutable vnode : vnode option;                  (* /proc, /sys virtual file *)
  mutable fcaps : Cap.Set.t option;              (* file capabilities (setcap) *)
}

and file_kind =
  | Reg
  | Dir
  | Symlink of string
  | Chardev of string   (* name into machine.devices *)
  | Blockdev of string
  | Fifo

(* Virtual file (procfs/sysfs): reads and writes are computed. *)
and vnode = {
  v_read : machine -> task -> (string, Errno.t) result;
  v_write : machine -> task -> string -> (unit, Errno.t) result;
}

and socket = {
  sock_id : int;
  domain : sock_domain;
  stype : sock_type;
  sproto : int;
  sock_uid : uid;                                (* creator's euid *)
  sock_exe : string;                             (* creator's binary path *)
  sock_netns : int;                              (* creator's network namespace *)
  mutable bound : (Protego_net.Ipaddr.t * int) option;
  mutable listening : bool;
  mutable conn : sock_conn option;               (* established connection *)
  mutable unpriv_raw : bool;                     (* Protego-marked raw socket *)
  mutable sttl : int;                            (* IP_TTL for kernel-built packets *)
  stream_buf : Buffer.t;                         (* bytes awaiting recv *)
  dgram_queue : Protego_net.Packet.t Queue.t;    (* datagrams/raw packets *)
  mutable closed : bool;
}

and sock_conn =
  | Conn_local of socket                          (* loopback stream peer *)
  | Conn_remote of { r_addr : Protego_net.Ipaddr.t; r_port : int }

and sock_domain = Af_inet | Af_unix | Af_packet
and sock_type = Sock_stream | Sock_dgram | Sock_raw

and file_object =
  | F_inode of inode
  | F_socket of socket
  | F_pipe of pipe_end

and pipe_end = { pipe : pipe; end_role : [ `Read | `Write ] }
and pipe = { pipe_buf : Buffer.t; mutable read_open : bool; mutable write_open : bool }

and open_file = {
  fobj : file_object;
  mutable pos : int;
  readable : bool;
  writable : bool;
  append : bool;
  mutable cloexec : bool;
  opened_path : string;
  mutable snapshot : string option;  (* vnode contents, captured at open *)
}

(* Pending setuid-on-exec state (§4.3): a restricted uid transition returns
   success from setuid() but only takes effect at the next exec, and only if
   the exec'd binary is in the authorized list. *)
and pending_setuid = {
  ps_target : uid;
  ps_binaries : string list;       (* canonical paths; [] means unrestricted *)
  ps_keep_env : bool;              (* sudoers SETENV *)
}

and task_security = {
  mutable pending : pending_setuid option;
  mutable aa_profile : string option;    (* AppArmor confinement label *)
  mutable phase : Phase.t;
      (* lifecycle phase (DESIGN.md §11): advances one-way at
         setuid/seteuid (privilege drop) and first listen; execve starts
         a fresh lifecycle for the new program image *)
}

and task = {
  tpid : pid;
  tparent : pid;
  cred : cred;
  mutable cwd : string;
  mutable fds : (int * open_file) list;
  mutable next_fd : int;
  mutable exe_path : string;
  mutable tty : string option;           (* e.g. "/dev/tty1" *)
  sec : task_security;
  mutable sig_handlers : (int * (unit -> unit)) list;
  mutable env : (string * string) list;
  mutable exit_code : int option;
  mutable netns : int;                   (* 0 = the initial network namespace *)
  mutable userns : bool;                 (* inside an unprivileged user ns *)
  mutable mntns : mount_record list option;
      (* Some = private mount list (copy-on-unshare); None = the initial ns *)
}

and mount_record = {
  mnt_source : string;
  mnt_target : string;
  mnt_fstype : string;
  mnt_flags : mount_flag list;
  mnt_root : inode;        (* root of the mounted tree *)
  mnt_covered : inode;     (* directory inode the mount covers *)
  mnt_by : uid;
}

(* The LSM operation vector.  The stock kernel provides DAC plus capability
   checks; AppArmor narrows the administrator's privilege; Protego replaces
   the checks on the paper's 8 interfaces with object-based policies. *)
and security_ops = {
  lsm_name : string;
  capable : machine -> task -> Cap.t -> bool;
  sb_mount :
    machine -> task -> source:string -> target:string -> fstype:string ->
    flags:mount_flag list -> (unit, Errno.t) result;
  sb_umount : machine -> task -> target:string -> (unit, Errno.t) result;
  socket_create :
    machine -> task -> sock_domain -> sock_type -> int -> (unit, Errno.t) result;
  socket_bind :
    machine -> task -> socket -> Protego_net.Ipaddr.t -> int ->
    (unit, Errno.t) result;
  socket_listen : machine -> task -> socket -> (unit, Errno.t) result;
  socket_sendmsg :
    machine -> task -> socket -> Protego_net.Packet.t -> (unit, Errno.t) result;
  task_fix_setuid :
    machine -> task -> target:uid -> (setuid_disposition, Errno.t) result;
  task_fix_setgid : machine -> task -> target:gid -> (unit, Errno.t) result;
  bprm_check :
    machine -> task -> path:string -> argv:string list -> inode ->
    (unit, Errno.t) result;
  inode_permission :
    machine -> task -> path:string -> inode -> Mode.access ->
    (unit, Errno.t) result;
  file_open :
    machine -> task -> path:string -> open_file -> (unit, Errno.t) result;
  file_ioctl : machine -> task -> ioctl_req -> (unit, Errno.t) result;
}

(* Disposition of a setuid() call that DAC alone would deny:
   - [Setuid_denied] is the stock outcome (EPERM);
   - [Setuid_apply] lets the transition happen now (delegation authorized);
   - [Setuid_defer p] is Protego's setuid-on-exec (§4.3). *)
and setuid_disposition =
  | Setuid_apply
  | Setuid_defer of pending_setuid

and ioctl_req =
  | Ioctl_route_add of Protego_net.Route.entry
  | Ioctl_route_del of Protego_net.Ipaddr.Cidr.t
  | Ioctl_modem_config of { ioctl_dev : string; ppp_opt : Protego_net.Ppp.option_ }
  | Ioctl_dm_table_status of { dm_dev : string }
  | Ioctl_video_modeset of { video_mode : string }
  | Ioctl_tty_getattr

(* Behaviour of a simulated remote host, for the network tools. *)
and remote_host = {
  rh_addr : Protego_net.Ipaddr.t;
  rh_hops : int;                 (* distance; TTL below this elicits TIME_EXCEEDED *)
  rh_echo : bool;                (* answers ICMP echo *)
  rh_udp_echo_ports : int list;
  rh_tcp_open_ports : int list;
  rh_exports : (string * (string * string) list) list;
      (* NFS/CIFS shares: export name -> file listing *)
}

and machine = {
  mutable now : float;
  root : inode;
  mutable next_ino : int;
  mutable next_pid : int;
  mutable next_sock : int;
  mutable next_ephemeral : int;
  mutable next_netns : int;
  mutable unpriv_userns : bool;
      (* kernel >= 3.8 behaviour: unprivileged user namespaces (§4.6) *)
  mutable tasks : (pid * task) list;
  mutable mounts : mount_record list;
  netfilter : Protego_net.Netfilter.t;
  routes : Protego_net.Route.t;
  mutable sockets : socket list;
  mutable ppp_links : Protego_net.Ppp.t list;
  devices : (string, device) Hashtbl.t;
  mutable security : security_ops;
  programs : (string, program) Hashtbl.t;
  mutable dmesg : string list;               (* newest first *)
  fs_events : fs_event Queue.t;              (* inotify-like feed *)
  mutable auth_agent : (machine -> task -> uid -> bool) option;
  mutable password_source : uid -> string option;
  mutable tty_auth : ((string * uid) * float) list;
      (* last successful authentication per (terminal, real uid) — backs
         sudo's "password entered on the terminal in the last 5 minutes" *)
  mutable local_addrs : Protego_net.Ipaddr.t list;
  mutable remote_hosts : remote_host list;
  wire : (Protego_net.Packet.t * Protego_net.Packet.origin) Queue.t;
  audit : Protego_journal.Journal.sink;      (* binary audit journal store *)
  mutable console : string list;             (* program output, newest first *)
}

and program =
  machine -> task -> string list -> (int, Errno.t) result
(* A registered binary: receives argv (argv.(0) = invocation path); uses the
   environment from [task.env]; returns the exit status. *)

let find_task m pid = List.assoc_opt pid m.tasks

let log_dmesg m fmt =
  Printf.ksprintf (fun s -> m.dmesg <- s :: m.dmesg) fmt

let console m fmt =
  Printf.ksprintf (fun s -> m.console <- s :: m.console) fmt

let console_lines m = List.rev m.console

let post_fs_event m path kind =
  Queue.add { ev_path = path; ev_kind = kind } m.fs_events
