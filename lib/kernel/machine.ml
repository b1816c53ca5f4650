open Protego_base
open Ktypes

let create () =
  let root =
    { ino = 1; kind = Dir; mode = 0o755; iuid = 0; igid = 0;
      data = Buffer.create 0; children = []; nlink = 2; mtime = 0.;
      program = None; vnode = None; fcaps = None }
  in
  { now = 1000.; root; next_ino = 2; next_pid = 1; next_sock = 1;
    next_ephemeral = 32768; next_netns = 1; unpriv_userns = false; tasks = [];
    mounts = []; netfilter = Protego_net.Netfilter.create ();
    routes = Protego_net.Route.create (); sockets = []; ppp_links = [];
    devices = Hashtbl.create 16; security = Security.stock_linux;
    programs = Hashtbl.create 64; dmesg = []; fs_events = Queue.create ();
    auth_agent = None; password_source = (fun _ -> None); tty_auth = [];
    local_addrs = [ Protego_net.Ipaddr.localhost ]; remote_hosts = [];
    wire = Queue.create (); audit = Protego_journal.Journal.sink ();
    console = [] }

let advance_clock m seconds = m.now <- m.now +. seconds

let spawn_task m ?(parent = 0) ?tty ~cred ?(cwd = "/") ?(env = []) () =
  let pid = m.next_pid in
  m.next_pid <- m.next_pid + 1;
  let task =
    { tpid = pid; tparent = parent; cred; cwd; fds = []; next_fd = 3;
      exe_path = "init"; tty;
      sec = { pending = None; aa_profile = None;
              phase = Protego_base.Phase.initial };
      sig_handlers = []; env; exit_code = None; netns = 0; userns = false;
      mntns = None }
  in
  m.tasks <- m.tasks @ [ (pid, task) ];
  task

let remove_task m task = m.tasks <- List.remove_assoc task.tpid m.tasks

let register_program m key prog = Hashtbl.replace m.programs key prog

let rec mkdir_p m task path ?(mode = 0o755) ?(uid = 0) ?(gid = 0) () =
  let path = Vfs.normalize ~cwd:task.cwd path in
  match Vfs.resolve m task path with
  | Ok inode when inode.kind = Dir -> Ok inode
  | Ok _ -> Error Errno.ENOTDIR
  | Error Errno.ENOENT -> (
      match Vfs.resolve_parent m task path with
      | Error Errno.ENOENT -> (
          (* Build the parent chain with default (root 0755) attributes;
             only the leaf gets the requested mode and owner. *)
          match Vfs.split_path path with
          | [] -> Error Errno.EINVAL
          | components ->
              let parent_path =
                "/" ^ String.concat "/"
                        (List.filteri (fun i _ -> i < List.length components - 1) components)
              in
              let ( let* ) = Result.bind in
              let* _ = mkdir_p m task parent_path () in
              mkdir_p m task path ~mode ~uid ~gid ())
      | Error e -> Error e
      | Ok (parent, name) ->
          let dir = Inode.alloc m ~kind:Dir ~mode ~uid ~gid in
          Inode.add_child parent name dir;
          post_fs_event m path Ev_create;
          Ok dir)
  | Error e -> Error e

let write_file m task ~path ?(mode = 0o644) ?(uid = 0) ?(gid = 0) contents =
  let path = Vfs.normalize ~cwd:task.cwd path in
  match Vfs.resolve m task path with
  | Ok inode when inode.kind = Reg ->
      Inode.write_all inode contents;
      inode.mtime <- m.now;
      post_fs_event m path Ev_modify;
      Ok ()
  | Ok _ -> Error Errno.EISDIR
  | Error Errno.ENOENT -> (
      match Vfs.resolve_parent m task path with
      | Error e -> Error e
      | Ok (parent, name) ->
          let inode = Inode.alloc m ~kind:Reg ~mode ~uid ~gid in
          Inode.write_all inode contents;
          Inode.add_child parent name inode;
          post_fs_event m path Ev_create;
          Ok ())
  | Error e -> Error e

let install_binary m task ~path ?(mode = 0o755) ?(uid = 0) ?(gid = 0) prog =
  let path = Vfs.normalize ~cwd:task.cwd path in
  let ( let* ) = Result.bind in
  let* () = write_file m task ~path ~mode ~uid ~gid ("#!ELF " ^ path) in
  let* inode = Vfs.resolve m task path in
  inode.program <- Some path;
  register_program m path prog;
  Ok ()

let register_device m name dev = Hashtbl.replace m.devices name dev

let mkdev m task ~path ?(mode = 0o600) ?(uid = 0) ?(gid = 0) dev =
  let path = Vfs.normalize ~cwd:task.cwd path in
  let kind =
    match dev with
    | Dev_block _ | Dev_dm _ -> Blockdev path
    | Dev_null | Dev_tty _ | Dev_serial _ | Dev_ppp | Dev_video _ -> Chardev path
  in
  match Vfs.resolve_parent m task path with
  | Error e -> Error e
  | Ok (parent, name) ->
      (match Inode.lookup_child parent name with
      | Some _ -> ignore (Inode.remove_child parent name)
      | None -> ());
      let inode = Inode.alloc m ~kind ~mode ~uid ~gid in
      Inode.add_child parent name inode;
      register_device m path dev;
      post_fs_event m path Ev_create;
      Ok ()

let add_vnode m task ~path ?(mode = 0o644) ?(uid = 0) ?(gid = 0) ~read ~write () =
  let path = Vfs.normalize ~cwd:task.cwd path in
  let ( let* ) = Result.bind in
  let* () = write_file m task ~path ~mode ~uid ~gid "" in
  let* inode = Vfs.resolve m task path in
  inode.vnode <- Some { v_read = read; v_write = write };
  Ok ()

let vnode_read_only _read = fun _m _task _s -> Error Errno.EACCES

let create_ppp_link m ~serial_device ~owner_uid =
  let name = Printf.sprintf "ppp%d" (List.length m.ppp_links) in
  let link = Protego_net.Ppp.create ~name ~serial_device ~owner_uid in
  m.ppp_links <- m.ppp_links @ [ link ];
  log_dmesg m "ppp: registered interface %s on %s (uid %d)" name serial_device
    owner_uid;
  link

let kernel_task m =
  match find_task m 1 with
  | Some t -> t
  | None ->
      let cred = Cred.make ~uid:0 ~gid:0 () in
      let t = spawn_task m ~cred () in
      assert (t.tpid = 1);
      t

let render_dmesg = function
  | Text s -> s
  | Mount { source; target; fstype; uid } ->
      Printf.sprintf "mount: %s on %s type %s (uid %d)" source target fstype uid
  | Umount { target; uid } -> Printf.sprintf "umount: %s (uid %d)" target uid

let dmesg m = List.rev_map render_dmesg m.dmesg
