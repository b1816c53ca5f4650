open Protego_base
open Ktypes
module Ipaddr = Protego_net.Ipaddr

type fd = int

type open_flag =
  | O_RDONLY
  | O_WRONLY
  | O_RDWR
  | O_CREAT of Mode.t
  | O_TRUNC
  | O_APPEND
  | O_CLOEXEC

type stat_info = {
  st_ino : int;
  st_kind : file_kind;
  st_mode : Mode.t;
  st_uid : uid;
  st_gid : gid;
  st_size : int;
}

(* Fixed cost charged at every system call entry, standing in for the
   user/kernel mode switch the simulator otherwise lacks.  Without it, the
   few-nanosecond cost of an LSM hook would be measured against an
   unrealistically cheap baseline and overheads would look inflated
   (DESIGN.md, Table 5 notes).  Tests may zero it. *)
let trap_iterations = ref 400

let trap () =
  let acc = ref 0 in
  for i = 1 to !trap_iterations do
    acc := !acc + i
  done;
  ignore (Sys.opaque_identity !acc)

let set_trap_iterations n = trap_iterations := max 0 n

(* --- identity ------------------------------------------------------- *)

let getuid task = task.cred.ruid
let geteuid task = task.cred.euid
let getgid task = task.cred.rgid
let getegid task = task.cred.egid
let getgroups task = task.cred.groups
let getpid task = trap (); task.tpid
let apply_full_setuid task target =
  let c = task.cred in
  c.ruid <- target;
  c.euid <- target;
  c.suid <- target;
  c.fsuid <- target;
  Cred.recompute_caps_for_uid_change c

let setuid m task target =
  trap ();
  if target < 0 then Error Errno.EINVAL
  else
    match m.security.task_fix_setuid m task ~target with
    | Error _ as e -> e
    | Ok (Setuid_defer pending) ->
        (* §4.3: report success now; the transition happens at exec. *)
        task.sec.pending <- Some pending;
        Ok ()
    | Ok Setuid_apply ->
        let c = task.cred in
        let dropped = c.euid <> target in
        if Cred.has_cap c Cap.CAP_SETUID then apply_full_setuid task target
        else if target = c.ruid || target = c.suid then (
          c.euid <- target;
          c.fsuid <- target;
          Cred.recompute_caps_for_uid_change c)
        else
          (* The LSM authorized a transition DAC would deny: a delegated
             lateral move takes full effect, like a completed sudo. *)
          apply_full_setuid task target;
        (* An identity change is a lifecycle step (DESIGN.md §11): the
           bind-then-drop server's setuid advances its phase one-way. *)
        if dropped then
          task.sec.phase <- Phase.advance task.sec.phase
                              (Phase.succ task.sec.phase);
        Ok ()

let setgid m task target =
  trap ();
  if target < 0 then Error Errno.EINVAL
  else
    match m.security.task_fix_setgid m task ~target with
    | Error _ as e -> e
    | Ok () ->
        let c = task.cred in
        if Cred.has_cap c Cap.CAP_SETGID then (
          c.rgid <- target;
          c.egid <- target;
          c.sgid <- target)
        else c.egid <- target;
        Ok ()

let seteuid m task target =
  trap ();
  if target < 0 then Error Errno.EINVAL
  else
    let c = task.cred in
    if Cred.has_cap c Cap.CAP_SETUID || target = c.ruid || target = c.suid then (
      let dropped = c.euid <> target in
      c.euid <- target;
      c.fsuid <- target;
      Cred.recompute_caps_for_uid_change c;
      if dropped then
        task.sec.phase <- Phase.advance task.sec.phase
                            (Phase.succ task.sec.phase);
      Ok ())
    else
      match m.security.task_fix_setuid m task ~target with
      | Ok Setuid_apply ->
          c.euid <- target;
          c.fsuid <- target;
          Cred.recompute_caps_for_uid_change c;
          Ok ()
      | Ok (Setuid_defer pending) ->
          task.sec.pending <- Some pending;
          Ok ()
      | Error _ as e -> e

let setgroups m task groups =
  trap ();
  if m.security.capable m task Cap.CAP_SETGID then (
    task.cred.groups <- groups;
    Ok ())
  else Error Errno.EPERM

(* --- fd table ------------------------------------------------------- *)

let alloc_fd task file =
  let fd = task.next_fd in
  task.next_fd <- task.next_fd + 1;
  task.fds <- task.fds @ [ (fd, file) ];
  fd

let find_fd task fd = List.assoc_opt fd task.fds

let drop_fd task fd = task.fds <- List.remove_assoc fd task.fds

(* --- files ---------------------------------------------------------- *)

let creat_flags flags =
  List.fold_left
    (fun acc f -> match f with O_CREAT mode -> Some mode | _ -> acc)
    None flags

let rw_of_flags flags =
  let readable =
    List.mem O_RDONLY flags || List.mem O_RDWR flags
    || not (List.mem O_WRONLY flags)
  in
  let writable = List.mem O_WRONLY flags || List.mem O_RDWR flags in
  (readable, writable)

let open_ m task path flags =
  trap ();
  let abs = Vfs.normalize ~cwd:task.cwd path in
  let readable, writable = rw_of_flags flags in
  let finish inode =
    let snapshot =
      match inode.vnode with
      | Some v when readable -> (
          match v.v_read m task with Ok s -> Some s | Error _ -> None)
      | Some _ | None -> None
    in
    if List.mem O_TRUNC flags && writable && inode.kind = Reg && inode.vnode = None
    then Inode.write_all inode "";
    let file =
      { fobj = F_inode inode; pos = 0; readable; writable;
        append = List.mem O_APPEND flags; cloexec = List.mem O_CLOEXEC flags;
        opened_path = abs; snapshot }
    in
    match m.security.file_open m task ~path:abs file with
    | Error _ as e -> (match e with Error err -> Error err | Ok _ -> assert false)
    | Ok () -> Ok (alloc_fd task file)
  in
  match Vfs.resolve m task abs with
  | Ok inode -> (
      if inode.kind = Dir && writable then Error Errno.EISDIR
      else
        let ( let* ) = Result.bind in
        let* () =
          if readable then Vfs.may_access m task ~path:abs inode Mode.R else Ok ()
        in
        let* () =
          if writable then Vfs.may_access m task ~path:abs inode Mode.W else Ok ()
        in
        finish inode)
  | Error Errno.ENOENT -> (
      match creat_flags flags with
      | None -> Error Errno.ENOENT
      | Some mode -> (
          match Vfs.resolve_parent m task abs with
          | Error _ as e -> e |> Result.map (fun _ -> 0)
          | Ok (parent, name) -> (
              match Vfs.may_access m task ~path:abs parent Mode.W with
              | Error _ as e -> e |> Result.map (fun _ -> 0)
              | Ok () ->
                  let cred = task.cred in
                  let inode =
                    Inode.alloc m ~kind:Reg ~mode ~uid:cred.fsuid ~gid:cred.egid
                  in
                  Inode.add_child parent name inode;
                  post_fs_event m abs Ev_create;
                  finish inode)))
  | Error _ as e -> e |> Result.map (fun _ -> 0)

let close m task fd =
  trap ();
  match find_fd task fd with
  | None -> Error Errno.EBADF
  | Some file ->
      (match file.fobj with
      | F_socket sock -> Netstack.close_socket m sock
      | F_pipe { pipe; end_role } -> (
          match end_role with
          | `Read -> pipe.read_open <- false
          | `Write -> pipe.write_open <- false)
      | F_inode _ -> ());
      drop_fd task fd;
      Ok ()

let read m task fd maxlen =
  trap ();
  match find_fd task fd with
  | None -> Error Errno.EBADF
  | Some file -> (
      if not file.readable then Error Errno.EBADF
      else
        match file.fobj with
        | F_inode inode -> (
            let contents =
              match file.snapshot with
              | Some s -> s
              | None -> Inode.read_all inode
            in
            let len = String.length contents in
            if file.pos >= len then Ok ""
            else
              let n = min maxlen (len - file.pos) in
              let chunk = String.sub contents file.pos n in
              file.pos <- file.pos + n;
              Ok chunk)
        | F_pipe { pipe; end_role = `Read } ->
            let available = Buffer.length pipe.pipe_buf in
            if available = 0 then
              if pipe.write_open then Error Errno.EAGAIN else Ok ""
            else
              let n = min maxlen available in
              let chunk = Buffer.sub pipe.pipe_buf 0 n in
              let rest = Buffer.sub pipe.pipe_buf n (available - n) in
              Buffer.clear pipe.pipe_buf;
              Buffer.add_string pipe.pipe_buf rest;
              Ok chunk
        | F_pipe { end_role = `Write; _ } -> Error Errno.EBADF
        | F_socket sock -> Netstack.recv_stream m task sock maxlen)

let write m task fd data =
  trap ();
  match find_fd task fd with
  | None -> Error Errno.EBADF
  | Some file -> (
      if not file.writable then Error Errno.EBADF
      else
        match file.fobj with
        | F_inode inode -> (
            match inode.vnode with
            | Some v -> (
                match v.v_write m task data with
                | Ok () -> Ok (String.length data)
                | Error _ as e -> (match e with Error err -> Error err | Ok _ -> assert false))
            | None ->
                if file.append || file.pos >= Inode.size inode then
                  Inode.append_data inode data
                else begin
                  (* Overwrite at position. *)
                  let current = Inode.read_all inode in
                  let before = String.sub current 0 file.pos in
                  let after_start = min (String.length current) (file.pos + String.length data) in
                  let after = String.sub current after_start (String.length current - after_start) in
                  Inode.write_all inode (before ^ data ^ after)
                end;
                file.pos <- file.pos + String.length data;
                inode.mtime <- m.now;
                post_fs_event m file.opened_path Ev_modify;
                Ok (String.length data))
        | F_pipe { pipe; end_role = `Write } ->
            if not pipe.read_open then Error Errno.EPIPE
            else (
              Buffer.add_string pipe.pipe_buf data;
              Ok (String.length data))
        | F_pipe { end_role = `Read; _ } -> Error Errno.EBADF
        | F_socket sock -> Netstack.send_stream m task sock data)

let dup _m task fd =
  trap ();
  match find_fd task fd with
  | None -> Error Errno.EBADF
  | Some file -> Ok (alloc_fd task file)

let set_cloexec task fd value =
  match find_fd task fd with
  | None -> Error Errno.EBADF
  | Some file ->
      file.cloexec <- value;
      Ok ()

let stat_of_inode inode =
  { st_ino = inode.ino; st_kind = inode.kind; st_mode = inode.mode;
    st_uid = inode.iuid; st_gid = inode.igid; st_size = Inode.size inode }

let stat m task path =
  trap ();
  match Vfs.resolve m task path with
  | Ok inode -> Ok (stat_of_inode inode)
  | Error _ as e -> (match e with Error err -> Error err | Ok _ -> assert false)

let lstat m task path =
  trap ();
  match Vfs.resolve_no_follow m task path with
  | Ok inode -> Ok (stat_of_inode inode)
  | Error _ as e -> (match e with Error err -> Error err | Ok _ -> assert false)

let access m task path accesses =
  trap ();
  match Vfs.resolve m task path with
  | Error _ as e -> (match e with Error err -> Error err | Ok _ -> assert false)
  | Ok inode -> Syntax.iter_result (fun a -> Vfs.may_access m task ~path inode a) accesses

let chmod m task path mode =
  trap ();
  let ( let* ) = Result.bind in
  let* inode = Vfs.resolve m task path in
  if task.cred.fsuid = inode.iuid || m.security.capable m task Cap.CAP_FOWNER then (
    inode.mode <- mode land 0o7777;
    post_fs_event m (Vfs.normalize ~cwd:task.cwd path) Ev_modify;
    Ok ())
  else Error Errno.EPERM

let chown m task path new_uid new_gid =
  trap ();
  let ( let* ) = Result.bind in
  let* inode = Vfs.resolve m task path in
  if m.security.capable m task Cap.CAP_CHOWN then (
    inode.iuid <- new_uid;
    inode.igid <- new_gid;
    (* Linux clears setuid/setgid (and file capabilities) on chown. *)
    inode.mode <- inode.mode land lnot (Mode.s_isuid lor Mode.s_isgid);
    inode.fcaps <- None;
    post_fs_event m (Vfs.normalize ~cwd:task.cwd path) Ev_modify;
    Ok ())
  else Error Errno.EPERM

let mkdir m task path mode =
  trap ();
  let abs = Vfs.normalize ~cwd:task.cwd path in
  match Vfs.resolve m task abs with
  | Ok _ -> Error Errno.EEXIST
  | Error Errno.ENOENT -> (
      let ( let* ) = Result.bind in
      let* parent, name = Vfs.resolve_parent m task abs in
      let* () = Vfs.may_access m task ~path:abs parent Mode.W in
      let cred = task.cred in
      let dir = Inode.alloc m ~kind:Dir ~mode ~uid:cred.fsuid ~gid:cred.egid in
      Inode.add_child parent name dir;
      post_fs_event m abs Ev_create;
      Ok ())
  | Error _ as e -> e |> Result.map (fun _ -> ())

let unlink m task path =
  trap ();
  let abs = Vfs.normalize ~cwd:task.cwd path in
  let ( let* ) = Result.bind in
  let* parent, name = Vfs.resolve_parent m task abs in
  let* target = Vfs.resolve_no_follow m task abs in
  if target.kind = Dir then Error Errno.EISDIR
  else
    let* () = Vfs.may_access m task ~path:abs parent Mode.W in
    (* Sticky-directory rule: only the file owner, directory owner or a
       CAP_FOWNER holder may remove. *)
    if Mode.has_sticky parent.mode
       && task.cred.fsuid <> target.iuid
       && task.cred.fsuid <> parent.iuid
       && not (m.security.capable m task Cap.CAP_FOWNER)
    then Error Errno.EPERM
    else (
      ignore (Inode.remove_child parent name);
      post_fs_event m abs Ev_delete;
      Ok ())

let rename m task src dst =
  trap ();
  let src_abs = Vfs.normalize ~cwd:task.cwd src in
  let dst_abs = Vfs.normalize ~cwd:task.cwd dst in
  let ( let* ) = Result.bind in
  let* src_parent, src_name = Vfs.resolve_parent m task src_abs in
  let* dst_parent, dst_name = Vfs.resolve_parent m task dst_abs in
  let* inode = Vfs.resolve_no_follow m task src_abs in
  let* () = Vfs.may_access m task ~path:src_abs src_parent Mode.W in
  let* () = Vfs.may_access m task ~path:dst_abs dst_parent Mode.W in
  ignore (Inode.remove_child src_parent src_name);
  (match Inode.lookup_child dst_parent dst_name with
  | Some _ -> ignore (Inode.remove_child dst_parent dst_name)
  | None -> ());
  Inode.add_child dst_parent dst_name inode;
  post_fs_event m src_abs Ev_delete;
  post_fs_event m dst_abs Ev_create;
  Ok ()

let symlink m task ~target ~linkpath =
  trap ();
  let abs = Vfs.normalize ~cwd:task.cwd linkpath in
  match Vfs.resolve_no_follow m task abs with
  | Ok _ -> Error Errno.EEXIST
  | Error Errno.ENOENT -> (
      let ( let* ) = Result.bind in
      let* parent, name = Vfs.resolve_parent m task abs in
      let* () = Vfs.may_access m task ~path:abs parent Mode.W in
      let cred = task.cred in
      let link =
        Inode.alloc m ~kind:(Symlink target) ~mode:0o777 ~uid:cred.fsuid
          ~gid:cred.egid
      in
      Inode.add_child parent name link;
      post_fs_event m abs Ev_create;
      Ok ())
  | Error _ as e -> e |> Result.map (fun _ -> ())

let readdir m task path =
  trap ();
  let ( let* ) = Result.bind in
  let* inode = Vfs.resolve m task path in
  if inode.kind <> Dir then Error Errno.ENOTDIR
  else
    let* () = Vfs.may_access m task ~path inode Mode.R in
    Ok (Inode.child_names inode)

let chdir m task path =
  trap ();
  let abs = Vfs.normalize ~cwd:task.cwd path in
  let ( let* ) = Result.bind in
  let* inode = Vfs.resolve m task abs in
  if inode.kind <> Dir then Error Errno.ENOTDIR
  else (
    task.cwd <- abs;
    Ok ())

let read_file m task path =
  let ( let* ) = Result.bind in
  let* fd = open_ m task path [ O_RDONLY ] in
  let buf = Buffer.create 256 in
  let rec loop () =
    match read m task fd 4096 with
    | Ok "" -> Ok ()
    | Ok chunk ->
        Buffer.add_string buf chunk;
        loop ()
    | Error _ as e -> e
  in
  let result = loop () in
  ignore (close m task fd);
  Result.map (fun () -> Buffer.contents buf) result

let write_file m task path contents =
  let ( let* ) = Result.bind in
  let* fd = open_ m task path [ O_WRONLY; O_CREAT 0o644; O_TRUNC ] in
  let result = write m task fd contents in
  ignore (close m task fd);
  Result.map (fun _ -> ()) result

let append_file m task path contents =
  let ( let* ) = Result.bind in
  let* fd = open_ m task path [ O_WRONLY; O_APPEND ] in
  let result = write m task fd contents in
  ignore (close m task fd);
  Result.map (fun _ -> ()) result

(* --- pipes ---------------------------------------------------------- *)

let pipe _m task =
  trap ();
  let p = { pipe_buf = Buffer.create 64; read_open = true; write_open = true } in
  let rfile =
    { fobj = F_pipe { pipe = p; end_role = `Read }; pos = 0; readable = true;
      writable = false; append = false; cloexec = false; opened_path = "pipe:";
      snapshot = None }
  in
  let wfile =
    { fobj = F_pipe { pipe = p; end_role = `Write }; pos = 0; readable = false;
      writable = true; append = false; cloexec = false; opened_path = "pipe:";
      snapshot = None }
  in
  let rfd = alloc_fd task rfile in
  let wfd = alloc_fd task wfile in
  Ok (rfd, wfd)

(* --- mounts --------------------------------------------------------- *)

let build_tree_from_media m (media : media) =
  let root = Inode.alloc m ~kind:Dir ~mode:0o755 ~uid:0 ~gid:0 in
  List.iter
    (fun (path, contents) ->
      let components = Vfs.split_path path in
      let rec place dir = function
        | [] -> ()
        | [ name ] ->
            let f = Inode.alloc m ~kind:Reg ~mode:0o644 ~uid:0 ~gid:0 in
            Inode.write_all f contents;
            Inode.add_child dir name f
        | name :: rest ->
            let sub =
              match Inode.lookup_child dir name with
              | Some d -> d
              | None ->
                  let d = Inode.alloc m ~kind:Dir ~mode:0o755 ~uid:0 ~gid:0 in
                  Inode.add_child dir name d;
                  d
            in
            place sub rest
      in
      place root components)
    media.media_files;
  root

(* A mount inside a private mount namespace: permitted by the task's in-ns
   capabilities (when it owns a user namespace), restricted to synthetic
   filesystems, and visible only through the task's private mount list. *)
let mount_in_private_ns m task private_mounts ~source ~target ~fstype ~flags =
  if not task.userns then Error Errno.EPERM
  else
    match fstype with
    | "tmpfs" | "proc" | "sysfs" | "fuse" ->
        let target_abs = Vfs.normalize ~cwd:task.cwd target in
        let ( let* ) = Result.bind in
        let* covered = Vfs.resolve m task target_abs in
        if covered.kind <> Dir then Error Errno.ENOTDIR
        else if
          List.exists (fun mnt -> mnt.mnt_target = target_abs) private_mounts
        then Error Errno.EBUSY
        else begin
          let tree_root = Inode.alloc m ~kind:Dir ~mode:0o755 ~uid:task.cred.fsuid ~gid:task.cred.egid in
          task.mntns <-
            Some
              (private_mounts
              @ [ { mnt_source = source; mnt_target = target_abs;
                    mnt_fstype = fstype; mnt_flags = flags;
                    mnt_root = tree_root; mnt_covered = covered;
                    mnt_by = task.cred.ruid } ]);
          Ok ()
        end
    | _ -> Error Errno.EPERM

let mount m task ~source ~target ~fstype ~flags =
  trap ();
  match task.mntns with
  | Some private_mounts ->
      mount_in_private_ns m task private_mounts ~source ~target ~fstype ~flags
  | None ->
  match m.security.sb_mount m task ~source ~target ~fstype ~flags with
  | Error _ as e -> e
  | Ok () -> (
      let target_abs = Vfs.normalize ~cwd:task.cwd target in
      let ( let* ) = Result.bind in
      let* covered = Vfs.resolve m task target_abs in
      if covered.kind <> Dir then Error Errno.ENOTDIR
      else if List.exists (fun mnt -> mnt.mnt_target = target_abs) m.mounts then
        Error Errno.EBUSY
      else
        let* tree_root =
          match fstype with
          | "tmpfs" | "proc" | "sysfs" | "fuse" ->
              Ok (Inode.alloc m ~kind:Dir ~mode:0o755 ~uid:0 ~gid:0)
          | "nfs" | "cifs" -> (
              (* source is "<server>:/<export>" (nfs) or "//server/share"
                 (cifs); the share's listing comes from the remote host. *)
              let server_s, export =
                if fstype = "cifs" && String.length source > 2
                   && String.sub source 0 2 = "//"
                then
                  let rest = String.sub source 2 (String.length source - 2) in
                  match String.index_opt rest '/' with
                  | Some i ->
                      ( String.sub rest 0 i,
                        String.sub rest i (String.length rest - i) )
                  | None -> (rest, "/")
                else
                  match String.index_opt source ':' with
                  | Some i ->
                      ( String.sub source 0 i,
                        String.sub source (i + 1) (String.length source - i - 1) )
                  | None -> (source, "/")
              in
              match Ipaddr.of_string server_s with
              | None -> Error Errno.EHOSTUNREACH
              | Some addr -> (
                  match
                    List.find_opt
                      (fun rh -> Ipaddr.equal rh.rh_addr addr)
                      m.remote_hosts
                  with
                  | None -> Error Errno.EHOSTUNREACH
                  | Some rh -> (
                      match List.assoc_opt export rh.rh_exports with
                      | Some files ->
                          Ok
                            (build_tree_from_media m
                               { media_fstype = fstype; media_files = files })
                      | None -> Error Errno.ENOENT)))
          | _ -> (
              let src_abs = Vfs.normalize ~cwd:task.cwd source in
              match Hashtbl.find_opt m.devices src_abs with
              | Some (Dev_block { media = Some media }) ->
                  if media.media_fstype = fstype || fstype = "auto" then
                    Ok (build_tree_from_media m media)
                  else Error Errno.EINVAL
              | Some (Dev_block { media = None }) -> Error Errno.ENXIO
              | Some _ -> Error Errno.ENODEV
              | None -> Error Errno.ENODEV)
        in
        m.mounts <-
          m.mounts
          @ [ { mnt_source = source; mnt_target = target_abs; mnt_fstype = fstype;
                mnt_flags = flags; mnt_root = tree_root; mnt_covered = covered;
                mnt_by = task.cred.ruid } ];
        log_dmesg m "mount: %s on %s type %s (uid %d)" source target_abs fstype
          task.cred.ruid;
        Ok ())

let umount m task ~target =
  trap ();
  match task.mntns with
  | Some private_mounts ->
      let target_abs = Vfs.normalize ~cwd:task.cwd target in
      if not task.userns then Error Errno.EPERM
      else if List.exists (fun mnt -> mnt.mnt_target = target_abs) private_mounts
      then begin
        task.mntns <-
          Some (List.filter (fun mnt -> mnt.mnt_target <> target_abs) private_mounts);
        Ok ()
      end
      else Error Errno.EINVAL
  | None ->
  match m.security.sb_umount m task ~target with
  | Error _ as e -> e
  | Ok () ->
      let target_abs = Vfs.normalize ~cwd:task.cwd target in
      if List.exists (fun mnt -> mnt.mnt_target = target_abs) m.mounts then (
        m.mounts <- List.filter (fun mnt -> mnt.mnt_target <> target_abs) m.mounts;
        log_dmesg m "umount: %s (uid %d)" target_abs task.cred.ruid;
        Ok ())
      else Error Errno.EINVAL

(* --- sockets -------------------------------------------------------- *)

let socket m task domain stype proto =
  trap ();
  let ( let* ) = Result.bind in
  let* sock = Netstack.create_socket m task domain stype proto in
  let file =
    { fobj = F_socket sock; pos = 0; readable = true; writable = true;
      append = false; cloexec = false; opened_path = "socket:"; snapshot = None }
  in
  Ok (alloc_fd task file)

let with_socket task fd f =
  match find_fd task fd with
  | Some { fobj = F_socket sock; _ } -> f sock
  | Some _ -> Error Errno.ENOTTY
  | None -> Error Errno.EBADF

let bind m task fd addr port =
  trap ();
  with_socket task fd (fun sock -> Netstack.bind_socket m task sock addr port)

let listen m task fd =
  trap ();
  with_socket task fd (fun sock -> Netstack.listen_socket m task sock)

let connect m task fd addr port =
  trap ();
  with_socket task fd (fun sock ->
      match Netstack.connect_socket m task sock addr port with
      | Ok _ -> Ok ()
      | Error _ as e -> (match e with Error err -> Error err | Ok _ -> assert false))

let sendto m task fd addr port data =
  trap ();
  with_socket task fd (fun sock -> Netstack.sendto m task sock addr port data)

let recvfrom m task fd =
  trap ();
  with_socket task fd (fun sock -> Netstack.recvfrom m task sock)

let send m task fd data =
  trap ();
  with_socket task fd (fun sock -> Netstack.send_stream m task sock data)

let recv m task fd maxlen =
  trap ();
  with_socket task fd (fun sock -> Netstack.recv_stream m task sock maxlen)

let socketpair m task =
  trap ();
  let ( let* ) = Result.bind in
  let* a, b = Netstack.socketpair m task in
  let mk sock =
    { fobj = F_socket sock; pos = 0; readable = true; writable = true;
      append = false; cloexec = false; opened_path = "socket:"; snapshot = None }
  in
  Ok (alloc_fd task (mk a), alloc_fd task (mk b))

let setsockopt_ttl _m task fd ttl =
  trap ();
  if ttl < 1 || ttl > 255 then Error Errno.EINVAL
  else
    match find_fd task fd with
    | Some { fobj = F_socket sock; _ } ->
        sock.sttl <- ttl;
        Ok ()
    | Some _ -> Error Errno.ENOTTY
    | None -> Error Errno.EBADF

(* --- ioctl ---------------------------------------------------------- *)

let ioctl m task fd req =
  trap ();
  match find_fd task fd with
  | None -> Error Errno.EBADF
  | Some file -> (
      match m.security.file_ioctl m task req with
      | Error _ as e -> (match e with Error err -> Error err | Ok _ -> assert false)
      | Ok () -> (
          match req with
          | Ioctl_route_add entry -> (
              match file.fobj with
              | F_socket _ ->
                  Protego_net.Route.add m.routes entry;
                  log_dmesg m "route add %s (uid %d)"
                    (Protego_net.Ipaddr.Cidr.to_string entry.dest) task.cred.ruid;
                  Ok ""
              | F_inode _ | F_pipe _ -> Error Errno.ENOTTY)
          | Ioctl_route_del dest -> (
              match file.fobj with
              | F_socket _ ->
                  if Protego_net.Route.remove m.routes ~dest then Ok ""
                  else Error Errno.EINVAL
              | F_inode _ | F_pipe _ -> Error Errno.ENOTTY)
          | Ioctl_modem_config { ioctl_dev; ppp_opt } -> (
              match Hashtbl.find_opt m.devices ioctl_dev with
              | Some (Dev_serial _) -> (
                  match
                    List.find_opt
                      (fun (l : Protego_net.Ppp.t) -> l.serial_device = ioctl_dev)
                      m.ppp_links
                  with
                  | Some link ->
                      link.options <- ppp_opt :: link.options;
                      Ok ""
                  | None -> Ok "")
              | Some _ -> Error Errno.ENOTTY
              | None -> Error Errno.ENXIO)
          | Ioctl_dm_table_status { dm_dev } -> (
              match Hashtbl.find_opt m.devices dm_dev with
              | Some (Dev_dm meta) ->
                  (* The over-broad legacy interface: one ioctl discloses the
                     cipher, the key, and the underlying device (§4.1). *)
                  Ok
                    (Printf.sprintf "0 204800 crypt %s %s 0 %s 0" meta.dm_cipher
                       meta.dm_key meta.dm_underlying)
              | Some _ -> Error Errno.ENOTTY
              | None -> Error Errno.ENXIO)
          | Ioctl_video_modeset { video_mode } -> (
              match Hashtbl.find_opt m.devices "/dev/dri/card0" with
              | Some (Dev_video v) ->
                  v.video_mode <- video_mode;
                  Ok ""
              | Some _ | None -> Error Errno.ENXIO)
          | Ioctl_tty_getattr -> Ok "rows 24; cols 80"))

(* --- processes ------------------------------------------------------ *)

let fork m task =
  trap ();
  let child =
    Machine.spawn_task m ~parent:task.tpid ?tty:task.tty
      ~cred:(Cred.copy task.cred) ~cwd:task.cwd ~env:task.env ()
  in
  child.fds <- List.map (fun (fd, f) -> (fd, f)) task.fds;
  child.next_fd <- task.next_fd;
  child.exe_path <- task.exe_path;
  child.sec.pending <- task.sec.pending;
  child.sec.aa_profile <- task.sec.aa_profile;
  child.sec.phase <- task.sec.phase;
  child.netns <- task.netns;
  child.userns <- task.userns;
  child.mntns <- task.mntns;
  child

let env_whitelist = [ "PATH"; "TERM"; "LANG"; "DISPLAY" ]

let scrub_env env = List.filter (fun (k, _) -> List.mem k env_whitelist) env

let nosuid_mount m task path =
  (* Is the binary under a mount with Mf_nosuid? Check path prefixes. *)
  let abs = Vfs.normalize ~cwd:task.cwd path in
  List.exists
    (fun mnt ->
      List.mem Mf_nosuid mnt.mnt_flags
      && (String.length abs >= String.length mnt.mnt_target
          && String.sub abs 0 (String.length mnt.mnt_target) = mnt.mnt_target))
    m.mounts

let execve m task path argv env =
  trap ();
  let abs = Vfs.normalize ~cwd:task.cwd path in
  let ( let* ) = Result.bind in
  let* inode = Vfs.resolve m task abs in
  if inode.kind <> Reg then Error Errno.EACCES
  else
    let* () = Vfs.may_access m task ~path:abs inode Mode.X in
    (* The LSM bprm hook runs before credentials change; under Protego it
       resolves a pending setuid-on-exec (§4.3), applying or refusing it. *)
    let* () = m.security.bprm_check m task ~path:abs ~argv inode in
    let pending_applied =
      match task.sec.pending with
      | Some p ->
          apply_full_setuid task p.ps_target;
          if not p.ps_keep_env then task.env <- scrub_env task.env;
          task.sec.pending <- None;
          true
      | None -> false
    in
    (* Stock setuid-bit handling, unless the mount is nosuid. *)
    if (not pending_applied) && Mode.has_setuid inode.mode
       && not (nosuid_mount m task abs)
    then begin
      let c = task.cred in
      c.euid <- inode.iuid;
      c.fsuid <- inode.iuid;
      c.suid <- inode.iuid;
      Cred.recompute_caps_for_uid_change c
    end;
    if Mode.has_setgid inode.mode && not (nosuid_mount m task abs) then begin
      let c = task.cred in
      c.egid <- inode.igid;
      c.sgid <- inode.igid
    end;
    (* File capabilities (setcap, §3.1): grant the annotated capabilities
       without any uid change — unless the mount is nosuid, which disables
       them exactly as it does the setuid bit. *)
    (match inode.fcaps with
    | Some caps when not (nosuid_mount m task abs) ->
        task.cred.caps <- Cap.Set.union task.cred.caps caps
    | Some _ | None -> ());
    (* A new program image starts a fresh lifecycle: this is the only
       point the phase returns to [Setup] (DESIGN.md §11). *)
    task.sec.phase <- Phase.initial;
    (* Close close-on-exec descriptors; refresh environment. *)
    task.fds <- List.filter (fun (_, f) -> not f.cloexec) task.fds;
    if env <> [] then
      task.env <- (if pending_applied then scrub_env env else env);
    task.exe_path <- abs;
    let* prog =
      match inode.program with
      | Some key -> (
          match Hashtbl.find_opt m.programs key with
          | Some p -> Ok p
          | None -> Error Errno.ENOEXEC)
      | None -> Error Errno.ENOEXEC
    in
    prog m task (if argv = [] then [ abs ] else argv)

let waitpid m _task child_pid =
  trap ();
  match find_task m child_pid with
  | None -> Error Errno.ECHILD
  | Some child -> (
      match child.exit_code with
      | Some code ->
          Machine.remove_task m child;
          Ok code
      | None -> Error Errno.EAGAIN)

let exit m task code =
  task.exit_code <- Some code;
  ignore m

(* --- file capabilities ------------------------------------------------ *)

let setcap m task path caps =
  trap ();
  if not (m.security.capable m task Cap.CAP_SETFCAP) then Error Errno.EPERM
  else
    let ( let* ) = Result.bind in
    let* inode = Vfs.resolve m task path in
    if inode.kind <> Reg then Error Errno.EINVAL
    else begin
      inode.fcaps <- caps;
      post_fs_event m (Vfs.normalize ~cwd:task.cwd path) Ev_modify;
      Ok ()
    end

let getcap m task path =
  trap ();
  let ( let* ) = Result.bind in
  let* inode = Vfs.resolve m task path in
  Ok inode.fcaps

(* --- namespaces ------------------------------------------------------ *)

type ns_flag = Ns_user | Ns_net | Ns_mount

(* Modelled on CLONE_NEWUSER/NEWNET/NEWNS.  Stock Linux 3.6 (the paper's
   base) demands CAP_SYS_ADMIN; kernels >= 3.8 additionally allow
   unprivileged user namespaces (machine.unpriv_userns), within which the
   task holds the in-namespace capabilities (§4.6, §6). *)
let unshare m task flags =
  trap ();
  if flags = [] then Error Errno.EINVAL
  else
    let wants_user = List.mem Ns_user flags in
    let privileged = m.security.capable m task Cap.CAP_SYS_ADMIN in
    if wants_user && not (privileged || m.unpriv_userns) then Error Errno.EPERM
    else
      let in_userns = task.userns || wants_user in
      if
        (List.mem Ns_net flags || List.mem Ns_mount flags)
        && not (privileged || in_userns)
      then Error Errno.EPERM
      else begin
        if wants_user then task.userns <- true;
        if List.mem Ns_net flags then begin
          task.netns <- m.next_netns;
          m.next_netns <- m.next_netns + 1;
          log_dmesg m "ns: pid %d entered netns %d" task.tpid task.netns
        end;
        if List.mem Ns_mount flags then task.mntns <- Some (Vfs.mounts_of m task);
        Ok ()
      end

(* --- signals -------------------------------------------------------- *)

let sigaction task signum handler =
  trap ();
  match handler with
  | Some h ->
      task.sig_handlers <-
        (signum, h) :: List.remove_assoc signum task.sig_handlers
  | None -> task.sig_handlers <- List.remove_assoc signum task.sig_handlers

let kill m task target_pid signum =
  trap ();
  match find_task m target_pid with
  | None -> Error Errno.ESRCH
  | Some target ->
      let sender = task.cred in
      if
        sender.euid = 0 || sender.euid = target.cred.ruid
        || sender.ruid = target.cred.ruid
        || m.security.capable m task Cap.CAP_KILL
      then (
        (match List.assoc_opt signum target.sig_handlers with
        | Some handler -> handler ()
        | None -> ());
        Ok ())
      else Error Errno.EPERM

(* --- environment ---------------------------------------------------- *)

let getenv task name = List.assoc_opt name task.env

let setenv task name value =
  task.env <- (name, value) :: List.remove_assoc name task.env

(* Silence unused-module warnings for Ipaddr alias. *)
let _ = Ipaddr.localhost
