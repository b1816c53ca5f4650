open Protego_base
open Ktypes

let split_path path =
  String.split_on_char '/' path |> List.filter (fun c -> c <> "" && c <> ".")

(* Canonical: absolute, with no empty, "." or ".." component and no
   trailing slash ("/" itself is canonical).  One scan that allocates
   nothing; a component that only starts with dots (".b", "..b") is an
   ordinary one. *)
let is_canonical path =
  let n = String.length path in
  n > 0
  && String.unsafe_get path 0 = '/'
  && (n = 1
     || String.unsafe_get path (n - 1) <> '/'
        &&
        let ok = ref true and i = ref 0 in
        (* [!i] is a '/' that is not the last byte: a component follows *)
        while !ok && !i < n do
          let c = !i + 1 in
          let j = ref c in
          while !j < n && String.unsafe_get path !j <> '/' do incr j done;
          let len = !j - c in
          if
            len = 0
            || String.unsafe_get path c = '.'
               && (len = 1 || (len = 2 && String.unsafe_get path (c + 1) = '.'))
          then ok := false;
          i := !j
        done;
        !ok)

let normalize ~cwd path =
  if is_canonical path then path
  else
    let absolute =
      if String.length path > 0 && path.[0] = '/' then path
      else cwd ^ "/" ^ path
    in
    let rec squeeze acc = function
      | [] -> List.rev acc
      | ".." :: rest -> (
          match acc with [] -> squeeze [] rest | _ :: tl -> squeeze tl rest)
      | c :: rest -> squeeze (c :: acc) rest
    in
    "/" ^ String.concat "/" (squeeze [] (split_path absolute))

let dac_permits (cred : cred) inode access =
  let who =
    if cred.fsuid = inode.iuid then `Owner
    else if cred.egid = inode.igid || List.mem inode.igid cred.groups then `Group
    else `Other
  in
  Mode.permits inode.mode ~who access

let capable m task cap = m.security.capable m task cap

let dac_or_capable m task inode access =
  if dac_permits task.cred inode access then true
  else
    match access with
    | Mode.R | Mode.W ->
        capable m task Cap.CAP_DAC_OVERRIDE
        || (access = Mode.R && capable m task Cap.CAP_DAC_READ_SEARCH)
    | Mode.X ->
        (* CAP_DAC_OVERRIDE grants execute only if some x bit is set, or on
           directories (search). *)
        (inode.kind = Dir || inode.mode land 0o111 <> 0)
        && capable m task Cap.CAP_DAC_OVERRIDE

let may_access m task ~path inode access =
  if not (dac_or_capable m task inode access) then Error Errno.EACCES
  else m.security.inode_permission m task ~path inode access

(* A task in a private mount namespace sees its own (copied) mount list. *)
let mounts_of m task =
  match task.mntns with Some mounts -> mounts | None -> m.mounts

let rec mounted_at mounts target =
  match mounts with
  | [] -> mounts
  | mnt :: rest ->
      if String.equal mnt.mnt_target target then mounts
      else mounted_at rest target

let rec unmount mounts target =
  match mounts with
  | [] -> mounts
  | mnt :: rest ->
      if String.equal mnt.mnt_target target then rest
      else
        let kept = unmount rest target in
        if kept == rest then mounts else mnt :: kept

let mount_at_in mounts inode =
  let rec top best = function
    | [] -> best
    | mnt :: rest ->
        if Inode.same mnt.mnt_covered inode then top (Some mnt) rest else top best rest
  in
  (* Later entries are more recent mounts; the last one covering wins. *)
  top None mounts

let redirect_in mounts inode =
  let rec follow inode depth =
    if depth > 16 then inode
    else
      match mount_at_in mounts inode with
      | Some mnt -> follow mnt.mnt_root (depth + 1)
      | None -> inode
  in
  follow inode 0

let redirect_mount m inode = redirect_in m.mounts inode

(* Walk components from the root.  Carries the (lexical) directory path for
   symlink restarts and LSM hooks. *)
let resolve_gen m task ~follow_last path =
  let mounts = mounts_of m task in
  let max_links = 40 in
  let rec walk dir dir_path components links_left ~follow_last =
    if links_left < 0 then Error Errno.ELOOP
    else
      match components with
      | [] -> Ok dir
      | name :: rest -> (
          if dir.kind <> Dir then Error Errno.ENOTDIR
          else if not (dac_or_capable m task dir Mode.X) then Error Errno.EACCES
          else
            let child =
              if name = ".." then
                (* Lexical parent: re-resolve the parent path. *)
                None
              else Inode.lookup_child dir name
            in
            if name = ".." then
              let parent_path = normalize ~cwd:"/" (dir_path ^ "/..") in
              restart parent_path rest links_left ~follow_last
            else
              match child with
              | None -> Error Errno.ENOENT
              | Some inode -> (
                  let inode = redirect_in mounts inode in
                  let here = dir_path ^ (if dir_path = "/" then "" else "/") ^ name in
                  match inode.kind with
                  | Symlink target when rest <> [] || follow_last ->
                      let base =
                        if String.length target > 0 && target.[0] = '/' then target
                        else dir_path ^ "/" ^ target
                      in
                      let new_path =
                        normalize ~cwd:"/" (base ^ "/" ^ String.concat "/" rest)
                      in
                      restart new_path [] (links_left - 1) ~follow_last
                  | Symlink _ | Reg | Dir | Chardev _ | Blockdev _ | Fifo ->
                      if rest = [] then Ok inode
                      else walk inode here rest links_left ~follow_last))
  and restart path extra links_left ~follow_last =
    let components = split_path path @ extra in
    let root = redirect_in mounts m.root in
    walk root "/" components links_left ~follow_last
  in
  let abs = if String.length path > 0 && path.[0] = '/' then path else task.cwd ^ "/" ^ path in
  let root = redirect_in mounts m.root in
  match split_path abs with
  | [] -> Ok root
  | components -> walk root "/" components max_links ~follow_last

let resolve m task path = resolve_gen m task ~follow_last:true path
let resolve_no_follow m task path = resolve_gen m task ~follow_last:false path

(* [abs] is canonical, so its last component follows its last slash and
   its parent is what precedes it. *)
let resolve_parent m task path =
  let abs = normalize ~cwd:task.cwd path in
  let slash = String.rindex abs '/' in
  if slash = String.length abs - 1 then Error Errno.EINVAL (* "/" *)
  else
    let name = String.sub abs (slash + 1) (String.length abs - slash - 1) in
    let parent_path = if slash = 0 then "/" else String.sub abs 0 slash in
    match resolve m task parent_path with
    | Ok dir when dir.kind = Dir -> Ok (dir, name)
    | Ok _ -> Error Errno.ENOTDIR
    | Error _ as e -> e

let path_of_inode m target =
  let rec search dir path =
    if Inode.same dir target then Some (if path = "" then "/" else path)
    else
      List.fold_left
        (fun acc (name, child) ->
          match acc with
          | Some _ -> acc
          | None ->
              let child = redirect_mount m child in
              let child_path = path ^ "/" ^ name in
              if Inode.same child target then Some child_path
              else if child.kind = Dir then search child child_path
              else None)
        None dir.children
  in
  search (redirect_mount m m.root) ""
