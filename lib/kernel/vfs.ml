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

let rec mem_gid (gid : gid) = function
  | [] -> false
  | g :: rest -> g = gid || mem_gid gid rest

let dac_permits (cred : cred) inode access =
  let who =
    if cred.fsuid = inode.iuid then `Owner
    else if cred.egid = inode.igid || mem_gid inode.igid cred.groups then `Group
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

(* The root of the last (most recent) entry of [mounts] covering
   [inode], or [best] when none does. *)
let rec covering_root mounts inode best =
  match mounts with
  | [] -> best
  | mnt :: rest ->
      covering_root rest inode
        (if Inode.same mnt.mnt_covered inode then mnt.mnt_root else best)

let rec redirect_from mounts inode depth =
  if depth > 16 then inode
  else
    let root = covering_root mounts inode inode in
    if root == inode then inode else redirect_from mounts root (depth + 1)

let redirect_in mounts inode = redirect_from mounts inode 0
let redirect_mount m inode = redirect_in m.mounts inode

(* The component scan shared by the walk and [Syscall]'s media trees:
   [next_component s i] is the first index at or after [i] where a
   component of [s] starts, past '/' separators and "." components
   ([String.length s] when none is left); [component_end s i] is the
   index just past the component starting at [i]. *)
let rec next_component s i =
  let n = String.length s in
  if i >= n then n
  else
    match String.unsafe_get s i with
    | '/' -> next_component s (i + 1)
    | '.' when i + 1 = n || String.unsafe_get s (i + 1) = '/' ->
        next_component s (i + 1)
    | _ -> i

let component_end s i =
  let n = String.length s in
  let j = ref i in
  while !j < n && String.unsafe_get s !j <> '/' do incr j done;
  !j

(* The walk reads the absolute path [s] by index: [dir] is what the
   components before [i] resolved to.  It builds no string until a
   symlink or ".." needs the lexical directory path, which is the
   walked prefix normalized (a walked ".." always restarts, so the
   prefix holds none); a restart walks [prefix ^ rest-of-s] from the
   root.  Checks, in order per component: ENOTDIR, search permission,
   then the lookup. *)
let rec walk m task mounts ~follow_last s i dir links =
  let i = next_component s i in
  let n = String.length s in
  if i >= n then Ok dir
  else
    let j = component_end s i in
    if dir.kind <> Dir then Error Errno.ENOTDIR
    else if not (dac_or_capable m task dir Mode.X) then Error Errno.EACCES
    else if j - i = 2 && String.unsafe_get s i = '.' && String.unsafe_get s (i + 1) = '.'
    then
      (* Lexical parent: the prefix through the "..", normalized. *)
      restart m task mounts ~follow_last
        (normalize ~cwd:"/" (String.sub s 0 j) ^ String.sub s j (n - j))
        links
    else
      match Inode.lookup_sub dir s ~pos:i ~len:(j - i) with
      | [] -> Error Errno.ENOENT
      | (_, child) :: _ -> (
          let inode = redirect_in mounts child in
          let last = next_component s j >= n in
          match inode.kind with
          | Symlink target when (not last) || follow_last ->
              let links = links - 1 in
              if links < 0 then Error Errno.ELOOP
              else
                let base =
                  if String.length target > 0 && target.[0] = '/' then target
                  else normalize ~cwd:"/" (String.sub s 0 i) ^ "/" ^ target
                in
                restart m task mounts ~follow_last
                  (normalize ~cwd:"/" (base ^ String.sub s j (n - j)))
                  links
          | Symlink _ | Reg | Dir | Chardev _ | Blockdev _ | Fifo ->
              if last then Ok inode
              else walk m task mounts ~follow_last s j inode links)

and restart m task mounts ~follow_last s links =
  walk m task mounts ~follow_last s 0 (redirect_in mounts m.root) links

let resolve_gen m task ~follow_last path =
  let abs =
    if String.length path > 0 && path.[0] = '/' then path
    else task.cwd ^ "/" ^ path
  in
  restart m task (mounts_of m task) ~follow_last abs 40 (* the ELOOP bound *)

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
