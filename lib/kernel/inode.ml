open Ktypes

let alloc m ~kind ~mode ~uid ~gid =
  let ino = m.next_ino in
  m.next_ino <- m.next_ino + 1;
  { ino; kind; mode; iuid = uid; igid = gid; data = Buffer.create 16;
    children = []; nlink = 1; mtime = m.now; program = None; vnode = None;
    fcaps = None }

(* A directory entry's name is compared in place, byte by byte, never
   with the polymorphic [compare] that [List.assoc_opt] would run per
   entry. *)
let sub_equal name s pos len =
  String.length name = len
  &&
  let k = ref 0 in
  while !k < len && String.unsafe_get name !k = String.unsafe_get s (pos + !k) do
    incr k
  done;
  !k = len

let rec entries_from s pos len = function
  | [] -> []
  | (n, _) :: rest as entries ->
      if sub_equal n s pos len then entries else entries_from s pos len rest

let lookup_sub inode s ~pos ~len = entries_from s pos len inode.children

let lookup_child inode name =
  match entries_from name 0 (String.length name) inode.children with
  | (_, child) :: _ -> Some child
  | [] -> None

let add_child inode name child =
  inode.children <- inode.children @ [ (name, child) ]

(* Drops the first entry named [name], copying only the entries ahead of
   it; the list itself comes back when there is none. *)
let rec without name = function
  | [] -> []
  | ((n, _) as entry) :: rest as entries ->
      if String.equal n name then rest
      else
        let kept = without name rest in
        if kept == rest then entries else entry :: kept

let remove_child inode name =
  let kept = without name inode.children in
  if kept == inode.children then false
  else (
    inode.children <- kept;
    true)

let child_names inode = List.map fst inode.children
let read_all inode = Buffer.contents inode.data

let write_all inode s =
  Buffer.clear inode.data;
  Buffer.add_string inode.data s

let append_data inode s = Buffer.add_string inode.data s
let size inode = Buffer.length inode.data
let is_reg inode = inode.kind = Reg
let same a b = a == b
