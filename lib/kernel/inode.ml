open Ktypes

let alloc m ~kind ~mode ~uid ~gid =
  let ino = m.next_ino in
  m.next_ino <- m.next_ino + 1;
  { ino; kind; mode; iuid = uid; igid = gid; data = Buffer.create 16;
    children = []; nlink = 1; mtime = m.now; program = None; vnode = None;
    fcaps = None }

let lookup_child inode name = List.assoc_opt name inode.children

let add_child inode name child =
  inode.children <- inode.children @ [ (name, child) ]

let remove_child inode name =
  if List.mem_assoc name inode.children then (
    inode.children <- List.remove_assoc name inode.children;
    true)
  else false

let child_names inode = List.map fst inode.children
let read_all inode = Buffer.contents inode.data

let write_all inode s =
  Buffer.clear inode.data;
  Buffer.add_string inode.data s

let append_data inode s = Buffer.add_string inode.data s
let size inode = Buffer.length inode.data
let is_reg inode = inode.kind = Reg
let same a b = a == b
