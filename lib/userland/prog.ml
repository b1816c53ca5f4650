open Protego_kernel
module Pwdb = Protego_policy.Pwdb

type flavor = Legacy | Protego

let out m line = Ktypes.console m "%s" line
let outf m fmt = Printf.ksprintf (fun s -> out m s) fmt

let fail m prog fmt =
  Printf.ksprintf
    (fun s ->
      out m (prog ^ ": " ^ s);
      Ok 1)
    fmt

let passwd_entries m task =
  match Syscall.read_file m task "/etc/passwd" with
  | Error _ -> []
  | Ok contents -> (
      match Pwdb.parse_passwd contents with Ok es -> es | Error _ -> [])

let group_entries m task =
  match Syscall.read_file m task "/etc/group" with
  | Error _ -> []
  | Ok contents -> (
      match Pwdb.parse_group contents with Ok es -> es | Error _ -> [])

let getpwnam m task name = Pwdb.lookup_user (passwd_entries m task) name
let getpwuid m task uid = Pwdb.lookup_uid (passwd_entries m task) uid
let getgrnam m task name = Pwdb.lookup_group (group_entries m task) name
let getgrgid m task gid = Pwdb.lookup_gid (group_entries m task) gid

let read_password m task = m.Ktypes.password_source task.Ktypes.cred.Ktypes.ruid
