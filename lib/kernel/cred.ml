open Protego_base
open Ktypes

let root_uid = 0

let make ?(groups = []) ?caps ~uid ~gid () =
  let caps =
    match caps with
    | Some c -> c
    | None -> if uid = root_uid then Cap.Set.full else Cap.Set.empty
  in
  { ruid = uid; euid = uid; suid = uid; fsuid = uid;
    rgid = gid; egid = gid; sgid = gid; groups; caps; last_auth = None }

let copy c =
  { ruid = c.ruid; euid = c.euid; suid = c.suid; fsuid = c.fsuid;
    rgid = c.rgid; egid = c.egid; sgid = c.sgid; groups = c.groups;
    caps = c.caps; last_auth = c.last_auth }

let has_cap c cap = Cap.Set.mem cap c.caps
let is_root c = c.euid = root_uid
let in_group c gid = c.egid = gid || List.mem gid c.groups

(* Linux's rule for processes without file capabilities: the effective set
   follows the effective uid — full when euid is 0, cleared when it leaves 0
   (the classic seteuid bracket drops privilege *temporarily*: a saved uid
   of 0 lets the process return and regain the set). *)
let recompute_caps_for_uid_change c =
  if c.euid = root_uid then c.caps <- Cap.Set.full else c.caps <- Cap.Set.empty

let pp ppf c =
  Format.fprintf ppf "uid=%d euid=%d suid=%d fsuid=%d gid=%d egid=%d caps=%d"
    c.ruid c.euid c.suid c.fsuid c.rgid c.egid (Cap.Set.cardinal c.caps)
