open Protego_base
open Protego_kernel
open Ktypes

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let errno =
  Alcotest.testable (fun ppf e -> Fmt.string ppf (Errno.to_string e)) Errno.equal

(* A machine with a small tree and two users, built directly (no dist). *)
let fixture () =
  let m = Machine.create () in
  let kt = Machine.kernel_task m in
  ignore (Machine.mkdir_p m kt "/etc" ());
  ignore (Machine.mkdir_p m kt "/home/alice" ~mode:0o700 ~uid:1000 ~gid:1000 ());
  ignore (Machine.mkdir_p m kt "/home/bob" ~mode:0o755 ~uid:1001 ~gid:1001 ());
  ignore (Machine.mkdir_p m kt "/tmp" ~mode:0o1777 ());
  ignore (Machine.write_file m kt ~path:"/etc/motd" ~mode:0o644 "hello");
  ignore (Machine.write_file m kt ~path:"/etc/secret" ~mode:0o600 "root only");
  ignore
    (Machine.write_file m kt ~path:"/home/bob/notes" ~mode:0o640 ~uid:1001
       ~gid:1001 "bob notes");
  let alice =
    Machine.spawn_task m ~cred:(Cred.make ~uid:1000 ~gid:1000 ()) ~cwd:"/home/alice" ()
  in
  let bob =
    Machine.spawn_task m ~cred:(Cred.make ~uid:1001 ~gid:1001 ()) ~cwd:"/home/bob" ()
  in
  (m, kt, alice, bob)

let test_normalize () =
  check_str "absolute" "/a/b" (Vfs.normalize ~cwd:"/x" "/a/b");
  check_str "relative" "/x/a" (Vfs.normalize ~cwd:"/x" "a");
  check_str "dotdot" "/a" (Vfs.normalize ~cwd:"/" "/a/b/..");
  check_str "dotdot past root" "/" (Vfs.normalize ~cwd:"/" "/../..");
  check_str "dots and slashes" "/a/c" (Vfs.normalize ~cwd:"/" "//a/./b/../c/");
  check_str "root" "/" (Vfs.normalize ~cwd:"/" "/");
  check_str "cwd only" "/x/y" (Vfs.normalize ~cwd:"/x/y" ".");
  check_str "trailing slash" "/a" (Vfs.normalize ~cwd:"/x" "/a/");
  check_str "double slash" "/a/b" (Vfs.normalize ~cwd:"/x" "/a//b");
  check_str "root dot" "/" (Vfs.normalize ~cwd:"/x" "/.");
  check_str "dot name" "/a/.b" (Vfs.normalize ~cwd:"/x" "/a/.b");
  check_str "dot-dot name" "/a/..b" (Vfs.normalize ~cwd:"/x" "/a/..b");
  (* A canonical path comes back as itself, not a copy. *)
  List.iter
    (fun p -> check ("passes through " ^ p) true (Vfs.normalize ~cwd:"/x" p == p))
    [ "/"; "/a"; "/a/b"; "/a/.b"; "/a/..b"; "/a/b." ]

let prop_normalize_idempotent =
  QCheck2.Test.make ~name:"vfs: normalize is idempotent" ~count:300
    QCheck2.Gen.(
      map
        (fun parts -> String.concat "/" parts)
        (list_size (int_bound 8)
           (oneofl [ "a"; "b"; ".."; "."; ""; "usr"; "etc" ])))
    (fun path ->
      let n = Vfs.normalize ~cwd:"/base" path in
      Vfs.normalize ~cwd:"/other" n = n)

let test_resolution () =
  let m, kt, alice, _ = fixture () in
  check "resolve file" true
    (match Vfs.resolve m kt "/etc/motd" with Ok i -> Inode.is_reg i | Error _ -> false);
  Alcotest.(check (result unit errno))
    "missing file" (Error Errno.ENOENT)
    (Result.map (fun _ -> ()) (Vfs.resolve m kt "/etc/nothing"));
  Alcotest.(check (result unit errno))
    "file as directory" (Error Errno.ENOTDIR)
    (Result.map (fun _ -> ()) (Vfs.resolve m kt "/etc/motd/sub"));
  (* Relative resolution against cwd. *)
  check "relative to cwd" true
    (match Vfs.resolve m alice "../bob/notes" with
    | Ok i -> Inode.is_reg i
    | Error _ -> false)

let test_symlinks () =
  let m, kt, _, _ = fixture () in
  Syntax.expect_ok "symlink"
    (Syscall.symlink m kt ~target:"/etc/motd" ~linkpath:"/etc/motd-link");
  check "follows symlink" true
    (match Syscall.read_file m kt "/etc/motd-link" with
    | Ok "hello" -> true
    | Ok _ | Error _ -> false);
  Syntax.expect_ok "rel symlink"
    (Syscall.symlink m kt ~target:"motd" ~linkpath:"/etc/rel-link");
  check "relative symlink" true
    (match Syscall.read_file m kt "/etc/rel-link" with
    | Ok "hello" -> true
    | Ok _ | Error _ -> false);
  (* Symlink loop *)
  Syntax.expect_ok "loop a" (Syscall.symlink m kt ~target:"/etc/loop-b" ~linkpath:"/etc/loop-a");
  Syntax.expect_ok "loop b" (Syscall.symlink m kt ~target:"/etc/loop-a" ~linkpath:"/etc/loop-b");
  Alcotest.(check (result unit errno))
    "ELOOP" (Error Errno.ELOOP)
    (Result.map (fun _ -> ()) (Vfs.resolve m kt "/etc/loop-a"));
  (* The ELOOP bound: 40 symlinks are followed, the 41st is not. *)
  for i = 0 to 40 do
    let target = if i = 40 then "/etc/motd" else Printf.sprintf "chain-%d" (i + 1) in
    Syntax.expect_ok "chain"
      (Syscall.symlink m kt ~target ~linkpath:(Printf.sprintf "/etc/chain-%d" i))
  done;
  check "40 links followed" true
    (match Vfs.resolve m kt "/etc/chain-1" with
    | Ok i -> Inode.is_reg i
    | Error _ -> false);
  Alcotest.(check (result unit errno))
    "41 links: ELOOP" (Error Errno.ELOOP)
    (Result.map (fun _ -> ()) (Vfs.resolve m kt "/etc/chain-0"));
  (* lstat sees the link itself *)
  check "no-follow sees link" true
    (match Vfs.resolve_no_follow m kt "/etc/motd-link" with
    | Ok { kind = Symlink _; _ } -> true
    | Ok _ | Error _ -> false)

let test_dac () =
  let m, _, alice, bob = fixture () in
  Alcotest.(check (result unit errno))
    "alice cannot read /etc/secret" (Error Errno.EACCES)
    (Result.map (fun _ -> ()) (Syscall.read_file m alice "/etc/secret"));
  check "alice reads world-readable" true
    (Syscall.read_file m alice "/etc/motd" = Ok "hello");
  Alcotest.(check (result unit errno))
    "alice cannot read bob group file" (Error Errno.EACCES)
    (Result.map (fun _ -> ()) (Syscall.read_file m alice "/home/bob/notes"));
  check "bob reads own file" true
    (Syscall.read_file m bob "/home/bob/notes" = Ok "bob notes");
  Alcotest.(check (result unit errno))
    "alice's home blocks bob (search)" (Error Errno.EACCES)
    (Result.map (fun _ -> ()) (Syscall.read_file m bob "/home/alice/anything"));
  (* Group membership opens the group class. *)
  let carol =
    Machine.spawn_task m ~cred:(Cred.make ~uid:1002 ~gid:1002 ~groups:[ 1001 ] ())
      ~cwd:"/" ()
  in
  check "supplementary group grants group class" true
    (Syscall.read_file m carol "/home/bob/notes" = Ok "bob notes")

let test_capability_override () =
  let m, kt, _, _ = fixture () in
  (* root (kt) reads anything via CAP_DAC_OVERRIDE *)
  check "root reads 600 file" true
    (Syscall.read_file m kt "/etc/secret" = Ok "root only");
  (* a root task stripped of CAP_DAC_OVERRIDE cannot *)
  let weak_root =
    Machine.spawn_task m
      ~cred:(Cred.make ~uid:0 ~gid:0 ~caps:Cap.Set.empty ())
      ~cwd:"/" ()
  in
  weak_root.cred.fsuid <- 1;
  (* fsuid non-root, no caps: DAC applies *)
  Alcotest.(check (result unit errno))
    "capability-less euid0 task denied" (Error Errno.EACCES)
    (Result.map (fun _ -> ()) (Syscall.read_file m weak_root "/etc/secret"))

let test_mount_redirect () =
  let m, kt, _, _ = fixture () in
  ignore (Machine.mkdir_p m kt "/mnt/point" ());
  Syntax.expect_ok "mount tmpfs"
    (Syscall.mount m kt ~source:"none" ~target:"/mnt/point" ~fstype:"tmpfs" ~flags:[]);
  Syntax.expect_ok "write into mount"
    (Syscall.write_file m kt "/mnt/point/inside" "data");
  check "visible through mount" true
    (Syscall.read_file m kt "/mnt/point/inside" = Ok "data");
  Syntax.expect_ok "umount" (Syscall.umount m kt ~target:"/mnt/point");
  Alcotest.(check (result unit errno))
    "hidden after umount" (Error Errno.ENOENT)
    (Result.map (fun _ -> ()) (Syscall.read_file m kt "/mnt/point/inside"));
  (* Remount sees the same tree? No: a fresh tmpfs. *)
  Syntax.expect_ok "remount"
    (Syscall.mount m kt ~source:"none" ~target:"/mnt/point" ~fstype:"tmpfs" ~flags:[]);
  Alcotest.(check (result unit errno))
    "fresh tmpfs is empty" (Error Errno.ENOENT)
    (Result.map (fun _ -> ()) (Syscall.read_file m kt "/mnt/point/inside"))

let test_sticky_unlink () =
  let m, kt, alice, bob = fixture () in
  ignore kt;
  Syntax.expect_ok "alice writes /tmp/a" (Syscall.write_file m alice "/tmp/a" "x");
  Alcotest.(check (result unit errno))
    "bob cannot unlink alice's /tmp file" (Error Errno.EPERM)
    (Syscall.unlink m bob "/tmp/a");
  Alcotest.(check (result unit errno))
    "alice unlinks own file" (Ok ())
    (Syscall.unlink m alice "/tmp/a")

let test_path_of_inode () =
  let m, kt, _, _ = fixture () in
  match Vfs.resolve m kt "/home/bob/notes" with
  | Ok inode ->
      Alcotest.(check (option string))
        "reverse lookup" (Some "/home/bob/notes")
        (Vfs.path_of_inode m inode)
  | Error _ -> Alcotest.fail "resolve failed"

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let suites =
  [ ("vfs:paths",
      [ Alcotest.test_case "normalize" `Quick test_normalize;
        Alcotest.test_case "resolution" `Quick test_resolution;
        Alcotest.test_case "symlinks" `Quick test_symlinks;
        Alcotest.test_case "reverse lookup" `Quick test_path_of_inode ]
      @ qsuite [ prop_normalize_idempotent ]);
    ("vfs:permissions",
      [ Alcotest.test_case "DAC classes" `Quick test_dac;
        Alcotest.test_case "capability override" `Quick test_capability_override;
        Alcotest.test_case "sticky-bit unlink" `Quick test_sticky_unlink ]);
    ("vfs:mounts",
      [ Alcotest.test_case "redirect and unmount" `Quick test_mount_redirect ]) ]
