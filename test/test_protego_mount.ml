open Protego_base
open Protego_kernel
open Ktypes
module Image = Protego_dist.Image

let check = Alcotest.(check bool)

let errno =
  Alcotest.testable (fun ppf e -> Fmt.string ppf (Errno.to_string e)) Errno.equal

let user_flags = [ Mf_readonly; Mf_nosuid; Mf_nodev ]

let test_whitelist_allow_deny () =
  let img = Image.build Image.Protego in
  let m = img.Image.machine in
  let alice = Image.login img "alice" in
  Syntax.expect_ok "whitelisted mount"
    (Syscall.mount m alice ~source:"/dev/cdrom" ~target:"/media/cdrom"
       ~fstype:"iso9660" ~flags:user_flags);
  check "mounted" true
    (List.exists (fun mnt -> mnt.mnt_target = "/media/cdrom") m.mounts);
  Alcotest.(check (result unit errno))
    "wrong source for target" (Error Errno.EPERM)
    (Syscall.mount m alice ~source:"/dev/sdb1" ~target:"/media/cdrom2"
       ~fstype:"vfat" ~flags:user_flags);
  Alcotest.(check (result unit errno))
    "non-whitelisted target" (Error Errno.EPERM)
    (Syscall.mount m alice ~source:"/dev/sda2" ~target:"/mnt/secure"
       ~fstype:"ext4" ~flags:[]);
  Alcotest.(check (result unit errno))
    "whitelisted target, wrong device" (Error Errno.EPERM)
    (Syscall.mount m alice ~source:"/dev/sda2" ~target:"/media/usb"
       ~fstype:"ext4" ~flags:user_flags);
  Syntax.expect_ok "umount own" (Syscall.umount m alice ~target:"/media/cdrom")

let test_flag_requirements () =
  let img = Image.build Image.Protego in
  let m = img.Image.machine in
  let alice = Image.login img "alice" in
  (* The fstab entry is ro,user => ro+nosuid+nodev required: requesting
     fewer flags (e.g. trying to get a suid-honouring mount) is refused. *)
  Alcotest.(check (result unit errno))
    "missing nosuid refused" (Error Errno.EPERM)
    (Syscall.mount m alice ~source:"/dev/cdrom" ~target:"/media/cdrom"
       ~fstype:"iso9660" ~flags:[ Mf_readonly ]);
  Alcotest.(check (result unit errno))
    "missing ro refused" (Error Errno.EPERM)
    (Syscall.mount m alice ~source:"/dev/cdrom" ~target:"/media/cdrom"
       ~fstype:"iso9660" ~flags:[ Mf_nosuid; Mf_nodev ]);
  (* Extra restrictive flags beyond the requirement are fine. *)
  Syntax.expect_ok "extra flags ok"
    (Syscall.mount m alice ~source:"/dev/cdrom" ~target:"/media/cdrom"
       ~fstype:"iso9660" ~flags:(Mf_noexec :: user_flags));
  ignore (Syscall.umount m alice ~target:"/media/cdrom")

let test_user_vs_users_unmount () =
  let img = Image.build Image.Protego in
  let m = img.Image.machine in
  let alice = Image.login img "alice" in
  let bob = Image.login img "bob" in
  (* "user": only the mounting user (or root) may unmount. *)
  Syntax.expect_ok "alice mounts cdrom"
    (Syscall.mount m alice ~source:"/dev/cdrom" ~target:"/media/cdrom"
       ~fstype:"iso9660" ~flags:user_flags);
  Alcotest.(check (result unit errno))
    "bob cannot unmount alice's user mount" (Error Errno.EPERM)
    (Syscall.umount m bob ~target:"/media/cdrom");
  Syntax.expect_ok "alice unmounts" (Syscall.umount m alice ~target:"/media/cdrom");
  (* "users": anyone may unmount. *)
  Syntax.expect_ok "bob mounts usb"
    (Syscall.mount m bob ~source:"/dev/sdb1" ~target:"/media/usb" ~fstype:"vfat"
       ~flags:[ Mf_nosuid; Mf_nodev ]);
  Syntax.expect_ok "alice unmounts bob's users mount"
    (Syscall.umount m alice ~target:"/media/usb")

let test_root_unaffected () =
  let img = Image.build Image.Protego in
  let m = img.Image.machine in
  let root = Image.login img "root" in
  Syntax.expect_ok "root mounts non-whitelisted"
    (Syscall.mount m root ~source:"/dev/sda2" ~target:"/mnt/secure"
       ~fstype:"ext4" ~flags:[]);
  Syntax.expect_ok "root unmounts" (Syscall.umount m root ~target:"/mnt/secure")

let test_busy_and_missing () =
  let img = Image.build Image.Protego in
  let m = img.Image.machine in
  let alice = Image.login img "alice" in
  Syntax.expect_ok "mount"
    (Syscall.mount m alice ~source:"/dev/cdrom" ~target:"/media/cdrom"
       ~fstype:"iso9660" ~flags:user_flags);
  Alcotest.(check (result unit errno))
    "double mount busy" (Error Errno.EBUSY)
    (Syscall.mount m alice ~source:"/dev/cdrom" ~target:"/media/cdrom"
       ~fstype:"iso9660" ~flags:user_flags);
  Syntax.expect_ok "umount" (Syscall.umount m alice ~target:"/media/cdrom");
  Alcotest.(check (result unit errno))
    "umount not mounted" (Error Errno.EINVAL)
    (Syscall.umount m alice ~target:"/media/cdrom")

let test_proc_interface () =
  let img = Image.build Image.Protego in
  let m = img.Image.machine in
  let root = Image.login img "root" in
  let alice = Image.login img "alice" in
  (* Readable by root, shows the synced fstab policy. *)
  let contents =
    Syntax.expect_ok "read whitelist"
      (Syscall.read_file m root "/proc/protego/mount_whitelist")
  in
  check "cdrom rule present" true
    (String.length contents > 0
    && (let found = ref false in
        String.split_on_char '\n' contents
        |> List.iter (fun l ->
               if l = "allow /dev/cdrom /media/cdrom iso9660 ro,nosuid,nodev user"
               then found := true);
        !found));
  (* Unprivileged users cannot read or write the policy files (mode 600). *)
  Alcotest.(check (result unit errno))
    "alice cannot read policy" (Error Errno.EACCES)
    (Result.map (fun _ -> ()) (Syscall.read_file m alice "/proc/protego/mount_whitelist"));
  (* Root can replace the whitelist directly. *)
  Syntax.expect_ok "write whitelist"
    (Syscall.write_file m root "/proc/protego/mount_whitelist"
       "allow /dev/sda2 /mnt/secure ext4 - users\n");
  Syntax.expect_ok "newly allowed mount"
    (Syscall.mount m alice ~source:"/dev/sda2" ~target:"/mnt/secure"
       ~fstype:"ext4" ~flags:[]);
  ignore (Syscall.umount m alice ~target:"/mnt/secure");
  Alcotest.(check (result unit errno))
    "old rule replaced" (Error Errno.EPERM)
    (Syscall.mount m alice ~source:"/dev/cdrom" ~target:"/media/cdrom"
       ~fstype:"iso9660" ~flags:user_flags);
  (* Malformed grammar is rejected with EINVAL and leaves policy intact. *)
  Alcotest.(check (result unit errno))
    "bad grammar rejected" (Error Errno.EINVAL)
    (Syscall.write_file m root "/proc/protego/mount_whitelist" "frobnicate\n");
  Syntax.expect_ok "policy intact after bad write"
    (Syscall.mount m alice ~source:"/dev/sda2" ~target:"/mnt/secure"
       ~fstype:"ext4" ~flags:[]);
  ignore (Syscall.umount m alice ~target:"/mnt/secure")

let test_network_filesystems () =
  let img = Image.build Image.Protego in
  let m = img.Image.machine in
  let alice = Image.login img "alice" in
  (* NFS: a whitelisted user entry mounts the remote export. *)
  Alcotest.(check bool) "mount.nfs succeeds" true
    (Image.run img alice "/sbin/mount.nfs"
       [ "10.0.0.7:/export/media"; "/media/nfs" ]
    = Ok 0);
  Alcotest.(check (result string errno))
    "share contents visible" (Ok "nfs share contents\n")
    (Syscall.read_file m alice "/media/nfs/shared.txt");
  Syntax.expect_ok "umount nfs" (Syscall.umount m alice ~target:"/media/nfs");
  (* CIFS via the //server/share syntax. *)
  Alcotest.(check bool) "mount.cifs succeeds" true
    (Image.run img alice "/sbin/mount.cifs" [ "//10.0.0.7/share"; "/media/cifs" ]
    = Ok 0);
  Alcotest.(check (result string errno))
    "cifs contents visible" (Ok "cifs share contents\n")
    (Syscall.read_file m alice "/media/cifs/win/readme.txt");
  Syntax.expect_ok "umount cifs" (Syscall.umount m alice ~target:"/media/cifs");
  (* A non-whitelisted export/server is refused by the kernel. *)
  Alcotest.(check (result unit errno))
    "foreign server refused" (Error Errno.EPERM)
    (Syscall.mount m alice ~source:"10.0.0.9:/export/media" ~target:"/media/nfs"
       ~fstype:"nfs" ~flags:[ Mf_nosuid; Mf_nodev ]);
  (* Root mounts anything that exists. *)
  let root = Image.login img "root" in
  Alcotest.(check (result unit errno))
    "root mounts unknown export: not found" (Error Errno.ENOENT)
    (Syscall.mount m root ~source:"10.0.0.7:/export/secret" ~target:"/media/nfs"
       ~fstype:"nfs" ~flags:[])

let test_mount_binary_equivalence () =
  (* The mount binary behaves identically on both systems for the same
     invocations (§5.3). *)
  let drive config =
    let img = Image.build config in
    let alice = Image.login img "alice" in
    let results =
      [ Image.run img alice "/bin/mount" [ "/media/cdrom" ];
        Image.run img alice "/bin/umount" [ "/media/cdrom" ];
        Image.run img alice "/bin/mount" [ "/mnt/secure" ];
        Image.run img alice "/bin/mount" [ "/unknown" ];
        Image.run img alice "/bin/umount" [ "/media/cdrom" ] ]
    in
    results
  in
  check "legacy vs protego equivalent" true
    (drive Image.Linux = drive Image.Protego)

(* Permissive record mode through /proc/protego/record: a would-deny is
   served (and leaves a record-tagged audit entry), while the ladder
   returns the true verdict and the flip happens after it — so switching
   record off flushes nothing (the packet hook's table keeps its epoch),
   and the very next identical request is denied by the engine. *)
let test_record_mode_proc () =
  let img = Image.build Image.Protego in
  let m = img.Image.machine in
  let root = Image.login img "root" in
  let alice = Image.login img "alice" in
  let disp =
    match img.Image.protego with
    | Some lsm -> Protego_core.Lsm.dispatch lsm
    | None -> Alcotest.fail "Protego image has no LSM"
  in
  let cache = Protego_core.Pfm_dispatch.cache disp in
  let set_record v =
    Syntax.expect_ok ("record " ^ v)
      (Syscall.write_file m root "/proc/protego/record" v)
  in
  let mount () =
    Syscall.mount m alice ~source:"/dev/sda2" ~target:"/mnt/secure"
      ~fstype:"ext4" ~flags:[]
  in
  set_record "on";
  Syntax.expect_ok "non-whitelisted mount recorded, not denied" (mount ());
  check "record-mount entry tagged recorded" true
    (List.exists
       (fun (r : Audit.record) ->
         r.Audit.au_op = "record-mount"
         && Test_support.contains r.Audit.au_obj "verdict=recorded"
         && Test_support.contains r.Audit.au_obj "target=/mnt/secure")
       (Audit.records m));
  Syntax.expect_ok "umount while recording"
    (Syscall.umount m alice ~target:"/mnt/secure");
  let epoch = Protego_core.Decision_cache.epoch cache in
  set_record "off";
  Alcotest.(check (result unit errno))
    "same mount denied once record is off" (Error Errno.EPERM) (mount ());
  check "no cache flush" true
    (Protego_core.Decision_cache.epoch cache = epoch);
  match
    List.rev
      (List.filter
         (fun (r : Audit.record) -> r.Audit.au_op = "mount")
         (Audit.records m))
  with
  | last :: _ ->
      check "denial audited" false last.Audit.au_allowed;
      Alcotest.(check (option string))
        "true verdict served by the engine" (Some "pfm") last.Audit.au_engine
  | [] -> Alcotest.fail "no mount audit record"

(* Two mount requests whose fields differ but whose concatenations agree
   once a unit separator is inserted between them must never share a
   memoized verdict, in either order: the cache key is the argument
   tuple, not a rendering of it. *)
let test_cache_key_collision () =
  let legit = ("/dev/sdc1", "/media/stick", "/etc\x1fext4") in
  let attack = ("/dev/sdc1\x1f/media/stick", "/etc", "ext4") in
  let flags = [ Mf_nosuid; Mf_nodev ] in
  let boot () =
    let img = Image.build Image.Protego in
    let m = img.Image.machine in
    let root = Image.login img "root" in
    Syntax.expect_ok "mount point"
      (Syscall.mkdir m root "/media/stick" 0o755);
    Syntax.expect_ok "append auto rule"
      (Syscall.append_file m root "/proc/protego/mount_whitelist"
         "allow /dev/sdc1 /media/stick auto nosuid,nodev users\n");
    (m, Image.login img "alice")
  in
  let mount m alice (source, target, fstype) =
    Syscall.mount m alice ~source ~target ~fstype ~flags
  in
  let last_mount_record m =
    match
      List.rev
        (List.filter
           (fun (r : Audit.record) -> r.Audit.au_op = "mount")
           (Audit.records m))
    with
    | r :: _ -> r
    | [] -> Alcotest.fail "no mount audit record"
  in
  (* The rule allows the legitimate tuple (the VFS then refuses the odd
     fstype), and the cached allow must not reach the attack tuple. *)
  let m, alice = boot () in
  Alcotest.(check (result unit errno))
    "legitimate mount passes the hook" (Error Errno.ENODEV)
    (mount m alice legit);
  Alcotest.(check (result unit errno))
    "attack denied after the legitimate mount" (Error Errno.EPERM)
    (mount m alice attack);
  let r = last_mount_record m in
  check "attack audited as denied" false r.Audit.au_allowed;
  Alcotest.(check (option string))
    "attack decided by the engine" (Some "pfm") r.Audit.au_engine;
  (* Reverse order: the attack's cached deny must not reach the
     legitimate tuple. *)
  let m, alice = boot () in
  Alcotest.(check (result unit errno))
    "attack denied cold" (Error Errno.EPERM) (mount m alice attack);
  Alcotest.(check (result unit errno))
    "legitimate mount still passes the hook" (Error Errno.ENODEV)
    (mount m alice legit);
  check "legitimate mount audited as allowed" true
    (last_mount_record m).Audit.au_allowed

(* The kernel's mount and umount lines in dmesg, byte for byte: the
   mount line names the source as given and the canonical target, a
   relative target resolves against the caller's cwd, and a target
   with doubled or trailing slashes logs its canonical form. *)
let test_dmesg_lines () =
  let img = Image.build Image.Protego in
  let m = img.Image.machine in
  let alice = Image.login img "alice" in
  let root = Image.login img "root" in
  let before = List.length (Machine.dmesg m) in
  alice.cwd <- "/media";
  Syntax.expect_ok "relative mount"
    (Syscall.mount m alice ~source:"/dev/cdrom" ~target:"cdrom"
       ~fstype:"iso9660" ~flags:user_flags);
  Syntax.expect_ok "relative umount" (Syscall.umount m alice ~target:"cdrom");
  Syntax.expect_ok "non-canonical mount"
    (Syscall.mount m alice ~source:"/dev/cdrom" ~target:"/media//cdrom/"
       ~fstype:"iso9660" ~flags:user_flags);
  Syntax.expect_ok "non-canonical umount"
    (Syscall.umount m alice ~target:"/media/./cdrom/");
  Syntax.expect_ok "root mount"
    (Syscall.mount m root ~source:"none" ~target:"/mnt/secure/../secure"
       ~fstype:"tmpfs" ~flags:[]);
  Syntax.expect_ok "root umount" (Syscall.umount m root ~target:"/mnt/secure");
  Alcotest.(check (list string))
    "dmesg lines"
    [ "mount: /dev/cdrom on /media/cdrom type iso9660 (uid 1000)";
      "umount: /media/cdrom (uid 1000)";
      "mount: /dev/cdrom on /media/cdrom type iso9660 (uid 1000)";
      "umount: /media/cdrom (uid 1000)";
      "mount: none on /mnt/secure type tmpfs (uid 0)";
      "umount: /mnt/secure (uid 0)" ]
    (List.filteri (fun i _ -> i >= before) (Machine.dmesg m))

(* The kernel stores its mount and umount lines typed and every other
   line as text; [Machine.dmesg] renders them on read in the order they
   were logged. *)
let test_dmesg_mixed_order () =
  let img = Image.build Image.Protego in
  let m = img.Image.machine in
  let alice = Image.login img "alice" in
  let root = Image.login img "root" in
  let before = List.length (Machine.dmesg m) in
  Syntax.expect_ok "alice mounts"
    (Syscall.mount m alice ~source:"/dev/cdrom" ~target:"/media/cdrom"
       ~fstype:"iso9660" ~flags:user_flags);
  Syntax.expect_ok "record on"
    (Syscall.write_file m root "/proc/protego/record" "on");
  Syntax.expect_ok "root mounts"
    (Syscall.mount m root ~source:"none" ~target:"/mnt/secure" ~fstype:"tmpfs"
       ~flags:[]);
  Alcotest.(check (list string))
    "dmesg lines"
    [ "mount: /dev/cdrom on /media/cdrom type iso9660 (uid 1000)";
      "protego: record mode on";
      "mount: none on /mnt/secure type tmpfs (uid 0)" ]
    (List.filteri (fun i _ -> i >= before) (Machine.dmesg m))

let suites =
  [ ("protego:mount",
      [ Alcotest.test_case "whitelist allow/deny" `Quick test_whitelist_allow_deny;
        Alcotest.test_case "flag requirements" `Quick test_flag_requirements;
        Alcotest.test_case "user vs users unmount" `Quick test_user_vs_users_unmount;
        Alcotest.test_case "root unaffected" `Quick test_root_unaffected;
        Alcotest.test_case "busy and missing" `Quick test_busy_and_missing;
        Alcotest.test_case "/proc configuration" `Quick test_proc_interface;
        Alcotest.test_case "network filesystems" `Quick test_network_filesystems;
        Alcotest.test_case "binary equivalence" `Quick test_mount_binary_equivalence;
        Alcotest.test_case "record mode via /proc" `Quick test_record_mode_proc;
        Alcotest.test_case "cache key collision" `Quick
          test_cache_key_collision;
        Alcotest.test_case "dmesg mount/umount lines" `Quick
          test_dmesg_lines;
        Alcotest.test_case "dmesg keeps text between mount lines" `Quick
          test_dmesg_mixed_order ]) ]
