open Protego_policy

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)

(* --- fstab ------------------------------------------------------------------ *)

let sample_fstab =
  "# comment\n\
   /dev/sda1 / ext4 defaults 0 1\n\
   /dev/cdrom /media/cdrom iso9660 ro,user 0 0\n\
   /dev/sdb1 /media/usb vfat users 0 0\n\
   \n\
   /dev/sda2 /mnt/secure ext4 defaults 0 0\n"

let test_fstab_parse () =
  match Fstab.parse sample_fstab with
  | Error msg -> Alcotest.fail msg
  | Ok entries ->
      check_int "four entries" 4 (List.length entries);
      let cdrom = Option.get (Fstab.find_for_target entries "/media/cdrom") in
      check_str "spec" "/dev/cdrom" cdrom.Fstab.fs_spec;
      check "cdrom user-mountable" true (Fstab.user_mountable cdrom);
      check "usb users option" true
        (Fstab.user_mountable (Option.get (Fstab.find_for_source entries "/dev/sdb1")));
      check "secure not user" false
        (Fstab.user_mountable (Option.get (Fstab.find_for_target entries "/mnt/secure")));
      check "missing target" true (Fstab.find_for_target entries "/nope" = None)

let test_fstab_flags () =
  let entries = Result.get_ok (Fstab.parse sample_fstab) in
  let cdrom = Option.get (Fstab.find_for_target entries "/media/cdrom") in
  let flags = Fstab.mount_flags cdrom in
  let open Protego_kernel.Ktypes in
  check "ro" true (List.mem Mf_readonly flags);
  check "user implies nosuid" true (List.mem Mf_nosuid flags);
  check "user implies nodev" true (List.mem Mf_nodev flags);
  let secure = Option.get (Fstab.find_for_target entries "/mnt/secure") in
  check "defaults imply nothing" true (Fstab.mount_flags secure = [])

let test_fstab_roundtrip () =
  let entries = Result.get_ok (Fstab.parse sample_fstab) in
  let printed = Fstab.to_string entries in
  let reparsed = Result.get_ok (Fstab.parse printed) in
  check "roundtrip" true (entries = reparsed);
  check "malformed line rejected" true
    (match Fstab.parse "/dev/x /mnt\n" with Error _ -> true | Ok _ -> false)

(* --- sudoers ------------------------------------------------------------------ *)

let sample_sudoers =
  "Defaults timestamp_timeout=5\n\
   # administrators\n\
   root ALL=(ALL) NOPASSWD: ALL\n\
   alice ALL=(bob) /usr/bin/lpr\n\
   bob ALL=(root) NOPASSWD: /bin/true, /bin/false\n\
   %lp ALL=(root) /usr/bin/lpadmin\n\
   charlie ALL=(ALL) ALL\n\
   dave ALL=(root) SETENV: /usr/bin/env\n\
   ALL ALL=(ALL) TARGETPW: ALL\n\
   #includedir /etc/sudoers.d\n"

let parsed () = Result.get_ok (Sudoers.parse sample_sudoers)

let test_sudoers_parse () =
  let t = parsed () in
  check_int "rules" 7 (List.length t.Sudoers.rules);
  check "timeout minutes to seconds" true (t.Sudoers.timestamp_timeout = 300.);
  check "includedir collected" true (t.Sudoers.includedirs = [ "/etc/sudoers.d" ]);
  check "missing equals rejected" true
    (match Sudoers.parse "alice bob charlie\n" with Error _ -> true | Ok _ -> false);
  check "empty commands rejected" true
    (match Sudoers.parse "alice ALL=(bob)\n" with Error _ -> true | Ok _ -> false)

let test_sudoers_check () =
  let t = parsed () in
  let is_allowed = function Sudoers.Allowed _ -> true | Sudoers.Denied -> false in
  check "alice lpr as bob" true
    (is_allowed
       (Sudoers.check t ~user:"alice" ~groups:[] ~target:"bob"
          ~command:(Some ("/usr/bin/lpr", [ "f" ]))));
  (* the TARGETPW catch-all matches everything, so filter it for the pure
     sudo view, as the sudo binary does *)
  let sudo_view =
    { t with
      Sudoers.rules =
        List.filter
          (fun r -> not (List.mem Sudoers.Targetpw r.Sudoers.tags))
          t.Sudoers.rules }
  in
  check "alice cat as bob denied" false
    (is_allowed
       (Sudoers.check sudo_view ~user:"alice" ~groups:[] ~target:"bob"
          ~command:(Some ("/bin/cat", []))));
  check "alice as charlie denied" false
    (is_allowed
       (Sudoers.check sudo_view ~user:"alice" ~groups:[] ~target:"charlie"
          ~command:(Some ("/usr/bin/lpr", []))));
  check "group rule via membership" true
    (is_allowed
       (Sudoers.check t ~user:"eve" ~groups:[ "lp" ] ~target:"root"
          ~command:(Some ("/usr/bin/lpadmin", []))));
  check "group rule without membership" false
    (is_allowed
       (Sudoers.check sudo_view ~user:"eve" ~groups:[] ~target:"root"
          ~command:(Some ("/usr/bin/lpadmin", []))));
  check "charlie anything anywhere" true
    (is_allowed
       (Sudoers.check t ~user:"charlie" ~groups:[] ~target:"bob"
          ~command:(Some ("/bin/sh", []))));
  (match
     Sudoers.check sudo_view ~user:"bob" ~groups:[] ~target:"root"
       ~command:(Some ("/bin/true", []))
   with
  | Sudoers.Allowed { nopasswd; _ } -> check "bob nopasswd" true nopasswd
  | Sudoers.Denied -> Alcotest.fail "bob should be allowed");
  (match
     Sudoers.check sudo_view ~user:"dave" ~groups:[] ~target:"root"
       ~command:(Some ("/usr/bin/env", []))
   with
  | Sudoers.Allowed { setenv; nopasswd } ->
      check "dave setenv" true setenv;
      check "dave needs password" false nopasswd
  | Sudoers.Denied -> Alcotest.fail "dave should be allowed");
  check "command None matches only ALL" true
    (is_allowed (Sudoers.check t ~user:"charlie" ~groups:[] ~target:"bob" ~command:None));
  check "command None for restricted rule" false
    (is_allowed
       (Sudoers.check sudo_view ~user:"alice" ~groups:[] ~target:"bob" ~command:None))

let test_sudoers_args_matching () =
  let t =
    Result.get_ok
      (Sudoers.parse "alice ALL=(root) /usr/bin/systemctl restart nginx\n")
  in
  let is_allowed = function Sudoers.Allowed _ -> true | Sudoers.Denied -> false in
  check "exact args allowed" true
    (is_allowed
       (Sudoers.check t ~user:"alice" ~groups:[] ~target:"root"
          ~command:(Some ("/usr/bin/systemctl", [ "restart"; "nginx" ]))));
  check "different args denied" false
    (is_allowed
       (Sudoers.check t ~user:"alice" ~groups:[] ~target:"root"
          ~command:(Some ("/usr/bin/systemctl", [ "stop"; "nginx" ]))));
  check "no args denied" false
    (is_allowed
       (Sudoers.check t ~user:"alice" ~groups:[] ~target:"root"
          ~command:(Some ("/usr/bin/systemctl", []))))

let test_sudoers_allowed_binaries () =
  let t = parsed () in
  (* Drop the catch-all so the restricted view is visible. *)
  let sudo_view =
    { t with
      Sudoers.rules =
        List.filter
          (fun r -> not (List.mem Sudoers.Targetpw r.Sudoers.tags))
          t.Sudoers.rules }
  in
  check "alice->bob restricted to lpr" true
    (Sudoers.allowed_binaries sudo_view ~user:"alice" ~groups:[] ~target:"bob"
    = `Only [ "/usr/bin/lpr" ]);
  check "charlie unrestricted" true
    (Sudoers.allowed_binaries sudo_view ~user:"charlie" ~groups:[] ~target:"bob"
    = `Unrestricted);
  check "eve nothing" true
    (Sudoers.allowed_binaries sudo_view ~user:"eve" ~groups:[] ~target:"bob"
    = `Nothing);
  check "bob two binaries" true
    (Sudoers.allowed_binaries sudo_view ~user:"bob" ~groups:[] ~target:"root"
    = `Only [ "/bin/false"; "/bin/true" ])

let test_sudoers_roundtrip () =
  let t = parsed () in
  let reparsed = Result.get_ok (Sudoers.parse (Sudoers.to_string t)) in
  check "rules survive print/parse" true (t.Sudoers.rules = reparsed.Sudoers.rules);
  check "timeout survives" true
    (t.Sudoers.timestamp_timeout = reparsed.Sudoers.timestamp_timeout)

let test_sudoers_merge_and_tags () =
  let a = Result.get_ok (Sudoers.parse "alice ALL=(bob) /usr/bin/lpr\n") in
  let b = Result.get_ok (Sudoers.parse "%lp ALL=(bob) NOPASSWD: /usr/bin/lpq\n") in
  let t = Sudoers.merge a b in
  check_int "merged rules" 2 (List.length t.Sudoers.rules);
  (* aggregate_tags is conservative: nopasswd only if all matching rules
     carry it *)
  check "mixed tags: password required" true
    (fst (Sudoers.aggregate_tags t ~user:"alice" ~groups:[ "lp" ] ~target:"bob")
    = false);
  check "all nopasswd" true
    (fst (Sudoers.aggregate_tags b ~user:"x" ~groups:[ "lp" ] ~target:"bob") = true)

(* --- bindconf ------------------------------------------------------------------ *)

let test_bindconf () =
  let contents = "# ports\n25 tcp /usr/sbin/exim4 101\n53 udp /usr/sbin/named 102\n" in
  let entries = Result.get_ok (Bindconf.parse contents) in
  check_int "entries" 2 (List.length entries);
  (match Bindconf.lookup entries ~port:25 ~proto:Bindconf.Tcp with
  | Some e -> check "exim entry" true (e.Bindconf.exe = "/usr/sbin/exim4" && e.Bindconf.owner = 101)
  | None -> Alcotest.fail "port 25 missing");
  check "proto distinguishes" true
    (Bindconf.lookup entries ~port:25 ~proto:Bindconf.Udp = None);
  check "duplicate rejected" true
    (match Bindconf.parse "25 tcp /a 1\n25 tcp /b 2\n" with
    | Error _ -> true
    | Ok _ -> false);
  check "same port different proto ok" true
    (match Bindconf.parse "25 tcp /a 1\n25 udp /b 2\n" with
    | Ok _ -> true
    | Error _ -> false);
  check "port out of range" true
    (match Bindconf.parse "8080 tcp /a 1\n" with Error _ -> true | Ok _ -> false);
  let printed = Bindconf.to_string entries in
  check "roundtrip" true (Result.get_ok (Bindconf.parse printed) = entries)

(* The strict parser keys duplicates by (port, proto): one port may
   carry a tcp and a udp entry, and of several repeats the first one in
   file order is the one reported. *)
let test_bindconf_duplicates () =
  Alcotest.(check (result int string))
    "tcp and udp on one port are not duplicates" (Ok 2)
    (Result.map List.length
       (Bindconf.parse "25 tcp /a 1\n25 udp /b 2\n"));
  let text = "25 tcp /a 1\n25 udp /b 2\n53 udp /c 3\n53 udp /d 4\n25 tcp /e 5\n" in
  Alcotest.(check (result int string))
    "the first repeat is reported" (Error "bind: duplicate port 53")
    (Result.map List.length (Bindconf.parse text));
  Alcotest.(check (result int string))
    "the lax parser keeps every entry" (Ok 5)
    (Result.map List.length (Bindconf.parse_lax text))

(* --- ppp options ----------------------------------------------------------------- *)

let test_pppopts () =
  let contents =
    "# pppd policy\ncompress deflate\nasyncmap 0\nallow-user-routes\nallow-device /dev/ttyS0\n"
  in
  let t = Result.get_ok (Pppopts.parse contents) in
  check "user routes" true (Pppopts.user_routes_allowed t);
  check "device allowed" true (Pppopts.device_allowed t "/dev/ttyS0");
  check "other device" false (Pppopts.device_allowed t "/dev/ttyS1");
  check_int "session options" 2 (List.length (Pppopts.session_options t));
  check "unknown directive rejected" true
    (match Pppopts.parse "warp-speed 9\n" with Error _ -> true | Ok _ -> false);
  let printed = Pppopts.to_string t in
  check "roundtrip" true
    (Result.get_ok (Pppopts.parse printed) = t)

(* --- pwdb ------------------------------------------------------------------------- *)

let test_pwdb_passwd () =
  let contents = "root:x:0:0:root:/root:/bin/sh\nalice:x:1000:1000:Alice:/home/alice:/bin/sh\n" in
  let entries = Result.get_ok (Pwdb.parse_passwd contents) in
  check_int "entries" 2 (List.length entries);
  (match Pwdb.lookup_user entries "alice" with
  | Some e -> check "uid" true (e.Pwdb.pw_uid = 1000)
  | None -> Alcotest.fail "alice missing");
  check "lookup_uid" true
    (match Pwdb.lookup_uid entries 0 with
    | Some e -> e.Pwdb.pw_name = "root"
    | None -> false);
  check "roundtrip" true
    (Result.get_ok (Pwdb.parse_passwd (Pwdb.passwd_to_string entries)) = entries);
  check "malformed" true
    (match Pwdb.parse_passwd "oops\n" with Error _ -> true | Ok _ -> false)

let test_pwdb_shadow_group () =
  let hash = Pwdb.hash_password "secret" in
  let shadow = Printf.sprintf "alice:%s:15000:0:99999:7:::\n" hash in
  let entries = Result.get_ok (Pwdb.parse_shadow shadow) in
  check "hash preserved" true ((List.hd entries).Pwdb.sp_hash = hash);
  check "shadow roundtrip" true
    (Result.get_ok (Pwdb.parse_shadow (Pwdb.shadow_to_string entries)) = entries);
  let group = "lp:x:7:bob,carol\nstaff:" ^ hash ^ ":50:\n" in
  let groups = Result.get_ok (Pwdb.parse_group group) in
  (match Pwdb.lookup_group groups "lp" with
  | Some g ->
      check "members" true (g.Pwdb.gr_members = [ "bob"; "carol" ]);
      check "no password" true (g.Pwdb.gr_password = None)
  | None -> Alcotest.fail "lp missing");
  (match Pwdb.lookup_gid groups 50 with
  | Some g -> check "group password kept" true (g.Pwdb.gr_password = Some hash)
  | None -> Alcotest.fail "staff missing");
  check "group roundtrip" true
    (Result.get_ok (Pwdb.parse_group (Pwdb.group_to_string groups)) = groups)

let test_password_hashing () =
  check "verify correct" true
    (Pwdb.verify_password ~hash:(Pwdb.hash_password "pw1") "pw1");
  check "verify wrong" false
    (Pwdb.verify_password ~hash:(Pwdb.hash_password "pw1") "pw2");
  check "locked account" false (Pwdb.verify_password ~hash:"!" "anything");
  check "deterministic" true
    (Pwdb.hash_password "abc" = Pwdb.hash_password "abc")

let prop_hash_verify =
  QCheck2.Test.make ~name:"pwdb: hash verifies its own input" ~count:200
    QCheck2.Gen.(string_size ~gen:printable (int_range 1 20))
    (fun pw -> Pwdb.verify_password ~hash:(Pwdb.hash_password pw) pw)

let prop_hash_rejects_others =
  QCheck2.Test.make ~name:"pwdb: hash rejects a different password" ~count:200
    QCheck2.Gen.(
      pair (string_size ~gen:printable (int_range 1 20))
        (string_size ~gen:printable (int_range 1 20)))
    (fun (a, b) -> a = b || not (Pwdb.verify_password ~hash:(Pwdb.hash_password a) b))

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let suites =
  [ ("policy:fstab",
      [ Alcotest.test_case "parse" `Quick test_fstab_parse;
        Alcotest.test_case "mount flags" `Quick test_fstab_flags;
        Alcotest.test_case "roundtrip" `Quick test_fstab_roundtrip ]);
    ("policy:sudoers",
      [ Alcotest.test_case "parse" `Quick test_sudoers_parse;
        Alcotest.test_case "check" `Quick test_sudoers_check;
        Alcotest.test_case "argument matching" `Quick test_sudoers_args_matching;
        Alcotest.test_case "allowed binaries" `Quick test_sudoers_allowed_binaries;
        Alcotest.test_case "roundtrip" `Quick test_sudoers_roundtrip;
        Alcotest.test_case "merge and tags" `Quick test_sudoers_merge_and_tags ]);
    ("policy:bind",
      [ Alcotest.test_case "bind map" `Quick test_bindconf;
        Alcotest.test_case "duplicates by port and proto" `Quick
          test_bindconf_duplicates ]);
    ("policy:ppp", [ Alcotest.test_case "options" `Quick test_pppopts ]);
    ("policy:pwdb",
      [ Alcotest.test_case "passwd records" `Quick test_pwdb_passwd;
        Alcotest.test_case "shadow and group" `Quick test_pwdb_shadow_group;
        Alcotest.test_case "password hashing" `Quick test_password_hashing ]
      @ qsuite [ prop_hash_verify; prop_hash_rejects_others ]) ]
