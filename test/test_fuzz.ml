(* Property and fuzz tests across the policy surfaces: the /proc
   configuration files must never crash or corrupt policy on hostile input,
   parsers must round-trip, and netfilter evaluation must follow
   first-match-wins semantics. *)

open Protego_kernel
module Image = Protego_dist.Image
module Netfilter = Protego_net.Netfilter
module Packet = Protego_net.Packet
module Ipaddr = Protego_net.Ipaddr
module Sudoers = Protego_policy.Sudoers

let junk_gen =
  QCheck2.Gen.(
    oneof
      [ string_size ~gen:printable (int_bound 120);
        (* structured-looking junk *)
        map
          (fun words -> String.concat " " words)
          (list_size (int_bound 8)
             (oneofl
                [ "allow"; "/dev/cdrom"; "/media/cdrom"; "iso9660"; "user";
                  "users"; "-"; "25"; "tcp"; "ALL"; "=("; ")"; "NOPASSWD:";
                  "#"; "\n"; "group"; "uid"; "-j"; "ACCEPT" ])) ])

(* Writing junk to any /proc/protego file either applies (Ok) or is
   rejected with EINVAL — never an exception, and never a broken policy:
   a known-good mount must still behave deterministically afterwards. *)
let prop_proc_fuzz =
  QCheck2.Test.make ~name:"protego /proc files survive hostile writes"
    ~count:60 junk_gen (fun junk ->
      let img = Image.build Image.Protego in
      let m = img.Image.machine in
      let root = Image.login img "root" in
      let alice = Image.login img "alice" in
      List.for_all
        (fun file ->
          match Syscall.write_file m root file junk with
          | Ok () | Error Protego_base.Errno.EINVAL -> true
          | Error _ -> false)
        [ "/proc/protego/mount_whitelist"; "/proc/protego/bind_map";
          "/proc/protego/delegation"; "/proc/protego/accounts";
          "/proc/protego/ppp_policy" ]
      &&
      (* The kernel still runs; a denied operation stays denied or the
         junk happened to parse — either way no crash and a clean errno. *)
      match
        Syscall.mount m alice ~source:"/dev/sda2" ~target:"/etc" ~fstype:"ext4"
          ~flags:[]
      with
      | Error _ -> true
      | Ok () -> false)

(* The command files take the same hostile writes: each returns [Ok] or
   a typed errno and never raises.  The words reach every command's
   argument, including a trace ring capacity below, at and far beyond
   [Trace.max_span_capacity] (never a mid-size one, which would allocate
   a large ring). *)
let command_junk_gen =
  let numbers =
    [ "1"; "65537"; "4611686018427387903"; "99999999999999999999" ]
  in
  QCheck2.Gen.(
    oneof
      [ string_size ~gen:printable (int_bound 60);
        map (fun n -> "capacity " ^ n) (oneofl numbers);
        map (String.concat " ")
          (list_size (int_bound 4)
             (oneofl
                ([ "capacity"; "-1"; "on"; "off"; "reset"; "engine"; "pfm";
                   "ref"; "enable"; "mode"; "warn"; "enforce"; "pid"; "steady";
                   "setup"; "optimize"; "deoptimize"; "\n" ]
                @ numbers))) ])

let prop_command_fuzz =
  QCheck2.Test.make ~name:"protego /proc command files survive hostile writes"
    ~count:40 command_junk_gen (fun junk ->
      let img = Image.build Image.Protego in
      let m = img.Image.machine in
      let root = Image.login img "root" in
      List.iter
        (fun file ->
          match Syscall.write_file m root ("/proc/protego/" ^ file) junk with
          | Ok () | Error (_ : Protego_base.Errno.t) -> ())
        [ "trace"; "latency"; "cache_stats"; "filter_stats"; "lint"; "record";
          "phase"; "audit" ];
      true)

(* Netfilter: eval equals a reference first-match-wins implementation. *)
let match_gen =
  QCheck2.Gen.oneofl
    [ Netfilter.Proto Packet.Icmp; Netfilter.Proto Packet.Tcp;
      Netfilter.Proto Packet.Udp; Netfilter.Origin_raw; Netfilter.Origin_packet;
      Netfilter.Tcp_syn; Netfilter.Owner_uid 1000;
      Netfilter.Dst_port { lo = 0; hi = 1023 };
      Netfilter.Dst_port { lo = 33434; hi = 33534 };
      Netfilter.Icmp_type Packet.Echo_request ]

let rule_gen =
  QCheck2.Gen.map2
    (fun matches accept ->
      { Netfilter.matches;
        target = (if accept then Netfilter.Accept else Netfilter.Drop);
        comment = "" })
    QCheck2.Gen.(list_size (int_bound 3) match_gen)
    QCheck2.Gen.bool

let packet_case_gen =
  QCheck2.Gen.(
    pair
      (oneofl
         [ Packet.Icmp_msg { icmp_type = Packet.Echo_request; code = 0; payload = "" };
           Packet.Tcp_seg { src_port = 1; dst_port = 80; syn = true; payload = "" };
           Packet.Tcp_seg { src_port = 1; dst_port = 80; syn = false; payload = "x" };
           Packet.Udp_dgram { src_port = 9; dst_port = 33500; payload = "" };
           Packet.Raw_payload { protocol = 89; payload = "ospf" } ])
      (oneofl
         [ Packet.Kernel_stack; Packet.Raw_app { uid = 1000 };
           Packet.Packet_app { uid = 33 } ]))

let prop_netfilter_first_match =
  QCheck2.Test.make ~name:"netfilter: eval is first-match-wins" ~count:300
    QCheck2.Gen.(pair (list_size (int_bound 6) rule_gen) packet_case_gen)
    (fun (rules, (transport, origin)) ->
      let t = Netfilter.create () in
      List.iter (Netfilter.append t Netfilter.Output) rules;
      let pkt =
        { Packet.src = Ipaddr.v 10 0 0 2; dst = Ipaddr.v 10 0 0 7; ttl = 64;
          transport }
      in
      let reference =
        let rec walk = function
          | [] -> Netfilter.Accept
          | (r : Netfilter.rule) :: rest ->
              if
                List.for_all
                  (fun mt -> Netfilter.matches_packet mt pkt ~origin)
                  r.Netfilter.matches
              then r.Netfilter.target
              else walk rest
        in
        walk rules
      in
      Netfilter.eval t Netfilter.Output pkt ~origin = reference)

(* Netfilter rule specs round-trip for generated rules. *)
let prop_rule_spec_roundtrip =
  QCheck2.Test.make ~name:"netfilter: generated rules round-trip as specs"
    ~count:300 rule_gen (fun rule ->
      match Netfilter.rule_of_spec (Netfilter.rule_to_spec rule) with
      | Ok rule' -> Netfilter.rule_to_spec rule = Netfilter.rule_to_spec rule'
      | Error _ -> false)

(* Sudoers: generated rule sets survive print/parse. *)
let sudo_rule_gen =
  let open QCheck2.Gen in
  let principal =
    oneof
      [ return Sudoers.All_users;
        map (fun n -> Sudoers.User n) (oneofl [ "alice"; "bob"; "carol" ]);
        map (fun g -> Sudoers.Group g) (oneofl [ "lp"; "staff" ]) ]
  in
  let runas =
    oneof
      [ return Sudoers.Runas_any;
        map (fun u -> Sudoers.Runas_users [ u ]) (oneofl [ "root"; "bob" ]) ]
  in
  let command =
    oneof
      [ return Sudoers.Any_command;
        map
          (fun p -> Sudoers.Command { path = p; args = None })
          (oneofl [ "/bin/true"; "/usr/bin/lpr" ]);
        return (Sudoers.Command { path = "/bin/echo"; args = Some [ "hi" ] }) ]
  in
  let tags =
    oneofl [ []; [ Sudoers.Nopasswd ]; [ Sudoers.Setenv ]; [ Sudoers.Targetpw ] ]
  in
  map
    (fun (((who, runas), tags), commands) ->
      { Sudoers.who; runas; tags; commands; rphase = Protego_base.Phase.Always })
    (pair (pair (pair principal runas) tags) (list_size (int_range 1 3) command))

let prop_sudoers_roundtrip =
  QCheck2.Test.make ~name:"sudoers: generated rules round-trip" ~count:300
    QCheck2.Gen.(list_size (int_bound 6) sudo_rule_gen)
    (fun rules ->
      let t = { Sudoers.empty with Sudoers.rules } in
      match Sudoers.parse (Sudoers.to_string t) with
      | Ok t' -> t'.Sudoers.rules = rules
      | Error _ -> false)

(* Path resolution agrees with lexical normalization for plain trees
   (no symlinks, no mounts). *)
let prop_resolve_normalized =
  QCheck2.Test.make ~name:"vfs: resolving a path equals resolving its normal form"
    ~count:150
    QCheck2.Gen.(
      list_size (int_bound 6) (oneofl [ "a"; "b"; ".."; "."; "c" ]))
    (fun parts ->
      let m = Machine.create () in
      let kt = Machine.kernel_task m in
      ignore (Machine.mkdir_p m kt "/a/b/c" ());
      ignore (Machine.mkdir_p m kt "/a/c" ());
      ignore (Machine.mkdir_p m kt "/b" ());
      ignore (Machine.mkdir_p m kt "/c" ());
      let path = "/" ^ String.concat "/" parts in
      let direct = Vfs.resolve m kt path in
      let via_norm = Vfs.resolve m kt (Vfs.normalize ~cwd:"/" path) in
      (* Physical resolution must visit every component, so it can fail
         where the lexical normal form succeeds ("/missing/.." is ENOENT
         physically, "/" lexically) — but when it succeeds, both must land
         on the same inode. *)
      match direct with
      | Ok a -> (
          match via_norm with Ok b -> Inode.same a b | Error _ -> false)
      | Error _ -> true)

(* [Vfs.normalize] before canonical paths passed through: the oracle for
   the property below. *)
let normalize_reference ~cwd path =
  let absolute =
    if String.length path > 0 && path.[0] = '/' then path else cwd ^ "/" ^ path
  in
  let components =
    String.split_on_char '/' absolute
    |> List.filter (fun c -> c <> "" && c <> ".")
  in
  let rec squeeze acc = function
    | [] -> List.rev acc
    | ".." :: rest -> (
        match acc with [] -> squeeze [] rest | _ :: tl -> squeeze tl rest)
    | c :: rest -> squeeze (c :: acc) rest
  in
  "/" ^ String.concat "/" (squeeze [] components)

let canonical path =
  path = "/"
  || String.length path > 1
     && path.[0] = '/'
     && path.[String.length path - 1] <> '/'
     && List.for_all
          (fun c -> c <> "" && c <> "." && c <> "..")
          (String.split_on_char '/'
             (String.sub path 1 (String.length path - 1)))

(* Paths glued from separators, dot names and plain names (so runs of
   slashes, trailing slashes, "." / ".." and names that merely start
   with dots all occur), plus canonical paths built component-wise, so
   the pass-through is exercised as often as the full algorithm. *)
let prop_normalize_reference =
  let glued =
    QCheck2.Gen.(
      map (String.concat "")
        (list_size (int_bound 10)
           (oneofl [ "/"; "."; ".."; ".b"; "..b"; "a"; "b" ])))
  in
  let built =
    QCheck2.Gen.(
      map
        (fun cs -> "/" ^ String.concat "/" cs)
        (list_size (int_bound 5) (oneofl [ ".b"; "..b"; "a"; "b"; "..."; "a." ])))
  in
  QCheck2.Test.make
    ~name:"vfs: normalize equals the reference, is canonical and passes canonical paths through"
    ~count:2000
    QCheck2.Gen.(pair (oneof [ glued; built ]) (oneof [ glued; built ]))
    (fun (path, cwd) ->
      let n = Vfs.normalize ~cwd path in
      n = normalize_reference ~cwd path
      && canonical n
      && Vfs.normalize ~cwd:"/elsewhere" n == n
      && ((not (canonical path)) || n == path))

(* The path walk before it read the path by index: the oracle for the
   property below.  Split into a component list, a lexical directory
   path per component, [List.assoc_opt] lookups, and restarts through
   [split_path restart @ rest]. *)
module Walk_reference = struct
  open Ktypes

  let split_path path =
    String.split_on_char '/' path |> List.filter (fun c -> c <> "" && c <> ".")

  let dac_or_capable m task inode access =
    if Vfs.dac_permits task.cred inode access then true
    else
      match access with
      | Protego_base.Mode.R | Protego_base.Mode.W ->
          m.security.capable m task Protego_base.Cap.CAP_DAC_OVERRIDE
          || access = Protego_base.Mode.R
             && m.security.capable m task Protego_base.Cap.CAP_DAC_READ_SEARCH
      | Protego_base.Mode.X ->
          (inode.kind = Dir || inode.mode land 0o111 <> 0)
          && m.security.capable m task Protego_base.Cap.CAP_DAC_OVERRIDE

  let redirect_in mounts inode =
    let mount_at inode =
      List.fold_left
        (fun best mnt -> if mnt.mnt_covered == inode then Some mnt else best)
        None mounts
    in
    let rec follow inode depth =
      if depth > 16 then inode
      else
        match mount_at inode with
        | Some mnt -> follow mnt.mnt_root (depth + 1)
        | None -> inode
    in
    follow inode 0

  let resolve_gen m task ~follow_last path =
    let mounts = Vfs.mounts_of m task in
    let rec walk dir dir_path components links_left =
      if links_left < 0 then Error Protego_base.Errno.ELOOP
      else
        match components with
        | [] -> Ok dir
        | name :: rest -> (
            if dir.kind <> Dir then Error Protego_base.Errno.ENOTDIR
            else if not (dac_or_capable m task dir Protego_base.Mode.X) then
              Error Protego_base.Errno.EACCES
            else if name = ".." then
              let parent_path = normalize_reference ~cwd:"/" (dir_path ^ "/..") in
              restart parent_path rest links_left
            else
              match List.assoc_opt name dir.children with
              | None -> Error Protego_base.Errno.ENOENT
              | Some inode -> (
                  let inode = redirect_in mounts inode in
                  let here =
                    dir_path ^ (if dir_path = "/" then "" else "/") ^ name
                  in
                  match inode.kind with
                  | Symlink target when rest <> [] || follow_last ->
                      let base =
                        if String.length target > 0 && target.[0] = '/' then
                          target
                        else dir_path ^ "/" ^ target
                      in
                      let new_path =
                        normalize_reference ~cwd:"/"
                          (base ^ "/" ^ String.concat "/" rest)
                      in
                      restart new_path [] (links_left - 1)
                  | _ -> if rest = [] then Ok inode else walk inode here rest links_left))
    and restart path extra links_left =
      walk (redirect_in mounts m.root) "/" (split_path path @ extra) links_left
    in
    let abs =
      if String.length path > 0 && path.[0] = '/' then path
      else task.cwd ^ "/" ^ path
    in
    match split_path abs with
    | [] -> Ok (redirect_in mounts m.root)
    | components -> walk (redirect_in mounts m.root) "/" components 40
end

(* Random trees: a subset of plain directories, a file, a mode-0700
   directory (with an entry), a directory that a tmpfs mount may cover,
   and up to five symlinks with relative or absolute targets (so chains
   and loops occur) in any of those directories, the mount's root
   included.  Paths are glued from "/", "//", ".", "..", ".b", names and
   symlink names, absolute or relative to a cwd, and resolved by root and
   by an unprivileged task: the walk and the reference must return the
   same inode ([==]) or the same errno, with and without following the
   last symlink. *)
let prop_resolve_reference =
  let open QCheck2.Gen in
  let name = oneofl [ "a"; "b"; "c"; ".b"; "f"; "s"; "m"; "y"; "l"; "k"; "missing" ] in
  let component = oneof [ name; oneofl [ "."; ".."; "l"; "k" ] ] in
  let glued =
    map2
      (fun lead parts ->
        lead ^ String.concat "" (List.map (fun (sep, c) -> sep ^ c) parts))
      (oneofl [ "/"; "//"; "" ])
      (list_size (int_bound 6) (pair (oneofl [ "/"; "//"; "/./" ]) component))
  in
  let path =
    map3
      (fun p trail relative ->
        let p = p ^ trail in
        if relative && String.length p > 0 && p.[0] = '/' then
          String.sub p 1 (String.length p - 1)
        else p)
      glued (oneofl [ ""; ""; "/"; "/." ]) bool
  in
  let target =
    map2
      (fun absolute cs -> (if absolute then "/" else "") ^ String.concat "/" cs)
      bool (list_size (int_range 0 4) component)
  in
  let symlink =
    triple (oneofl [ "/"; "/a"; "/a/b"; "/s"; "/m"; "/c" ]) (oneofl [ "l"; "k"; "j" ]) target
  in
  let tree =
    quad (list_repeat 4 bool) bool (list_size (int_bound 5) symlink)
      (oneofl [ "/"; "/a"; "/a/b"; "/m" ])
  in
  QCheck2.Test.make ~name:"vfs: resolve equals the reference walk" ~count:1500
    (pair tree (list_size (int_range 1 6) path))
    (fun ((dirs, mounted, links, cwd), paths) ->
      let m = Machine.create () in
      let kt = Machine.kernel_task m in
      let mkdir ?(mode = 0o755) p = ignore (Machine.mkdir_p m kt p ~mode ()) in
      List.iteri
        (fun i on -> if on then mkdir (List.nth [ "/a/b"; "/b"; "/c"; "/.b" ] i))
        dirs;
      mkdir "/a";
      mkdir "/m/x";
      mkdir ~mode:0o700 "/s";
      ignore (Machine.write_file m kt ~path:"/s/f" "secret");
      ignore (Machine.write_file m kt ~path:"/a/f" "file");
      if mounted then begin
        let covered = Result.get_ok (Vfs.resolve m kt "/m") in
        let root = Inode.alloc m ~kind:Ktypes.Dir ~mode:0o755 ~uid:0 ~gid:0 in
        Inode.add_child root "y" (Inode.alloc m ~kind:Ktypes.Dir ~mode:0o755 ~uid:0 ~gid:0);
        m.Ktypes.mounts <-
          [ { Ktypes.mnt_source = "tmpfs"; mnt_target = "/m"; mnt_fstype = "tmpfs";
              mnt_flags = []; mnt_root = root; mnt_covered = covered; mnt_by = 0 } ]
      end;
      (* Resolve every directory first: a symlink added below may shadow
         the path to the next one. *)
      let placed =
        List.filter_map
          (fun (dir, name, target) ->
            match Vfs.resolve m kt dir with
            | Ok d when d.Ktypes.kind = Ktypes.Dir -> Some (d, name, target)
            | _ -> None)
          links
      in
      List.iter
        (fun (d, name, target) ->
          Inode.add_child d name
            (Inode.alloc m ~kind:(Ktypes.Symlink target) ~mode:0o777 ~uid:0 ~gid:0))
        placed;
      let alice = Machine.spawn_task m ~cred:(Cred.make ~uid:1000 ~gid:1000 ()) ~cwd () in
      let root = Machine.spawn_task m ~cred:(Cred.make ~uid:0 ~gid:0 ()) ~cwd () in
      let same a b =
        match (a, b) with
        | Ok x, Ok y -> x == y
        | Error e, Error e' -> e = e'
        | _ -> false
      in
      List.for_all
        (fun task ->
          List.for_all
            (fun p ->
              same (Vfs.resolve m task p)
                (Walk_reference.resolve_gen m task ~follow_last:true p)
              && same (Vfs.resolve_no_follow m task p)
                   (Walk_reference.resolve_gen m task ~follow_last:false p))
            paths)
        [ alice; root ])

(* --- filter machine: compiled programs vs the list-walking reference ----
   Differential fuzz for every compiled hook: 500 random policies x 20
   random argument tuples = 10k decisions per hook, compiled verdict ==
   reference verdict.  Each policy also exercises the compiler+verifier
   (the compilers raise if their output does not verify). *)

module Pfm = Protego_filter.Pfm
module Compile = Protego_filter.Pfm_compile
module PS = Protego_core.Policy_state
module Phase = Protego_base.Phase
module Bindconf = Protego_policy.Bindconf
module Pppopts = Protego_policy.Pppopts
module Ppp = Protego_net.Ppp

let sources = [ "/dev/cdrom"; "/dev/sdb1"; "fuse"; "/dev/sda2"; "10.0.0.7:/export" ]
let targets = [ "/media/cdrom"; "/media/usb"; "/mnt/a"; "/mnt/b" ]
let fstypes = [ "iso9660"; "vfat"; "ext4"; "auto"; "nfs" ]

let flags_gen =
  QCheck2.Gen.oneofl
    Ktypes.[ []; [ Mf_readonly ]; [ Mf_nosuid; Mf_nodev ];
             [ Mf_readonly; Mf_nosuid; Mf_nodev ]; [ Mf_noexec ] ]

let mount_rule_of ~source ~target ~fstype =
  QCheck2.Gen.(
    map
      (fun ((src, tgt), (fs, (flags, user))) ->
        { PS.mr_source = src; mr_target = tgt; mr_fstype = fs;
          mr_flags = flags; mr_mode = (if user then `User else `Users);
          mr_phase = PS.Phase.Always })
      (pair (pair source target) (pair fstype (pair flags_gen bool))))

let mount_rule_gen =
  QCheck2.Gen.(
    mount_rule_of ~source:(oneofl sources) ~target:(oneofl targets)
      ~fstype:(oneofl fstypes))

let prop_pfm_mount =
  QCheck2.Test.make
    ~name:"pfm: compiled mount program equals the reference decision"
    ~count:500
    QCheck2.Gen.(
      pair (list_size (int_bound 12) mount_rule_gen)
        (list_repeat 20
           (pair (pair (oneofl sources) (oneofl targets))
              (pair (oneofl fstypes) flags_gen))))
    (fun (rules, queries) ->
      let st = PS.create () in
      PS.set st (PS.Set_mounts rules);
      let prog = Compile.mount (List.map PS.filter_rule rules) in
      List.for_all
        (fun ((source, target), (fstype, flags)) ->
          (Pfm.eval prog (Compile.mount_ctx ~phase:0 ~source ~target ~fstype ~flags)
           = Pfm.Allow)
          = PS.mount_decision st ~source ~target ~fstype ~flags)
        queries)

let prop_pfm_umount =
  QCheck2.Test.make
    ~name:"pfm: compiled umount program equals the reference decision"
    ~count:500
    QCheck2.Gen.(
      pair (list_size (int_bound 12) mount_rule_gen)
        (list_repeat 20
           (triple (oneofl targets) (oneofl [ 0; 1000; 1001 ])
              (oneofl [ 0; 1000; 1001 ]))))
    (fun (rules, queries) ->
      let st = PS.create () in
      PS.set st (PS.Set_mounts rules);
      let prog = Compile.umount (List.map PS.filter_rule rules) in
      List.for_all
        (fun (target, mounted_by, ruid) ->
          (Pfm.eval prog (Compile.umount_ctx ~phase:0 ~target ~mounted_by ~ruid)
           = Pfm.Allow)
          = PS.umount_decision st ~target ~mounted_by ~ruid)
        queries)

let bind_ports = [ 22; 25; 80; 443; 514 ]
let bind_exes = [ "/usr/sbin/exim4"; "/usr/sbin/sshd"; "/usr/bin/rsh" ]
let bind_uids = [ 0; 8; 101 ]

let bind_entry_of exes =
  QCheck2.Gen.(
    map
      (fun ((port, tcp), (exe, owner)) ->
        { Bindconf.port; proto = (if tcp then Bindconf.Tcp else Bindconf.Udp);
          exe; owner; phase = Protego_base.Phase.Always })
      (pair (pair (oneofl bind_ports) bool)
         (pair (oneofl exes) (oneofl bind_uids))))

let bind_entry_gen = bind_entry_of bind_exes

let prop_pfm_bind =
  QCheck2.Test.make
    ~name:"pfm: compiled bind program equals the reference decision"
    ~count:500
    QCheck2.Gen.(
      pair (list_size (int_bound 10) bind_entry_gen)
        (list_repeat 20
           (pair (pair (oneofl (1000 :: bind_ports)) bool)
              (pair (oneofl bind_exes) (oneofl bind_uids)))))
    (fun (entries, queries) ->
      let st = PS.create () in
      PS.set st (PS.Set_binds entries);
      let prog = Compile.bind entries in
      List.for_all
        (fun ((port, tcp), (exe, uid)) ->
          let proto = if tcp then Bindconf.Tcp else Bindconf.Udp in
          (Pfm.eval prog (Compile.bind_ctx ~phase:0 ~port ~proto ~exe ~uid) = Pfm.Allow)
          = PS.bind_allowed st ~port ~proto ~exe ~uid)
        queries)

let cidr s =
  match Ipaddr.Cidr.of_string s with
  | Some c -> c
  | None -> failwith ("bad test cidr: " ^ s)

let nf_match_gen =
  QCheck2.Gen.oneofl
    [ Netfilter.Proto Packet.Icmp; Netfilter.Proto Packet.Tcp;
      Netfilter.Proto Packet.Udp; Netfilter.Proto (Packet.Other 0x0806);
      Netfilter.Origin_raw; Netfilter.Origin_packet; Netfilter.Tcp_syn;
      Netfilter.Owner_uid 1000; Netfilter.Owner_uid 33;
      Netfilter.Dst_port { lo = 0; hi = 1023 };
      Netfilter.Dst_port { lo = 33434; hi = 33534 };
      Netfilter.Src_port { lo = 9; hi = 9 };
      Netfilter.Icmp_type Packet.Echo_request;
      Netfilter.Icmp_type Packet.Echo_reply;
      Netfilter.Src (cidr "10.0.0.0/8"); Netfilter.Src (cidr "0.0.0.0/0");
      Netfilter.Dst (cidr "10.0.0.7/32"); Netfilter.Dst (cidr "192.168.0.0/16") ]

let nf_verdicts = [ Netfilter.Accept; Netfilter.Drop; Netfilter.Reject ]

let nf_rule_gen =
  QCheck2.Gen.map2
    (fun matches target -> { Netfilter.matches; target; comment = "" })
    QCheck2.Gen.(list_size (int_bound 3) nf_match_gen)
    (QCheck2.Gen.oneofl nf_verdicts)

let nf_packet_gen =
  QCheck2.Gen.(
    map
      (fun (((src, dst), transport), origin) ->
        ({ Packet.src; dst; ttl = 64; transport }, origin))
      (pair
         (pair
            (pair
               (oneofl [ Ipaddr.v 10 0 0 2; Ipaddr.v 192 168 1 5 ])
               (oneofl [ Ipaddr.v 10 0 0 7; Ipaddr.v 8 8 8 8 ]))
            (oneofl
               [ Packet.Icmp_msg
                   { icmp_type = Packet.Echo_request; code = 0; payload = "" };
                 Packet.Icmp_msg
                   { icmp_type = Packet.Echo_reply; code = 0; payload = "" };
                 Packet.Tcp_seg
                   { src_port = 9; dst_port = 80; syn = true; payload = "" };
                 Packet.Tcp_seg
                   { src_port = 1024; dst_port = 33500; syn = false;
                     payload = "x" };
                 Packet.Udp_dgram { src_port = 9; dst_port = 33500; payload = "" };
                 Packet.Udp_dgram
                   { src_port = 5353; dst_port = 53; payload = "q" };
                 Packet.Raw_payload { protocol = 89; payload = "ospf" } ]))
         (oneofl
            [ Packet.Kernel_stack; Packet.Raw_app { uid = 1000 };
              Packet.Packet_app { uid = 33 } ])))

(* Runs: 4-12 rules whose first match pins the destination port, the
   owner uid or the icmp type to a distinct value, followed by random
   matches and a target — what the compiler dispatches through a switch
   — and, half the time, one more rule repeating one of the run's
   values, which must end the run (first match wants the first rule
   with the value; a switch table would keep the last).  A run draws its
   values from these pools; packets draw from the same pools plus one
   value outside them, so they land on and off a run. *)
let run_ports = [ 7; 22; 53; 80; 443; 1024; 3306; 5353; 6667; 8080; 33434; 33500 ]
let run_uids = [ 0; 1; 33; 100; 1000; 1001; 1002; 1003; 1004; 1005; 65534; 99 ]

let run_icmp_types =
  Packet.
    [ Echo_request; Echo_reply; Dest_unreachable; Time_exceeded;
      Timestamp_request; Timestamp_reply; Address_mask_request; Redirect ]

let nf_run_gen =
  let open QCheck2.Gen in
  let keyed key values = map (fun vs -> List.map key vs) (shuffle_l values) in
  let* keys =
    oneof
      [ keyed (fun p -> Netfilter.Dst_port { lo = p; hi = p }) run_ports;
        keyed (fun u -> Netfilter.Owner_uid u) run_uids;
        keyed (fun ty -> Netfilter.Icmp_type ty) run_icmp_types ]
  in
  let* n = int_range 4 (List.length keys) in
  let keys = List.filteri (fun i _ -> i < n) keys in
  let* repeat = frequency [ (1, return []); (1, map (fun k -> [ k ]) (oneofl keys)) ] in
  flatten_l
    (List.map
       (fun key ->
         map2
           (fun matches target ->
             { Netfilter.matches = key :: matches; target; comment = "" })
           (list_size (int_bound 2) nf_match_gen)
           (oneofl nf_verdicts))
       (keys @ repeat))

(* Up to [plain] random rules, or a run with up to two random rules
   before it and [plain / 2] after.  A random rule may match anything and
   end the chain early, hence few rules ahead of the run. *)
let nf_chain_with_runs_gen ~plain =
  QCheck2.Gen.(
    frequency
      [ (1, list_size (int_bound plain) nf_rule_gen);
        ( 3,
          map3
            (fun pre run post -> pre @ run @ post)
            (list_size (int_bound 2) nf_rule_gen)
            nf_run_gen
            (list_size (int_bound (plain / 2)) nf_rule_gen) ) ])

let nf_run_packet_gen =
  QCheck2.Gen.(
    let port = oneofl (9999 :: run_ports) in
    let uid = oneofl (4242 :: run_uids) in
    map3
      (fun src transport origin ->
        ({ Packet.src; dst = Ipaddr.v 10 0 0 7; ttl = 64; transport }, origin))
      (oneofl [ Ipaddr.v 10 0 0 2; Ipaddr.v 192 168 1 5 ])
      (oneof
         [ map2
             (fun dst_port syn ->
               Packet.Tcp_seg { src_port = 9; dst_port; syn; payload = "" })
             port bool;
           map
             (fun dst_port ->
               Packet.Udp_dgram { src_port = 5353; dst_port; payload = "" })
             port;
           map
             (fun icmp_type -> Packet.Icmp_msg { icmp_type; code = 0; payload = "" })
             (oneofl run_icmp_types) ])
      (oneof
         [ return Packet.Kernel_stack;
           map (fun uid -> Packet.Raw_app { uid }) uid;
           map (fun uid -> Packet.Packet_app { uid }) uid ]))

let has_switch (p : Pfm.program) =
  Array.exists (function Pfm.Iswitch _ -> true | _ -> false) p.Pfm.insns

(* Cases drawn, and those whose compiled chain has a switch. *)
let nf_cases = ref 0
let nf_switched = ref 0

let prop_pfm_netfilter =
  QCheck2.Test.make
    ~name:"pfm: compiled netfilter chain equals the reference walk"
    ~count:500
    QCheck2.Gen.(
      pair
        (pair (nf_chain_with_runs_gen ~plain:8) (oneofl nf_verdicts))
        (list_repeat 20 (oneof [ nf_packet_gen; nf_run_packet_gen ])))
    (fun ((rules, policy), cases) ->
      let t = Netfilter.create ~output_policy:policy () in
      List.iter (Netfilter.append t Netfilter.Output) rules;
      let prog = Compile.netfilter ~rules ~policy in
      incr nf_cases;
      if has_switch prog then incr nf_switched;
      List.for_all
        (fun (pkt, origin) ->
          Compile.verdict_of_netfilter
            (Netfilter.walk t Netfilter.Output pkt ~origin)
          = Pfm.eval prog (Compile.packet_ctx pkt ~origin))
        cases)

(* The netfilter differential, which also reports how often its chains
   formed a switch: at least a third of them must, or the property
   hardly tests the switch. *)
let pfm_netfilter_case =
  let name, speed, run = QCheck_alcotest.to_alcotest ~long:false prop_pfm_netfilter in
  ( name,
    speed,
    fun () ->
      nf_cases := 0;
      nf_switched := 0;
      run ();
      Printf.printf "netfilter chains with a switch: %d of %d\n" !nf_switched
        !nf_cases;
      Alcotest.(check bool) "a switch formed in at least a third of cases" true
        (3 * !nf_switched >= !nf_cases) )

let ppp_devices = [ "/dev/ttyS0"; "/dev/ttyS1"; "/dev/ttyUSB0" ]

let ppp_opts =
  [ Ppp.Compression "deflate"; Ppp.Async_map 0; Ppp.Mru 1500; Ppp.Accomp;
    Ppp.Default_route; Ppp.Modem_line_speed 115200;
    Ppp.Modem_flow_control "rtscts" ]

let ppp_directive_of devices =
  QCheck2.Gen.(
    oneof
      [ map
          (fun d -> Pppopts.Allow_device (d, Protego_base.Phase.Always))
          (oneofl devices);
        return Pppopts.Allow_user_routes;
        map (fun o -> Pppopts.Session_option o) (oneofl ppp_opts) ])

let ppp_directive_gen = ppp_directive_of ppp_devices

let prop_pfm_ppp =
  QCheck2.Test.make
    ~name:"pfm: compiled ppp-ioctl program equals the reference decision"
    ~count:500
    QCheck2.Gen.(
      pair (list_size (int_bound 6) ppp_directive_gen)
        (list_repeat 20
           (pair (oneofl ("/dev/ttyS9" :: ppp_devices)) (oneofl ppp_opts))))
    (fun (directives, queries) ->
      let st = PS.create () in
      PS.set st (PS.Set_ppp { Pppopts.directives });
      let prog = Compile.ppp_ioctl { Pppopts.directives } in
      List.for_all
        (fun (device, opt) ->
          (Pfm.eval prog (Compile.ppp_ctx ~phase:0 ~device ~opt) = Pfm.Allow)
          = PS.ppp_ioctl_decision st ~device ~opt)
        queries)

(* --- abstract-interpretation soundness ---------------------------------- *)

module Absint = Protego_analysis.Pfm_absint

(* The analyzer over-approximates reachability, so runtime observation
   can never contradict it: every instruction slot with a nonzero
   execution counter must be abstractly reachable (zero false "dead
   rule" claims), and every verdict actually returned must be abstractly
   reachable.  500 policies x 20 decisions = 10k decisions per hook. *)
let counters_within_reachability prog (s : Absint.summary) =
  let ok = ref true in
  Array.iteri
    (fun i c -> if c > 0 && not s.Absint.reachable.(i) then ok := false)
    prog.Pfm.counters;
  !ok

let prop_absint_sound_mount =
  QCheck2.Test.make
    ~name:"absint: mount runtime counters within abstract reachability"
    ~count:500
    QCheck2.Gen.(
      pair (list_size (int_bound 12) mount_rule_gen)
        (list_repeat 20
           (pair (pair (oneofl sources) (oneofl targets))
              (pair (oneofl fstypes) flags_gen))))
    (fun (rules, queries) ->
      let prog = Compile.mount (List.map PS.filter_rule rules) in
      let s = Absint.analyze prog in
      List.for_all
        (fun ((source, target), (fstype, flags)) ->
          Absint.verdict_reachable s
            (Pfm.eval prog (Compile.mount_ctx ~phase:0 ~source ~target ~fstype ~flags)))
        queries
      && counters_within_reachability prog s)

let prop_absint_sound_nf =
  QCheck2.Test.make
    ~name:"absint: netfilter runtime counters within abstract reachability"
    ~count:500
    QCheck2.Gen.(
      pair
        (pair (list_size (int_bound 8) nf_rule_gen) (oneofl nf_verdicts))
        (list_repeat 20 nf_packet_gen))
    (fun ((rules, policy), cases) ->
      let prog = Compile.netfilter ~rules ~policy in
      let s = Absint.analyze prog in
      List.for_all
        (fun (pkt, origin) ->
          Absint.verdict_reachable s
            (Pfm.eval prog (Compile.packet_ctx pkt ~origin)))
        cases
      && counters_within_reachability prog s)

let prop_absint_sound_bind =
  QCheck2.Test.make
    ~name:"absint: bind runtime counters within abstract reachability"
    ~count:500
    QCheck2.Gen.(
      pair (list_size (int_bound 10) bind_entry_gen)
        (list_repeat 20
           (pair (pair (oneofl (1000 :: bind_ports)) bool)
              (pair (oneofl bind_exes) (oneofl bind_uids)))))
    (fun (entries, queries) ->
      let prog = Compile.bind entries in
      let s = Absint.analyze prog in
      List.for_all
        (fun ((port, tcp), (exe, uid)) ->
          let proto = if tcp then Bindconf.Tcp else Bindconf.Udp in
          Absint.verdict_reachable s
            (Pfm.eval prog (Compile.bind_ctx ~phase:0 ~port ~proto ~exe ~uid)))
        queries
      && counters_within_reachability prog s)

(* --- abstract interpretation: the analysis before verdict pcs stopped
   holding states ------------------------------------------------------

   The interpreter as it was when every pc, [Ret]s included, kept up to
   [max_disjuncts] states and joined past the cap, with the constant
   branches voted through two tables afterwards: the oracle for the
   property below.  The domain operations it shares are the exposed
   ones; the refinements are copied with it. *)
module Absint_reference = struct
  open Absint

  let itop = Inot ISet.empty
  let stop = Snot SSet.empty

  let inorm = function
    | Iset s when ISet.is_empty s -> Ibot
    | Irange (lo, hi) when lo > hi -> Ibot
    | v -> v

  let snorm = function Sset s when SSet.is_empty s -> Sbot | v -> v

  let isingleton = function
    | Iset s when ISet.cardinal s = 1 -> Some (ISet.min_elt s)
    | Irange (lo, hi) when lo = hi -> Some lo
    | _ -> None

  let concrete_int_cond c x =
    match c with
    | Pfm.Eq imm -> x = imm
    | Pfm.Ge imm -> x >= imm
    | Pfm.Le imm -> x <= imm
    | Pfm.In_range (lo, hi) -> x >= lo && x <= hi
    | Pfm.All_bits imm -> x land imm = imm
    | Pfm.Masked_eq { mask; value } -> x land mask = value
    | Pfm.Eq_field _ | Pfm.Str_eq _ | Pfm.Str_prefix _ -> assert false

  let irefine v c taken =
    match v with
    | Ibot -> Ibot
    | Iset s -> inorm (Iset (ISet.filter (fun x -> concrete_int_cond c x = taken) s))
    | (Irange _ | Inot _) as v -> (
        match (c, taken) with
        | Pfm.Eq imm, true -> imeet v (Iset (ISet.singleton imm))
        | Pfm.Eq imm, false -> imeet v (Inot (ISet.singleton imm))
        | Pfm.Ge imm, true -> imeet v (Irange (imm, max_int))
        | Pfm.Ge imm, false -> imeet v (Irange (min_int, imm - 1))
        | Pfm.Le imm, true -> imeet v (Irange (min_int, imm))
        | Pfm.Le imm, false -> imeet v (Irange (imm + 1, max_int))
        | Pfm.In_range (lo, hi), true -> imeet v (Irange (lo, hi))
        | Pfm.In_range (lo, hi), false ->
            if lo = min_int then imeet v (Irange (hi + 1, max_int))
            else if hi = max_int then imeet v (Irange (min_int, lo - 1))
            else if hi - lo >= 0 && hi - lo < 64 then
              imeet v
                (Inot (ISet.of_list (List.init (hi - lo + 1) (fun i -> lo + i))))
            else v
        | Pfm.All_bits imm, true when imm <> 0 -> v
        | Pfm.All_bits 0, false -> Ibot
        | Pfm.All_bits _, _ -> v
        | Pfm.Masked_eq { mask = 0; value }, taken ->
            if (0 = value) = taken then v else Ibot
        | Pfm.Masked_eq _, _ -> v
        | (Pfm.Eq_field _ | Pfm.Str_eq _ | Pfm.Str_prefix _), _ -> v)

  let srefine v c taken =
    match v with
    | Sbot -> Sbot
    | Sset s ->
        let keep x =
          match c with
          | Pfm.Str_eq imm -> String.equal x imm = taken
          | Pfm.Str_prefix p ->
              (String.length x >= String.length p
              && String.sub x 0 (String.length p) = p)
              = taken
          | _ -> true
        in
        snorm (Sset (SSet.filter keep s))
    | Snot _ as v -> (
        match (c, taken) with
        | Pfm.Str_eq imm, true -> smeet v (Sset (SSet.singleton imm))
        | Pfm.Str_eq imm, false -> smeet v (Snot (SSet.singleton imm))
        | Pfm.Str_prefix "", false -> Sbot
        | _ -> v)

  type state = {
    fi : iv array;
    fs : sv array;
    ai : iv;
    asv : sv;
    src_i : int option;
    src_s : int option;
  }

  let join_state a b =
    {
      fi = Array.map2 ijoin a.fi b.fi;
      fs = Array.map2 sjoin a.fs b.fs;
      ai = ijoin a.ai b.ai;
      asv = sjoin a.asv b.asv;
      src_i = (if a.src_i = b.src_i then a.src_i else None);
      src_s = (if a.src_s = b.src_s then a.src_s else None);
    }

  let with_ai st v =
    let fi =
      match st.src_i with
      | Some f ->
          let fi = Array.copy st.fi in
          fi.(f) <- v;
          fi
      | None -> st.fi
    in
    { st with ai = v; fi }

  let with_asv st v =
    let fs =
      match st.src_s with
      | Some f ->
          let fs = Array.copy st.fs in
          fs.(f) <- v;
          fs
      | None -> st.fs
    in
    { st with asv = v; fs }

  (* [(reachable, (allow, deny, reject), const_branches)] *)
  let analyze ~max_disjuncts (p : Pfm.program) =
    let n = Array.length p.insns in
    let states : state list array = Array.make n [] in
    let allow = ref false and deny = ref false and reject = ref false in
    let const_branches = ref [] in
    let propagate pc st =
      if pc < n then
        match states.(pc) with
        | old when List.length old < max_disjuncts -> states.(pc) <- st :: old
        | last :: rest -> states.(pc) <- join_state last st :: rest
        | [] -> states.(pc) <- [ st ]
    in
    if n > 0 then
      states.(0) <-
        [
          {
            fi = Array.make p.n_int_fields itop;
            fs = Array.make p.n_str_fields stop;
            ai = Iset (ISet.singleton 0);
            asv = Sset (SSet.singleton "");
            src_i = None;
            src_s = None;
          };
        ];
    for pc = 0 to n - 1 do
      List.iter
        (fun st ->
          match p.insns.(pc) with
          | Pfm.Ld_int f ->
              let ok = f >= 0 && f < p.n_int_fields in
              propagate (pc + 1)
                { st with ai = (if ok then st.fi.(f) else itop);
                          src_i = (if ok then Some f else None) }
          | Pfm.Ld_str f ->
              let ok = f >= 0 && f < p.n_str_fields in
              propagate (pc + 1)
                { st with asv = (if ok then st.fs.(f) else stop);
                          src_s = (if ok then Some f else None) }
          | Pfm.Jmp d -> if d >= 0 then propagate (pc + 1 + d) st
          | Pfm.Jif (c, jt, jf) ->
              let feas_t, feas_f =
                match c with
                | Pfm.Str_eq _ | Pfm.Str_prefix _ ->
                    let t = srefine st.asv c true and f = srefine st.asv c false in
                    ( (if t = Sbot then None else Some (with_asv st t)),
                      if f = Sbot then None else Some (with_asv st f) )
                | Pfm.Eq_field f ->
                    let fv =
                      if f >= 0 && f < p.n_int_fields then st.fi.(f) else itop
                    in
                    let both = imeet st.ai fv in
                    let t = if both = Ibot then None else Some (with_ai st both) in
                    let fl =
                      match (isingleton st.ai, isingleton fv) with
                      | Some a, Some b when a = b -> None
                      | _ -> Some st
                    in
                    (t, fl)
                | _ ->
                    let t = irefine st.ai c true and f = irefine st.ai c false in
                    ( (if t = Ibot then None else Some (with_ai st t)),
                      if f = Ibot then None else Some (with_ai st f) )
              in
              (match (feas_t, feas_f) with
              | Some _, None -> const_branches := (pc, true) :: !const_branches
              | None, Some _ -> const_branches := (pc, false) :: !const_branches
              | _ -> ());
              Option.iter (fun s -> if jt >= 0 then propagate (pc + 1 + jt) s) feas_t;
              Option.iter (fun s -> if jf >= 0 then propagate (pc + 1 + jf) s) feas_f
          | Pfm.Iswitch { tbl; default } ->
              let entries = Pfm.table_fold (fun k d a -> (k, d) :: a) tbl [] in
              let keys = ISet.of_list (List.map fst entries) in
              List.iter
                (fun (k, d) ->
                  if d >= 0 then
                    let v = imeet st.ai (Iset (ISet.singleton k)) in
                    if v <> Ibot then propagate (pc + 1 + d) (with_ai st v))
                (List.rev entries);
              if default >= 0 then begin
                let v = imeet st.ai (Inot keys) in
                if v <> Ibot then propagate (pc + 1 + default) (with_ai st v)
              end
          | Pfm.Sswitch { tbl; default } ->
              let entries = Pfm.table_fold (fun k d a -> (k, d) :: a) tbl [] in
              let keys = SSet.of_list (List.map fst entries) in
              List.iter
                (fun (k, d) ->
                  if d >= 0 then
                    let v = smeet st.asv (Sset (SSet.singleton k)) in
                    if v <> Sbot then propagate (pc + 1 + d) (with_asv st v))
                (List.rev entries);
              if default >= 0 then begin
                let v = smeet st.asv (Snot keys) in
                if v <> Sbot then propagate (pc + 1 + default) (with_asv st v)
              end
          | Pfm.Ret Pfm.Allow -> allow := true
          | Pfm.Ret Pfm.Deny -> deny := true
          | Pfm.Ret Pfm.Reject -> reject := true)
        states.(pc)
    done;
    let const_branches =
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun (pc, dir) ->
          match Hashtbl.find_opt tbl pc with
          | None -> Hashtbl.replace tbl pc (Some dir)
          | Some (Some d) when d = dir -> ()
          | Some _ -> Hashtbl.replace tbl pc None)
        !const_branches;
      let votes = Hashtbl.create 16 in
      List.iter
        (fun (pc, _) ->
          Hashtbl.replace votes pc
            (1 + Option.value ~default:0 (Hashtbl.find_opt votes pc)))
        !const_branches;
      Hashtbl.fold
        (fun pc dir acc ->
          match dir with
          | Some d when Hashtbl.find votes pc = List.length states.(pc) ->
              (pc, d) :: acc
          | _ -> acc)
        tbl []
      |> List.sort compare
    in
    ( Array.map (fun ds -> ds <> []) states,
      (!allow, !deny, !reject),
      const_branches )
end

(* --- switch tables: find against an association list -------------------

   A table's [find] must answer as a lookup in its case list would, the
   last binding of a key winning, for every member and for keys it does
   not hold; [fold] must visit each key once, in increasing order. *)

(* [key 0] and [n] more of [key 1], [key 2], ... whose home slot is
   [key 0]'s in every table of up to 1024 slots (the low ten bits of
   their hashes agree), found by brute force against the table's own
   hash. *)
let colliding hash key n =
  let home = hash (key 0) land 1023 in
  let rec go i acc n =
    if n = 0 then List.rev acc
    else
      let k = key i in
      if hash k land 1023 = home then go (i + 1) (k :: acc) (n - 1)
      else go (i + 1) acc n
  in
  go 1 [ key 0 ] n

let int_collisions = colliding Pfm.hash_int Fun.id 8
let str_collisions =
  colliding Pfm.hash_str (fun i -> "/dev/k" ^ string_of_int i) 8

let table_cases_gen key =
  let open QCheck2.Gen in
  let case = pair key (int_range (-3) 400) in
  frequency
    [ (1, return []); (1, map (fun c -> [ c ]) case);
      (6, list_size (int_range 2 24) case) ]

let table_agrees ~of_list ~find ~fold ~compare ~print (cases, probes) =
  let t = of_list cases in
  let default = min_int in
  let expect k =
    match List.assoc_opt k (List.rev cases) with Some d -> d | None -> default
  in
  let keys = List.sort_uniq compare (List.map fst cases) in
  let folded = List.rev (fold (fun k _ acc -> k :: acc) t []) in
  if folded <> keys then
    QCheck2.Test.fail_reportf "fold visits [%s], want [%s]"
      (String.concat "; " (List.map print folded))
      (String.concat "; " (List.map print keys));
  List.for_all
    (fun k ->
      let got = find t k default in
      got = expect k
      || QCheck2.Test.fail_reportf "find %s = %d, the case list says %d"
           (print k) got (expect k))
    (List.map fst cases @ probes)

let prop_itable_find =
  let open QCheck2.Gen in
  let key =
    frequency
      [ (4, int_range (-5) 5);
        (2, oneofl [ min_int; max_int; min_int + 1; max_int - 1; -1 ]);
        (3, oneofl int_collisions); (2, int) ]
  in
  QCheck2.Test.make ~name:"pfm: int switch table find equals an assoc lookup"
    ~count:1000
    (pair (table_cases_gen key) (list_size (int_bound 12) key))
    (table_agrees ~of_list:Pfm.int_table ~find:Pfm.find_int
       ~fold:Pfm.table_fold ~compare:Int.compare ~print:string_of_int)

let prop_stable_find =
  let open QCheck2.Gen in
  let key =
    let part = oneofl [ ""; "/"; "/media/"; "/dev/ttyS"; "/usr/sbin/svc"; "a" ] in
    let tail = oneofl [ ""; "0"; "1"; "01"; ".so"; "/x"; "sb1" ] in
    frequency
      [ (5,
         map3
           (fun p m t ->
             let s = p ^ m ^ t in
             String.sub s 0 (min 40 (String.length s)))
           part (string_size ~gen:(char_range 'a' 'c') (int_bound 30)) tail);
        (2, oneofl str_collisions);
        (1, string_size ~gen:char (int_bound 40)) ]
  in
  QCheck2.Test.make
    ~name:"pfm: string switch table find equals an assoc lookup" ~count:1000
    (pair (table_cases_gen key) (list_size (int_bound 12) key))
    (table_agrees ~of_list:Pfm.string_table ~find:Pfm.find_str
       ~fold:Pfm.table_fold ~compare:String.compare
       ~print:(Printf.sprintf "%S"))

let absint_agrees ?(max_disjuncts = 64) p =
  let s = Absint.analyze ~max_disjuncts p in
  Absint_reference.analyze ~max_disjuncts p
  = ( s.Absint.reachable,
      (s.Absint.allow_reachable, s.Absint.deny_reachable, s.Absint.reject_reachable),
      s.Absint.const_branches )

(* Garbage programs too: backward and out-of-range offsets, fields past
   the context, and small caps so joins happen at branching pcs. *)
let absint_program_gen =
  let open QCheck2.Gen in
  let off = int_range (-1) 6 in
  let small = int_range (-2) 4 in
  let str = oneofl [ ""; "a"; "ab"; "b" ] in
  let cond =
    oneof
      [ map (fun k -> Pfm.Eq k) small; map (fun k -> Pfm.Ge k) small;
        map (fun k -> Pfm.Le k) small;
        map2 (fun lo w -> Pfm.In_range (lo, lo + w)) small (int_bound 3);
        map (fun k -> Pfm.All_bits k) (int_bound 3);
        map2 (fun mask value -> Pfm.Masked_eq { mask; value })
          (int_bound 3) (int_bound 3);
        map (fun f -> Pfm.Eq_field f) (int_range (-1) 2);
        map (fun s -> Pfm.Str_eq s) str; map (fun s -> Pfm.Str_prefix s) str ]
  in
  let table of_list key = map of_list (list_size (int_bound 3) (pair key off)) in
  let insn =
    frequency
      [ (3, map (fun f -> Pfm.Ld_int f) (int_range (-1) 2));
        (2, map (fun f -> Pfm.Ld_str f) (int_range (-1) 1));
        (1, map (fun d -> Pfm.Jmp d) off);
        (5, map3 (fun c jt jf -> Pfm.Jif (c, jt, jf)) cond off off);
        (1, map2 (fun tbl default -> Pfm.Iswitch { tbl; default })
              (table Pfm.int_table small) off);
        (1, map2 (fun tbl default -> Pfm.Sswitch { tbl; default })
              (table Pfm.string_table str) off);
        (3, map (fun v -> Pfm.Ret v) (oneofl [ Pfm.Allow; Pfm.Deny; Pfm.Reject ])) ]
  in
  map
    (fun ((ni, ns), insns) ->
      { Pfm.pname = "random"; n_int_fields = ni; n_str_fields = ns;
        insns = Array.of_list insns; counters = Array.make (List.length insns) 0;
        retired = 0 })
    (pair (pair (int_bound 2) (int_bound 1)) (list_size (int_range 1 24) insn))

let prop_absint_reference_random =
  QCheck2.Test.make
    ~name:"absint: random programs analyze as the reference interpreter"
    ~count:1000
    QCheck2.Gen.(pair absint_program_gen (oneofl [ 0; 1; 2; 3; 64 ]))
    (fun (p, max_disjuncts) -> absint_agrees ~max_disjuncts p)

let guard_gen =
  QCheck2.Gen.(
    oneof
      [ return Phase.Always;
        map (fun q -> Phase.Upto q) (oneofl Phase.all);
        map (fun q -> Phase.Exactly q) (oneofl Phase.all);
        map (fun q -> Phase.From q) (oneofl Phase.all) ])

let fm_rule_gen =
  QCheck2.Gen.(
    map
      (fun ((src, tgt), ((fs, flags), (user, phase))) ->
        { Compile.fm_source = src; fm_target = tgt; fm_fstype = fs;
          fm_flags = flags; fm_user_only = user; fm_phase = phase })
      (pair
         (pair (oneofl sources) (oneofl targets))
         (pair (pair (oneofl fstypes) flags_gen) (pair bool guard_gen))))

let guarded_bind_entry_gen =
  QCheck2.Gen.map2
    (fun (e : Bindconf.entry) phase -> { e with phase })
    bind_entry_gen guard_gen

(* Compiled policies from small pools, so duplicate rules, "auto"
   fstypes and phase guards all occur: the full program and every
   phase's residual, with the default cap and a small one. *)
let prop_absint_reference_policies =
  QCheck2.Test.make
    ~name:"absint: compiled mount/umount/bind policies analyze as the reference interpreter"
    ~count:300
    QCheck2.Gen.(
      triple (list_size (int_bound 12) fm_rule_gen)
        (list_size (int_bound 10) guarded_bind_entry_gen)
        (oneofl [ 2; 64 ]))
    (fun (rules, entries, max_disjuncts) ->
      let programs phase =
        [ Compile.mount ?phase rules; Compile.umount ?phase rules;
          Compile.bind ?phase entries ]
      in
      List.for_all (absint_agrees ~max_disjuncts)
        (List.concat_map programs
           (None :: List.map Option.some Phase.all)
        @ [ Compile.mount_linear rules; Compile.bind_linear entries ]))

(* --- decision cache: cached == engine == reference under reloads --------
   10k random decisions per hook, driven through the dispatcher with the
   cache enabled, with a policy reload every ~100 decisions.  At every
   step the (possibly cached) answer must equal a fresh engine evaluation
   with the cache bypassed AND the reference oracle — so neither the
   packet hook's table nor a request hook's program can ever serve a
   verdict the live policy would not produce.  Deterministic: a fixed Random.State drives the
   QCheck generators directly. *)

module PD = Protego_core.Pfm_dispatch
module Request = Protego_core.Request
module DC = Protego_core.Decision_cache

let decisions_per_hook = 10_000
let reload_every = 100

let cache_differential ~name ~state ~reload ~query ~decide ~oracle () =
  let rand = Random.State.make [| 0xCAC4ED; Hashtbl.hash name |] in
  let gen1 g = QCheck2.Gen.generate1 ~rand g in
  let st = state () in
  let disp = PD.create () in
  let dc = PD.cache disp in
  reload gen1 st;
  for i = 1 to decisions_per_hook do
    if i mod reload_every = 0 then reload gen1 st;
    let q = query gen1 in
    let cached = decide disp st q in
    DC.set_enabled dc false;
    let engine = decide disp st q in
    DC.set_enabled dc true;
    let expect = oracle st q in
    if cached <> expect then
      Alcotest.failf "%s: step %d: cached verdict differs from the oracle" name
        i;
    if engine <> expect then
      Alcotest.failf "%s: step %d: engine verdict differs from the oracle" name
        i
  done

let subject_gen = QCheck2.Gen.oneofl [ 0; 1000; 1001 ]

(* The differential's pools are the filter pools widened with strings a
   key that joins fields with a separator cannot tell apart: values that
   hold the unit separator, the empty string, and values that extend one
   another. *)
let us = "\x1f"

let cd_sources =
  sources @ [ ""; "/dev/sdc1"; "/dev/sdc1" ^ us ^ "/media/stick" ]

let cd_targets =
  targets @ [ ""; "/etc"; "/media/stick"; "/media/stick" ^ us ^ "/etc" ]

let cd_fstypes = fstypes @ [ ""; "/etc" ^ us ^ "ext4"; us ^ "ext4" ]

(* The (source, target, fstype) tuples of the pools that share their
   separator-joined rendering with another tuple.  Half the mount queries
   are drawn from them, so two of one rendering meet under one subject
   and flag set well inside a reload period. *)
let colliding_mounts =
  let rendered (s, t, f) = String.concat us [ s; t; f ] in
  let all =
    List.concat_map
      (fun s ->
        List.concat_map
          (fun t -> List.map (fun f -> (s, t, f)) cd_fstypes)
          cd_targets)
      cd_sources
  in
  List.filter
    (fun q -> List.exists (fun q' -> q' <> q && rendered q' = rendered q) all)
    all

(* Plain rules over the widened pools, and [auto] rules — which match
   any fstype, so they split a colliding group — half of them on the
   (source, target) of a colliding tuple. *)
let cd_mount_rule_gen =
  QCheck2.Gen.(
    frequency
      [ ( 1,
          mount_rule_of ~source:(oneofl cd_sources)
            ~target:(oneofl cd_targets) ~fstype:(oneofl cd_fstypes) );
        ( 1,
          bind
            (frequency
               [ (1, pair (oneofl cd_sources) (oneofl cd_targets));
                 ( 1,
                   oneofl (List.map (fun (s, t, _) -> (s, t)) colliding_mounts)
                 ) ])
            (fun (s, t) ->
              mount_rule_of ~source:(return s) ~target:(return t)
                ~fstype:(return "auto")) ) ])

let mount_policy_gen = QCheck2.Gen.(list_size (int_bound 12) cd_mount_rule_gen)

let mount_query_gen =
  QCheck2.Gen.(
    pair
      (frequency
         [ ( 1,
             triple (oneofl cd_sources) (oneofl cd_targets)
               (oneofl cd_fstypes) );
           (1, oneofl colliding_mounts) ])
      (pair flags_gen subject_gen))

let cache_diff_mount =
  cache_differential ~name:"mount" ~state:PS.create
    ~reload:(fun gen1 st -> PS.set st (PS.Set_mounts (gen1 mount_policy_gen)))
    ~query:(fun gen1 -> gen1 mount_query_gen)
    ~decide:(fun disp st ((source, target, fstype), (flags, subject)) ->
      PD.decide disp ~phase:Phase.initial st
        (Request.Mount { subject; source; target; fstype; flags }))
    ~oracle:(fun st ((source, target, fstype), (flags, _)) ->
      PS.mount_decision st ~source ~target ~fstype ~flags)

let umount_query_gen =
  QCheck2.Gen.(
    triple (oneofl cd_targets) (oneofl [ 0; 1000; 1001 ])
      (oneofl [ 0; 1000; 1001 ]))

let cache_diff_umount =
  cache_differential ~name:"umount" ~state:PS.create
    ~reload:(fun gen1 st -> PS.set st (PS.Set_mounts (gen1 mount_policy_gen)))
    ~query:(fun gen1 -> gen1 umount_query_gen)
    ~decide:(fun disp st (target, mounted_by, ruid) ->
      PD.decide disp ~phase:Phase.initial st
        (Request.Umount { subject = ruid; target; mounted_by }))
    ~oracle:(fun st (target, mounted_by, ruid) ->
      PS.umount_decision st ~target ~mounted_by ~ruid)

let cd_bind_exes =
  bind_exes @ [ ""; "/usr/sbin/sshd" ^ us ^ "25"; "/usr/sbin/sshd" ^ us ]

let bind_query_gen =
  QCheck2.Gen.(
    pair
      (pair (oneofl (1000 :: bind_ports)) bool)
      (pair (oneofl cd_bind_exes) (oneofl bind_uids)))

let cache_diff_bind =
  cache_differential ~name:"bind" ~state:PS.create
    ~reload:(fun gen1 st ->
      let entries = QCheck2.Gen.list_size (QCheck2.Gen.int_bound 10) in
      PS.set st (PS.Set_binds (gen1 (entries (bind_entry_of cd_bind_exes)))))
    ~query:(fun gen1 -> gen1 bind_query_gen)
    ~decide:(fun disp st ((port, tcp), (exe, uid)) ->
      let proto = if tcp then Bindconf.Tcp else Bindconf.Udp in
      PD.decide disp ~phase:Phase.initial st
        (Request.Bind { subject = uid; port; proto; exe }))
    ~oracle:(fun st ((port, tcp), (exe, uid)) ->
      let proto = if tcp then Bindconf.Tcp else Bindconf.Udp in
      PS.bind_allowed st ~port ~proto ~exe ~uid)

let cd_ppp_devices =
  ppp_devices @ [ ""; "/dev/ttyS0" ^ us ^ "1"; "/dev/ttyS0" ^ us ]

let ppp_query_gen =
  QCheck2.Gen.(
    pair (pair (oneofl ("/dev/ttyS9" :: cd_ppp_devices)) (oneofl ppp_opts))
      subject_gen)

let cache_diff_ppp =
  cache_differential ~name:"ppp_ioctl" ~state:PS.create
    ~reload:(fun gen1 st ->
      PS.set st
        (PS.Set_ppp
           { Pppopts.directives =
               gen1
                 QCheck2.Gen.(
                   list_size (int_bound 6) (ppp_directive_of cd_ppp_devices))
           }))
    ~query:(fun gen1 -> gen1 ppp_query_gen)
    ~decide:(fun disp st ((device, opt), subject) ->
      PD.decide disp ~phase:Phase.initial st
        (Request.Ppp_ioctl { subject; device; opt }))
    ~oracle:(fun st ((device, opt), _) ->
      PS.ppp_ioctl_decision st ~device ~opt)

let nf_chain_gen =
  QCheck2.Gen.(
    pair (list_size (int_bound 8) nf_rule_gen) (oneofl nf_verdicts))

(* Each reload goes through one mutator mix — a full reload (flush, policy,
   appends), one [insert] alone, or one [set_policy] alone — so a mutator
   that forgot to bump the table's generation would let a stale cached
   verdict through. *)
let cache_diff_nf =
  cache_differential ~name:"nf_output"
    ~state:(fun () -> Netfilter.create ())
    ~reload:(fun gen1 nf ->
      let out = Netfilter.Output in
      gen1
        QCheck2.Gen.(
          oneof
            [ map
                (fun (rules, policy) () ->
                  Netfilter.flush nf out;
                  Netfilter.set_policy nf out policy;
                  List.iter (Netfilter.append nf out) rules)
                nf_chain_gen;
              map (fun r () -> Netfilter.insert nf out r) nf_rule_gen;
              map (fun v () -> Netfilter.set_policy nf out v)
                (oneofl nf_verdicts) ])
        ())
    ~query:(fun gen1 -> gen1 nf_packet_gen)
    ~decide:(fun disp nf (pkt, origin) ->
      PD.decide_nf_output disp nf pkt ~origin)
    ~oracle:(fun nf (pkt, origin) ->
      Netfilter.walk nf Netfilter.Output pkt ~origin)

let suites =
  [ ("fuzz:properties",
      List.map
        (QCheck_alcotest.to_alcotest ~long:false)
        [ prop_proc_fuzz; prop_command_fuzz; prop_netfilter_first_match;
          prop_rule_spec_roundtrip;
          prop_sudoers_roundtrip; prop_resolve_normalized;
          prop_normalize_reference; prop_resolve_reference;
          prop_absint_reference_random; prop_absint_reference_policies;
          prop_itable_find; prop_stable_find ]);
    ("fuzz:filter-differential",
      List.map
        (QCheck_alcotest.to_alcotest ~long:false)
        [ prop_pfm_mount; prop_pfm_umount; prop_pfm_bind ]
      @ [ pfm_netfilter_case;
          QCheck_alcotest.to_alcotest ~long:false prop_pfm_ppp ]);
    ("fuzz:absint-soundness",
      List.map
        (QCheck_alcotest.to_alcotest ~long:false)
        [ prop_absint_sound_mount; prop_absint_sound_nf;
          prop_absint_sound_bind ]);
    ("fuzz:cache-differential",
      [ Alcotest.test_case "mount: cached == engine == reference" `Quick
          cache_diff_mount;
        Alcotest.test_case "umount: cached == engine == reference" `Quick
          cache_diff_umount;
        Alcotest.test_case "bind: cached == engine == reference" `Quick
          cache_diff_bind;
        Alcotest.test_case "ppp_ioctl: cached == engine == reference" `Quick
          cache_diff_ppp;
        Alcotest.test_case "nf_output: cached == engine == reference" `Quick
          cache_diff_nf ]) ]
