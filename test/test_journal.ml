(* The binary audit journal: commit-protocol torn-tail tolerance,
   segment-boundary padding, wraparound accounting, cross-term stitch,
   persistence, the kernel audit ring view's drop counting, the
   journal-vs-spool differential under a 4-domain storm run, and
   total-order replay against the snapshot history. *)

open Protego_kernel
open Ktypes
module Image = Protego_dist.Image
module J = Protego_journal.Journal
module PS = Protego_core.Policy_state
module Pfm = Protego_filter.Pfm
module Plane = Protego_plane.Plane
module Replay = Protego_plane.Replay
module Workload = Protego_workload.Workload
module Errno = Protego_base.Errno

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* --- encoding roundtrip -------------------------------------------------- *)

let test_roundtrip () =
  let j = J.create () in
  let tm = J.term j ~domain:3 in
  J.append_mount tm ~seq:0 ~run:1 ~epoch:2 ~phase:2 ~subject:1000 ~verdict:1
    ~errno:0 ~source:"/dev/cdrom" ~target:"/media/cdrom" ~fstype:"iso9660"
    ~flags:0xb;
  J.append_umount tm ~seq:1 ~run:1 ~epoch:2 ~phase:1 ~subject:1001 ~verdict:0
    ~errno:(Errno.to_code Errno.EPERM) ~target:"/media/usb" ~mounted_by:7;
  J.append_bind tm ~seq:2 ~run:1 ~epoch:3 ~phase:0 ~subject:25 ~verdict:0
    ~errno:(Errno.to_code Errno.EACCES) ~port:25 ~proto:1 ~exe:"/usr/sbin/smtpd";
  J.append_ppp tm ~seq:3 ~run:1 ~epoch:3 ~phase:1 ~subject:8 ~verdict:1 ~errno:0
    ~device:"/dev/ttyS0" ~safe:true;
  J.append_kaudit tm ~time:42. ~pid:99 ~uid:1000 ~op:"mount" ~obj:"x"
    ~allowed:false ~engine:(Some "pfm") ~span:(Some 5);
  check_int "five records" 5 (J.live_entries j);
  check_int "nothing dropped" 0 (J.dropped j);
  (match J.entries j with
  | [ J.Decision m; J.Decision u; J.Decision b; J.Decision p; J.Kaudit k ] ->
      (match m.J.d_req with
      | J.Mount { source; target; fstype; flags } ->
          check_bool "mount fields" true
            (source = "/dev/cdrom" && target = "/media/cdrom"
            && fstype = "iso9660" && flags = 0xb)
      | _ -> Alcotest.fail "mount reqtag");
      check_bool "mount stamps" true
        (m.J.d_seq = 0 && m.J.d_run = 1 && m.J.d_epoch = 2
        && m.J.d_domain = 3 && m.J.d_subject = 1000 && m.J.d_verdict = 1
        && m.J.d_errno = 0);
      (match u.J.d_req with
      | J.Umount { target; mounted_by } ->
          check_bool "umount fields" true
            (target = "/media/usb" && mounted_by = 7)
      | _ -> Alcotest.fail "umount reqtag");
      check_bool "umount errno survives the wire" true
        (Errno.of_code u.J.d_errno = Some Errno.EPERM);
      (match b.J.d_req with
      | J.Bind { port; proto; exe } ->
          check_bool "bind fields" true
            (port = 25 && proto = 1 && exe = "/usr/sbin/smtpd")
      | _ -> Alcotest.fail "bind reqtag");
      (match p.J.d_req with
      | J.Ppp { device; safe } ->
          check_bool "ppp fields" true (device = "/dev/ttyS0" && safe)
      | _ -> Alcotest.fail "ppp reqtag");
      (* The phase byte round-trips on every request kind. *)
      Alcotest.(check (list int))
        "phases" [ 2; 1; 0; 1 ]
        (List.map (fun d -> d.J.d_phase) [ m; u; b; p ]);
      check_bool "kaudit fields" true
        (k.J.k_time = 42. && k.J.k_pid = 99 && k.J.k_uid = 1000
        && k.J.k_op = "mount" && k.J.k_obj = "x" && not k.J.k_allowed
        && k.J.k_engine = Some "pfm" && k.J.k_span = Some 5)
  | _ -> Alcotest.fail "unexpected entry shapes");
  (* Strings cap at 255 bytes on the wire. *)
  let long = String.make 400 'a' in
  J.append_umount tm ~seq:4 ~run:1 ~epoch:3 ~phase:0 ~subject:0 ~verdict:1
    ~errno:0 ~target:long ~mounted_by:0;
  match List.rev (J.entries j) with
  | J.Decision { J.d_req = J.Umount { target; _ }; _ } :: _ ->
      check_int "string truncated" 255 (String.length target);
      check_bool "truncated prefix" true (target = String.sub long 0 255)
  | _ -> Alcotest.fail "long-string record missing"

(* --- torn tail ----------------------------------------------------------- *)

let test_torn_tail () =
  let j = J.create ~seg_bytes:4096 ~segments:4 () in
  let tm = J.term j ~domain:0 in
  let app seq =
    J.append_ppp tm ~seq ~run:0 ~epoch:0 ~phase:0 ~subject:1 ~verdict:1 ~errno:0
      ~device:"/dev/ttyS0" ~safe:true
  in
  app 0;
  app 1;
  (* A claim that never commits: the body region is claimed and may be
     half-filled, but the header stays zero. *)
  let at = J.unsafe_claim tm 64 in
  app 2;
  (* The reader must stop at the uncommitted header — record 2 exists
     physically after the torn region but is unreachable until the torn
     record commits.  Nothing decodes partially, nothing throws. *)
  check_int "scan stops at the torn record" 2 (J.live_entries j);
  (match J.entries j with
  | [ J.Decision a; J.Decision b ] ->
      check_bool "prefix intact" true (a.J.d_seq = 0 && b.J.d_seq = 1)
  | _ -> Alcotest.fail "prefix damaged by the torn tail");
  (* Commit the claim as padding: the scan now skips it and record 2
     becomes visible — torn-tail recovery is just late commit. *)
  J.commit j ~at ~len:64 ~padding:true;
  check_int "recovered past the commit" 3 (J.live_entries j);
  match List.rev (J.entries j) with
  | J.Decision c :: _ -> check_int "record after the gap" 2 c.J.d_seq
  | _ -> Alcotest.fail "record after the gap missing"

(* --- segment boundaries -------------------------------------------------- *)

let test_segment_boundary () =
  let j = J.create ~seg_bytes:4096 ~segments:8 () in
  let tm = J.term j ~domain:0 in
  (* 72-byte records: 4096 mod 72 <> 0, so every segment ends in a
     padding record the reader must skip. *)
  let n = 200 in
  for seq = 0 to n - 1 do
    J.append_mount tm ~seq ~run:0 ~epoch:0 ~phase:0 ~subject:seq ~verdict:1
      ~errno:0 ~source:"/dev/wl00" ~target:"/media/wl00" ~fstype:"ext4" ~flags:0
  done;
  let st = J.stats j in
  check_bool "crossed segments" true (st.J.s_tail > J.seg_bytes j);
  check_bool "padding written" true (st.J.s_padding >= 1);
  check_int "padding is invisible" n st.J.s_live;
  check_int "no drops below capacity" 0 st.J.s_dropped;
  (* Order and content survive the boundary crossings. *)
  List.iteri
    (fun i e ->
      match e with
      | J.Decision d ->
          if d.J.d_seq <> i || d.J.d_subject <> i then
            Alcotest.failf "record %d corrupted across boundary" i
      | J.Kaudit _ -> Alcotest.fail "unexpected kaudit")
    (J.entries j)

(* --- wraparound ---------------------------------------------------------- *)

let test_wraparound () =
  let j = J.create ~seg_bytes:4096 ~segments:4 () in
  let tm = J.term j ~domain:0 in
  let n = 2_000 in
  (* ~48B per record * 2000 >> 16KiB capacity: several full laps. *)
  for seq = 0 to n - 1 do
    J.append_umount tm ~seq ~run:0 ~epoch:0 ~phase:0 ~subject:seq ~verdict:0
      ~errno:(Errno.to_code Errno.EPERM) ~target:"/media/none" ~mounted_by:1
  done;
  let st = J.stats j in
  check_bool "lapped" true (st.J.s_laps >= 2);
  check_int "every append counted" n st.J.s_records;
  check_bool "live window bounded" true
    (st.J.s_live > 0 && st.J.s_live < n);
  check_int "drop arithmetic" n (st.J.s_live + st.J.s_dropped);
  (* The live window is exactly the newest records, still in order, and
     every one decodes — no stale previous-lap bytes survive the
     re-zeroing, no header aliases across laps. *)
  let seqs =
    List.filter_map
      (function J.Decision d -> Some d.J.d_seq | J.Kaudit _ -> None)
      (J.entries j)
  in
  check_int "decoded = live" st.J.s_live (List.length seqs);
  List.iteri
    (fun i s ->
      if s <> n - st.J.s_live + i then
        Alcotest.failf "live window not the newest suffix at %d" i)
    seqs

(* --- writer backpressure -------------------------------------------------- *)

let test_term_capacity () =
  let j = J.create ~seg_bytes:4096 ~segments:4 () in
  let terms = Array.init 4 (fun w -> J.term j ~domain:w) in
  (* Every active term owns a whole segment: a fifth writer on four
     segments would alias a physical segment from its first claim. *)
  (match J.term j ~domain:4 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "fifth term on four segments must be rejected");
  (* Retiring a term frees its slot — and folds its counters into the
     journal-wide totals instead of losing them. *)
  J.append_ppp terms.(0) ~seq:0 ~run:0 ~epoch:0 ~phase:0 ~subject:1 ~verdict:1
    ~errno:0 ~device:"/dev/ttyS0" ~safe:true;
  J.retire terms.(0);
  let st = J.stats j in
  check_int "retired term deregistered" 3 st.J.s_terms;
  check_int "retired records survive in totals" 1 st.J.s_records;
  check_bool "retired remainder padded out" true (st.J.s_padding >= 1);
  check_int "retired record still decodes" 1 (J.live_entries j);
  let tm = J.term j ~domain:4 in
  J.append_ppp tm ~seq:1 ~run:0 ~epoch:0 ~phase:0 ~subject:1 ~verdict:1 ~errno:0
    ~device:"/dev/ttyS1" ~safe:true;
  check_int "freed slot reusable" 2 (J.live_entries j)

let test_writer_overrun () =
  let j = J.create ~seg_bytes:4096 ~segments:4 () in
  let a = J.term j ~domain:0 in
  let b = J.term j ~domain:1 in
  (* A claims physical segment 0 and stalls. *)
  J.append_ppp a ~seq:0 ~run:0 ~epoch:0 ~phase:0 ~subject:1 ~verdict:1 ~errno:0
    ~device:"/dev/ttyS0" ~safe:true;
  (* B writes through segments 1..3; its next claim wraps onto physical
     segment 0, which A still owns — the journal must refuse loudly
     rather than zero-fill A's committed records under it. *)
  match
    for seq = 1 to 10_000 do
      J.append_umount b ~seq ~run:0 ~epoch:0 ~phase:0 ~subject:seq ~verdict:1
        ~errno:0 ~target:"/media/none" ~mounted_by:1
    done
  with
  | () -> Alcotest.fail "a full-lap writer overrun must fail loudly"
  | exception Failure msg ->
      check_bool "overrun names the cause" true (contains msg "overrun");
      (* The store is still coherent: everything live decodes. *)
      check_bool "journal still readable" true (J.live_entries j > 0)

(* --- stitch -------------------------------------------------------------- *)

let test_stitch_terms () =
  let j = J.create () in
  let d = 4 and n = 100 in
  let terms = Array.init d (fun w -> J.term j ~domain:w) in
  (* Round-robin like the plane: term w owns seqs congruent to w mod d,
     epochs advance every 25 requests (as if three reloads landed). *)
  for w = 0 to d - 1 do
    let seq = ref w in
    while !seq < n do
      J.append_bind terms.(w) ~seq:!seq ~run:7 ~epoch:(!seq / 25) ~phase:0
        ~subject:w ~verdict:1 ~errno:0 ~port:(1000 + !seq) ~proto:0
        ~exe:"/usr/sbin/svc0";
      seq := !seq + d
    done
  done;
  (match J.stitch j ~run:7 ~base:0 ~count:n with
  | Error e -> Alcotest.failf "stitch failed: %s" e
  | Ok ds ->
      check_int "full run" n (Array.length ds);
      Array.iteri
        (fun i dec ->
          if dec.J.d_seq <> i then Alcotest.failf "order hole at %d" i;
          if dec.J.d_domain <> i mod d then
            Alcotest.failf "wrong owning term at %d" i;
          if dec.J.d_epoch <> i / 25 then
            Alcotest.failf "epoch stamp lost at %d" i)
        ds);
  (* Records of other runs are invisible to the stitch. *)
  J.append_bind terms.(0) ~seq:0 ~run:8 ~epoch:4 ~phase:0 ~subject:0 ~verdict:0
    ~errno:(Errno.to_code Errno.EACCES) ~port:2000 ~proto:1 ~exe:"/bin/x";
  (match J.stitch j ~run:7 ~base:0 ~count:n with
  | Error e -> Alcotest.failf "stitch polluted by another run: %s" e
  | Ok ds -> check_int "still the full run" n (Array.length ds));
  (* A duplicate sequence stamp is an error, not a silent overwrite. *)
  J.append_bind terms.(1) ~seq:5 ~run:7 ~epoch:0 ~phase:0 ~subject:1 ~verdict:1
    ~errno:0 ~port:1005 ~proto:0 ~exe:"/usr/sbin/svc0";
  (match J.stitch j ~run:7 ~base:0 ~count:n with
  | Error e -> check_bool "duplicate reported" true (contains e "duplicate")
  | Ok _ -> Alcotest.fail "duplicate seq must fail the stitch");
  (* A missing record likewise. *)
  match J.stitch j ~run:8 ~base:0 ~count:3 with
  | Error e -> check_bool "loss reported" true (contains e "lost")
  | Ok _ -> Alcotest.fail "missing seq must fail the stitch"

(* --- persistence --------------------------------------------------------- *)

let with_temp f =
  let path = Filename.temp_file "protego_journal" ".bin" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let test_save_load () =
  let j = J.create ~seg_bytes:4096 ~segments:4 () in
  let tm = J.term j ~domain:2 in
  for seq = 0 to 499 do
    J.append_ppp tm ~seq ~run:3 ~epoch:1 ~phase:(seq mod 3) ~subject:seq
      ~verdict:(seq land 1)
      ~errno:(if seq land 1 = 1 then 0 else Errno.to_code Errno.EPERM)
      ~device:"/dev/ttyS1" ~safe:false
  done;
  with_temp (fun path ->
      J.save j path;
      match J.load path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok j2 ->
          check_bool "stats survive" true (J.stats j2 = J.stats j);
          check_bool "entries survive" true (J.entries j2 = J.entries j));
  match J.load "/nonexistent/journal.bin" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "loading a missing file must error"

let test_load_v1 () =
  with_temp @@ fun path ->
  write_file path ("PJRNL1\n4096 4 0 0\n" ^ String.make 16384 '\000');
  match J.load path with
  | Error e -> check_bool ("v1 refused, naming the version: " ^ e) true
                 (contains e "PJRNL1")
  | Ok _ -> Alcotest.fail "a PJRNL1 image must not load"

(* Run [protego-journal dump FILE]; its exit code and stderr. *)
let cli_dump file =
  with_temp @@ fun err ->
  let code =
    Sys.command
      (Filename.quote_command (Test_support.journal_exe ()) [ "dump"; file ]
         ~stdout:Filename.null ~stderr:err)
  in
  (code, In_channel.with_open_bin err In_channel.input_all)

(* One record of each kind, then one byte of one record flipped per
   case: [load] must refuse the image with a message naming the fault,
   and [protego-journal dump] must exit 1 with that message instead of
   raising from a later decode. *)
let test_load_corrupt () =
  let seg_bytes = 4096 and segments = 4 in
  let j = J.create ~seg_bytes ~segments () in
  let tm = J.term j ~domain:0 in
  J.append_mount tm ~seq:0 ~run:0 ~epoch:0 ~phase:0 ~subject:1 ~verdict:1
    ~errno:0 ~source:"/dev/cdrom" ~target:"/media/cdrom" ~fstype:"iso9660"
    ~flags:0;
  J.append_umount tm ~seq:1 ~run:0 ~epoch:0 ~phase:1 ~subject:1 ~verdict:0
    ~errno:(Errno.to_code Errno.EPERM) ~target:"/media/cdrom" ~mounted_by:1;
  J.append_bind tm ~seq:2 ~run:0 ~epoch:0 ~phase:2 ~subject:1 ~verdict:1
    ~errno:0 ~port:80 ~proto:0 ~exe:"/usr/sbin/httpd";
  J.append_ppp tm ~seq:3 ~run:0 ~epoch:0 ~phase:2 ~subject:1 ~verdict:1
    ~errno:0 ~device:"/dev/ttyS0" ~safe:true;
  J.append_kaudit tm ~time:1. ~pid:1 ~uid:0 ~op:"mount" ~obj:"x" ~allowed:true
    ~engine:None ~span:None;
  with_temp @@ fun path ->
  J.save j path;
  let image = In_channel.with_open_bin path In_channel.input_all in
  let store = String.length image - (seg_bytes * segments) in
  (* Record start offsets in the file, from the length-prefix headers. *)
  let starts = Array.make 5 store in
  for i = 1 to 4 do
    let prev = starts.(i - 1) in
    starts.(i) <-
      prev + (Int32.to_int (String.get_int32_le image prev) land 0x3FFFFFFF)
  done;
  check_int "pristine image dumps" 0 (fst (cli_dump path));
  List.iter
    (fun (what, record, field, byte, expect) ->
      let b = Bytes.of_string image in
      Bytes.set_uint8 b (starts.(record) + field) byte;
      write_file path (Bytes.to_string b);
      (match J.load path with
      | Error e ->
          check_bool (Printf.sprintf "%s: %s" what e) true (contains e expect)
      | Ok _ -> Alcotest.failf "%s: corrupted image loaded" what);
      let code, err = cli_dump path in
      check_int (what ^ ": dump exits 1") 1 code;
      check_bool (what ^ ": dump says why") true (contains err expect))
    [ ("kind", 0, 4, 9, "kind 9");
      ("reqtag", 0, 6, 9, "reqtag 9");
      ("string length", 0, 28, 255, "past record end");
      ("verdict", 1, 7, 4, "verdict 4");
      ("proto", 2, 28, 250, "proto 250");
      ("ppp safe", 3, 26, 2, "ppp safe 2");
      ("phase", 3, 9, Protego_base.Phase.count, "phase 3");
      ("kaudit allowed", 4, 5, 2, "allowed 2") ]

(* --- LSM decision records -------------------------------------------------- *)

(* One record of each reqtag through the kernel audit sink: a mount with
   record mode off, a recorded umount, an enforce-mode bind denial, a
   record-mode ppp allow and a record-mode nf allow (a raw traceroute
   probe, on the kernel task). *)
let lsm_sink () =
  let sk = J.sink ~seg_bytes:4096 ~segments:4 () in
  J.sink_mount sk ~time:7. ~pid:3 ~uid:1000 ~subject:1000 ~phase:1
    ~engine:J.engine_cache ~span:0 ~verdict:1 ~record:false ~source:"/dev/sdb1"
    ~target:"/media/usb" ~fstype:"vfat"
    ~flags:[ Mf_nodev; Mf_nosuid; Mf_nodev ]
    ~flag_code:Ktypes.mount_flag_code;
  J.sink_umount sk ~time:8. ~pid:3 ~uid:1000 ~subject:1000 ~phase:0
    ~engine:J.engine_pfm ~span:12 ~verdict:3 ~record:true ~target:"/media/usb"
    ~mounted_by:1001;
  J.sink_bind sk ~time:9. ~pid:4 ~uid:101 ~subject:101 ~phase:2
    ~engine:J.engine_ref ~span:0 ~verdict:0 ~record:false ~port:25 ~proto:1
    ~exe:"/usr/sbin/exim4";
  J.sink_ppp sk ~time:10. ~pid:3 ~uid:1000 ~subject:1000 ~phase:0
    ~engine:J.engine_cache ~span:0 ~verdict:1 ~device:"/dev/ttyS0" ~safe:true;
  J.sink_nf sk ~time:11. ~pid:1 ~uid:0 ~engine:J.engine_pfm ~span:0 ~verdict:1
    { Protego_net.Packet.src = Protego_net.Ipaddr.v 10 0 0 2;
      dst = Protego_net.Ipaddr.v 10 0 0 1; ttl = 1;
      transport =
        Protego_net.Packet.Udp_dgram
          { src_port = 40000; dst_port = 33434; payload = "" } }
    (Protego_net.Packet.Raw_app { uid = 1000 });
  sk

let test_lsm_roundtrip () =
  let sk = lsm_sink () in
  check_int "one seq per record" 5 sk.J.sk_seq;
  check_int "view records: the recorded umount counts twice" 6
    sk.J.sk_emitted;
  match J.entries sk.J.sk_journal with
  | [ J.Decision m; J.Decision u; J.Decision b; J.Decision p; J.Decision n ]
    ->
      List.iteri
        (fun i (d : J.decision) ->
          check_bool (Printf.sprintf "record %d: seq, fixed run" i) true
            (d.J.d_seq = i && d.J.d_run = J.lsm_run && d.J.d_lsm <> None))
        [ m; u; b; p; n ];
      (match (m.J.d_req, m.J.d_lsm) with
      | J.Mount { source; target; fstype; flags }, Some l ->
          check_bool "mount fields" true
            (source = "/dev/sdb1" && target = "/media/usb" && fstype = "vfat"
            && flags = 0x6 && m.J.d_phase = 1 && m.J.d_verdict = 1
            && m.J.d_errno = 0);
          check_bool "mount origin" true
            (l.J.l_time = 7. && l.J.l_pid = 3 && l.J.l_uid = 1000
            && l.J.l_engine = J.engine_cache && l.J.l_span = None
            && (not l.J.l_record) && l.J.l_flags = [ 2; 1; 2 ])
      | _ -> Alcotest.fail "mount record");
      (match (u.J.d_req, u.J.d_lsm) with
      | J.Umount { target; mounted_by }, Some l ->
          check_bool "umount" true
            (target = "/media/usb" && mounted_by = 1001 && u.J.d_verdict = 3
            && l.J.l_record && l.J.l_span = Some 12 && l.J.l_flags = [])
      | _ -> Alcotest.fail "umount record");
      (match b.J.d_req with
      | J.Bind { port; proto; exe } ->
          check_bool "bind" true
            (port = 25 && proto = 1 && exe = "/usr/sbin/exim4"
            && b.J.d_errno = Errno.to_code Errno.EACCES)
      | _ -> Alcotest.fail "bind record");
      (match p.J.d_req with
      | J.Ppp { device; safe } ->
          check_bool "ppp" true (device = "/dev/ttyS0" && safe)
      | _ -> Alcotest.fail "ppp record");
      (match (n.J.d_req, n.J.d_lsm) with
      | J.Nf { origin; proto; dst; dport; icmp }, Some l ->
          check_bool "nf" true
            (origin = `Raw && proto = Protego_net.Packet.Udp
            && Protego_net.Ipaddr.to_string dst = "10.0.0.1"
            && dport = Some 33434 && icmp = None && n.J.d_subject = 1000
            && n.J.d_verdict = 1 && n.J.d_errno = 0 && l.J.l_record
            && l.J.l_pid = 1 && l.J.l_uid = 0)
      | _ -> Alcotest.fail "nf record");
      Alcotest.(check string)
        "nf dump line"
        "decision seq=4 run=0 epoch=0 phase=- domain=0 subject=1000 \
         verdict=allow errno=- nf proto=udp dst=10.0.0.1 dport=33434 \
         origin=raw icmp=- lsm time=11 pid=1 uid=0 engine=pfm record"
        (J.entry_to_string (J.Decision n));
      check_bool "dump names the origin" true
        (contains (J.entry_to_string (J.Decision u))
           "lsm time=8 pid=3 uid=1000 engine=pfm span=12 record")
  | es -> Alcotest.failf "expected 5 decisions, got %d" (List.length es)

(* Every out-of-range field of an LSM record, one byte flipped at a
   time: [load] refuses the image, naming the field.  The record has no
   allowed bit of its own: the verdict carries it, and the mode byte
   must agree with it. *)
let test_lsm_load_corrupt () =
  let sk = lsm_sink () in
  with_temp @@ fun path ->
  J.save sk.J.sk_journal path;
  let image = In_channel.with_open_bin path In_channel.input_all in
  let store = String.length image - (4096 * 4) in
  let starts = Array.make 5 store in
  for i = 1 to 4 do
    let prev = starts.(i - 1) in
    starts.(i) <-
      prev + (Int32.to_int (String.get_int32_le image prev) land 0x3FFFFFFF)
  done;
  (match J.load path with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "pristine image refused: %s" e);
  List.iter
    (fun (what, record, field, byte, expect) ->
      let b = Bytes.of_string image in
      Bytes.set_uint8 b (starts.(record) + field) byte;
      write_file path (Bytes.to_string b);
      match J.load path with
      | Error e ->
          check_bool (Printf.sprintf "%s: %s" what e) true (contains e expect)
      | Ok _ -> Alcotest.failf "%s: corrupted image loaded" what)
    [ ("reqtag", 0, 6, 5, "reqtag 5");
      ("engine code", 0, 8, 3, "engine 3");
      ("verdict reject", 0, 7, 2, "verdict 2");
      ("verdict past recorded", 0, 7, 4, "verdict 4");
      ("recorded outside record mode", 0, 7, 3, "verdict 3");
      ("phase", 0, 9, Protego_base.Phase.count, "phase 3");
      ("mode byte", 0, 5, 2, "record mode 2");
      ("flag code", 0, 39, 16, "flag code 16");
      ("flag count", 0, 38, 250, "flag codes run past record end");
      ("record mode without its verdict", 1, 5, 0, "verdict 3");
      ("deny in record mode", 2, 5, 1, "verdict 0");
      ("proto", 2, 40, 2, "proto 2");
      ("ppp safe", 3, 38, 2, "ppp safe 2");
      ("ppp outside record mode", 3, 5, 0, "ppp record outside record mode");
      ("string length", 3, 39, 255, "past record end");
      ("nf origin", 4, 38, 3, "nf origin 3");
      ("nf proto code", 4, 39, 4, "nf proto 4");
      ("nf dport flag", 4, 46, 2, "nf dport flag 2");
      ("nf ICMP type code", 4, 49, 2, "ICMP type 2");
      ("nf outside record mode", 4, 5, 0, "nf record outside record mode") ]

(* The nf appender allocates nothing, whatever the packet's shape. *)
let test_lsm_nf_allocates_nothing () =
  let module P = Protego_net.Packet in
  let sk = J.sink ~seg_bytes:4096 ~segments:4 () in
  let pkt transport =
    { P.src = Protego_net.Ipaddr.v 10 0 0 2;
      dst = Protego_net.Ipaddr.v 10 0 0 1; ttl = 64; transport }
  in
  let pkts =
    [| pkt (P.Icmp_msg { icmp_type = P.Echo_request; code = 0; payload = "" });
       pkt (P.Tcp_seg { src_port = 1; dst_port = 80; syn = true; payload = "" });
       pkt (P.Udp_dgram { src_port = 1; dst_port = 53; payload = "" });
       pkt (P.Raw_payload { protocol = 0x0806; payload = "" }) |]
  in
  let origins =
    [| P.Kernel_stack; P.Raw_app { uid = 7 }; P.Packet_app { uid = 7 } |]
  in
  let n = 3000 in
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    J.sink_nf sk ~time:1. ~pid:1 ~uid:0 ~engine:J.engine_cache ~span:0
      ~verdict:3 pkts.(i land 3) origins.(i mod 3)
  done;
  let w = (Gc.minor_words () -. before) /. float_of_int n in
  check_bool (Printf.sprintf "%.3f words per nf record" w) true (w < 0.01)

(* A loaded image is untrusted input: one holding an LSM nf record loads,
   and replaying it against a plane's snapshot history reports the
   record as a mismatch (no plane request encodes it) instead of
   raising. *)
let test_lsm_nf_replay () =
  let sk = lsm_sink () in
  with_temp @@ fun path ->
  J.save sk.J.sk_journal path;
  let j =
    match J.load path with
    | Ok j -> j
    | Error e -> Alcotest.failf "image with an nf record refused: %s" e
  in
  let nf =
    List.filter
      (fun (d : J.decision) ->
        match d.J.d_req with J.Nf _ -> true | _ -> false)
      (J.decisions j)
  in
  check_int "the nf record loaded" 1 (List.length nf);
  let plane = Plane.create (PS.create ()) in
  let rep =
    Replay.replay ~snapshot_of_epoch:(Plane.snapshot_at plane)
      (Array.of_list nf)
  in
  check_int "nothing matched" 0 rep.Replay.rp_matched;
  match rep.Replay.rp_mismatches with
  | [ { Replay.mm_field = "request"; mm_got = "nf"; mm_seq = 4; _ } ] -> ()
  | _ -> Alcotest.failf "expected one request mismatch:\n%s" (Replay.render rep)

(* --- kernel audit ring view ---------------------------------------------- *)

let fixture () =
  let img = Image.build Image.Protego in
  img.Image.machine.password_source <- (fun _ -> None);
  Audit.clear img.Image.machine;
  img

let test_kernel_audit_dropped () =
  let img = fixture () in
  let m = img.Image.machine in
  let root = Image.login img "root" in
  let over = 50 in
  for i = 1 to Audit.capacity + over do
    Audit.emit m root ~op:"probe" ~obj:(string_of_int i) ~allowed:true
  done;
  check_int "view bounded" Audit.capacity (List.length (Audit.records m));
  check_int "overflow counted, not lost silently" over (Audit.dropped m);
  (* The view keeps the newest records. *)
  (match List.rev (Audit.records m) with
  | newest :: _ ->
      check_bool "newest retained" true
        (newest.Audit.au_obj = string_of_int (Audit.capacity + over))
  | [] -> Alcotest.fail "empty view");
  check_bool "summary line renders the count" true
    (contains (Audit.render m)
       (Printf.sprintf "records=%d dropped=%d" Audit.capacity over));
  Audit.clear m;
  check_int "clear restarts the counters" 0 (Audit.dropped m);
  check_bool "clear empties the view" true (Audit.records m = [])

(* --- plane differential + replay ----------------------------------------- *)

let spec ?(seed = 7) ?(phases = [ (Workload.Steady, 2_000) ]) () =
  { (Workload.default ~seed ~phases ()) with Workload.rules = 24; pool = 64 }

let fresh_state sp =
  let st = PS.create () in
  Workload.install_policy sp st;
  st

let oracle (st : PS.t) = function
  | Plane.Mount { source; target; fstype; flags; _ } ->
      PS.mount_decision st ~source ~target ~fstype ~flags
  | Plane.Umount { subject; target; mounted_by } ->
      PS.umount_decision st ~target ~mounted_by ~ruid:subject
  | Plane.Bind { subject; port; proto; exe } ->
      PS.bind_allowed st ~port ~proto ~exe ~uid:subject
  | Plane.Ppp_ioctl { device; opt; _ } -> PS.ppp_ioctl_decision st ~device ~opt

let storm_phases =
  [ (Workload.Steady, 6_000);
    (Workload.Reload_storm { period = 500 }, 6_000);
    (Workload.Audit_heavy, 4_000);
    (Workload.Deny_flood, 4_000) ]

let run_with_reloads plane (sched : Workload.schedule) =
  let st = Plane.state plane in
  let reloads =
    List.map
      (fun (th, source) ->
        ( th,
          fun () ->
            PS.bump_generation st source;
            ignore (Plane.publish plane) ))
      sched.Workload.s_reloads
  in
  Plane.run plane ~reloads sched.Workload.s_requests

(* 20k requests over 4 domains in [`Journal] mode: the stitched trail
   must be complete and in submission order, agree with the oracle and
   the live outcomes, and the journal replay must reproduce every
   verdict and errno against the snapshot history, with zero lost and
   zero duplicated records. *)
let test_replay_differential () =
  let sp =
    { (spec ~seed:13 ~phases:storm_phases ()) with Workload.loop = `Closed }
  in
  let n = List.fold_left (fun a (_, c) -> a + c) 0 storm_phases in
  check_int "twenty thousand" 20_000 n;
  let sched = Workload.generate sp ~workers:4 in
  let st = fresh_state sp in
  let plane = Plane.create ~domains:4 st in
  Plane.set_audit_mode plane `Journal;
  let run_id = Plane.runs plane in
  let rr = run_with_reloads plane sched in
  check_int "audit complete" n (Array.length rr.Plane.rr_audit);
  Array.iteri
    (fun i (a : J.decision) ->
      if a.J.d_seq <> i then Alcotest.failf "audit seq hole at %d" i)
    rr.Plane.rr_audit;
  (* Stitch the run straight out of the journal and check it against
     the fixed-policy oracle (storm reloads preserve semantics). *)
  (match J.stitch (Plane.journal plane) ~run:run_id ~base:0 ~count:n with
  | Error e -> Alcotest.failf "stitch failed: %s" e
  | Ok ds ->
      Array.iteri
        (fun i (dec : J.decision) ->
          let req = sched.Workload.s_requests.(i) in
          let expect = oracle st req in
          if (dec.J.d_verdict = 1) <> expect then
            Alcotest.failf "journal verdict diverges from oracle at %d" i;
          if
            (dec.J.d_verdict = 1)
            <> (rr.Plane.rr_outcomes.(i).Plane.o_verdict = Pfm.Allow)
          then Alcotest.failf "journal diverges from live outcome at %d" i)
        ds);
  (* Replay: re-execute every record against the snapshot its epoch
     stamp names; verdict and errno must match record-for-record. *)
  let rep = Replay.replay_run plane ~run:run_id ~count:n in
  check_int "replayed everything" n rep.Replay.rp_total;
  check_bool "no missing epochs" true (rep.Replay.rp_missing_epochs = []);
  (match rep.Replay.rp_mismatches with
  | [] -> ()
  | m :: _ ->
      Alcotest.failf "replay mismatch at seq %d (%s: expected %s, got %s)"
        m.Replay.mm_seq m.Replay.mm_field m.Replay.mm_expected
        m.Replay.mm_got);
  check_int "all matched" n rep.Replay.rp_matched;
  check_bool "report renders" true
    (contains (Replay.render rep)
       (Printf.sprintf "replay total %d matched %d" n n))

(* A record-mode run journals every would-deny as verdict 3 ("recorded")
   with no errno, so its replay must match record-for-record; a recorded
   verdict the reference would have allowed is still a mismatch. *)
let test_replay_record_mode () =
  let sp = spec ~phases:[ (Workload.Deny_flood, 2_000) ] () in
  let plane = Plane.create (fresh_state sp) in
  Plane.set_record_mode plane true;
  let sched = Workload.generate sp ~workers:1 in
  let n = Array.length sched.Workload.s_requests in
  let run_id = Plane.runs plane in
  ignore (Plane.run plane sched.Workload.s_requests);
  match J.stitch (Plane.journal plane) ~run:run_id ~base:0 ~count:n with
  | Error e -> Alcotest.failf "stitch failed: %s" e
  | Ok ds ->
      check_bool "would-denies recorded" true
        (Array.exists (fun (d : J.decision) -> d.J.d_verdict = 3) ds);
      let snapshot_of_epoch = Plane.snapshot_at plane in
      let rep = Replay.replay ~snapshot_of_epoch ds in
      check_int "replayed everything" n rep.Replay.rp_total;
      check_int "every record matches" rep.Replay.rp_total rep.Replay.rp_matched;
      (match Array.find_opt (fun (d : J.decision) -> d.J.d_verdict = 1) ds with
      | None -> Alcotest.fail "no allowed record in the run"
      | Some d ->
          let forged =
            Replay.replay ~snapshot_of_epoch [| { d with J.d_verdict = 3 } |]
          in
          check_int "recorded allow mismatches" 0 forged.Replay.rp_matched;
          check_bool "mismatch names the recorded verdict" true
            (contains (Replay.render forged) "expected allow got recorded"))

(* A collected [`Journal] run whose audit volume exceeds the journal
   capacity: wraparound eats part of the trail.  The run must keep its
   computed outcomes and surface the loss, not abort. *)
let test_wraparound_degrades () =
  let sp = spec () in
  let st = fresh_state sp in
  let plane =
    Plane.create ~domains:1 ~journal_seg_bytes:4096 ~journal_segments:4 st
  in
  let sched = Workload.generate sp ~workers:1 in
  let n = Array.length sched.Workload.s_requests in
  let rr = Plane.run plane sched.Workload.s_requests in
  check_bool "journal wrapped" true (J.dropped (Plane.journal plane) > 0);
  check_bool "loss surfaced, not thrown" true (rr.Plane.rr_audit_lost <> None);
  check_int "degraded audit is empty" 0 (Array.length rr.Plane.rr_audit);
  check_int "outcomes intact" n (Array.length rr.Plane.rr_outcomes);
  Array.iteri
    (fun i (o : Plane.outcome) ->
      if (o.Plane.o_verdict = Pfm.Allow) <> oracle st sched.Workload.s_requests.(i)
      then Alcotest.failf "outcome %d lost to the degraded audit" i)
    rr.Plane.rr_outcomes;
  (* A run that fits (after a rotate) reports a complete trail again. *)
  Plane.rotate_journal plane;
  let small = Array.sub sched.Workload.s_requests 0 64 in
  let rr2 = Plane.run plane small in
  check_bool "complete trail after rotate" true (rr2.Plane.rr_audit_lost = None);
  check_int "audit complete again" 64 (Array.length rr2.Plane.rr_audit)

(* Repeated domain changes must not leak terms into the journal: the
   replaced workers' terms are padded out and deregistered. *)
let test_set_domains_retires_terms () =
  let sp = spec () in
  let st = fresh_state sp in
  let plane = Plane.create ~domains:4 st in
  let sched = Workload.generate sp ~workers:4 in
  ignore (Plane.run plane sched.Workload.s_requests);
  let written = J.records_written (Plane.journal plane) in
  for _ = 1 to 10 do
    Plane.set_domains plane 2;
    Plane.set_domains plane 4
  done;
  let st' = J.stats (Plane.journal plane) in
  check_int "no term leak across domain changes" 4 st'.J.s_terms;
  check_int "retired terms' records survive in totals" written
    st'.J.s_records;
  (* The plane's effective ceiling is its journal geometry. *)
  let tiny = Plane.create ~domains:64 ~journal_segments:8 (fresh_state sp) in
  check_int "domains clamped to segments" 8 (Plane.domains tiny);
  check_int "ceiling reported" 8 (Plane.plane_max_domains tiny)

let test_rotation () =
  let sp = spec () in
  let st = fresh_state sp in
  let plane = Plane.create ~domains:2 st in
  let sched = Workload.generate sp ~workers:2 in
  let n = Array.length sched.Workload.s_requests in
  ignore (Plane.run plane sched.Workload.s_requests);
  (match J.stitch (Plane.journal plane) ~run:0 ~base:0 ~count:n with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "pre-rotation stitch failed: %s" e);
  Plane.rotate_journal plane;
  check_int "rotation counted" 1 (Plane.rotations plane);
  check_int "fresh journal is empty" 0 (J.live_entries (Plane.journal plane));
  (* The old run is gone from the new journal — and the stitcher says
     so instead of fabricating records. *)
  (match J.stitch (Plane.journal plane) ~run:0 ~base:0 ~count:n with
  | Error e -> check_bool "loss reported" true (contains e "lost")
  | Ok _ -> Alcotest.fail "stitch after rotation must fail");
  (* Terms re-attached: the next run journals into the new store. *)
  ignore (Plane.run plane sched.Workload.s_requests);
  (match J.stitch (Plane.journal plane) ~run:1 ~base:0 ~count:n with
  | Ok ds -> check_int "new run journaled" n (Array.length ds)
  | Error e -> Alcotest.failf "post-rotation stitch failed: %s" e);
  Plane.reset_journal plane;
  check_int "reset zeroes rotations" 0 (Plane.rotations plane)

(* --- /proc/protego/journal ----------------------------------------------- *)

let test_proc_journal () =
  let img = fixture () in
  let m = img.Image.machine in
  let root = Image.login img "root" in
  (match Syscall.read_file m root "/proc/protego/journal" with
  | Ok s ->
      check_bool "stats render" true (contains s "journal mode journal");
      check_bool "geometry line" true (contains s "journal seg_bytes")
  | Error _ -> Alcotest.fail "cannot read /proc/protego/journal");
  (match img.Image.plane with
  | None -> Alcotest.fail "Protego image has no plane"
  | Some plane ->
      (match Syscall.write_file m root "/proc/protego/journal" "rotate" with
      | Ok () -> check_int "rotate via proc" 1 (Plane.rotations plane)
      | Error _ -> Alcotest.fail "cannot write rotate");
      (match Syscall.write_file m root "/proc/protego/journal" "reset" with
      | Ok () -> check_int "reset via proc" 0 (Plane.rotations plane)
      | Error _ -> Alcotest.fail "cannot write reset");
      (* Mode switching through /proc/protego/plane: off and back. *)
      let switch mode =
        (match Syscall.write_file m root "/proc/protego/plane" ("audit " ^ mode) with
        | Ok () ->
            check_bool ("mode applied: " ^ mode) true
              (Plane.audit_mode_name (Plane.audit_mode plane) = mode)
        | Error _ -> Alcotest.failf "cannot switch audit mode to %s" mode);
        match Syscall.read_file m root "/proc/protego/plane" with
        | Ok s ->
            check_bool ("mode rendered: " ^ mode) true
              (contains s ("audit mode " ^ mode))
        | Error _ -> Alcotest.fail "cannot re-read /proc/protego/plane"
      in
      switch "off";
      switch "journal";
      (* The retired spool modes are unknown commands now. *)
      List.iter
        (fun mode ->
          match
            Syscall.write_file m root "/proc/protego/plane" ("audit " ^ mode)
          with
          | Error Protego_base.Errno.EINVAL -> ()
          | _ -> Alcotest.failf "audit %s must be EINVAL" mode)
        [ "spool"; "both" ]);
  (match Syscall.write_file m root "/proc/protego/journal" "bogus" with
  | Error Protego_base.Errno.EINVAL -> ()
  | _ -> Alcotest.fail "bogus journal write must be EINVAL");
  (* Root-only, like every protego control file. *)
  let alice = Image.login img "alice" in
  match Syscall.read_file m alice "/proc/protego/journal" with
  | Error Protego_base.Errno.EACCES -> ()
  | _ -> Alcotest.fail "journal vnode must be root-only"

(* --- decode: a journaled request decodes to the same request ---------- *)

(* Every request the plane journals decodes, through the one decoder
   ([Request.of_journal]), to a request with the same hook, subject and
   serving phase, the same table key bytes and the same reference
   verdict.  The generator draws all four hooks, several subjects and
   phases, safe and unsafe ppp options and mount flags in any order
   with repeats: the two steps the decoder loses information on (the
   ppp option collapses to its safety class, the flags to their mask)
   must lose nothing a decision reads.  The policy has phase-guarded
   rules, so the verdicts vary with the phase as well. *)
module Request = Protego_core.Request
module Phase = Protego_base.Phase

let decode_policy () =
  let st = PS.create () in
  PS.set st
    (PS.Set_mounts
       [ { PS.mr_source = "/dev/sr0"; mr_target = "/media/cdrom";
           mr_fstype = "iso9660"; mr_flags = [ Mf_nosuid; Mf_nodev ];
           mr_mode = `Users; mr_phase = Phase.Always };
         { PS.mr_source = "/dev/sdb1"; mr_target = "/media/usb";
           mr_fstype = "auto"; mr_flags = [ Mf_nosuid ]; mr_mode = `User;
           mr_phase = Phase.Upto Phase.Serving } ]);
  PS.set st
    (PS.Set_binds
       [ { Protego_policy.Bindconf.port = 80; proto = Protego_policy.Bindconf.Tcp;
           exe = "/usr/sbin/httpd"; owner = 1; phase = Phase.Always };
         { Protego_policy.Bindconf.port = 53; proto = Protego_policy.Bindconf.Udp;
           exe = "/usr/sbin/named"; owner = 2;
           phase = Phase.Upto Phase.Setup } ]);
  PS.set st
    (PS.Set_ppp
       { Protego_policy.Pppopts.directives =
           [ Protego_policy.Pppopts.Allow_device ("/dev/ttyS*", Phase.Always);
             Protego_policy.Pppopts.Allow_device
               ("/dev/ttyUSB0", Phase.Upto Phase.Serving) ] });
  st

let gen_request =
  let open QCheck2.Gen in
  let subject = int_bound 3 in
  let mount =
    map3
      (fun subject (source, target) (fstype, flags) ->
        Plane.Mount { subject; source; target; fstype; flags })
      subject
      (oneofl
         [ ("/dev/sr0", "/media/cdrom"); ("/dev/sdb1", "/media/usb");
           ("/dev/sdc", "/mnt") ])
      (pair
         (oneofl [ "iso9660"; "ext4"; "vfat" ])
         (list_size (int_bound 6)
            (oneofl [ Mf_readonly; Mf_nosuid; Mf_nodev; Mf_noexec ])))
  in
  let umount =
    map3
      (fun subject target mounted_by ->
        Plane.Umount { subject; target; mounted_by })
      subject
      (oneofl [ "/media/cdrom"; "/media/usb"; "/mnt" ])
      (int_bound 3)
  in
  let bind =
    map3
      (fun subject (port, proto) exe -> Plane.Bind { subject; port; proto; exe })
      subject
      (pair (oneofl [ 53; 80; 443 ])
         (oneofl Protego_policy.Bindconf.[ Tcp; Udp ]))
      (oneofl [ "/usr/sbin/httpd"; "/usr/sbin/named" ])
  in
  let ppp =
    map3
      (fun subject device opt -> Plane.Ppp_ioctl { subject; device; opt })
      subject
      (oneofl [ "/dev/ttyS0"; "/dev/ttyS1"; "/dev/ttyUSB0"; "/dev/null" ])
      (oneofl
         Protego_net.Ppp.
           [ Compression "deflate"; Async_map 0; Mru 1500; Accomp;
             Default_route; Modem_line_speed 115200;
             Modem_flow_control "crtscts" ])
  in
  pair (oneof [ mount; umount; bind; ppp ]) (int_bound (Phase.count - 1))

(* What the compiled program reads of a request: its PFM context, with
   the same lossy codes a record stores (a mount's flag mask, a bind's
   protocol, a ppp option's safety bit). *)
let decision_ctx phase req =
  let module C = Protego_filter.Pfm_compile in
  match req with
  | Plane.Mount { source; target; fstype; flags; _ } ->
      C.mount_ctx ~phase ~source ~target ~fstype ~flags
  | Plane.Umount { subject; target; mounted_by } ->
      C.umount_ctx ~phase ~target ~mounted_by ~ruid:subject
  | Plane.Bind { subject; port; proto; exe } ->
      C.bind_ctx ~phase ~port ~proto ~exe ~uid:subject
  | Plane.Ppp_ioctl { device; opt; _ } -> C.ppp_ctx ~phase ~device ~opt

(* Each generated request is journaled three ways, through the two
   encoders beside [Request.of_journal]: a plane (kind-1) record, and
   LSM (kind-3) records with record mode off and on. *)
let prop_decode_roundtrip =
  QCheck2.Test.make
    ~name:
      "journal: a journaled request decodes to the same hook, subject, \
       phase, key and verdict"
    ~count:100
    QCheck2.Gen.(list_size (int_range 1 24) gen_request)
    (fun reqs ->
      let st = decode_policy () in
      let allows (req, phase) =
        Request.oracle ~phase:(Phase.of_index phase) st req
      in
      let plane =
        Plane.create ~journal_seg_bytes:4096 ~journal_segments:4 st
      in
      let run = Plane.sim_begin plane in
      List.iteri
        (fun seq ((req, phase) as r) ->
          let allow = allows r in
          let o =
            { Plane.o_verdict = (if allow then Pfm.Allow else Pfm.Deny);
              o_errno = (if allow then None else Some (Request.deny_errno req));
              o_epoch = 0; o_phase = phase }
          in
          Plane.journal_decision plane ~worker:0 ~run ~seq req o)
        reqs;
      Plane.sim_end plane;
      let plane_ds =
        match
          J.stitch (Plane.journal plane) ~run ~base:0 ~count:(List.length reqs)
        with
        | Error e -> QCheck2.Test.fail_reportf "stitch: %s" e
        | Ok ds -> Array.to_list ds
      in
      (* The same requests as the LSM hooks record them: a would-deny is
         verdict 0, or 3 ("recorded") in record mode, and a ppp ioctl
         leaves a record only in record mode. *)
      let lsm record =
        let sk = J.sink () in
        let written =
          List.filter
            (function Plane.Ppp_ioctl _, _ -> record | _ -> true)
            reqs
        in
        List.iter
          (fun ((req, phase) as r) ->
            let verdict = if allows r then 1 else if record then 3 else 0 in
            Request.sink sk ~time:0. ~pid:1 ~uid:(Request.subject req) ~phase
              ~engine:J.engine_pfm ~span:0 ~verdict ~record req)
          written;
        (written, J.decisions sk.J.sk_journal)
      in
      List.for_all
        (fun (reqs, ds) ->
          List.length ds = List.length reqs
          && List.for_all2
               (fun (req, phase) (d : J.decision) ->
                 match Request.of_journal ~subject:d.J.d_subject d.J.d_req with
                 | None -> QCheck2.Test.fail_report "a request decoded to none"
                 | Some got ->
                     Request.index got = Request.index req
                     && Request.subject got = Request.subject req
                     && d.J.d_phase = phase
                     && decision_ctx phase got = decision_ctx phase req
                     && allows (got, phase) = allows (req, phase)
                     && Request.expected st ~phase
                          ~recorded:(d.J.d_verdict = 3) got
                        = (d.J.d_verdict, d.J.d_errno)
                     &&
                     match req, d.J.d_lsm with
                     | Plane.Mount { flags; _ }, Some l ->
                         l.J.l_flags = List.map mount_flag_code flags
                     | _ -> true)
               reqs ds)
        [ (reqs, plane_ds); lsm false; lsm true ])

let suites =
  [ ("journal:core",
     [ Alcotest.test_case "encode/decode roundtrip" `Quick test_roundtrip;
       Alcotest.test_case "torn tail tolerated" `Quick test_torn_tail;
       Alcotest.test_case "segment boundaries padded" `Quick
         test_segment_boundary;
       Alcotest.test_case "wraparound at capacity" `Quick test_wraparound ]);
    ("journal:backpressure",
     [ Alcotest.test_case "terms capped at segments, retire frees" `Quick
         test_term_capacity;
       Alcotest.test_case "lagging-term overrun fails loudly" `Quick
         test_writer_overrun ]);
    ("journal:stitch",
     [ Alcotest.test_case "total order across terms and epochs" `Quick
         test_stitch_terms ]);
    ("journal:persistence",
     [ Alcotest.test_case "save and load" `Quick test_save_load;
       Alcotest.test_case "PJRNL1 image refused" `Quick test_load_v1;
       Alcotest.test_case "corrupted record refused" `Quick
         test_load_corrupt ]);
    ("journal:lsm",
     [ Alcotest.test_case "LSM records round-trip" `Quick test_lsm_roundtrip;
       Alcotest.test_case "every out-of-range LSM field refused" `Quick
         test_lsm_load_corrupt;
       Alcotest.test_case "an nf record replays as a mismatch" `Quick
         test_lsm_nf_replay;
       Alcotest.test_case "the nf appender allocates nothing" `Quick
         test_lsm_nf_allocates_nothing ]);
    ("journal:kaudit",
     [ Alcotest.test_case "ring view drop counting" `Quick
         test_kernel_audit_dropped ]);
    ("journal:replay",
     [ Alcotest.test_case "4-domain 20k differential replay" `Quick
         test_replay_differential;
       Alcotest.test_case "record-mode run replays clean" `Quick
         test_replay_record_mode;
       Alcotest.test_case "wraparound degrades, never aborts" `Quick
         test_wraparound_degrades;
       Alcotest.test_case "set_domains retires terms" `Quick
         test_set_domains_retires_terms;
       Alcotest.test_case "rotation" `Quick test_rotation ]);
    ("journal:decode", [ QCheck_alcotest.to_alcotest ~long:false prop_decode_roundtrip ]);
    ("journal:proc",
     [ Alcotest.test_case "/proc/protego/journal" `Quick test_proc_journal ]) ]
