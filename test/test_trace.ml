(* The decision tracer: histogram bucket boundaries and percentile
   derivation against a brute-force oracle, span-ring wraparound, the
   /proc/protego/trace and /proc/protego/latency interfaces (with audit
   span correlation), and the property that arming or disarming the
   tracer never changes a verdict. *)

open Protego_base
open Protego_kernel
module Image = Protego_dist.Image
module Pfm = Protego_filter.Pfm
module PD = Protego_core.Pfm_dispatch
module Request = Protego_core.Request
module PS = Protego_core.Policy_state
module Trace = Protego_core.Trace

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let errno =
  Alcotest.testable (fun ppf e -> Fmt.string ppf (Errno.to_string e)) Errno.equal

let contains = Test_support.contains
let starts_with = Test_support.starts_with

(* --- histogram buckets --------------------------------------------------- *)

let test_bucket_boundaries () =
  (* Bucket 0 is the catch-all for non-positive latencies (the null
     clock); bucket i >= 1 holds [2^(i-1), 2^i - 1]. *)
  check_int "negative" 0 (Trace.bucket_index (-7));
  check_int "zero" 0 (Trace.bucket_index 0);
  check_int "one" 1 (Trace.bucket_index 1);
  check_int "two" 2 (Trace.bucket_index 2);
  check_int "three" 2 (Trace.bucket_index 3);
  check_int "four" 3 (Trace.bucket_index 4);
  check_int "seven" 3 (Trace.bucket_index 7);
  check_int "eight" 4 (Trace.bucket_index 8);
  check_int "1023" 10 (Trace.bucket_index 1023);
  check_int "1024" 11 (Trace.bucket_index 1024);
  check_int "max_int clamps to the top bucket" (Trace.bucket_count - 1)
    (Trace.bucket_index max_int);
  (* Every power of two opens a fresh bucket, and the boundaries agree
     with the uppers: n lands in the bucket whose upper is the first
     >= n. *)
  for i = 1 to 40 do
    let p = 1 lsl i in
    check_int (Printf.sprintf "2^%d opens bucket %d" i (i + 1)) (i + 1)
      (Trace.bucket_index p);
    check_int
      (Printf.sprintf "2^%d-1 closes bucket %d" i i)
      i
      (Trace.bucket_index (p - 1))
  done;
  check_int "upper of bucket 0" 0 (Trace.bucket_upper 0);
  check_int "upper of bucket 1" 1 (Trace.bucket_upper 1);
  check_int "upper of bucket 2" 3 (Trace.bucket_upper 2);
  check_int "upper of bucket 10" 1023 (Trace.bucket_upper 10);
  check_int "top bucket reports max_int" max_int
    (Trace.bucket_upper (Trace.bucket_count - 1));
  (* The bracket invariant itself, for arbitrary n. *)
  List.iter
    (fun n ->
      let i = Trace.bucket_index n in
      check (Printf.sprintf "%d <= upper of its bucket" n) true
        (n <= Trace.bucket_upper i);
      if i > 0 then
        check (Printf.sprintf "%d > upper of the bucket below" n) true
          (n > Trace.bucket_upper (i - 1)))
    [ 1; 5; 12; 100; 999; 4096; 123_456_789; max_int ]

(* --- percentiles vs a brute-force oracle --------------------------------- *)

(* What the bucket walk should report for the pct-th percentile of
   [samples]: the bucket upper of the ceil(count*pct/100)-th smallest
   sample (percentiles only resolve to bucket granularity). *)
let oracle_percentile samples pct =
  match List.sort compare samples with
  | [] -> 0
  | sorted ->
      let count = List.length sorted in
      let need = ((count * pct) + 99) / 100 in
      let need = if need < 1 then 1 else need in
      let nth = List.nth sorted (need - 1) in
      Trace.bucket_upper (Trace.bucket_index nth)

let observe_all samples =
  let t = Trace.create () in
  let k = Trace.register t ~hook:"mount" ~engine:"pfm" in
  List.iter (fun ns -> Trace.observe k ~ns) samples;
  (t, k)

let test_percentile_oracle () =
  let _, empty = observe_all [] in
  check_int "empty histogram reports 0" 0 (Trace.percentile empty ~pct:99);
  let samples = [ 5; 100; 3; 77; 1000; 2; 64; 9; 50_000 ] in
  let _, k = observe_all samples in
  List.iter
    (fun pct ->
      check_int
        (Printf.sprintf "p%d" pct)
        (oracle_percentile samples pct)
        (Trace.percentile k ~pct))
    [ 1; 25; 50; 90; 99; 100 ];
  (* A single sample is every percentile. *)
  let _, one = observe_all [ 42 ] in
  List.iter
    (fun pct ->
      check_int
        (Printf.sprintf "single sample p%d" pct)
        (Trace.bucket_upper (Trace.bucket_index 42))
        (Trace.percentile one ~pct))
    [ 1; 50; 100 ];
  (* count and max are maintained alongside the buckets, and
     reset_latency zeroes everything while the key survives. *)
  let t, k = observe_all samples in
  check_int "count" (List.length samples) k.Trace.k_count;
  check_int "max" 50_000 k.Trace.k_max;
  check_int "buckets sum to count" (List.length samples)
    (Array.fold_left ( + ) 0 (Trace.buckets k));
  Trace.reset_latency t;
  check_int "reset count" 0 k.Trace.k_count;
  check_int "reset max" 0 k.Trace.k_max;
  check_int "reset percentile" 0 (Trace.percentile k ~pct:99);
  check "key still registered" true
    (List.exists (fun k' -> k' == k) (Trace.keys t))

let prop_percentile =
  QCheck2.Test.make ~name:"trace: bucket-walk percentile equals the oracle"
    ~count:300
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 60)
           (oneof
              [ int_range 0 64; int_range 0 100_000;
                map (fun i -> 1 lsl i) (int_range 0 55) ]))
        (int_range 1 100) (int_range 1 4))
    (fun (samples, pct, parts) ->
      let want = oracle_percentile samples pct in
      let _, k = observe_all samples in
      (* The same samples dealt round-robin over [parts] per-worker keys,
         then summed: the merged walk must agree too. *)
      let t = Trace.create () in
      let ks =
        List.init parts (fun i ->
            Trace.register t ~hook:"mount" ~engine:(string_of_int i))
      in
      List.iteri (fun i ns -> Trace.observe (List.nth ks (i mod parts)) ~ns) samples;
      let merged = Trace.sum ~hook:"mount" ~engine:"plane" ks in
      Trace.percentile k ~pct = want
      && Trace.percentile merged ~pct = want
      && merged.Trace.k_count = List.length samples
      && merged.Trace.k_max = k.Trace.k_max)

(* --- span ring wraparound ------------------------------------------------ *)

let record t hook =
  Trace.record_span t ~hook ~engine:"pfm" ~verdict:Pfm.Deny
    ~errno:(Some Errno.EPERM) ~gen:3 ~epoch:1 ~start:10 ~finish:25
    ~stages:[ ("engine", 15) ]

let test_ring_wraparound () =
  let t = Trace.create ~span_capacity:4 () in
  check "spans off records nothing" true (record t "mount" = None);
  check_int "off costs no ids" 0 (List.length (Trace.spans t));
  Trace.set_spans t true;
  check "spans arm the tracer" true (Trace.armed t);
  let ids =
    List.map
      (fun hook -> match record t hook with Some id -> id | None -> -1)
      [ "a"; "b"; "c"; "d"; "e"; "f" ]
  in
  check "ids are monotonic from 1" true (ids = [ 1; 2; 3; 4; 5; 6 ]);
  let kept = Trace.spans t in
  check_int "ring holds capacity spans" 4 (List.length kept);
  check "oldest first, oldest two overwritten" true
    (List.map (fun s -> s.Trace.sp_id) kept = [ 3; 4; 5; 6 ]);
  check "hooks follow the survivors" true
    (List.map (fun s -> s.Trace.sp_hook) kept = [ "c"; "d"; "e"; "f" ]);
  let last = List.nth kept 3 in
  check_int "latency recorded" 15 last.Trace.sp_ns;
  check_int "start recorded" 10 last.Trace.sp_start;
  check "stages recorded" true (last.Trace.sp_stages = [ ("engine", 15) ]);
  (* Reset drops spans but never reuses ids: an id in an audit record
     stays unambiguous across resets. *)
  Trace.reset_spans t;
  check_int "reset drops spans" 0 (List.length (Trace.spans t));
  check "ids keep counting after reset" true (record t "g" = Some 7);
  (* Shrinking the ring reallocates it (existing spans dropped). *)
  Trace.set_span_capacity t 2;
  check_int "capacity updated" 2 (Trace.span_capacity t);
  check_int "reallocation drops spans" 0 (List.length (Trace.spans t));
  ignore (record t "h");
  ignore (record t "i");
  ignore (record t "j");
  check "small ring wraps too" true
    (List.map (fun s -> s.Trace.sp_id) (Trace.spans t) = [ 9; 10 ]);
  Trace.set_spans t false;
  check "disarming stops recording" true (record t "k" = None)

(* --- /proc/protego/trace ------------------------------------------------- *)

let fixture () =
  let img = Image.build Image.Protego in
  img.Image.machine.password_source <- (fun _ -> None);
  img

let dispatcher img =
  match img.Image.protego with
  | Some lsm -> Protego_core.Lsm.dispatch lsm
  | None -> Alcotest.fail "Protego image has no LSM"

let test_trace_proc () =
  let img = fixture () in
  let m = img.Image.machine in
  let root = Image.login img "root" in
  let alice = Image.login img "alice" in
  let disp = dispatcher img in
  let read () =
    Syntax.expect_ok "read trace"
      (Syscall.read_file m root "/proc/protego/trace")
  in
  let write s = Syscall.write_file m root "/proc/protego/trace" s in
  let denied_mount () =
    ignore
      (Syscall.mount m alice ~source:"/dev/sda2" ~target:"/etc" ~fstype:"ext4"
         ~flags:[])
  in
  (* A distinct target, so this unarmed warm-up does not pre-cache the
     query the traced decisions below use. *)
  let other_denied_mount () =
    ignore
      (Syscall.mount m alice ~source:"/dev/sda2" ~target:"/usr" ~fstype:"ext4"
         ~flags:[])
  in
  check "boots with tracing off" true (starts_with (read ()) "trace off ");
  check "boots with the default ring" true
    (contains (read ())
       (Printf.sprintf "capacity %d spans 0" Trace.default_span_capacity));
  other_denied_mount ();
  check "no span while off" true (contains (read ()) "spans 0");
  check "no span id on the audit record while off" true
    (PD.last_span disp = None);
  (* on: every decision records a span, and the audit record carries its
     id so a log line can be joined to its trace. *)
  Audit.clear m;
  Syntax.expect_ok "enable" (write "on\n");
  check "on in header" true (starts_with (read ()) "trace on ");
  denied_mount ();
  let body = read () in
  check "span recorded" true (contains body "spans 1");
  check "span names the hook" true (contains body " hook mount ");
  check "span names the engine" true (contains body " engine pfm ");
  check "span carries the verdict" true (contains body " verdict deny ");
  check "span carries the errno" true (contains body " errno EPERM ");
  let span_id =
    match PD.last_span disp with
    | Some id -> id
    | None -> Alcotest.fail "decision left no span id"
  in
  check "render names the id" true
    (contains body (Printf.sprintf "span %d " span_id));
  (match Audit.records m with
  | [ r ] ->
      check "audit record carries the span id" true
        (r.Audit.au_span = Some span_id);
      check "audit render joins on span=" true
        (contains (Audit.render m) (Printf.sprintf " span=%d" span_id))
  | rs ->
      Alcotest.fail
        (Printf.sprintf "expected 1 audit record, got %d" (List.length rs)));
  (* A second identical mount is decided by the engine again and spans
     with a fresh id.  A request hook has no table: its span marks the
     slot and the table zero-width at the start, then the engine. *)
  denied_mount ();
  let body = read () in
  check "second span recorded" true (contains body "spans 2");
  check "no memo hit for a request" false (contains body " engine cache ");
  check "zero-width slot and table marks" true
    (contains body " stages slot+0,table+0,engine+");
  check "fresh id for the hit" true (PD.last_span disp = Some (span_id + 1));
  (* reset drops the spans but ids keep counting. *)
  Syntax.expect_ok "reset" (write "reset\n");
  let body = read () in
  check "reset drops spans" true (contains body "spans 0");
  check "reset keeps the id counter" true
    (contains body (Printf.sprintf "next %d" (span_id + 2)));
  (* capacity resizes the ring. *)
  Syntax.expect_ok "resize" (write "capacity 2\n");
  check "capacity in header" true (contains (read ()) " capacity 2 ");
  denied_mount ();
  denied_mount ();
  denied_mount ();
  check "ring holds only the newest spans" true (contains (read ()) "spans 2");
  (* off: decisions stop recording and stop stamping audit records. *)
  Syntax.expect_ok "disable" (write "off\n");
  Audit.clear m;
  denied_mount ();
  check "off stops recording" true (contains (read ()) "spans 2");
  (match Audit.records m with
  | [ r ] -> check "no span id while off" true (r.Audit.au_span = None)
  | _ -> Alcotest.fail "expected 1 audit record");
  (* Unknown commands are EINVAL; the file is root-only. *)
  Alcotest.(check (result unit errno))
    "junk command" (Error Errno.EINVAL) (write "verbose\n");
  Alcotest.(check (result unit errno))
    "bad capacity" (Error Errno.EINVAL) (write "capacity many\n");
  Alcotest.(check (result unit errno))
    "unprivileged read" (Error Errno.EACCES)
    (Result.map
       (fun _ -> ())
       (Syscall.read_file m alice "/proc/protego/trace"));
  Alcotest.(check (result unit errno))
    "unprivileged write" (Error Errno.EACCES)
    (Syscall.write_file m alice "/proc/protego/trace" "on\n")

(* --- /proc/protego/latency ----------------------------------------------- *)

let test_latency_proc () =
  let img = fixture () in
  let m = img.Image.machine in
  let root = Image.login img "root" in
  let alice = Image.login img "alice" in
  let disp = dispatcher img in
  let read () =
    Syntax.expect_ok "read latency"
      (Syscall.read_file m root "/proc/protego/latency")
  in
  let write s = Syscall.write_file m root "/proc/protego/latency" s in
  let denied_mount () =
    ignore
      (Syscall.mount m alice ~source:"/dev/sda2" ~target:"/etc" ~fstype:"ext4"
         ~flags:[])
  in
  (* The stock image has no clock, so the tracer is unarmed and nothing
     is counted — the histograms are "always on" but see no decisions.
     A distinct target keeps this from pre-caching the armed queries. *)
  ignore
    (Syscall.mount m alice ~source:"/dev/sda2" ~target:"/usr" ~fstype:"ext4"
       ~flags:[]);
  check "header names the series" true (starts_with (read ()) "latency series ");
  check "unarmed decisions are not counted" true
    (contains (read ()) "hook mount engine pfm count 0 ");
  (* Install a deterministic clock: +64ns per reading. Each decision
     reads the clock twice (entry, conclusion), so every decision is
     exactly 64ns and lands in bucket 7 (upper 127). *)
  Trace.set_clock (PD.trace disp) (Test_support.counter_clock ~step:64 ());
  denied_mount ();
  denied_mount ();
  let body = read () in
  check "both engine decisions counted" true
    (contains body "hook mount engine pfm count 2 p50 127 p90 127 p99 127 max 64\n");
  check "only the packet hook has a cache series" true
    (contains body "hook nf_output engine cache count 0 "
    && not (contains body "hook mount engine cache "));
  check "untouched hooks stay at zero" true
    (contains body "hook ppp_ioctl engine ref count 0 p50 0 p90 0 p99 0 max 0\n");
  (* reset zeroes the histograms but keeps the registered series. *)
  Syntax.expect_ok "reset" (write "reset\n");
  check "reset zeroes the counts" true
    (contains (read ()) "hook mount engine pfm count 0 p50 0 p90 0 p99 0 max 0\n");
  denied_mount ();
  check "counting resumes after reset" true
    (contains (read ()) "hook mount engine pfm count 1 ");
  (* Unknown commands are EINVAL; the file is root-only. *)
  Alcotest.(check (result unit errno))
    "junk command" (Error Errno.EINVAL) (write "flush\n");
  Alcotest.(check (result unit errno))
    "unprivileged read" (Error Errno.EACCES)
    (Result.map
       (fun _ -> ())
       (Syscall.read_file m alice "/proc/protego/latency"));
  Alcotest.(check (result unit errno))
    "unprivileged write" (Error Errno.EACCES)
    (Syscall.write_file m alice "/proc/protego/latency" "reset\n")

(* --- tracing never changes a verdict ------------------------------------- *)

(* Drive one traced dispatcher (spans toggled on and off mid-stream, a
   real clock installed mid-stream) and one plain dispatcher over the
   same query stream against the same policy state, and require both to
   agree with the reference oracle on every single decision.  The
   tracer must be observation only. *)

let sources = [ "/dev/cdrom"; "/dev/sdb1"; "fuse"; "/dev/sda2" ]
let targets = [ "/media/cdrom"; "/media/usb"; "/mnt/a"; "/etc" ]
let fstypes = [ "iso9660"; "vfat"; "ext4"; "auto" ]

let flags_gen =
  QCheck2.Gen.oneofl
    Ktypes.[ []; [ Mf_readonly ]; [ Mf_nosuid; Mf_nodev ];
             [ Mf_readonly; Mf_nosuid; Mf_nodev ] ]

let mount_rule_gen =
  QCheck2.Gen.(
    map
      (fun ((src, tgt), (fs, (flags, user))) ->
        { PS.mr_source = src; mr_target = tgt; mr_fstype = fs;
          mr_flags = flags; mr_mode = (if user then `User else `Users);
          mr_phase = PS.Phase.Always })
      (pair (pair (oneofl sources) (oneofl targets))
         (pair (oneofl fstypes) (pair flags_gen bool))))

let mount_query_gen =
  QCheck2.Gen.(
    pair
      (pair (oneofl sources) (oneofl targets))
      (pair (oneofl fstypes) (pair flags_gen (oneofl [ 0; 1000; 1001 ]))))

let test_tracing_preserves_verdicts () =
  let rand = Random.State.make [| 0x7ACE; 0xD15 |] in
  let gen1 g = QCheck2.Gen.generate1 ~rand g in
  let st = PS.create () in
  let plain = PD.create () in
  let traced = PD.create () in
  let tr = PD.trace traced in
  for i = 1 to 4000 do
    (* Exercise every tracer state transition while decisions flow:
       spans on/off, clock installed, ring resized, histograms reset. *)
    (match i with
    | 1 -> Trace.set_spans tr true
    | 700 -> Trace.set_spans tr false
    | 1400 -> Trace.set_clock tr (Test_support.counter_clock ~step:17 ())
    | 2100 -> Trace.set_spans tr true
    | 2500 -> Trace.set_span_capacity tr 3
    | 2800 ->
        Trace.reset_spans tr;
        Trace.reset_latency tr
    | _ -> ());
    if i mod 100 = 1 then
      PS.set st
        (PS.Set_mounts
           (gen1 QCheck2.Gen.(list_size (int_bound 12) mount_rule_gen)));
    let (source, target), (fstype, (flags, subject)) = gen1 mount_query_gen in
    let decide d =
      PD.decide d ~phase:Phase.initial st
        (Request.Mount { subject; source; target; fstype; flags })
    in
    let a = decide plain in
    let b = decide traced in
    let expect = PS.mount_decision st ~source ~target ~fstype ~flags in
    if a <> expect then
      Alcotest.failf "step %d: untraced dispatcher differs from the oracle" i;
    if b <> expect then
      Alcotest.failf "step %d: traced dispatcher differs from the oracle" i
  done;
  (* The traced dispatcher really was armed for most of the run. *)
  check "histograms saw decisions" true
    (List.exists (fun k -> k.Trace.k_count > 0) (Trace.keys tr));
  check "spans were recorded" true (Trace.spans tr <> [])

let suites =
  [ ("trace:histogram",
      [ Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
        Alcotest.test_case "percentiles vs oracle" `Quick
          test_percentile_oracle;
        QCheck_alcotest.to_alcotest ~long:false prop_percentile ]);
    ("trace:spans",
      [ Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound ]);
    ("trace:proc",
      [ Alcotest.test_case "/proc/protego/trace" `Quick test_trace_proc;
        Alcotest.test_case "/proc/protego/latency" `Quick test_latency_proc ]);
    ("trace:transparency",
      [ Alcotest.test_case "tracing never changes a verdict" `Quick
          test_tracing_preserves_verdicts ]) ]
