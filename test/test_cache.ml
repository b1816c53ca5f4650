(* The decision cache: LRU and eviction order, negative-result caching,
   generation-vector staleness, the enable/off bypass, the
   /proc/protego/cache_stats interface, and the audit metadata cache hits
   carry. *)

open Protego_base
open Protego_kernel
open Ktypes
module Image = Protego_dist.Image
module Pfm = Protego_filter.Pfm
module PD = Protego_core.Pfm_dispatch
module Request = Protego_core.Request
module PS = Protego_core.Policy_state
module DC = Protego_core.Decision_cache

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let errno =
  Alcotest.testable (fun ppf e -> Fmt.string ppf (Errno.to_string e)) Errno.equal

let contains haystack needle =
  let nl = String.length needle in
  let rec go i =
    i + nl <= String.length haystack
    && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

let starts_with haystack prefix =
  String.length haystack >= String.length prefix
  && String.sub haystack 0 (String.length prefix) = prefix

(* --- the table itself --------------------------------------------------- *)

let width = Protego_filter.Pfm_compile.packet_ints

(* A table key, a packet context's ints: [xs] in the first fields, the
   rest zero. *)
let key xs =
  let k = Array.make width 0 in
  List.iteri (fun i x -> k.(i) <- x) xs;
  k

let test_lru_eviction () =
  let c = DC.create ~capacity:2 () in
  let gen = 0 in
  DC.add c ~key:(key [ 1 ]) ~gen ~verdict:Pfm.Allow;
  DC.add c ~key:(key [ 2 ]) ~gen ~verdict:Pfm.Allow;
  check_int "at capacity" 2 (DC.length c);
  (* A hit refreshes recency: touching 1 makes 2 the LRU victim. *)
  check "1 hits" true (DC.find c ~key:(key [ 1 ]) ~gen <> None);
  DC.add c ~key:(key [ 3 ]) ~gen ~verdict:Pfm.Deny;
  check_int "one capacity eviction" 1 (DC.capacity_evictions c);
  check_int "still at capacity" 2 (DC.length c);
  check "2 was the victim" true (DC.find c ~key:(key [ 2 ]) ~gen = None);
  check "1 survived" true (DC.find c ~key:(key [ 1 ]) ~gen <> None);
  check "3 resident" true (DC.find c ~key:(key [ 3 ]) ~gen <> None);
  (* Re-adding a resident key refreshes in place, no eviction. *)
  DC.add c ~key:(key [ 1 ]) ~gen ~verdict:Pfm.Deny;
  check_int "refresh is not an insert" 1 (DC.capacity_evictions c);
  check_int "size unchanged" 2 (DC.length c)

let test_negative_caching () =
  let c = DC.create () in
  let gen = 5 in
  let owned uid = key [ 17; 0; 0; 0; 53; 0; 0; 1; uid ] in
  DC.add c ~key:(owned 8) ~gen ~verdict:Pfm.Deny;
  (match DC.find c ~key:(owned 8) ~gen with
  | Some Pfm.Deny -> ()
  | _ -> Alcotest.fail "negative result not cached");
  DC.add c ~key:(key [ 6 ]) ~gen ~verdict:Pfm.Allow;
  (match DC.find c ~key:(key [ 6 ]) ~gen with
  | Some Pfm.Allow -> ()
  | _ -> Alcotest.fail "positive result not cached");
  (* The last field is part of the key too. *)
  check "other owner misses" true (DC.find c ~key:(owned 9) ~gen = None)

let test_generation_staleness () =
  let c = DC.create () in
  let k = key [ 1 ] in
  DC.add c ~key:k ~gen:3 ~verdict:Pfm.Allow;
  check "fresh generation hits" true (DC.find c ~key:k ~gen:3 <> None);
  (* A bumped generation is a miss AND evicts the stale entry. *)
  check "stale generation misses" true (DC.find c ~key:k ~gen:4 = None);
  check_int "stale eviction counted" 1 (DC.stale_evictions c);
  check_int "stale lookup counts as a miss" 1 (DC.misses c);
  check_int "entry gone" 0 (DC.length c);
  (* The entry was dropped, so the next lookup is a plain miss. *)
  check "second lookup plain miss" true (DC.find c ~key:k ~gen:4 = None);
  check_int "no second stale eviction" 1 (DC.stale_evictions c);
  check_int "but a second miss" 2 (DC.misses c);
  (* The entry keeps the generation it was inserted with. *)
  let gen = ref 7 in
  DC.add c ~key:(key [ 2 ]) ~gen:!gen ~verdict:Pfm.Allow;
  gen := 8;
  check "entry stamped with insertion-time gens" true
    (DC.find c ~key:(key [ 2 ]) ~gen:7 <> None)

let test_enable_off_bypass () =
  let c = DC.create () in
  let gen = 0 in
  DC.add c ~key:(key [ 1 ]) ~gen ~verdict:Pfm.Allow;
  ignore (DC.find c ~key:(key [ 1 ]) ~gen);
  DC.set_enabled c false;
  check "disabled lookups miss" true (DC.find c ~key:(key [ 1 ]) ~gen = None);
  DC.add c ~key:(key [ 2 ]) ~gen ~verdict:Pfm.Deny;
  (* A pure bypass: no insert, no counter movement. *)
  check_int "no insert while disabled" 1 (DC.length c);
  check_int "hits untouched" 1 (DC.hits c);
  check_int "misses untouched" 0 (DC.misses c);
  DC.set_enabled c true;
  (* Entries cached before the bypass are still valid afterwards: their
     generation stamps, not the toggle, decide freshness. *)
  check "entry servable after re-enable" true
    (DC.find c ~key:(key [ 1 ]) ~gen <> None)

let test_render_and_reset () =
  let c = DC.create ~capacity:4 () in
  DC.add c ~key:(key [ 1 ]) ~gen:0 ~verdict:Pfm.Allow;
  ignore (DC.find c ~key:(key [ 1 ]) ~gen:0);
  ignore (DC.find c ~key:(key [ 2 ]) ~gen:0);
  check_str "render"
    "cache on capacity 4 entries 1\n\
     hits 1 misses 1 stale 0 evicted 0\n\
     hook nf_output hits 1 misses 1 stale 0\n"
    (DC.render c);
  (* clear drops entries but keeps counters; reset zeroes everything; both
     advance the epoch a decision span carries. *)
  let e0 = DC.epoch c in
  DC.clear c;
  check "clear bumps epoch" true (DC.epoch c > e0);
  check_int "clear drops entries" 0 (DC.length c);
  check_int "clear keeps counters" 1 (DC.hits c);
  DC.reset c;
  check "reset bumps epoch" true (DC.epoch c > e0 + 1);
  check_str "reset zeroes the stats"
    "cache on capacity 4 entries 0\n\
     hits 0 misses 0 stale 0 evicted 0\n\
     hook nf_output hits 0 misses 0 stale 0\n"
    (DC.render c);
  (match DC.handle_write c "bogus" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "junk command accepted")

(* An insert after a miss lands under the key's ints as they are at the
   insert, even if the caller rewrote them in between, and copies them:
   rewriting the key afterwards leaves the entry where it is. *)
let test_insert_after_miss () =
  let c = DC.create () in
  let gen = 0 in
  let k = key [ 1 ] in
  let find xs = DC.find c ~key:(key xs) ~gen in
  check "cold miss" true (DC.find c ~key:k ~gen = None);
  DC.add c ~key:k ~gen ~verdict:Pfm.Allow;
  check "inserted under its ints" true (find [ 1 ] = Some Pfm.Allow);
  k.(0) <- 2;
  check "2 misses" true (DC.find c ~key:k ~gen = None);
  k.(0) <- 3;
  DC.add c ~key:k ~gen ~verdict:Pfm.Deny;
  check "rewritten key inserted as 3" true (find [ 3 ] = Some Pfm.Deny);
  check "2 never inserted" true (find [ 2 ] = None);
  k.(width - 1) <- 4;
  check "the entry does not follow its key" true (find [ 3 ] = Some Pfm.Deny);
  (* The same key added twice is refreshed, not duplicated. *)
  DC.add c ~key:(key [ 3 ]) ~gen ~verdict:Pfm.Allow;
  check "refreshed verdict" true (find [ 3 ] = Some Pfm.Allow);
  check_int "two entries" 2 (DC.length c);
  Alcotest.check_raises "a key of another width"
    (Invalid_argument "Decision_cache: key of the wrong width") (fun () ->
      ignore (DC.find c ~key:(Array.make (width - 1) 0) ~gen))

(* Minor-heap words one call of [f] allocates, averaged over [n] calls. *)
let words_per_call n f =
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    f i
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let test_hit_allocates_nothing () =
  let c = DC.create () in
  let gen = 0 in
  List.iter
    (fun (name, k) ->
      DC.add c ~key:k ~gen ~verdict:Pfm.Allow;
      let w = words_per_call 1000 (fun _ -> ignore (DC.find c ~key:k ~gen)) in
      check (Printf.sprintf "%s key: %.3f words per hit" name w) true
        (w < 0.01))
    [ ("small", key [ 1 ]); ("extreme", Array.init width (fun i ->
          if i land 1 = 0 then min_int else max_int)) ]

(* Inserts into a full table, each with its capacity eviction, allocate
   nothing: half go through a missed [find], half straight to [add]. *)
let test_full_insert_allocates_nothing () =
  let cap = 64 in
  let c = DC.create ~capacity:cap () in
  let k = key [ 0; -1; max_int ] in
  let insert i =
    k.(0) <- i;
    if i land 1 = 1 || DC.find c ~key:k ~gen:0 = None then
      DC.add c ~key:k ~gen:0 ~verdict:Pfm.Deny
  in
  for i = 0 to (2 * cap) - 1 do
    insert i
  done;
  let n = 1000 in
  let evicted = DC.capacity_evictions c in
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    insert (1_000_000 + i)
  done;
  let words = Gc.minor_words () -. before in
  check_int "every insert evicted" n (DC.capacity_evictions c - evicted);
  check_int "still full" cap (DC.length c);
  check (Printf.sprintf "%.0f words over %d inserts" words n) true
    (words = 0.)

(* --- the table against a model ------------------------------------------ *)

(* A naive LRU the table must agree with: an association list, most recent
   first, of keys (as int lists) to (gen, verdict), and the counters. *)
type model = {
  cap : int;
  mutable entries : (int list * (int * Pfm.verdict)) list;
  mutable hits : int;
  mutable misses : int;
  mutable stale : int;
  mutable evicted : int;
}

let model_find m key gen =
  let rest = List.remove_assoc key m.entries in
  match List.assoc_opt key m.entries with
  | Some (g, v) when g = gen ->
      m.entries <- (key, (g, v)) :: rest;
      m.hits <- m.hits + 1;
      Some v
  | Some _ ->
      m.entries <- rest;
      m.misses <- m.misses + 1;
      m.stale <- m.stale + 1;
      None
  | None ->
      m.misses <- m.misses + 1;
      None

let model_add m key gen v =
  let rest = List.remove_assoc key m.entries in
  let rest =
    if List.mem_assoc key m.entries || List.length rest < m.cap then rest
    else begin
      m.evicted <- m.evicted + 1;
      List.filteri (fun i _ -> i < m.cap - 1) rest
    end
  in
  m.entries <- (key, (gen, v)) :: rest

let model_render m =
  Printf.sprintf "cache on capacity %d entries %d\n" m.cap
    (List.length m.entries)
  ^ Printf.sprintf "hits %d misses %d stale %d evicted %d\n" m.hits m.misses
      m.stale m.evicted
  ^ Printf.sprintf "hook nf_output hits %d misses %d stale %d\n" m.hits
      m.misses m.stale

(* Random runs of find, add, find-then-add, generation bumps, clear and
   reset.  Capacities 1, 2, 3, 16 and 17 meet the table's growth (its
   slots double up to capacity + 1, rebucketed each time) and eviction
   at capacity.  The keys differ from the zero key in the first, a
   middle or the last field, by small and extreme values, and are
   written into one scratch array, so the table never holds the
   caller's. *)
let test_model () =
  let keys =
    Array.of_list
      (key []
      :: List.concat_map
           (fun i ->
             List.map
               (fun v ->
                 let k = key [] in
                 k.(i) <- v;
                 k)
               [ 1; -1; min_int; max_int ])
           [ 0; width / 2; width - 1 ]
      @ [ Array.make width 1; Array.make width min_int ])
  in
  List.iter
    (fun cap ->
      for seed = 0 to 39 do
        let rand = Random.State.make [| 0xDC; cap; seed |] in
        let c = DC.create ~capacity:cap () in
        let m =
          { cap; entries = []; hits = 0; misses = 0; stale = 0; evicted = 0 }
        in
        let gen = ref 0 in
        let k = key [] in
        let verdicts = [| Pfm.Allow; Pfm.Deny; Pfm.Reject |] in
        for step = 1 to 300 do
          let where = Printf.sprintf "cap %d seed %d step %d" cap seed step in
          let pick = keys.(Random.State.int rand (Array.length keys)) in
          let v = verdicts.(Random.State.int rand 3) in
          let write () = Array.blit pick 0 k 0 width in
          let find () =
            write ();
            let got = DC.find c ~key:k ~gen:!gen in
            let want = model_find m (Array.to_list pick) !gen in
            check (where ^ ": find") true (got = want);
            got
          in
          let add () =
            DC.add c ~key:k ~gen:!gen ~verdict:v;
            model_add m (Array.to_list pick) !gen v
          in
          (match Random.State.int rand 20 with
          | 0 -> incr gen
          | 1 ->
              DC.clear c;
              m.entries <- []
          | 2 ->
              DC.reset c;
              m.entries <- [];
              m.hits <- 0;
              m.misses <- 0;
              m.stale <- 0;
              m.evicted <- 0
          | 3 | 4 | 5 | 6 | 7 | 8 ->
              write ();
              add ()
          | 9 | 10 | 11 | 12 | 13 -> if find () = None then add ()
          | _ -> ignore (find ()));
          check_int (where ^ ": length") (List.length m.entries) (DC.length c);
          check_int (where ^ ": hits") m.hits (DC.hits c);
          check_int (where ^ ": misses") m.misses (DC.misses c);
          check_int (where ^ ": stale") m.stale (DC.stale_evictions c);
          check_int (where ^ ": evicted") m.evicted (DC.capacity_evictions c);
          check_str (where ^ ": render") (model_render m) (DC.render c)
        done
      done)
    [ 1; 2; 3; 16; 17 ]

(* --- the dispatcher ----------------------------------------------------- *)

module NF = Protego_net.Netfilter
module Packet = Protego_net.Packet

(* A dispatcher over one mount rule, and a netfilter OUTPUT chain that
   accepts UDP to port 53 and drops the rest. *)
let raw_dispatch () =
  let st = PS.create () in
  PS.set st
    (PS.Set_mounts
       [ { PS.mr_source = "/dev/a"; mr_target = "/m"; mr_fstype = "ext4";
           mr_flags = []; mr_mode = `Users; mr_phase = PS.Phase.Always } ]);
  let nf = NF.create ~output_policy:NF.Drop () in
  NF.append nf NF.Output
    { NF.matches = [ NF.Proto Packet.Udp; NF.Dst_port { lo = 53; hi = 53 } ];
      target = NF.Accept; comment = "" };
  (st, nf, PD.create ())

(* A fresh packet record per call, as a syscall decodes one from the
   user's buffer. *)
let packet ?(payload = "q") dport =
  { Packet.src = Protego_net.Ipaddr.v 10 0 0 1;
    dst = Protego_net.Ipaddr.v 10 0 0 53; ttl = 64;
    transport =
      Packet.Udp_dgram { src_port = 4000; dst_port = dport; payload } }

let send disp nf ?payload dport =
  PD.decide_nf_output disp nf (packet ?payload dport)
    ~origin:(Packet.Raw_app { uid = 1000 })

let test_dispatch_cache_flow () =
  let _, nf, disp = raw_dispatch () in
  let dc = PD.cache disp in
  check "accepted" true (send disp nf 53 = NF.Accept);
  check_str "first decision from the engine" "pfm" (PD.decision_engine_name disp);
  check "repeat accepted" true (send disp nf 53 = NF.Accept);
  check_str "repeat served by the cache" "cache" (PD.decision_engine_name disp);
  check_int "one hit" 1 (DC.hits dc);
  (* The key separates packets that differ in a field the chain reads. *)
  check "other port dropped" true (send disp nf 54 = NF.Drop);
  check_str "other port is a miss" "pfm" (PD.decision_engine_name disp);
  check_int "two entries" 2 (DC.length dc);
  check "back to the first packet" true (send disp nf 53 = NF.Accept);
  check_str "still cached" "cache" (PD.decision_engine_name disp);
  (* A chain edit bumps the chain's generation, so nothing stale is
     served. *)
  NF.insert nf NF.Output
    { NF.matches = [ NF.Dst_port { lo = 53; hi = 53 } ]; target = NF.Drop;
      comment = "" };
  check "edit drops" true (send disp nf 53 = NF.Drop);
  check_str "post-edit decision from the engine" "pfm"
    (PD.decision_engine_name disp);
  check_int "the stale entry evicted" 1 (DC.stale_evictions dc);
  check "cached drop" true (send disp nf 53 = NF.Drop);
  check_str "drop cached too" "cache" (PD.decision_engine_name disp)

(* Pairs of sends whose packet contexts differ in one field only, in
   context order (proto, src, dst, sport, dport, icmp, syn, origin,
   owner uid), each with a match that holds for the first send and not
   the second. *)
let field_pairs =
  let module Ip = Protego_net.Ipaddr in
  let a = Ip.v 10 0 0 1 and b = Ip.v 10 0 0 2 in
  let pkt ?(src = a) ?(dst = b) transport =
    { Packet.src; dst; ttl = 64; transport }
  in
  let udp ?(sport = 4000) ?(dport = 53) () =
    Packet.Udp_dgram { src_port = sport; dst_port = dport; payload = "q" }
  in
  let tcp ~syn = Packet.Tcp_seg { src_port = 4000; dst_port = 53; syn; payload = "" } in
  let icmp t = Packet.Icmp_msg { icmp_type = t; code = 0; payload = "" } in
  let raw uid = Packet.Raw_app { uid } in
  let one ip = Ip.Cidr.make ip 32 in
  let same o x y m = ((x, o), (y, o), m) in
  [ same (raw 1000) (pkt (udp ())) (pkt (tcp ~syn:false)) (NF.Proto Packet.Udp);
    same (raw 1000) (pkt (udp ())) (pkt ~src:b (udp ())) (NF.Src (one a));
    same (raw 1000) (pkt (udp ())) (pkt ~dst:a (udp ())) (NF.Dst (one b));
    same (raw 1000) (pkt (udp ())) (pkt (udp ~sport:4001 ()))
      (NF.Src_port { lo = 4000; hi = 4000 });
    same (raw 1000) (pkt (udp ())) (pkt (udp ~dport:54 ()))
      (NF.Dst_port { lo = 53; hi = 53 });
    same (raw 1000) (pkt (icmp Packet.Echo_request))
      (pkt (icmp Packet.Echo_reply)) (NF.Icmp_type Packet.Echo_request);
    same (raw 1000) (pkt (tcp ~syn:true)) (pkt (tcp ~syn:false)) NF.Tcp_syn;
    ((pkt (udp ()), raw 1000), (pkt (udp ()), Packet.Packet_app { uid = 1000 }),
     NF.Origin_raw);
    ((pkt (udp ()), raw 1000), (pkt (udp ()), raw 1001), NF.Owner_uid 1000) ]

(* The table key is the whole packet context: for each field, two sends
   that differ in it alone never share an entry, so the second misses,
   and every verdict is the reference walk's. *)
let test_dispatch_each_field_keys () =
  let module Compile = Protego_filter.Pfm_compile in
  check_int "a pair per context field" width (List.length field_pairs);
  List.iteri
    (fun i (x, y, m) ->
      let ints (p, origin) = (Compile.packet_ctx p ~origin).Pfm.ints in
      let differing =
        List.filter
          (fun j -> (ints x).(j) <> (ints y).(j))
          (List.init width Fun.id)
      in
      Alcotest.(check (list int)) (Printf.sprintf "pair %d differs in field %d only" i i)
        [ i ] differing;
      let nf = NF.create ~output_policy:NF.Drop () in
      NF.append nf NF.Output { NF.matches = [ m ]; target = NF.Accept; comment = "" };
      let disp = PD.create () in
      let send what (p, origin) ~served =
        let name = Printf.sprintf "field %d, %s" i what in
        check (name ^ ": the walk's verdict") true
          (PD.decide_nf_output disp nf p ~origin
          = NF.walk nf NF.Output p ~origin);
        check_str (name ^ ": served by") served (PD.decision_engine_name disp)
      in
      send "first" x ~served:"pfm";
      send "second" y ~served:"pfm";
      check_int (Printf.sprintf "field %d: two entries" i) 2
        (DC.length (PD.cache disp));
      send "first again" x ~served:"cache";
      send "second again" y ~served:"cache")
    field_pairs

let test_dispatch_disable_bypasses () =
  let _, nf, disp = raw_dispatch () in
  let dc = PD.cache disp in
  DC.set_enabled dc false;
  ignore (send disp nf 53);
  ignore (send disp nf 53);
  check_str "bypassed decisions come from the engine" "pfm"
    (PD.decision_engine_name disp);
  check_int "no counters while disabled" 0 (DC.hits dc + DC.misses dc);
  check_int "both evals reached the filter machine" 2
    (List.assoc "nf_output" (PD.stats disp)).PD.evals

(* 1,000 mixed request decisions under each engine: none is looked up in
   or inserted into the table, and each is an engine evaluation.  The
   packet hook still hits, and goes stale on a chain edit. *)
let test_dispatch_requests_skip_table () =
  let module Bindconf = Protego_policy.Bindconf in
  let st, nf, disp = raw_dispatch () in
  let dc = PD.cache disp in
  let reqs =
    [| Request.Mount
         { subject = 1000; source = "/dev/a"; target = "/m"; fstype = "ext4";
           flags = [] };
       Request.Umount { subject = 1000; target = "/m"; mounted_by = 1000 };
       Request.Bind
         { subject = 8; port = 25; proto = Bindconf.Tcp; exe = "/usr/sbin/exim4" };
       Request.Ppp_ioctl
         { subject = 0; device = "/dev/ttyS0"; opt = Protego_net.Ppp.Accomp } |]
  in
  List.iter
    (fun engine ->
      PD.set_engine disp engine;
      PD.reset_stats disp;
      for i = 0 to 999 do
        let req = reqs.(i mod 4) in
        let got = PD.decide disp ~phase:Phase.initial st req in
        check "verdict is the oracle's" (Request.oracle st req) got;
        check "served by the engine" true (PD.decision_engine_name disp <> "cache")
      done;
      check_int "no table entry" 0 (DC.length dc);
      check_int "no table lookup" 0 (DC.hits dc + DC.misses dc);
      List.iter
        (fun name ->
          check_int (name ^ ": every decision evaluated") 250
            (List.assoc name (PD.stats disp)).PD.evals)
        [ "mount"; "umount"; "bind"; "ppp_ioctl" ])
    [ `Pfm; `Ref ];
  check_str "the table lists only the packet hook"
    "hook nf_output hits 0 misses 0 stale 0\n"
    (String.concat ""
       (List.filter
          (fun l -> starts_with l "hook ")
          (List.map (fun l -> l ^ "\n")
             (String.split_on_char '\n' (String.trim (DC.render dc))))));
  PD.set_engine disp `Pfm;
  ignore (send disp nf 53);
  ignore (send disp nf 53);
  check_int "a packet still hits" 1 (DC.hits dc);
  NF.append nf NF.Output
    { NF.matches = [ NF.Dst_port { lo = 80; hi = 80 } ]; target = NF.Accept;
      comment = "" };
  ignore (send disp nf 53);
  check_int "and goes stale on a chain edit" 1 (DC.stale_evictions dc)

(* A physically new string with the same bytes, as a syscall's copy from
   user memory makes. *)
let fresh s = Bytes.to_string (Bytes.of_string s)

(* Tuples packed with separators and digits, each decided twice through
   the request hooks' engine, with fresh copies of their strings: each
   must get the reference verdict both times. *)
let test_dispatch_separator_tuples () =
  let module Bindconf = Protego_policy.Bindconf in
  let module Pppopts = Protego_policy.Pppopts in
  let module Ppp = Protego_net.Ppp in
  let st = PS.create () in
  let rule target mode =
    { PS.mr_source = "/dev/a"; mr_target = target; mr_fstype = "ext4";
      mr_flags = []; mr_mode = mode; mr_phase = PS.Phase.Always }
  in
  PS.set st (PS.Set_mounts [ rule "/m\x1f1000" `Users; rule "/m" `User ]);
  PS.set st
    (PS.Set_binds
       [ { Bindconf.port = 25; proto = Bindconf.Tcp; exe = "/usr/sbin/exim4";
           owner = 8; phase = Protego_base.Phase.Always } ]);
  PS.set st
    (PS.Set_ppp
       { Pppopts.directives =
           [ Pppopts.Allow_device ("/dev/ttyS0\x1f1", Protego_base.Phase.Always)
           ] });
  let disp = PD.create () in
  let twice name decide oracle =
    let expect = oracle () in
    check (name ^ ": first") expect (decide ());
    check (name ^ ": repeat") expect (decide ());
    check_str (name ^ ": served by the engine") "pfm"
      (PD.decision_engine_name disp)
  in
  List.iter
    (fun (target, mounted_by, ruid) ->
      twice
        (Printf.sprintf "umount %S %d by %d" target mounted_by ruid)
        (fun () ->
          PD.decide disp ~phase:Phase.initial st
            (Request.Umount { subject = ruid; target = fresh target; mounted_by }))
        (fun () -> PS.umount_decision st ~target ~mounted_by ~ruid))
    [ ("/m\x1f1000", 5, 7); ("/m", 1000, 7); ("/m", 7, 7); ("/m\x1f1", 0, 7);
      ("/m\x1f1000\x1f5", 7, 7) ];
  List.iter
    (fun (port, exe) ->
      twice
        (Printf.sprintf "bind %d %S" port exe)
        (fun () ->
          PD.decide disp ~phase:Phase.initial st
            (Request.Bind
               { subject = 8; port; proto = Bindconf.Tcp; exe = fresh exe }))
        (fun () ->
          PS.bind_allowed st ~port ~proto:Bindconf.Tcp ~exe ~uid:8))
    [ (25, "/usr/sbin/exim4"); (2, "5\x1ftcp\x1f/usr/sbin/exim4");
      (25, "tcp\x1f/usr/sbin/exim4"); (255, "/usr/sbin/exim4") ];
  List.iter
    (fun (device, opt) ->
      twice
        (Printf.sprintf "ppp %S %s" device (Ppp.option_to_string opt))
        (fun () ->
          PD.decide disp ~phase:Phase.initial st
            (Request.Ppp_ioctl { subject = 0; device = fresh device; opt }))
        (fun () -> PS.ppp_ioctl_decision st ~device ~opt))
    [ ("/dev/ttyS0\x1f1", Ppp.Accomp); ("/dev/ttyS0", Ppp.Accomp);
      ("/dev/ttyS0\x1f1", Ppp.Default_route);
      ("/dev/ttyS0\x1f1\x1f1", Ppp.Accomp) ]

(* A table hit does not render the arguments: with a fresh packet record
   on every call the table serves, and the words allocated per decision
   do not grow with the payload. *)
let test_dispatch_hit_no_rendering () =
  let _, nf, disp = raw_dispatch () in
  let n = 2000 in
  let per_hit len =
    let pkts = Array.init n (fun _ -> packet ~payload:(String.make len 'p') 53) in
    let decide i =
      ignore
        (PD.decide_nf_output disp nf pkts.(i)
           ~origin:(Packet.Raw_app { uid = 1000 }))
    in
    decide 0;
    let hits = DC.hits (PD.cache disp) in
    let w = words_per_call n decide in
    check_int (Printf.sprintf "%d-byte payloads: every call a table hit" len)
      (hits + n) (DC.hits (PD.cache disp));
    w
  in
  let short = per_hit 8 and long = per_hit 1000 in
  Alcotest.(check (float 0.01))
    (Printf.sprintf "words per hit: %.2f (8-byte payload) vs %.2f (1000-byte)"
       short long)
    short long

(* A packet decision allocates nothing once the packet is decoded: the
   hook refills one PFM context in place, and its ints are the table key
   (an insert copies them).  On a hit, and on a miss whose insert
   evicts: 2048 distinct ports sent in turn through a 1024-entry LRU
   table all miss.  Before the refill, a decision built a fresh context
   and argument record: 21 words. *)
let test_dispatch_packet_allocates_nothing () =
  let _, nf, disp = raw_dispatch () in
  let dc = PD.cache disp in
  let origin = Packet.Raw_app { uid = 1000 } in
  let pkts = Array.init 2048 (fun i -> packet (1000 + i)) in
  let decide i = ignore (PD.decide_nf_output disp nf pkts.(i) ~origin) in
  let words what f expect =
    let h0 = DC.hits dc and m0 = DC.misses dc in
    let n = 4096 in
    let w = words_per_call n f in
    check_int (what ^ ": hits") (if expect then h0 + n else h0) (DC.hits dc);
    check_int (what ^ ": misses") (if expect then m0 else m0 + n) (DC.misses dc);
    check (Printf.sprintf "%s: %.3f words per decision" what w) true (w = 0.)
  in
  decide 0;
  words "table hit" (fun _ -> decide 0) true;
  for i = 0 to 2047 do decide i done;
  words "miss with an evicting insert" (fun i -> decide (i land 2047)) false;
  (* Sixteen singleton-port rules compile to a switch, which a miss
     then runs, on the run's ports and off them. *)
  for p = 1000 to 1015 do
    NF.append nf NF.Output
      { NF.matches = [ NF.Dst_port { lo = p; hi = p }; NF.Proto Packet.Udp ];
        target = NF.Accept; comment = "" }
  done;
  for i = 0 to 2047 do decide i done;
  check "the served chain has a switch" true
    (match PD.cached_program disp "nf_output" with
     | Some p ->
         Array.exists (function Pfm.Iswitch _ -> true | _ -> false) p.Pfm.insns
     | None -> false);
  words "miss that runs the switch" (fun i -> decide (i land 2047)) false

(* --- /proc/protego/cache_stats ------------------------------------------ *)

let fixture () =
  let img = Image.build Image.Protego in
  img.Image.machine.password_source <- (fun _ -> None);
  img

(* The LSM hooks around a warm engine decision, record mode off: each
   writes one typed decision record and formats nothing, so a call
   allocates a small fixed number of words whatever its path lengths.
   Arguments are fresh copies per call, as a syscall's copy from user
   memory makes.  Measured: 6 words per sb_mount, 4 per sb_umount, 5 per
   socket_bind and 4 per ppp file_ioctl: exactly the request the hook
   builds from the arguments (a [Request.t] block).  The engine
   allocates nothing: it refills one PFM context per hook in place, its
   interpreter loop is not a closure, and a switch looks its key up
   without an option.  The canonical target is not copied, the mount
   table is searched without a closure or an option, the labels carry
   no optional-argument boxes and the hooks take their arguments in one
   application, not through a partial one.  The bounds leave 25%
   headroom.  A front slot's [Some] cost 2 more words per call (8, 6, 7
   and 6); before the changes above the same calls cost 82, 66, 34 and
   23 words, and when the hooks still built the audit text, umount,
   bind and ioctl cost 125, 178 and 76. *)
let test_hooks_format_nothing () =
  let img = fixture () in
  let m = img.Image.machine in
  let lsm = Option.get img.Image.protego in
  let disp = Protego_core.Lsm.dispatch lsm in
  let alice = Image.login img "alice" in
  let exim =
    Machine.spawn_task m ~cred:(Cred.make ~uid:Image.exim_uid ~gid:Image.exim_uid ())
      ~cwd:"/" ()
  in
  exim.exe_path <- "/usr/sbin/exim4";
  Syntax.expect_ok "mount"
    (Syscall.mount m alice ~source:"/dev/cdrom" ~target:"/media/cdrom"
       ~fstype:"iso9660" ~flags:[ Mf_readonly; Mf_nosuid; Mf_nodev ]);
  let sock =
    let fd = Syntax.expect_ok "socket" (Syscall.socket m exim Af_inet Sock_stream 6) in
    match List.assoc_opt fd exim.fds with
    | Some { fobj = F_socket s; _ } -> s
    | _ -> Alcotest.fail "no socket"
  in
  let n = 2000 in
  let emitted () = m.audit.Protego_journal.Journal.sk_emitted in
  let evals hook = (List.assoc hook (PD.stats disp)).PD.evals in
  let per_call name ~hook ~records f =
    f 0;
    let e0 = emitted () and v0 = evals hook in
    let w = words_per_call n f in
    check_int (name ^ ": every call an engine evaluation") (v0 + n)
      (evals hook);
    check_int (name ^ ": records written") (if records then e0 + n else e0)
      (emitted ());
    w
  in
  let bounded name w bound =
    check (Printf.sprintf "%s: %.2f words per call <= %d" name w bound) true
      (w <= float_of_int bound)
  in
  let targets = Array.init n (fun _ -> fresh "/media/cdrom") in
  let sources = Array.init n (fun _ -> fresh "/dev/cdrom") in
  let fstypes = Array.init n (fun _ -> fresh "iso9660") in
  let flags = [ Mf_readonly; Mf_nosuid; Mf_nodev ] in
  let mount =
    per_call "sb_mount" ~hook:"mount" ~records:true (fun i ->
        ignore
          (m.security.sb_mount m alice ~source:sources.(i) ~target:targets.(i)
             ~fstype:fstypes.(i) ~flags))
  in
  let umount =
    per_call "sb_umount" ~hook:"umount" ~records:true (fun i ->
        ignore (m.security.sb_umount m alice ~target:targets.(i)))
  in
  let exes = Array.init n (fun _ -> fresh "/usr/sbin/exim4") in
  let bind =
    per_call "socket_bind" ~hook:"bind" ~records:true (fun i ->
        exim.exe_path <- exes.(i);
        ignore (m.security.socket_bind m exim sock Protego_net.Ipaddr.any 25))
  in
  let reqs =
    Array.init n (fun _ ->
        Ioctl_modem_config
          { ioctl_dev = fresh "/dev/ttyS0";
            ppp_opt = Protego_net.Ppp.Compression (fresh "deflate") })
  in
  let ioctl =
    per_call "file_ioctl" ~hook:"ppp_ioctl" ~records:false (fun i ->
        ignore (m.security.file_ioctl m alice reqs.(i)))
  in
  bounded "sb_mount" mount 7;
  bounded "sb_umount" umount 5;
  bounded "socket_bind" bind 6;
  bounded "file_ioctl" ioctl 5

(* The filter machine's own evaluation, on a program that takes every
   path the interpreter fuses: an int and a string switch, each hit and
   missed, loads followed by a switch and by a [Jif], and jumps (a
   [Jmp], a [Jif], a switch) that land on a [Ret].  Contexts are
   [ints = [| kind; flags |]], [strs = [| path; device |]]. *)
let switch_program () =
  let module A = Pfm.Asm in
  let a = A.create () in
  let l_media = A.fresh_label a and l_ports = A.fresh_label a
  and l_any = A.fresh_label a and l_cdrom = A.fresh_label a
  and l_usb = A.fresh_label a and l_allow = A.fresh_label a
  and l_deny = A.fresh_label a and l_reject = A.fresh_label a in
  A.ld_int a 0;
  A.iswitch a [ (0, l_media); (1, l_ports); (7, l_any); (min_int, l_reject) ]
    ~default:l_deny;
  A.place a l_media;
  A.ld_str a 0;
  A.sswitch a [ ("/media/cdrom", l_cdrom); ("/mnt/usb", l_usb); ("", l_deny) ]
    ~default:l_deny;
  A.place a l_cdrom;
  A.ld_int a 1;
  A.jif a (Pfm.All_bits 6) ~jt:l_allow ~jf:l_deny;
  A.place a l_usb;
  A.ld_str a 1;
  A.jif a (Pfm.Str_prefix "/dev/sd") ~jt:l_allow ~jf:l_reject;
  A.place a l_ports;
  A.ld_int a 1;
  A.jif a (Pfm.In_range (10, 20)) ~jt:l_allow ~jf:l_deny;
  A.place a l_any;
  A.jmp a l_allow;
  A.place a l_allow;
  A.ret a Pfm.Allow;
  A.place a l_deny;
  A.ret a Pfm.Deny;
  A.place a l_reject;
  A.ret a Pfm.Reject;
  A.assemble a ~name:"switches" ~n_int_fields:2 ~n_str_fields:2

let switch_contexts =
  List.map
    (fun (kind, flags, path, device) ->
      { Pfm.ints = [| kind; flags |]; strs = [| path; device |] })
    [ (0, 6, "/media/cdrom", ""); (0, 2, "/media/cdrom", "");
      (0, 0, "/mnt/usb", "/dev/sdb1"); (0, 0, "/mnt/usb", "/dev/hda");
      (0, 0, "/mnt/other", ""); (0, 0, "/mnt", ""); (0, 0, "/m", "");
      (0, 0, "", ""); (1, 15, "", "");
      (1, 21, "", ""); (7, 0, "", ""); (3, 0, "", ""); (min_int, 0, "", "");
      (max_int, 0, "", "") ]

(* Evaluating it allocates nothing, and over a fixed sequence of
   contexts (each evaluated twice) its verdicts, per-pc counters and
   [retired] are those the one-dispatch-per-instruction interpreter
   counted before loads and tests were fused. *)
let test_eval_allocates_nothing () =
  let p = switch_program () in
  let ctxs = Array.of_list switch_contexts in
  let verdicts =
    List.concat_map (fun c -> [ Pfm.eval p c; Pfm.eval p c ]) switch_contexts
    |> List.map (function Pfm.Allow -> "A" | Pfm.Deny -> "D" | Pfm.Reject -> "R")
  in
  check_str "verdicts" "A;A;D;D;A;A;R;R;D;D;D;D;D;D;D;D;A;A;D;D;A;A;D;D;R;R;D;D"
    (String.concat ";" verdicts);
  Alcotest.(check (list int)) "per-pc counters"
    [ 28; 28; 16; 16; 4; 4; 4; 4; 4; 4; 2; 8; 16; 4 ]
    (Array.to_list p.Pfm.counters);
  check_int "retired" 142 p.Pfm.retired;
  let n = Array.length ctxs * 200 in
  let w =
    words_per_call n (fun i ->
        ignore (Sys.opaque_identity (Pfm.eval p ctxs.(i mod Array.length ctxs))))
  in
  check (Printf.sprintf "%.3f words per evaluation" w) true (w = 0.)

(* A warm mount+umount pair through the syscalls, each hook an engine
   decision (fresh argument copies, as in the test above), record mode
   off.  Measured: 216 words per pair (220 with a front slot).  Where
   they go: the mounted medium's fresh inode tree (175: five inodes with
   their buffers, four names, the entry lists), the two hooks (10, see
   above), the mount record
   and its table cell (11), the typed dmesg lines and their cells
   (8 + 6), and three result boxes (the walk's [Ok], the device table's
   [Some], the tree's [Ok]).  The walk itself allocates nothing else.
   The bound leaves 25% headroom. *)
let test_mount_pair_budget () =
  let img = fixture () in
  let m = img.Image.machine in
  let disp = Protego_core.Lsm.dispatch (Option.get img.Image.protego) in
  let alice = Image.login img "alice" in
  let n = 2000 in
  let targets = Array.init n (fun _ -> fresh "/media/cdrom") in
  let sources = Array.init n (fun _ -> fresh "/dev/cdrom") in
  let fstypes = Array.init n (fun _ -> fresh "iso9660") in
  let flags = [ Mf_readonly; Mf_nosuid; Mf_nodev ] in
  let pair i =
    Syntax.expect_ok "mount"
      (Syscall.mount m alice ~source:sources.(i) ~target:targets.(i)
         ~fstype:fstypes.(i) ~flags);
    Syntax.expect_ok "umount" (Syscall.umount m alice ~target:targets.(i))
  in
  let evals () =
    let s = PD.stats disp in
    (List.assoc "mount" s).PD.evals + (List.assoc "umount" s).PD.evals
  in
  pair 0;
  let e0 = evals () in
  let w = words_per_call n pair in
  check_int "every hook an engine evaluation" (e0 + (2 * n)) (evals ());
  check (Printf.sprintf "%.2f words per mount+umount <= 270" w) true (w <= 270.)

(* A repeated denial keeps its hook's errno: the engine decides each
   repeat, and the hook derives the errno from the verdict. *)
let test_repeated_denial_errno () =
  let img = fixture () in
  let m = img.Image.machine in
  let disp = Protego_core.Lsm.dispatch (Option.get img.Image.protego) in
  let alice = Image.login img "alice" in
  let fd = Syntax.expect_ok "socket" (Syscall.socket m alice Af_inet Sock_stream 6) in
  let evals () =
    List.fold_left (fun acc (_, h) -> acc + h.PD.evals) 0 (PD.stats disp)
  in
  let e0 = evals () in
  for i = 1 to 2 do
    alice.exe_path <- fresh "/bin/sh";
    Alcotest.(check (result unit errno))
      (Printf.sprintf "bind %d: EACCES" i) (Error Errno.EACCES)
      (Syscall.bind m alice fd Protego_net.Ipaddr.any 25);
    Alcotest.(check (result unit errno))
      (Printf.sprintf "mount %d: EPERM" i) (Error Errno.EPERM)
      (Syscall.mount m alice ~source:(fresh "/dev/sda2") ~target:(fresh "/etc")
         ~fstype:(fresh "ext4") ~flags:[])
  done;
  check_int "each decision an engine evaluation" (e0 + 4) (evals ());
  check_int "no table lookup" 0 (DC.hits (PD.cache disp) + DC.misses (PD.cache disp))

(* A raw socket of alice's and a sender of UDP datagrams to a port: the
   stock chain drops port 9 from a raw socket and lets 33434 through. *)
let raw_sender m alice =
  let fd =
    Syntax.expect_ok "raw socket" (Syscall.socket m alice Af_inet Sock_raw 17)
  in
  let remote = Protego_net.Ipaddr.v 10 0 0 1 in
  fun dport ->
    Syscall.sendto m alice fd remote 0
      (Packet.encode
         { Packet.src = Protego_net.Ipaddr.v 10 0 0 2; dst = remote; ttl = 64;
           transport =
             Packet.Udp_dgram { src_port = 40000; dst_port = dport; payload = "" } })

let test_cache_stats_proc () =
  let img = fixture () in
  let m = img.Image.machine in
  let root = Image.login img "root" in
  let alice = Image.login img "alice" in
  let read () =
    Syntax.expect_ok "read cache_stats"
      (Syscall.read_file m root "/proc/protego/cache_stats")
  in
  let write s = Syscall.write_file m root "/proc/protego/cache_stats" s in
  let send = raw_sender m alice in
  let dropped () = ignore (send 9) in
  Syntax.expect_ok "reset" (write "reset\n");
  check_str "zeroed after reset; the packet hook's line only"
    "cache on capacity 1024 entries 0\nhits 0 misses 0 stale 0 evicted 0\n\
     hook nf_output hits 0 misses 0 stale 0\n"
    (read ());
  (* Request decisions never reach the table. *)
  ignore
    (Syscall.mount m alice ~source:"/dev/sda2" ~target:"/etc" ~fstype:"ext4"
       ~flags:[]);
  check "a mount leaves it untouched" true
    (starts_with (read ())
       "cache on capacity 1024 entries 0\nhits 0 misses 0 stale 0 evicted 0\n");
  check "the packet is dropped" true (send 9 = Error Errno.EPERM);
  dropped ();
  check "one miss one hit" true
    (starts_with (read ())
       "cache on capacity 1024 entries 1\nhits 1 misses 1 stale 0 evicted 0\n");
  check "per-hook breakdown" true
    (contains (read ()) "hook nf_output hits 1 misses 1 stale 0\n");
  (* A chain edit bumps its generation: the cached drop is stale,
     evicted lazily on the next lookup. *)
  NF.append m.netfilter NF.Output
    { NF.matches = [ NF.Dst_port { lo = 80; hi = 80 } ]; target = NF.Accept;
      comment = "" };
  dropped ();
  check "the edit invalidated exactly the stale entry" true
    (starts_with (read ())
       "cache on capacity 1024 entries 1\nhits 1 misses 2 stale 1 evicted 0\n");
  (* enable off / on round-trips and shows in the header. *)
  Syntax.expect_ok "disable" (write "enable off\n");
  check "off in header" true (starts_with (read ()) "cache off ");
  dropped ();
  check "no counter movement while off" true
    (contains (read ()) "hits 1 misses 2 stale 1 evicted 0\n");
  Syntax.expect_ok "re-enable" (write "enable on\n");
  check "on in header" true (starts_with (read ()) "cache on ");
  (* Unknown commands are EINVAL; the file is root-only like the rest of
     /proc/protego. *)
  Alcotest.(check (result unit errno))
    "junk command" (Error Errno.EINVAL) (write "flush everything\n");
  Alcotest.(check (result unit errno))
    "unprivileged read" (Error Errno.EACCES)
    (Result.map
       (fun _ -> ())
       (Syscall.read_file m alice "/proc/protego/cache_stats"));
  Alcotest.(check (result unit errno))
    "unprivileged write" (Error Errno.EACCES)
    (Syscall.write_file m alice "/proc/protego/cache_stats" "reset\n")

(* --- audit metadata ------------------------------------------------------ *)

(* A packet decision's journal record names the engine that served it:
   [pfm] for the evaluation, [cache] for the table hit that repeats it.
   A request decision's record names the engine every time. *)
let test_audit_cache_metadata () =
  let module J = Protego_journal.Journal in
  let img = fixture () in
  let m = img.Image.machine in
  let root = Image.login img "root" in
  let alice = Image.login img "alice" in
  let disp = Protego_core.Lsm.dispatch (Option.get img.Image.protego) in
  PD.reset_stats disp;
  (* The packet hook journals its decisions in record mode. *)
  Syntax.expect_ok "record on"
    (Syscall.write_file m root "/proc/protego/record" "on");
  let send = raw_sender m alice in
  let seen = List.length (J.entries m.audit.J.sk_journal) in
  ignore (send 9);
  ignore (send 9);
  ignore
    (Syscall.mount m alice ~source:"/dev/sda2" ~target:"/etc" ~fstype:"ext4"
       ~flags:[]);
  ignore
    (Syscall.mount m alice ~source:"/dev/sda2" ~target:"/etc" ~fstype:"ext4"
       ~flags:[]);
  let engines hook =
    List.filteri (fun i _ -> i >= seen) (J.entries m.audit.J.sk_journal)
    |> List.filter_map (function
         | J.Decision ({ J.d_lsm = Some l; _ } as d) when hook d.J.d_req ->
             Some (J.engine_name l.J.l_engine)
         | _ -> None)
  in
  Alcotest.(check (list string))
    "packet: evaluation then table hit" [ "pfm"; "cache" ]
    (engines (function J.Nf _ -> true | _ -> false));
  Alcotest.(check (list string))
    "mount: the engine both times" [ "pfm"; "pfm" ]
    (engines (function J.Mount _ -> true | _ -> false));
  (* The filter machine never saw the repeated packet: hook counters
     count engine evaluations, and a table hit is not one. *)
  check_int "no double-counted eval" 1
    (List.assoc "nf_output" (PD.stats disp)).PD.evals;
  check_int "both mounts evaluated" 2
    (List.assoc "mount" (PD.stats disp)).PD.evals

(* --- request decisions against live /proc writes ------------------------ *)

type op =
  | Write of string * string  (* /proc file, contents *)
  | Decide of Request.t

let pp_op = function
  | Write (file, text) -> Printf.sprintf "write %s %S" file text
  | Decide req ->
      Printf.sprintf "decide %s subject %d"
        (Protego_core.Decider.kind_name (Request.kind_of_index (Request.index req)))
        (Request.subject req)

let op_gen =
  let open QCheck2.Gen in
  let lines file pool =
    map
      (fun ls -> Write (file, String.concat "\n" ls ^ "\n"))
      (list_size (int_bound 3) (oneofl pool))
  in
  let subject = oneofl [ 0; 1000; 1001; 102 ] in
  let mount =
    map3
      (fun subject (source, target) (fstype, flags) ->
        Request.Mount { subject; source; target; fstype; flags })
      subject
      (oneofl
         [ ("/dev/cdrom", "/media/cdrom"); ("/dev/sdb1", "/mnt/usb");
           ("/dev/sda2", "/etc") ])
      (oneofl
         [ ("iso9660", [ Mf_readonly; Mf_nosuid; Mf_nodev ]);
           ("vfat", [ Mf_nosuid; Mf_nodev ]); ("ext4", []) ])
  in
  let umount =
    map3
      (fun subject target mounted_by ->
        Request.Umount { subject; target; mounted_by })
      subject (oneofl [ "/media/cdrom"; "/mnt/usb"; "/etc" ])
      (oneofl [ 0; 1000; 1001 ])
  in
  let bind =
    map3
      (fun subject (port, proto) exe ->
        Request.Bind { subject; port; proto; exe })
      subject
      (oneofl
         Protego_policy.Bindconf.[ (25, Tcp); (53, Udp); (80, Tcp); (8080, Tcp) ])
      (oneofl [ "/usr/sbin/exim4"; "/usr/sbin/named"; "/bin/sh" ])
  in
  let ppp =
    map3
      (fun subject device opt -> Request.Ppp_ioctl { subject; device; opt })
      subject
      (oneofl [ "/dev/ttyS0"; "/dev/ttyS1"; "/dev/ttyS9" ])
      (oneofl Protego_net.Ppp.[ Accomp; Default_route; Compression "deflate" ])
  in
  frequency
    [ ( 1,
        lines "/proc/protego/mount_whitelist"
          [ "allow /dev/cdrom /media/cdrom iso9660 nosuid user";
            "allow /dev/sdb1 /mnt/usb vfat - users";
            "allow /dev/sda2 /etc ext4 nodev users";
            "allow /dev/cdrom /media/cdrom auto - users" ] );
      ( 1,
        lines "/proc/protego/bind_map"
          [ "25 tcp /usr/sbin/exim4 0"; "53 udp /usr/sbin/named 102";
            "80 tcp /bin/sh 1000"; "8080 tcp /bin/sh 1001" ] );
      ( 1,
        lines "/proc/protego/ppp_policy"
          [ "allow-device /dev/ttyS0"; "allow-device /dev/ttyS1"; "mru 1500" ] );
      ( 1,
        map
          (fun e -> Write ("/proc/protego/filter_stats", "engine " ^ e))
          (oneofl [ "pfm"; "ref" ]) );
      (8, map (fun r -> Decide r) (oneof [ mount; umount; bind; ppp ])) ]

let prop_live_writes =
  QCheck2.Test.make
    ~name:
      "request verdicts equal Request.expected under /proc writes, pfm and ref"
    ~count:40
    ~print:(fun ops -> String.concat "\n" (List.map pp_op ops))
    QCheck2.Gen.(list_size (int_range 1 60) op_gen)
    (fun ops ->
      let img = fixture () in
      let m = img.Image.machine in
      let root = Image.login img "root" in
      let lsm = Option.get img.Image.protego in
      let st = Protego_core.Lsm.state lsm in
      let disp = Protego_core.Lsm.dispatch lsm in
      let entries = DC.length (PD.cache disp) in
      List.for_all
        (function
          | Write (file, text) ->
              (* A refused write (EINVAL, a lint refusal) changes nothing. *)
              ignore (Syscall.write_file m root file text);
              true
          | Decide req ->
              let got = PD.decide disp ~phase:Phase.initial st req in
              let verdict, _ =
                Request.expected st ~phase:(Phase.index Phase.initial)
                  ~recorded:false req
              in
              got = (verdict = 1) && DC.length (PD.cache disp) = entries)
        ops)

(* --- policy_state generations ------------------------------------------- *)

let test_generation_counters () =
  let st = PS.create () in
  let all = [ PS.Mounts; PS.Binds; PS.Delegation; PS.Accounts; PS.Ppp ] in
  List.iter
    (fun s -> check_int (PS.source_name s ^ " starts at 0") 0 (PS.generation st s))
    all;
  PS.bump_generation st PS.Binds;
  PS.bump_generation st PS.Binds;
  check_int "binds bumped" 2 (PS.generation st PS.Binds);
  List.iter
    (fun s ->
      if s <> PS.Binds then
        check_int (PS.source_name s ^ " untouched") 0 (PS.generation st s))
    all;
  check_str "source names" "mounts,binds,delegation,accounts,ppp"
    (String.concat "," (List.map PS.source_name all))

let test_proc_write_bumps_generation () =
  let img = fixture () in
  let m = img.Image.machine in
  let root = Image.login img "root" in
  let st =
    match img.Image.protego with
    | Some lsm -> Protego_core.Lsm.state lsm
    | None -> Alcotest.fail "Protego image has no LSM"
  in
  (* Image construction itself loads policy through /proc, so generations
     are already non-zero here; assert on deltas. *)
  let binds_before = PS.generation st PS.Binds in
  let mounts_before = PS.generation st PS.Mounts in
  let bm =
    Syntax.expect_ok "read bind_map"
      (Syscall.read_file m root "/proc/protego/bind_map")
  in
  Syntax.expect_ok "rewrite bind_map"
    (Syscall.write_file m root "/proc/protego/bind_map" bm);
  check_int "bind write bumps binds" (binds_before + 1)
    (PS.generation st PS.Binds);
  check_int "bind write leaves mounts alone" mounts_before
    (PS.generation st PS.Mounts)

let suites =
  [ ("cache:table",
      [ Alcotest.test_case "LRU capacity eviction" `Quick test_lru_eviction;
        Alcotest.test_case "negative results" `Quick test_negative_caching;
        Alcotest.test_case "generation staleness" `Quick
          test_generation_staleness;
        Alcotest.test_case "enable off bypass" `Quick test_enable_off_bypass;
        Alcotest.test_case "render and reset" `Quick test_render_and_reset;
        Alcotest.test_case "insert after a miss" `Quick test_insert_after_miss;
        Alcotest.test_case "a hit allocates nothing" `Quick
          test_hit_allocates_nothing;
        Alcotest.test_case "an insert into a full table allocates nothing"
          `Quick test_full_insert_allocates_nothing;
        Alcotest.test_case "agrees with a naive LRU model" `Quick test_model ]);
    ("cache:keys",
      [ Alcotest.test_case "each packet field separates entries" `Quick
          test_dispatch_each_field_keys ]);
    ("cache:dispatch",
      [ Alcotest.test_case "hit/miss flow" `Quick test_dispatch_cache_flow;
        Alcotest.test_case "request decisions never touch the table" `Quick
          test_dispatch_requests_skip_table;
        QCheck_alcotest.to_alcotest ~long:false prop_live_writes;
        Alcotest.test_case "disable bypasses" `Quick
          test_dispatch_disable_bypasses;
        Alcotest.test_case "separator-laden tuples" `Quick
          test_dispatch_separator_tuples;
        Alcotest.test_case "a table hit renders nothing" `Quick
          test_dispatch_hit_no_rendering;
        Alcotest.test_case "a packet decision allocates nothing" `Quick
          test_dispatch_packet_allocates_nothing;
        Alcotest.test_case "a warm LSM hook formats nothing" `Quick
          test_hooks_format_nothing;
        Alcotest.test_case "a program's evaluation allocates nothing" `Quick
          test_eval_allocates_nothing;
        Alcotest.test_case "a warm mount+umount pair's words" `Quick
          test_mount_pair_budget;
        Alcotest.test_case "a repeated denial keeps its errno" `Quick
          test_repeated_denial_errno ]);
    ("cache:proc",
      [ Alcotest.test_case "/proc/protego/cache_stats" `Quick
          test_cache_stats_proc ]);
    ("cache:audit",
      [ Alcotest.test_case "cache-hit metadata" `Quick
          test_audit_cache_metadata ]);
    ("cache:generations",
      [ Alcotest.test_case "counters" `Quick test_generation_counters;
        Alcotest.test_case "/proc writes bump" `Quick
          test_proc_write_bumps_generation ]) ]
