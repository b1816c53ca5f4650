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

let key s =
  let k = DC.Key.create () in
  DC.Key.last_string k s;
  k

let test_lru_eviction () =
  let c = DC.create ~capacity:2 () in
  let h = DC.register c "mount" in
  let gen = 0 in
  DC.add c h ~subject:0 ~key:(key "a") ~gen ~verdict:Pfm.Allow;
  DC.add c h ~subject:0 ~key:(key "b") ~gen ~verdict:Pfm.Allow;
  check_int "at capacity" 2 (DC.length c);
  (* A hit refreshes recency: touching "a" makes "b" the LRU victim. *)
  check "a hits" true (DC.find c h ~subject:0 ~key:(key "a") ~gen <> None);
  DC.add c h ~subject:0 ~key:(key "c") ~gen ~verdict:Pfm.Deny;
  check_int "one capacity eviction" 1 (DC.capacity_evictions c);
  check_int "still at capacity" 2 (DC.length c);
  check "b was the victim" true
    (DC.find c h ~subject:0 ~key:(key "b") ~gen = None);
  check "a survived" true (DC.find c h ~subject:0 ~key:(key "a") ~gen <> None);
  check "c resident" true (DC.find c h ~subject:0 ~key:(key "c") ~gen <> None);
  (* Re-adding a resident key refreshes in place, no eviction. *)
  DC.add c h ~subject:0 ~key:(key "a") ~gen ~verdict:Pfm.Deny;
  check_int "refresh is not an insert" 1 (DC.capacity_evictions c);
  check_int "size unchanged" 2 (DC.length c)

let test_negative_caching () =
  let c = DC.create () in
  let h = DC.register c "bind" in
  let gen = 5 in
  DC.add c h ~subject:8 ~key:(key "k") ~gen ~verdict:Pfm.Deny;
  (match DC.find c h ~subject:8 ~key:(key "k") ~gen with
  | Some Pfm.Deny -> ()
  | _ -> Alcotest.fail "negative result not cached");
  DC.add c h ~subject:8 ~key:(key "ok") ~gen ~verdict:Pfm.Allow;
  (match DC.find c h ~subject:8 ~key:(key "ok") ~gen with
  | Some Pfm.Allow -> ()
  | _ -> Alcotest.fail "positive result not cached");
  (* Subjects are part of the key. *)
  check "other subject misses" true
    (DC.find c h ~subject:9 ~key:(key "k") ~gen = None)

let test_generation_staleness () =
  let c = DC.create () in
  let h = DC.register c "mount" in
  DC.add c h ~subject:0 ~key:(key "k") ~gen:3 ~verdict:Pfm.Allow;
  check "fresh generation hits" true
    (DC.find c h ~subject:0 ~key:(key "k") ~gen:3 <> None);
  (* A bumped generation is a miss AND evicts the stale entry. *)
  check "stale generation misses" true
    (DC.find c h ~subject:0 ~key:(key "k") ~gen:4 = None);
  check_int "stale eviction counted" 1 (DC.stale_evictions c);
  check_int "stale lookup counts as a miss" 1 (DC.misses c);
  check_int "entry gone" 0 (DC.length c);
  (* The entry was dropped, so the next lookup is a plain miss. *)
  check "second lookup plain miss" true
    (DC.find c h ~subject:0 ~key:(key "k") ~gen:4 = None);
  check_int "no second stale eviction" 1 (DC.stale_evictions c);
  check_int "but a second miss" 2 (DC.misses c);
  (* The entry keeps the generation it was inserted with. *)
  let gen = ref 7 in
  DC.add c h ~subject:0 ~key:(key "r") ~gen:!gen ~verdict:Pfm.Allow;
  gen := 8;
  check "entry stamped with insertion-time gens" true
    (DC.find c h ~subject:0 ~key:(key "r") ~gen:7 <> None)

let test_enable_off_bypass () =
  let c = DC.create () in
  let h = DC.register c "ppp_ioctl" in
  let gen = 0 in
  DC.add c h ~subject:0 ~key:(key "k") ~gen ~verdict:Pfm.Allow;
  ignore (DC.find c h ~subject:0 ~key:(key "k") ~gen);
  DC.set_enabled c false;
  check "disabled lookups miss" true
    (DC.find c h ~subject:0 ~key:(key "k") ~gen = None);
  DC.add c h ~subject:0 ~key:(key "new") ~gen ~verdict:Pfm.Deny;
  (* A pure bypass: no insert, no counter movement. *)
  check_int "no insert while disabled" 1 (DC.length c);
  check_int "hits untouched" 1 (DC.hits c);
  check_int "misses untouched" 0 (DC.misses c);
  DC.set_enabled c true;
  (* Entries cached before the bypass are still valid afterwards: their
     generation stamps, not the toggle, decide freshness. *)
  check "entry servable after re-enable" true
    (DC.find c h ~subject:0 ~key:(key "k") ~gen <> None)

let test_register_and_reset () =
  let c = DC.create ~capacity:4 () in
  let hm = DC.register c "mount" in
  let hm' = DC.register c "mount" in
  check "registration is idempotent" true (hm == hm');
  let hb = DC.register c "bind" in
  check_int "dense ids" 1 hb.DC.hid;
  DC.add c hm ~subject:0 ~key:(key "x") ~gen:0 ~verdict:Pfm.Allow;
  ignore (DC.find c hm ~subject:0 ~key:(key "x") ~gen:0);
  ignore (DC.find c hb ~subject:0 ~key:(key "y") ~gen:0);
  check_str "render"
    "cache on capacity 4 entries 1\n\
     hits 1 misses 1 stale 0 evicted 0\n\
     hook mount hits 1 misses 0 stale 0\n\
     hook bind hits 0 misses 1 stale 0\n"
    (DC.render c);
  (* clear drops entries but keeps counters; reset zeroes everything; both
     advance the epoch so front slots die with the entries. *)
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
     hook mount hits 0 misses 0 stale 0\n\
     hook bind hits 0 misses 0 stale 0\n"
    (DC.render c);
  (match DC.handle_write c "bogus" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "junk command accepted")

(* An insert right after a miss reuses that lookup; a key rewritten or a
   subject changed in between still lands under its own key. *)
let test_insert_after_miss () =
  let c = DC.create () in
  let h = DC.register c "mount" in
  let gen = 0 in
  let k = DC.Key.create () in
  let set s =
    DC.Key.reset k;
    DC.Key.last_string k s
  in
  let find ?(subject = 0) s = DC.find c h ~subject ~key:(key s) ~gen in
  set "a";
  check "cold miss" true (DC.find c h ~subject:0 ~key:k ~gen = None);
  DC.add c h ~subject:0 ~key:k ~gen ~verdict:Pfm.Allow;
  check "inserted under its bytes" true (find "a" = Some Pfm.Allow);
  set "b";
  check "b misses" true (DC.find c h ~subject:0 ~key:k ~gen = None);
  set "c";
  DC.add c h ~subject:0 ~key:k ~gen ~verdict:Pfm.Deny;
  check "rewritten key inserted as c" true (find "c" = Some Pfm.Deny);
  check "b never inserted" true (find "b" = None);
  set "d";
  check "d misses for subject 0" true
    (DC.find c h ~subject:0 ~key:k ~gen = None);
  DC.add c h ~subject:1 ~key:k ~gen ~verdict:Pfm.Allow;
  check "inserted for subject 1" true (find ~subject:1 "d" <> None);
  check "not for subject 0" true (find "d" = None);
  (* The same key added twice is refreshed, not duplicated. *)
  DC.add c h ~subject:1 ~key:k ~gen ~verdict:Pfm.Deny;
  check "refreshed verdict" true (find ~subject:1 "d" = Some Pfm.Deny);
  check_int "three entries" 3 (DC.length c)

(* Minor-heap words one call of [f] allocates, averaged over [n] calls. *)
let words_per_call n f =
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    f i
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let test_hit_allocates_nothing () =
  let c = DC.create () in
  let h = DC.register c "mount" in
  let gen = 0 in
  List.iter
    (fun len ->
      let k = key (String.make len 'x') in
      DC.add c h ~subject:0 ~key:k ~gen ~verdict:Pfm.Allow;
      let w =
        words_per_call 1000 (fun _ ->
            ignore (DC.find c h ~subject:0 ~key:k ~gen))
      in
      check (Printf.sprintf "%d-byte key: %.3f words per hit" len w) true
        (w < 0.01))
    [ 8; 1000 ]

(* Inserts into a full table, each with its capacity eviction, allocate
   nothing once every slot's key buffer has held a key as long: half go
   through a missed [find] (the insert reuses its hash), half straight
   to [add]. *)
let test_full_insert_allocates_nothing () =
  let cap = 64 in
  let c = DC.create ~capacity:cap () in
  let h = DC.register c "mount" in
  let k = DC.Key.create () in
  let long = String.make 40 'x' and short = String.make 24 'y' in
  let insert i s =
    DC.Key.reset k;
    DC.Key.int k i;
    DC.Key.last_string k s;
    if i land 1 = 1 || DC.find c h ~subject:0 ~key:k ~gen:0 = None then
      DC.add c h ~subject:0 ~key:k ~gen:0 ~verdict:Pfm.Deny
  in
  for i = 0 to (2 * cap) - 1 do
    insert i long
  done;
  let n = 1000 in
  let evicted = DC.capacity_evictions c in
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    insert (1_000_000 + i) short
  done;
  let words = Gc.minor_words () -. before in
  check_int "every insert evicted" n (DC.capacity_evictions c - evicted);
  check_int "still full" cap (DC.length c);
  check (Printf.sprintf "%.0f words over %d inserts" words n) true
    (words = 0.)

(* --- the table against a model ------------------------------------------ *)

(* A naive LRU the table must agree with: an association list, most recent
   first, of (hook, subject, key) to (gen, verdict), and the counters. *)
type model = {
  cap : int;
  mutable entries : ((int * int * string) * (int * Pfm.verdict)) list;
  mutable hits : int;
  mutable misses : int;
  mutable stale : int;
  mutable evicted : int;
  per_hook : (int * int * int) array;  (* hits, misses, stale *)
}

let model_count m hid ~hit ~stale =
  let a, b, c = m.per_hook.(hid) in
  if hit then begin
    m.hits <- m.hits + 1;
    m.per_hook.(hid) <- (a + 1, b, c)
  end
  else begin
    m.misses <- m.misses + 1;
    if stale then m.stale <- m.stale + 1;
    m.per_hook.(hid) <- (a, b + 1, if stale then c + 1 else c)
  end

let model_find m hid subject key gen =
  let k = (hid, subject, key) in
  let rest = List.remove_assoc k m.entries in
  match List.assoc_opt k m.entries with
  | Some (g, v) when g = gen ->
      m.entries <- (k, (g, v)) :: rest;
      model_count m hid ~hit:true ~stale:false;
      Some v
  | Some _ ->
      m.entries <- rest;
      model_count m hid ~hit:false ~stale:true;
      None
  | None ->
      model_count m hid ~hit:false ~stale:false;
      None

let model_add m hid subject key gen v =
  let k = (hid, subject, key) in
  let rest = List.remove_assoc k m.entries in
  let rest =
    if List.mem_assoc k m.entries || List.length rest < m.cap then rest
    else begin
      m.evicted <- m.evicted + 1;
      List.filteri (fun i _ -> i < m.cap - 1) rest
    end
  in
  m.entries <- (k, (gen, v)) :: rest

let model_render m names =
  Printf.sprintf "cache on capacity %d entries %d\n" m.cap
    (List.length m.entries)
  ^ Printf.sprintf "hits %d misses %d stale %d evicted %d\n" m.hits m.misses
      m.stale m.evicted
  ^ String.concat ""
      (List.mapi
         (fun i name ->
           let a, b, c = m.per_hook.(i) in
           Printf.sprintf "hook %s hits %d misses %d stale %d\n" name a b c)
         names)

(* Random runs of find, add, find-then-add, generation bumps, clear and
   reset.  Capacities 1, 2, 3, 16 and 17 meet the table's growth (its
   slots double up to capacity + 1, rebucketed each time) and eviction
   at capacity; keys of 0 to 30 bytes, some prefixes of others, land in
   slots whose reused buffers hold longer keys. *)
let test_model () =
  let names = [ "mount"; "bind" ] in
  let keys =
    List.concat_map
      (fun ch -> List.map (fun n -> String.make n ch) [ 0; 1; 3; 7; 8; 9; 15; 16; 17; 30 ])
      [ 'a'; 'b' ]
    |> Array.of_list
  in
  List.iter
    (fun cap ->
      for seed = 0 to 39 do
        let rand = Random.State.make [| 0xDC; cap; seed |] in
        let c = DC.create ~capacity:cap () in
        let hooks = Array.of_list (List.map (DC.register c) names) in
        let m =
          { cap; entries = []; hits = 0; misses = 0; stale = 0; evicted = 0;
            per_hook = Array.make 2 (0, 0, 0) }
        in
        let gens = [| 0; 0 |] in
        let k = DC.Key.create () in
        let verdicts = [| Pfm.Allow; Pfm.Deny; Pfm.Reject |] in
        for step = 1 to 300 do
          let where = Printf.sprintf "cap %d seed %d step %d" cap seed step in
          let hid = Random.State.int rand 2 in
          let subject = Random.State.int rand 3 in
          let key = keys.(Random.State.int rand (Array.length keys)) in
          let v = verdicts.(Random.State.int rand 3) in
          let write () =
            DC.Key.reset k;
            DC.Key.last_string k key
          in
          let find () =
            write ();
            let got = DC.find c hooks.(hid) ~subject ~key:k ~gen:gens.(hid) in
            let want = model_find m hid subject key gens.(hid) in
            check (where ^ ": find") true (got = want);
            got
          in
          let add () =
            DC.add c hooks.(hid) ~subject ~key:k ~gen:gens.(hid) ~verdict:v;
            model_add m hid subject key gens.(hid) v
          in
          (match Random.State.int rand 20 with
          | 0 -> gens.(hid) <- gens.(hid) + 1
          | 1 ->
              DC.clear c;
              m.entries <- []
          | 2 ->
              DC.reset c;
              m.entries <- [];
              m.hits <- 0;
              m.misses <- 0;
              m.stale <- 0;
              m.evicted <- 0;
              Array.fill m.per_hook 0 2 (0, 0, 0)
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
          List.iter2
            (fun h (hits, misses, stale) ->
              check_int (where ^ ": hook hits") hits h.DC.h_hits;
              check_int (where ^ ": hook misses") misses h.DC.h_misses;
              check_int (where ^ ": hook stale") stale h.DC.h_stale)
            (DC.hook_stats c) (Array.to_list m.per_hook);
          check_str (where ^ ": render") (model_render m names) (DC.render c)
        done
      done)
    [ 1; 2; 3; 16; 17 ]

(* --- keys --------------------------------------------------------------- *)

let encoded f =
  let k = DC.Key.create () in
  f k;
  DC.Key.contents k

let rec product = function
  | [] -> [ [] ]
  | xs :: rest ->
      List.concat_map (fun x -> List.map (fun t -> x :: t) (product rest)) xs

(* Every hook's encoding separates tuples a separator-joined rendering
   confuses, and tuples whose fields hold varint-looking bytes; and no
   key is longer than that rendering of the same tuple. *)
let test_keys_injective_and_short () =
  let module D = Protego_core.Decider in
  let module R = Protego_core.Request in
  let module Bindconf = Protego_policy.Bindconf in
  let module Ppp = Protego_net.Ppp in
  let us = "\x1f" in
  let strs =
    [ ""; "/dev/sdc1"; "/media/stick"; "/dev/sdc1\x1f/media/stick";
      "/media/stick\x1f/etc"; "/etc"; "/etc\x1fext4"; "ext4"; "auto";
      "\x01"; "\x80\x01"; String.make 200 'p' ]
  in
  let ints = [ 0; 1; 2; 63; 64; 1000; -1; 33434; min_int; max_int ] in
  let check_hook name keys =
    let n = List.length keys in
    check_int (name ^ ": one key per tuple") n
      (List.length (List.sort_uniq compare (List.map fst keys)));
    List.iter
      (fun (k, rendered) ->
        if String.length k > String.length rendered then
          Alcotest.failf "%s: key of %d bytes, rendering of %d" name
            (String.length k) (String.length rendered))
      keys
  in
  let i = string_of_int in
  check_hook "mount"
    (List.map
       (function
         | [ source; target; fstype ] ->
             List.concat_map
               (fun (phase, flags) ->
                 let mask = Protego_filter.Pfm_compile.flags_mask flags in
                 [ ( encoded (fun k ->
                         R.key k phase
                           (R.Mount
                              { subject = 0; source; target; fstype; flags })),
                     String.concat us
                       [ i phase; source; target; fstype; i mask ] ) ])
               [ (0, []); (2, [ Mf_nosuid; Mf_nodev ]) ]
         | _ -> assert false)
       (product [ strs; strs; strs ])
    |> List.concat);
  check_hook "umount"
    (List.concat_map
       (fun target ->
         List.concat_map
           (fun mounted_by ->
             List.map
               (fun phase ->
                 ( encoded (fun k ->
                       R.key k phase
                         (R.Umount { subject = 0; target; mounted_by })),
                   String.concat us [ i phase; target; i mounted_by ] ))
               [ 0; 1; 2 ])
           ints)
       strs);
  check_hook "bind"
    (List.concat_map
       (fun exe ->
         List.concat_map
           (fun port ->
             List.map
               (fun proto ->
                 ( encoded (fun k ->
                       R.key k 1 (R.Bind { subject = 0; port; proto; exe })),
                   String.concat us
                     [ "1"; i port; Bindconf.proto_to_string proto; exe ] ))
               [ Bindconf.Tcp; Bindconf.Udp ])
           ints)
       strs);
  check_hook "ppp_ioctl"
    (List.concat_map
       (fun device ->
         List.map
           (fun opt ->
             ( encoded (fun k ->
                 R.key k 0 (R.Ppp_ioctl { subject = 0; device; opt })),
               String.concat us
                 [ "0"; device; (if Ppp.option_is_safe opt then "1" else "0") ]
             ))
           [ Ppp.Accomp; Ppp.Default_route ])
       strs);
  check_hook "nf_output"
    (List.map
       (fun xs ->
         let ctx = { Pfm.ints = Array.of_list xs; strs = [||] } in
         (encoded (fun k -> D.nf_key k ctx), String.concat us (List.map i xs)))
       (product [ ints; ints; [ 0; min_int ] ]))

(* --- the dispatcher in front of a policy state -------------------------- *)

let raw_dispatch () =
  let st = PS.create () in
  PS.set st
    (PS.Set_mounts
       [ { PS.mr_source = "/dev/a"; mr_target = "/m"; mr_fstype = "ext4";
           mr_flags = []; mr_mode = `Users; mr_phase = PS.Phase.Always } ]);
  (st, PD.create ())

let test_dispatch_cache_flow () =
  let st, disp = raw_dispatch () in
  let dc = PD.cache disp in
  let decide subject =
    PD.decide_mount disp ~subject ~phase:Phase.initial st ~source:"/dev/a"
      ~target:"/m" ~fstype:"ext4" ~flags:[]
  in
  check "allowed" true (decide 1);
  check_str "first decision from the engine" "pfm" (PD.decision_engine_name disp);
  check "repeat allowed" true (decide 1);
  check_str "repeat served by the cache" "cache" (PD.decision_engine_name disp);
  check_int "one hit" 1 (DC.hits dc);
  (* The subject credential key separates entries with identical args. *)
  check "other subject" true (decide 2);
  check_str "other subject is a miss" "pfm" (PD.decision_engine_name disp);
  check_int "two entries" 2 (DC.length dc);
  check "back to the first subject" true (decide 1);
  check_str "still cached per subject" "cache" (PD.decision_engine_name disp);
  (* A reload outside /proc goes through [PS.set] too: it bumps the
     generation, so nothing stale is served. *)
  PS.set st (PS.Set_mounts []);
  check "reload denies" true (not (decide 1));
  check_str "post-reload decision from the engine" "pfm"
    (PD.decision_engine_name disp);
  check "cached denial" true (not (decide 1));
  check_str "denial cached too" "cache" (PD.decision_engine_name disp)

let test_dispatch_reset_kills_front_slot () =
  let st, disp = raw_dispatch () in
  let dc = PD.cache disp in
  let decide () =
    PD.decide_mount disp ~subject:0 ~phase:Phase.initial st ~source:"/dev/a"
      ~target:"/m" ~fstype:"ext4" ~flags:[]
  in
  ignore (decide ());
  ignore (decide ());
  check_str "warm" "cache" (PD.decision_engine_name disp);
  DC.reset dc;
  (* After a wholesale reset nothing may be served from memo state — the
     epoch kills the dispatcher's front slot along with the table. *)
  ignore (decide ());
  check_str "post-reset decision re-evaluated" "pfm"
    (PD.decision_engine_name disp);
  check_int "post-reset miss counted" 1 (DC.misses dc);
  check_int "no phantom hit" 0 (DC.hits dc)

let test_dispatch_disable_bypasses () =
  let st, disp = raw_dispatch () in
  let dc = PD.cache disp in
  let decide () =
    PD.decide_mount disp ~subject:0 ~phase:Phase.initial st ~source:"/dev/a"
      ~target:"/m" ~fstype:"ext4" ~flags:[]
  in
  DC.set_enabled dc false;
  ignore (decide ());
  ignore (decide ());
  check_str "bypassed decisions come from the engine" "pfm"
    (PD.decision_engine_name disp);
  check_int "no counters while disabled" 0 (DC.hits dc + DC.misses dc);
  check_int "both evals reached the filter machine" 2
    (List.assoc "mount" (PD.stats disp)).PD.evals

(* A physically new string with the same bytes, as a syscall's copy from
   user memory makes: the front slot, compared by identity, misses it. *)
let fresh s = Bytes.to_string (Bytes.of_string s)

(* Tuples packed with separators and digits, decided cold and then again
   from the table: each must get the reference verdict both times. *)
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
    check (name ^ ": cold") expect (decide ());
    check (name ^ ": cached") expect (decide ());
    check_str (name ^ ": served by the cache") "cache"
      (PD.decision_engine_name disp)
  in
  List.iter
    (fun (target, mounted_by, ruid) ->
      twice
        (Printf.sprintf "umount %S %d by %d" target mounted_by ruid)
        (fun () ->
          PD.decide_umount disp ~phase:Phase.initial st ~target:(fresh target)
            ~mounted_by ~ruid)
        (fun () -> PS.umount_decision st ~target ~mounted_by ~ruid))
    [ ("/m\x1f1000", 5, 7); ("/m", 1000, 7); ("/m", 7, 7); ("/m\x1f1", 0, 7);
      ("/m\x1f1000\x1f5", 7, 7) ];
  List.iter
    (fun (port, exe) ->
      twice
        (Printf.sprintf "bind %d %S" port exe)
        (fun () ->
          PD.decide_bind disp ~phase:Phase.initial st ~port ~proto:Bindconf.Tcp
            ~exe:(fresh exe) ~uid:8)
        (fun () ->
          PS.bind_allowed st ~port ~proto:Bindconf.Tcp ~exe ~uid:8))
    [ (25, "/usr/sbin/exim4"); (2, "5\x1ftcp\x1f/usr/sbin/exim4");
      (25, "tcp\x1f/usr/sbin/exim4"); (255, "/usr/sbin/exim4") ];
  List.iter
    (fun (device, opt) ->
      twice
        (Printf.sprintf "ppp %S %s" device (Ppp.option_to_string opt))
        (fun () ->
          PD.decide_ppp_ioctl disp ~subject:0 ~phase:Phase.initial st
            ~device:(fresh device) ~opt)
        (fun () -> PS.ppp_ioctl_decision st ~device ~opt))
    [ ("/dev/ttyS0\x1f1", Ppp.Accomp); ("/dev/ttyS0", Ppp.Accomp);
      ("/dev/ttyS0\x1f1", Ppp.Default_route);
      ("/dev/ttyS0\x1f1\x1f1", Ppp.Accomp) ]

(* A table hit does not render the arguments: with fresh copies of the
   paths on every call the table serves, and the words allocated per
   decision do not grow with the path. *)
let test_dispatch_hit_no_rendering () =
  let st = PS.create () in
  let disp = PD.create () in
  let n = 2000 in
  let per_hit len =
    let source = "/dev/" ^ String.make (len - 5) 's' in
    let target = "/mnt/" ^ String.make (len - 5) 't' in
    let sources = Array.init n (fun _ -> fresh source) in
    let targets = Array.init n (fun _ -> fresh target) in
    let decide i =
      ignore
        (PD.decide_mount disp ~subject:0 ~phase:Phase.initial st
           ~source:sources.(i) ~target:targets.(i) ~fstype:"ext4" ~flags:[])
    in
    decide 0;
    let hits = DC.hits (PD.cache disp) in
    let w = words_per_call n decide in
    check_int (Printf.sprintf "%d-byte paths: every call a table hit" len)
      (hits + n) (DC.hits (PD.cache disp));
    w
  in
  let short = per_hit 8 and long = per_hit 1000 in
  Alcotest.(check (float 0.01))
    (Printf.sprintf "words per hit: %.2f (8-byte paths) vs %.2f (1000-byte)"
       short long)
    short long

(* --- /proc/protego/cache_stats ------------------------------------------ *)

let fixture () =
  let img = Image.build Image.Protego in
  img.Image.machine.password_source <- (fun _ -> None);
  img

(* The LSM hooks around a warm table hit, record mode off: each writes
   one typed decision record and formats nothing, so a call allocates a
   small fixed number of words whatever its path lengths.  Arguments are
   fresh copies per call, as a syscall's copy from user memory makes, so
   the front slot misses and the table serves.  Measured: 8 words per
   sb_mount, 6 per sb_umount, 7 per socket_bind and 6 per ppp
   file_ioctl, and every word has one of two sources: the request the
   slot miss builds from the arguments (a [Request.t] block: 6 words
   for a mount, 4 for an umount, 5 for a bind, 4 for an ioctl) and the
   [Some] that stores it in the front slot (2).  The canonical target
   is not copied, the mount table is searched without a closure or an
   option, the labels carry no optional-argument boxes and the hooks
   take their arguments in one application, not through a partial
   one.  The bounds leave 25% headroom.  Before those changes the same
   calls cost 82, 66, 34 and 23 words, and when the hooks still built
   the audit text, umount, bind and ioctl cost 125, 178 and 76. *)
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
  let per_call name ~records f =
    f 0;
    let hits = DC.hits (PD.cache disp) and e0 = emitted () in
    let w = words_per_call n f in
    check_int (name ^ ": every call a table hit") (hits + n)
      (DC.hits (PD.cache disp));
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
    per_call "sb_mount" ~records:true (fun i ->
        ignore
          (m.security.sb_mount m alice ~source:sources.(i) ~target:targets.(i)
             ~fstype:fstypes.(i) ~flags))
  in
  let umount =
    per_call "sb_umount" ~records:true (fun i ->
        ignore (m.security.sb_umount m alice ~target:targets.(i)))
  in
  let exes = Array.init n (fun _ -> fresh "/usr/sbin/exim4") in
  let bind =
    per_call "socket_bind" ~records:true (fun i ->
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
    per_call "file_ioctl" ~records:false (fun i ->
        ignore (m.security.file_ioctl m alice reqs.(i)))
  in
  bounded "sb_mount" mount 10;
  bounded "sb_umount" umount 8;
  bounded "socket_bind" bind 9;
  bounded "file_ioctl" ioctl 8

(* A warm mount+umount pair through the syscalls, each hook a table hit
   (fresh argument copies, as in the test above), record mode off.
   Measured: 220 words per pair.  Where they go: the mounted medium's
   fresh inode tree (175: five inodes with their buffers, four names,
   the entry lists), the two hooks (14, see above), the mount record
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
  pair 0;
  let hits = DC.hits (PD.cache disp) in
  let w = words_per_call n pair in
  check_int "every hook a table hit" (hits + (2 * n)) (DC.hits (PD.cache disp));
  check (Printf.sprintf "%.2f words per mount+umount <= 275" w) true (w <= 275.)

(* The table stores verdicts only; a denial served from it still
   returns the hook's errno.  Fresh argument copies make the front slot
   miss, so each repeat is a table hit. *)
let test_repeated_denial_errno () =
  let img = fixture () in
  let m = img.Image.machine in
  let cache = PD.cache (Protego_core.Lsm.dispatch (Option.get img.Image.protego)) in
  let alice = Image.login img "alice" in
  let fd = Syntax.expect_ok "socket" (Syscall.socket m alice Af_inet Sock_stream 6) in
  let hits = DC.hits cache in
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
  check_int "each repeat a table hit" (hits + 2) (DC.hits cache)

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
  let denied_mount () =
    ignore
      (Syscall.mount m alice ~source:"/dev/sda2" ~target:"/etc" ~fstype:"ext4"
         ~flags:[])
  in
  Syntax.expect_ok "reset" (write "reset\n");
  check "zeroed after reset" true
    (starts_with (read ())
       "cache on capacity 1024 entries 0\nhits 0 misses 0 stale 0 evicted 0\n");
  denied_mount ();
  denied_mount ();
  check "one miss one hit" true
    (starts_with (read ())
       "cache on capacity 1024 entries 1\nhits 1 misses 1 stale 0 evicted 0\n");
  check "per-hook breakdown" true
    (contains (read ()) "hook mount hits 1 misses 1 stale 0\n");
  (* A policy write bumps the source generation: the cached denial is
     stale, evicted lazily on the next lookup. *)
  let wl =
    Syntax.expect_ok "read whitelist"
      (Syscall.read_file m root "/proc/protego/mount_whitelist")
  in
  Syntax.expect_ok "rewrite whitelist"
    (Syscall.write_file m root "/proc/protego/mount_whitelist" wl);
  denied_mount ();
  check "reload invalidated exactly the stale entry" true
    (starts_with (read ())
       "cache on capacity 1024 entries 1\nhits 1 misses 2 stale 1 evicted 0\n");
  (* enable off / on round-trips and shows in the header. *)
  Syntax.expect_ok "disable" (write "enable off\n");
  check "off in header" true (starts_with (read ()) "cache off ");
  denied_mount ();
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

let test_audit_cache_metadata () =
  let img = fixture () in
  let m = img.Image.machine in
  let alice = Image.login img "alice" in
  let disp =
    match img.Image.protego with
    | Some lsm -> Protego_core.Lsm.dispatch lsm
    | None -> Alcotest.fail "Protego image has no LSM"
  in
  Audit.clear m;
  PD.reset_stats disp;
  let denied_mount () =
    ignore
      (Syscall.mount m alice ~source:"/dev/sda2" ~target:"/etc" ~fstype:"ext4"
         ~flags:[])
  in
  denied_mount ();
  denied_mount ();
  (match Audit.records m with
  | [ r1; r2 ] ->
      check "engine record tagged pfm" true (r1.Audit.au_engine = Some "pfm");
      check "cache hit tagged cache" true (r2.Audit.au_engine = Some "cache");
      (* Apart from the tag (and the clock), the records are identical. *)
      check "same op" true (r1.Audit.au_op = r2.Audit.au_op);
      check "same object" true (r1.Audit.au_obj = r2.Audit.au_obj);
      check "same subject" true (r1.Audit.au_uid = r2.Audit.au_uid);
      check "same verdict" true (r1.Audit.au_allowed = r2.Audit.au_allowed)
  | rs -> Alcotest.fail (Printf.sprintf "expected 2 records, got %d" (List.length rs)));
  check_int "by_engine finds the hit" 1 (List.length (Audit.by_engine m "cache"));
  check_int "by_engine finds the eval" 1 (List.length (Audit.by_engine m "pfm"));
  (* The filter machine never saw the second decision: hook counters count
     engine evaluations, and a cache hit is not one. *)
  check_int "no double-counted eval" 1
    (List.assoc "mount" (PD.stats disp)).PD.evals

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
        Alcotest.test_case "registration, render, reset" `Quick
          test_register_and_reset;
        Alcotest.test_case "insert after a miss" `Quick test_insert_after_miss;
        Alcotest.test_case "a hit allocates nothing" `Quick
          test_hit_allocates_nothing;
        Alcotest.test_case "an insert into a full table allocates nothing"
          `Quick test_full_insert_allocates_nothing;
        Alcotest.test_case "agrees with a naive LRU model" `Quick test_model ]);
    ("cache:keys",
      [ Alcotest.test_case "injective and no longer than a rendering" `Quick
          test_keys_injective_and_short ]);
    ("cache:dispatch",
      [ Alcotest.test_case "hit/miss flow" `Quick test_dispatch_cache_flow;
        Alcotest.test_case "reset kills the front slot" `Quick
          test_dispatch_reset_kills_front_slot;
        Alcotest.test_case "disable bypasses" `Quick
          test_dispatch_disable_bypasses;
        Alcotest.test_case "separator-laden tuples" `Quick
          test_dispatch_separator_tuples;
        Alcotest.test_case "a table hit renders nothing" `Quick
          test_dispatch_hit_no_rendering;
        Alcotest.test_case "a warm LSM hook formats nothing" `Quick
          test_hooks_format_nothing;
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
