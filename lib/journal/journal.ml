module Errno = Protego_base.Errno
module Phase = Protego_base.Phase
module Packet = Protego_net.Packet
module Ipaddr = Protego_net.Ipaddr

(* Record framing.  Every record is 8-byte aligned and starts with one
   little-endian 32-bit header word:

     bit 31      lap parity of the record's logical offset
     bit 30      padding flag (dead space at a segment end)
     bits 0..29  total record length in bytes, header included

   The header is written last (claim, fill, commit): a reader that sees
   zero or an invalid length at a record boundary is looking at the
   in-flight tail of that segment and stops.  Segments are zeroed when
   (re)claimed, so stale previous-lap bytes can never alias a valid
   header; the parity bit is a second, independent guard for readers
   racing a wrap. *)

let align = 8
let max_string = 255

type t = {
  jseg_bytes : int;
  jseg_shift : int;
  jseg_mask : int;
  jsegs : int;
  jsegs_mask : int;
  jcapacity : int;
  jcap_shift : int;
  store : Bytes.t array;
  jtail : int Atomic.t;  (* logical bytes claimed; multiple of jseg_bytes *)
  jowners : int Atomic.t array;
      (* per physical segment: 1 + logical start of the owning claim, or
         0 when no term is writing into it — the writer-overrun guard *)
  mutable jterms : term list;  (* registration is setup-time, coordinator-side *)
  mutable jretired_records : int;  (* counters of retired terms, folded *)
  mutable jretired_bytes : int;    (* into the journal-wide stats *)
  mutable jretired_padding : int;
}

and term = {
  tm_domain : int;
  tm_j : t;
  mutable tm_pos : int;  (* next free logical offset in the current segment *)
  mutable tm_end : int;  (* logical end of the current segment *)
  mutable tm_records : int;
  mutable tm_bytes : int;
  mutable tm_padding : int;
}

(* The kernel's audit sink: a journal, its one term, the audit-view
   records emitted and the next LSM decision seq. *)
type sink = {
  mutable sk_journal : t;
  mutable sk_term : term;
  mutable sk_emitted : int;
  mutable sk_seq : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let rec shift_of n = if n <= 1 then 0 else 1 + shift_of (n lsr 1)

let create ?(seg_bytes = 65536) ?(segments = 16) () =
  if (not (is_pow2 seg_bytes)) || seg_bytes < 4096 then
    invalid_arg "Journal.create: seg_bytes must be a power of two >= 4096";
  if not (is_pow2 segments) then
    invalid_arg "Journal.create: segments must be a power of two";
  { jseg_bytes = seg_bytes; jseg_shift = shift_of seg_bytes;
    jseg_mask = seg_bytes - 1; jsegs = segments; jsegs_mask = segments - 1;
    jcapacity = seg_bytes * segments;
    jcap_shift = shift_of (seg_bytes * segments);
    store = Array.init segments (fun _ -> Bytes.make seg_bytes '\000');
    jtail = Atomic.make 0;
    jowners = Array.init segments (fun _ -> Atomic.make 0);
    jterms = []; jretired_records = 0; jretired_bytes = 0;
    jretired_padding = 0 }

let seg_bytes j = j.jseg_bytes
let segments j = j.jsegs
let capacity j = j.jcapacity
let tail j = Atomic.get j.jtail

let term j ~domain =
  if List.length j.jterms >= j.jsegs then
    invalid_arg
      (Printf.sprintf
         "Journal.term: %d active terms on %d segments (each active term \
          owns a whole segment)"
         (List.length j.jterms) j.jsegs);
  let tm =
    { tm_domain = domain; tm_j = j; tm_pos = 0; tm_end = 0; tm_records = 0;
      tm_bytes = 0; tm_padding = 0 }
  in
  j.jterms <- tm :: j.jterms;
  tm

(* Physical backing of a logical offset. *)
let seg_index j o = (o lsr j.jseg_shift) land j.jsegs_mask
let phys j o = Array.unsafe_get j.store (seg_index j o)
let parity j o = (o lsr j.jcap_shift) land 1

let set_header j ~at ~len ~padding =
  let h =
    (parity j at lsl 31) lor ((if padding then 1 else 0) lsl 30) lor len
  in
  Bytes.set_int32_le (phys j at) (at land j.jseg_mask) (Int32.of_int h)

let get_header j ~at =
  Int32.to_int (Bytes.get_int32_le (phys j at) (at land j.jseg_mask))
  land 0xFFFFFFFF

(* A term's current segment, released when it claims the next one (or
   retires).  The CAS-from-our-own-token makes the release a no-op if
   the slot somehow changed hands — it cannot unless we already failed. *)
let release_segment tm =
  let j = tm.tm_j in
  if tm.tm_end > 0 then begin
    let start = tm.tm_end - j.jseg_bytes in
    ignore
      (Atomic.compare_and_set j.jowners.(seg_index j start) (start + 1) 0
        : bool)
  end

(* Claim a whole fresh segment: the single shared-state operation on the
   write path.  The claiming term owns the segment exclusively (recorded
   in [jowners]), so the wrap-lap zeroing below is single-writer.  If
   the physical segment backing the new claim is still some lagging
   term's active segment — a writer a full capacity lap behind the
   shared tail — zero-filling it would corrupt that term's committed
   records under it, so the claim fails loudly instead. *)
let new_chunk tm =
  let j = tm.tm_j in
  release_segment tm;
  let pos = Atomic.fetch_and_add j.jtail j.jseg_bytes in
  if not (Atomic.compare_and_set j.jowners.(seg_index j pos) 0 (pos + 1)) then
    failwith
      "Journal: writer overrun: reclaimed physical segment is still a \
       lagging term's active segment";
  if pos >= j.jcapacity then Bytes.fill (phys j pos) 0 j.jseg_bytes '\000';
  tm.tm_pos <- pos;
  tm.tm_end <- pos + j.jseg_bytes

(* Bump-allocate [len] (8-aligned, <= jseg_bytes) in the term's current
   segment; pad out the remainder and claim a fresh segment when it does
   not fit.  Domain-local: no atomics on the common path. *)
let rec claim tm len =
  if tm.tm_pos + len <= tm.tm_end then begin
    let at = tm.tm_pos in
    tm.tm_pos <- at + len;
    at
  end
  else begin
    let rem = tm.tm_end - tm.tm_pos in
    if rem > 0 then begin
      set_header tm.tm_j ~at:tm.tm_pos ~len:rem ~padding:true;
      tm.tm_padding <- tm.tm_padding + 1
    end;
    new_chunk tm;
    claim tm len
  end

(* Deregister a term: pad out the unwritten remainder of its active
   segment (so readers skip it), release the segment's ownership, and
   fold the term's counters into the journal-wide retired totals.  Used
   when the plane replaces its workers without rotating the journal. *)
let retire tm =
  let j = tm.tm_j in
  if List.memq tm j.jterms then begin
    if tm.tm_end > 0 then begin
      let rem = tm.tm_end - tm.tm_pos in
      if rem > 0 then begin
        set_header j ~at:tm.tm_pos ~len:rem ~padding:true;
        tm.tm_padding <- tm.tm_padding + 1
      end;
      release_segment tm;
      tm.tm_pos <- tm.tm_end
    end;
    j.jterms <- List.filter (fun t -> t != tm) j.jterms;
    j.jretired_records <- j.jretired_records + tm.tm_records;
    j.jretired_bytes <- j.jretired_bytes + tm.tm_bytes;
    j.jretired_padding <- j.jretired_padding + tm.tm_padding
  end

let rounded n = (n + align - 1) land lnot (align - 1)

let str_len s =
  let l = String.length s in
  1 + if l > max_string then max_string else l

let put_str b off s =
  let l = String.length s in
  let n = if l > max_string then max_string else l in
  Bytes.unsafe_set b off (Char.unsafe_chr n);
  Bytes.blit_string s 0 b (off + 1) n;
  off + 1 + n

let put_u8 b off v = Bytes.unsafe_set b off (Char.unsafe_chr (v land 0xff))
let put_u16 b off v = Bytes.set_uint16_le b off v
let put_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)
let get_u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF

type nf_origin = [ `Kernel | `Raw | `Packet ]

type req =
  | Mount of { source : string; target : string; fstype : string; flags : int }
  | Umount of { target : string; mounted_by : int }
  | Bind of { port : int; proto : int; exe : string }
  | Ppp of { device : string; safe : bool }
  | Nf of { origin : nf_origin; proto : Packet.proto; dst : Ipaddr.t;
            dport : int option; icmp : Packet.icmp_type option }

type lsm = {
  l_time : float;
  l_pid : int;
  l_uid : int;
  l_engine : int;
  l_span : int option;
  l_record : bool;
  l_flags : int list;
}

type decision = {
  d_seq : int;
  d_run : int;
  d_epoch : int;
  d_domain : int;
  d_subject : int;
  d_verdict : int;
  d_errno : int;
  d_phase : int;
  d_req : req;
  d_lsm : lsm option;
}

type kaudit = {
  k_time : float;
  k_pid : int;
  k_uid : int;
  k_allowed : bool;
  k_op : string;
  k_obj : string;
  k_engine : string option;
  k_span : int option;
}

type entry = Decision of decision | Kaudit of kaudit

(* Every field is range-checked on decode, so a record either decodes to
   a value the encoders could have written or raises [Failure]. *)
let malformed fmt = Printf.ksprintf (fun s -> failwith ("Journal: " ^ s)) fmt

let get_str b off lim =
  if off >= lim then malformed "string runs past record end";
  let n = Bytes.get_uint8 b off in
  if off + 1 + n > lim then malformed "string runs past record end";
  (Bytes.sub_string b (off + 1) n, off + 1 + n)

let get_bounded b off what max =
  let v = Bytes.get_uint8 b off in
  if v > max then malformed "%s %d out of range" what v;
  v

(* --- request bodies ------------------------------------------------------- *)

(* A decision record's request body starts at [body1] in kind 1 and at
   [body3] in kind 3, and is laid out the same way from there, so each
   body has one size, one writer and one reader, used at either offset.
   Only the mount prefix is per kind (kind 1 stores the flag mask, kind
   3 the flag codes); its three strings are shared. *)
let body1 = 26
let body3 = 38

let mount_strings_len ~source ~target ~fstype =
  str_len source + str_len target + str_len fstype
let put_mount_strings b o ~source ~target ~fstype =
  let p = put_str b (put_str b o source) target in
  ignore (put_str b p fstype : int)
let get_mount_strings b o lim ~flags =
  let source, p = get_str b o lim in
  let target, p = get_str b p lim in
  Mount { source; target; fstype = fst (get_str b p lim); flags }

let umount_len target = 4 + str_len target
let put_umount b o ~target ~mounted_by =
  put_u32 b o mounted_by;
  ignore (put_str b (o + 4) target : int)
let get_umount b o lim =
  let mounted_by = get_u32 b o in
  Umount { target = fst (get_str b (o + 4) lim); mounted_by }

let bind_len exe = 3 + str_len exe
let put_bind b o ~port ~proto ~exe =
  put_u16 b o port;
  put_u8 b (o + 2) proto;
  ignore (put_str b (o + 3) exe : int)
let get_bind b o lim =
  let port = Bytes.get_uint16_le b o in
  let proto = get_bounded b (o + 2) "proto" 1 in
  Bind { port; proto; exe = fst (get_str b (o + 3) lim) }

let ppp_len device = 1 + str_len device
let put_ppp b o ~device ~safe =
  put_u8 b o (if safe then 1 else 0);
  ignore (put_str b (o + 1) device : int)
let get_ppp b o lim =
  let safe = get_bounded b o "ppp safe" 1 = 1 in
  Ppp { device = fst (get_str b (o + 1) lim); safe }

(* The netfilter OUTPUT body (kind 3 only), fixed fields:
     +0  origin (0 kernel, 1 raw, 2 packet)  +1  proto (0 icmp, 1 tcp,
     +2  other protocol's number u16              2 udp, 3 other)
     +4  destination address u32             +8  dport present (0/1)
     +9  dport u16                          +11  ICMP type code (0xFF none)
   A hand-built header's port or protocol number wider than 16 bits is
   stored truncated.  Like every writer, [put_nf] allocates nothing. *)
let nf_len = 12

let put_nf b o (pkt : Packet.t) (origin : Packet.origin) =
  put_u8 b o
    (match origin with
     | Packet.Kernel_stack -> 0
     | Packet.Raw_app _ -> 1
     | Packet.Packet_app _ -> 2);
  let proto, num, has_port, port, icmp =
    match pkt.Packet.transport with
    | Packet.Icmp_msg { icmp_type; _ } ->
        (0, 0, false, 0, Packet.icmp_type_code icmp_type)
    | Packet.Tcp_seg { dst_port; _ } -> (1, 0, true, dst_port, 0xFF)
    | Packet.Udp_dgram { dst_port; _ } -> (2, 0, true, dst_port, 0xFF)
    | Packet.Raw_payload { protocol; _ } ->
        ((match protocol with 1 -> 0 | 6 -> 1 | 17 -> 2 | _ -> 3), protocol,
         false, 0, 0xFF)
  in
  put_u8 b (o + 1) proto;
  put_u16 b (o + 2) (num land 0xFFFF);
  Bytes.set_int32_le b (o + 4) (Ipaddr.to_int32 pkt.Packet.dst);
  put_u8 b (o + 8) (Bool.to_int has_port);
  put_u16 b (o + 9) (port land 0xFFFF);
  put_u8 b (o + 11) icmp

let nf_origins = [| `Kernel; `Raw; `Packet |]
let nf_protos = [| Packet.Icmp; Packet.Tcp; Packet.Udp |]

let get_nf b o lim =
  if o + nf_len > lim then malformed "nf record runs past record end";
  let origin = nf_origins.(get_bounded b o "nf origin" 2) in
  let proto =
    match get_bounded b (o + 1) "nf proto" 3 with
    | 3 -> Packet.Other (Bytes.get_uint16_le b (o + 2))
    | c -> nf_protos.(c)
  in
  let dst = Ipaddr.of_int32 (Bytes.get_int32_le b (o + 4)) in
  let dport =
    if get_bounded b (o + 8) "nf dport flag" 1 = 0 then None
    else Some (Bytes.get_uint16_le b (o + 9))
  in
  let icmp =
    match Bytes.get_uint8 b (o + 11) with
    | 0xFF -> None
    | c when Packet.icmp_type_of_code c = None ->
        malformed "ICMP type %d out of range" c
    | c -> Packet.icmp_type_of_code c
  in
  Nf { origin; proto; dst; dport; icmp }

(* Decision record, after the header word:
     4  kind = 1          5  domain         6  reqtag (0..3)
     7  verdict (0..3)    8  errno (0 = none)
     9  phase ({!Protego_base.Phase.index} it was served under)
    10  seq u32          14  run u32       18  epoch u32     22  subject u32
    26  request body: mount flags mask u16, then its strings (28); the
        other reqtags' shared bodies *)

(* The header writers return the body's offset in the segment: an int,
   so appending allocates nothing. *)
let put_decision tm ~at ~reqtag ~seq ~run ~epoch ~phase ~subject ~verdict
    ~errno =
  let j = tm.tm_j in
  let b = phys j at in
  let o = at land j.jseg_mask in
  put_u8 b (o + 4) 1;
  put_u8 b (o + 5) tm.tm_domain;
  put_u8 b (o + 6) reqtag;
  put_u8 b (o + 7) verdict;
  put_u8 b (o + 8) errno;
  put_u8 b (o + 9) phase;
  put_u32 b (o + 10) seq;
  put_u32 b (o + 14) run;
  put_u32 b (o + 18) epoch;
  put_u32 b (o + 22) subject;
  o + body1

let finish tm ~at ~len =
  set_header tm.tm_j ~at ~len ~padding:false;
  tm.tm_records <- tm.tm_records + 1;
  tm.tm_bytes <- tm.tm_bytes + len

let append_mount tm ~seq ~run ~epoch ~phase ~subject ~verdict ~errno ~source
    ~target ~fstype ~flags =
  let len = rounded (body1 + 2 + mount_strings_len ~source ~target ~fstype) in
  let at = claim tm len in
  let o =
    put_decision tm ~at ~reqtag:0 ~seq ~run ~epoch ~phase ~subject ~verdict
      ~errno
  in
  let b = phys tm.tm_j at in
  put_u16 b o flags;
  put_mount_strings b (o + 2) ~source ~target ~fstype;
  finish tm ~at ~len

let append_umount tm ~seq ~run ~epoch ~phase ~subject ~verdict ~errno ~target
    ~mounted_by =
  let len = rounded (body1 + umount_len target) in
  let at = claim tm len in
  let o =
    put_decision tm ~at ~reqtag:1 ~seq ~run ~epoch ~phase ~subject ~verdict
      ~errno
  in
  put_umount (phys tm.tm_j at) o ~target ~mounted_by;
  finish tm ~at ~len

let append_bind tm ~seq ~run ~epoch ~phase ~subject ~verdict ~errno ~port
    ~proto ~exe =
  let len = rounded (body1 + bind_len exe) in
  let at = claim tm len in
  let o =
    put_decision tm ~at ~reqtag:2 ~seq ~run ~epoch ~phase ~subject ~verdict
      ~errno
  in
  put_bind (phys tm.tm_j at) o ~port ~proto ~exe;
  finish tm ~at ~len

let append_ppp tm ~seq ~run ~epoch ~phase ~subject ~verdict ~errno ~device
    ~safe =
  let len = rounded (body1 + ppp_len device) in
  let at = claim tm len in
  let o =
    put_decision tm ~at ~reqtag:3 ~seq ~run ~epoch ~phase ~subject ~verdict
      ~errno
  in
  put_ppp (phys tm.tm_j at) o ~device ~safe;
  finish tm ~at ~len

(* Kernel audit record, after the header word:
     4  kind = 2          5  allowed
     6  time f64 bits    14  pid u32       18  uid u32
    22  span u32 (0xFFFFFFFF = none)
    26  strings: op, obj, engine ("" = none) *)

let append_kaudit tm ~time ~pid ~uid ~op ~obj ~allowed ~engine ~span =
  let engine_s = match engine with Some e -> e | None -> "" in
  let len = rounded (26 + str_len op + str_len obj + str_len engine_s) in
  let at = claim tm len in
  let j = tm.tm_j in
  let b = phys j at in
  let o = at land j.jseg_mask in
  put_u8 b (o + 4) 2;
  put_u8 b (o + 5) (if allowed then 1 else 0);
  Bytes.set_int64_le b (o + 6) (Int64.bits_of_float time);
  put_u32 b (o + 14) pid;
  put_u32 b (o + 18) uid;
  put_u32 b (o + 22) (match span with Some s -> s | None -> 0xFFFFFFFF);
  let p = put_str b (o + 26) op in
  let p = put_str b p obj in
  ignore (put_str b p engine_s : int);
  finish tm ~at ~len

(* LSM decision record, after the header word:
     4  kind = 3          5  mode (bit 0: record mode was on; no other bits)
     6  reqtag (0..4)     7  verdict (0 deny, 1 allow, 3 recorded)
     8  engine (0 cache, 1 pfm, 2 ref)
     9  phase ({!Protego_base.Phase.index} it was served under; 0 for nf)
    10  seq u32          14  subject u32   18  pid u32       22  uid u32
    26  span u32 (0 = none)
    30  time f64 bits
    38  request body: mount flag count n, then n flag codes (request
        order), then its strings (39 + n); the other reqtags' shared
        bodies; nf (reqtag 4) the netfilter body
   The run is not stored: every LSM record decodes with run {!lsm_run}
   and the sink's own contiguous seq. *)

let engine_cache = 0
let engine_pfm = 1
let engine_ref = 2
let lsm_run = 0

let put_lsm sk ~at ~reqtag ~time ~pid ~uid ~subject ~phase ~engine ~span
    ~verdict ~record =
  let tm = sk.sk_term in
  let j = tm.tm_j in
  let b = phys j at in
  let o = at land j.jseg_mask in
  put_u8 b (o + 4) 3;
  put_u8 b (o + 5) (if record then 1 else 0);
  put_u8 b (o + 6) reqtag;
  put_u8 b (o + 7) verdict;
  put_u8 b (o + 8) engine;
  put_u8 b (o + 9) phase;
  put_u32 b (o + 10) sk.sk_seq;
  put_u32 b (o + 14) subject;
  put_u32 b (o + 18) pid;
  put_u32 b (o + 22) uid;
  put_u32 b (o + 26) span;
  Bytes.set_int64_le b (o + 30) (Int64.bits_of_float time);
  o + body3

(* One LSM record: the next seq, and the view records it stands for (a
   record-mode mount, umount or bind renders two audit lines). *)
let sink_finish sk ~at ~len ~views =
  finish sk.sk_term ~at ~len;
  sk.sk_seq <- sk.sk_seq + 1;
  sk.sk_emitted <- sk.sk_emitted + views

let views_of record = if record then 2 else 1

let sink_mount sk ~time ~pid ~uid ~subject ~phase ~engine ~span ~verdict
    ~record ~source ~target ~fstype ~flags ~flag_code =
  let n = List.length flags in
  let n = if n > max_string then max_string else n in
  let len =
    rounded (body3 + 1 + n + mount_strings_len ~source ~target ~fstype)
  in
  let at = claim sk.sk_term len in
  let o =
    put_lsm sk ~at ~reqtag:0 ~time ~pid ~uid ~subject ~phase ~engine ~span
      ~verdict ~record
  in
  let b = phys sk.sk_term.tm_j at in
  put_u8 b o n;
  let fl = ref flags in
  for i = 1 to n do
    match !fl with
    | f :: rest ->
        put_u8 b (o + i) (flag_code f);
        fl := rest
    | [] -> ()
  done;
  put_mount_strings b (o + 1 + n) ~source ~target ~fstype;
  sink_finish sk ~at ~len ~views:(views_of record)

let sink_umount sk ~time ~pid ~uid ~subject ~phase ~engine ~span ~verdict
    ~record ~target ~mounted_by =
  let len = rounded (body3 + umount_len target) in
  let at = claim sk.sk_term len in
  let o =
    put_lsm sk ~at ~reqtag:1 ~time ~pid ~uid ~subject ~phase ~engine ~span
      ~verdict ~record
  in
  put_umount (phys sk.sk_term.tm_j at) o ~target ~mounted_by;
  sink_finish sk ~at ~len ~views:(views_of record)

let sink_bind sk ~time ~pid ~uid ~subject ~phase ~engine ~span ~verdict
    ~record ~port ~proto ~exe =
  let len = rounded (body3 + bind_len exe) in
  let at = claim sk.sk_term len in
  let o =
    put_lsm sk ~at ~reqtag:2 ~time ~pid ~uid ~subject ~phase ~engine ~span
      ~verdict ~record
  in
  put_bind (phys sk.sk_term.tm_j at) o ~port ~proto ~exe;
  sink_finish sk ~at ~len ~views:(views_of record)

let sink_ppp sk ~time ~pid ~uid ~subject ~phase ~engine ~span ~verdict
    ~device ~safe =
  let len = rounded (body3 + ppp_len device) in
  let at = claim sk.sk_term len in
  let o =
    put_lsm sk ~at ~reqtag:3 ~time ~pid ~uid ~subject ~phase ~engine ~span
      ~verdict ~record:true
  in
  put_ppp (phys sk.sk_term.tm_j at) o ~device ~safe;
  sink_finish sk ~at ~len ~views:1

let sink_nf sk ~time ~pid ~uid ~engine ~span ~verdict pkt origin =
  let len = rounded (body3 + nf_len) in
  let at = claim sk.sk_term len in
  let subject =
    match origin with
    | Packet.Kernel_stack -> 0
    | Packet.Raw_app { uid } | Packet.Packet_app { uid } -> uid
  in
  let o =
    put_lsm sk ~at ~reqtag:4 ~time ~pid ~uid ~subject ~phase:0 ~engine ~span
      ~verdict ~record:true
  in
  put_nf (phys sk.sk_term.tm_j at) o pkt origin;
  sink_finish sk ~at ~len ~views:1

(* --- decoding ----------------------------------------------------------- *)

(* Every record's fixed fields end within its first 32 bytes, and even
   the shortest valid record (empty strings) rounds up to 32. *)
let min_record = 32

(* The shortest LSM record (a ppp record with an empty device) rounds up
   to 40 bytes; every reqtag's fixed fields end within it except the
   mount flag codes and the nf body, which are checked against the
   record end. *)
let min_lsm_record = 40

(* What a denial returned on the hook: EACCES for bind, EPERM otherwise
   (the LSM does not store it). *)
let lsm_errno reqtag verdict =
  if verdict <> 0 then 0
  else Errno.to_code (if reqtag = 2 then Errno.EACCES else Errno.EPERM)

let decode_lsm b o lim len =
  if len < min_lsm_record then
    malformed "LSM record of %d bytes is too short" len;
  let record = get_bounded b (o + 5) "record mode" 1 = 1 in
  let reqtag = Bytes.get_uint8 b (o + 6) in
  let verdict = Bytes.get_uint8 b (o + 7) in
  (* Record mode never denies, and only record mode records. *)
  if verdict = 2 || verdict > 3 || (verdict = 0 && record)
     || (verdict = 3 && not record)
  then malformed "LSM verdict %d out of range" verdict;
  let engine = get_bounded b (o + 8) "engine" engine_ref in
  let phase = get_bounded b (o + 9) "phase" (Phase.count - 1) in
  let seq = get_u32 b (o + 10) in
  let subject = get_u32 b (o + 14) in
  let pid = get_u32 b (o + 18) in
  let uid = get_u32 b (o + 22) in
  let span = get_u32 b (o + 26) in
  let time = Int64.float_of_bits (Bytes.get_int64_le b (o + 30)) in
  let flags = ref [] in
  let p = o + body3 in
  let req =
    match reqtag with
    | 0 ->
        let n = Bytes.get_uint8 b p in
        if p + 1 + n > lim then malformed "flag codes run past record end";
        let mask = ref 0 in
        for i = n downto 1 do
          let c = get_bounded b (p + i) "flag code" 15 in
          mask := !mask lor (1 lsl c);
          flags := c :: !flags
        done;
        get_mount_strings b (p + 1 + n) lim ~flags:!mask
    | 1 -> get_umount b p lim
    | 2 -> get_bind b p lim
    | 3 | 4 when not record ->
        malformed "LSM %s record outside record mode"
          (if reqtag = 3 then "ppp" else "nf")
    | 3 -> get_ppp b p lim
    | 4 -> get_nf b p lim
    | n -> malformed "unknown reqtag %d" n
  in
  Decision
    { d_seq = seq; d_run = lsm_run; d_epoch = 0; d_domain = 0;
      d_subject = subject; d_verdict = verdict;
      d_errno = lsm_errno reqtag verdict; d_phase = phase; d_req = req;
      d_lsm =
        Some
          { l_time = time; l_pid = pid; l_uid = uid; l_engine = engine;
            l_span = (if span = 0 then None else Some span);
            l_record = record; l_flags = !flags } }

(* The one decoder: {!load} runs it over the whole live window, which is
   what keeps {!iter} total on a loaded image. *)
let decode_entry j ~at ~len =
  let b = phys j at in
  let o = at land j.jseg_mask in
  let lim = o + len in
  if len < min_record then malformed "record of %d bytes is too short" len;
  match Bytes.get_uint8 b (o + 4) with
  | 1 ->
      let domain = Bytes.get_uint8 b (o + 5) in
      let reqtag = Bytes.get_uint8 b (o + 6) in
      let verdict = get_bounded b (o + 7) "verdict" 3 in
      let errno = Bytes.get_uint8 b (o + 8) in
      let phase = get_bounded b (o + 9) "phase" (Phase.count - 1) in
      let seq = get_u32 b (o + 10) in
      let run = get_u32 b (o + 14) in
      let epoch = get_u32 b (o + 18) in
      let subject = get_u32 b (o + 22) in
      let p = o + body1 in
      let req =
        match reqtag with
        | 0 -> get_mount_strings b (p + 2) lim ~flags:(Bytes.get_uint16_le b p)
        | 1 -> get_umount b p lim
        | 2 -> get_bind b p lim
        | 3 -> get_ppp b p lim
        | n -> malformed "unknown reqtag %d" n
      in
      Decision
        { d_seq = seq; d_run = run; d_epoch = epoch; d_domain = domain;
          d_subject = subject; d_verdict = verdict; d_errno = errno;
          d_phase = phase; d_req = req; d_lsm = None }
  | 2 ->
      let allowed = get_bounded b (o + 5) "allowed" 1 = 1 in
      let time = Int64.float_of_bits (Bytes.get_int64_le b (o + 6)) in
      let pid = get_u32 b (o + 14) in
      let uid = get_u32 b (o + 18) in
      let span =
        let v = get_u32 b (o + 22) in
        if v = 0xFFFFFFFF then None else Some v
      in
      let op, p = get_str b (o + 26) lim in
      let obj, p = get_str b p lim in
      let engine, _ = get_str b p lim in
      Kaudit
        { k_time = time; k_pid = pid; k_uid = uid; k_allowed = allowed;
          k_op = op; k_obj = obj;
          k_engine = (if engine = "" then None else Some engine);
          k_span = span }
  | 3 -> decode_lsm b o lim len
  | k -> malformed "unknown record kind %d" k

(* Oldest logical segment still physically intact: the live window is
   exactly the last [jsegs] claimed segments. *)
let first_live j tl = if tl <= j.jcapacity then 0 else tl - j.jcapacity

(* Walk one segment's committed records.  Stops at the first header that
   is zero, has the wrong lap parity, or frames an impossible length —
   the uncommitted (or in-flight) tail of this segment. *)
let scan_segment j ~start f =
  let p = parity j start in
  let stop = start + j.jseg_bytes in
  let o = ref start in
  let go = ref true in
  while !go && !o < stop do
    let h = get_header j ~at:!o in
    let par = (h lsr 31) land 1 in
    let pad = (h lsr 30) land 1 in
    let len = h land 0x3FFFFFFF in
    if par <> p || len < align || len land (align - 1) <> 0 || !o + len > stop
    then go := false
    else begin
      if pad = 0 then f ~at:!o ~len;
      o := !o + len
    end
  done

let iter_raw j f =
  let tl = Atomic.get j.jtail in
  let s = ref (first_live j tl) in
  while !s < tl do
    scan_segment j ~start:!s f;
    s := !s + j.jseg_bytes
  done

let iter j f = iter_raw j (fun ~at ~len -> f (decode_entry j ~at ~len))

let entries j =
  let acc = ref [] in
  iter j (fun e -> acc := e :: !acc);
  List.rev !acc

let decisions j =
  List.filter_map (function Decision d -> Some d | Kaudit _ -> None)
    (entries j)

let records_written j =
  List.fold_left (fun acc tm -> acc + tm.tm_records) j.jretired_records
    j.jterms

let live_entries j =
  let n = ref 0 in
  iter_raw j (fun ~at:_ ~len:_ -> incr n);
  !n

let dropped j = max 0 (records_written j - live_entries j)

type stats = {
  s_seg_bytes : int;
  s_segments : int;
  s_capacity : int;
  s_tail : int;
  s_laps : int;
  s_terms : int;
  s_records : int;
  s_bytes : int;
  s_padding : int;
  s_live : int;
  s_dropped : int;
}

let stats j =
  let records = records_written j in
  let bytes =
    List.fold_left (fun acc tm -> acc + tm.tm_bytes) j.jretired_bytes j.jterms
  in
  let padding =
    List.fold_left (fun acc tm -> acc + tm.tm_padding) j.jretired_padding
      j.jterms
  in
  let live = live_entries j in
  let tl = Atomic.get j.jtail in
  { s_seg_bytes = j.jseg_bytes; s_segments = j.jsegs;
    s_capacity = j.jcapacity; s_tail = tl; s_laps = tl lsr j.jcap_shift;
    s_terms = List.length j.jterms; s_records = records; s_bytes = bytes;
    s_padding = padding; s_live = live;
    s_dropped = max 0 (records - live) }

let render_stats j =
  let s = stats j in
  Printf.sprintf
    "journal seg_bytes %d segments %d capacity %d tail %d laps %d\n\
     journal records %d bytes %d padding %d live %d dropped %d terms %d\n"
    s.s_seg_bytes s.s_segments s.s_capacity s.s_tail s.s_laps s.s_records
    s.s_bytes s.s_padding s.s_live s.s_dropped s.s_terms

let stitch j ~run ~base ~count =
  if count < 0 then invalid_arg "Journal.stitch: negative count";
  let slots = Array.make (max count 1) None in
  let dup = ref (-1) in
  iter j (function
    | Decision d
      when d.d_run = run && d.d_seq >= base && d.d_seq - base < count -> (
        let i = d.d_seq - base in
        match slots.(i) with
        | Some _ -> if !dup < 0 then dup := d.d_seq
        | None -> slots.(i) <- Some d)
    | Decision _ | Kaudit _ -> ());
  if !dup >= 0 then
    Error
      (Printf.sprintf "journal stitch: duplicate seq %d in run %d" !dup run)
  else begin
    let missing = ref 0 in
    let first_missing = ref (-1) in
    for i = 0 to count - 1 do
      if slots.(i) = None then begin
        incr missing;
        if !first_missing < 0 then first_missing := base + i
      end
    done;
    if !missing > 0 then
      Error
        (Printf.sprintf
           "journal stitch: %d lost record(s) in run %d (first missing seq %d)"
           !missing run !first_missing)
    else
      Ok
        (Array.init count (fun i ->
             match slots.(i) with Some d -> d | None -> assert false))
  end

(* --- rendering ---------------------------------------------------------- *)

let verdict_name = function
  | 0 -> "deny"
  | 1 -> "allow"
  | 2 -> "reject"
  | 3 -> "recorded" (* record mode: would-deny, allowed-but-audited *)
  | n -> Printf.sprintf "verdict%d" n

let errno_name = function
  | 0 -> "-"
  | c -> ( match Errno.of_code c with
           | Some e -> Errno.to_string e
           | None -> Printf.sprintf "errno%d" c)

let engine_name = function
  | 0 -> "cache"
  | 1 -> "pfm"
  | 2 -> "ref"
  | n -> Printf.sprintf "engine%d" n

let proto_name p = if p = 0 then "tcp" else "udp"

let origin_name = function
  | `Kernel -> "kernel"
  | `Raw -> "raw"
  | `Packet -> "packet"

let nf_fields ~origin ~proto ~dst ~dport ~icmp =
  Printf.sprintf "proto=%s dst=%s dport=%s origin=%s icmp=%s"
    (Packet.proto_to_string proto) (Ipaddr.to_string dst)
    (match dport with Some p -> string_of_int p | None -> "-")
    (origin_name origin)
    (match icmp with Some t -> Packet.icmp_type_to_string t | None -> "-")

let phase_name d =
  match d.d_req with
  | Nf _ -> "-"
  | Mount _ | Umount _ | Bind _ | Ppp _ ->
      Phase.to_string (Phase.of_index d.d_phase)

let entry_to_string = function
  | Decision d ->
      let req =
        match d.d_req with
        | Mount { source; target; fstype; flags } ->
            Printf.sprintf "mount %s %s %s flags=0x%x" source target fstype
              flags
        | Umount { target; mounted_by } ->
            Printf.sprintf "umount %s mounted_by=%d" target mounted_by
        | Bind { port; proto; exe } ->
            Printf.sprintf "bind port=%d proto=%s exe=%s" port
              (proto_name proto) exe
        | Ppp { device; safe } ->
            Printf.sprintf "ppp %s %s" device (if safe then "safe" else "unsafe")
        | Nf { origin; proto; dst; dport; icmp } ->
            "nf " ^ nf_fields ~origin ~proto ~dst ~dport ~icmp
      in
      let origin =
        match d.d_lsm with
        | None -> ""
        | Some l ->
            Printf.sprintf " lsm time=%.0f pid=%d uid=%d engine=%s%s%s"
              l.l_time l.l_pid l.l_uid (engine_name l.l_engine)
              (match l.l_span with
               | Some s -> " span=" ^ string_of_int s
               | None -> "")
              (if l.l_record then " record" else "")
      in
      Printf.sprintf
        "decision seq=%d run=%d epoch=%d phase=%s domain=%d subject=%d \
         verdict=%s errno=%s %s%s"
        d.d_seq d.d_run d.d_epoch (phase_name d) d.d_domain d.d_subject
        (verdict_name d.d_verdict) (errno_name d.d_errno) req origin
  | Kaudit k ->
      Printf.sprintf
        "kaudit time=%.0f pid=%d uid=%d op=%s obj=%s res=%s%s%s" k.k_time
        k.k_pid k.k_uid k.k_op k.k_obj
        (if k.k_allowed then "success" else "failed")
        (match k.k_engine with Some e -> " engine=" ^ e | None -> "")
        (match k.k_span with Some s -> " span=" ^ string_of_int s | None -> "")

(* --- persistence -------------------------------------------------------- *)

(* Image layout: the magic line, one header line
   "<seg_bytes> <segments> <tail> <terms> <retired records> <retired
   bytes> <retired padding>", one "<domain> <records> <bytes> <padding>"
   line per active term, then the raw segments.  The magic carries the
   record-layout version; an image of any other version is refused. *)
let magic_prefix = "PJRNL"
let magic = magic_prefix ^ "2\n"

let save j path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc magic;
      Printf.fprintf oc "%d %d %d %d %d %d %d\n" j.jseg_bytes j.jsegs
        (Atomic.get j.jtail) (List.length j.jterms) j.jretired_records
        j.jretired_bytes j.jretired_padding;
      List.iter
        (fun tm ->
          Printf.fprintf oc "%d %d %d %d\n" tm.tm_domain tm.tm_records
            tm.tm_bytes tm.tm_padding)
        j.jterms;
      Array.iter (output_bytes oc) j.store)

let ints line = List.map int_of_string (String.split_on_char ' ' line)

let read_image ic =
  let m = really_input_string ic (String.length magic) in
  if m = magic then Ok ()
  else if String.starts_with ~prefix:magic_prefix m then
    Error
      (Printf.sprintf "journal format %s is not supported (this build reads %s)"
         (String.trim m) (String.trim magic))
  else Error "not a protego journal (bad magic)"

let load path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        Result.bind (read_image ic) @@ fun () ->
        match ints (input_line ic) with
        | [ seg_bytes; segs; tl; nterms; rrec; rbytes; rpad ]
          when seg_bytes > 0 && tl >= 0 && tl mod seg_bytes = 0 && nterms >= 0
          ->
            let j = create ~seg_bytes ~segments:segs () in
            Atomic.set j.jtail tl;
            j.jretired_records <- rrec;
            j.jretired_bytes <- rbytes;
            j.jretired_padding <- rpad;
            j.jterms <-
              List.init nterms (fun _ ->
                  match ints (input_line ic) with
                  | [ dom; records; bytes; padding ] ->
                      { tm_domain = dom; tm_j = j; tm_pos = 0; tm_end = 0;
                        tm_records = records; tm_bytes = bytes;
                        tm_padding = padding }
                  | _ -> failwith "corrupt journal term header");
            Array.iter (fun b -> really_input ic b 0 (Bytes.length b)) j.store;
            (* Decode every committed record once: a malformed one fails
               the load here instead of raising from a later [iter]. *)
            iter_raw j (fun ~at ~len ->
                ignore (decode_entry j ~at ~len : entry));
            Ok j
        | _ -> Error "corrupt journal header")
  with
  | Sys_error e -> Error e
  | End_of_file -> Error "truncated journal file"
  | Failure e -> Error e
  | Invalid_argument e -> Error e

(* --- test hooks --------------------------------------------------------- *)

let unsafe_claim tm len =
  if len < align || len land (align - 1) <> 0 || len > tm.tm_j.jseg_bytes then
    invalid_arg "Journal.unsafe_claim: bad length";
  claim tm len

let commit j ~at ~len ~padding = set_header j ~at ~len ~padding

(* --- kernel audit sink -------------------------------------------------- *)

let sink ?(seg_bytes = 65536) ?(segments = 16) () =
  let j = create ~seg_bytes ~segments () in
  { sk_journal = j; sk_term = term j ~domain:0; sk_emitted = 0; sk_seq = 0 }

let sink_emit sk ~time ~pid ~uid ~op ~obj ~allowed ~engine ~span =
  sk.sk_emitted <- sk.sk_emitted + 1;
  append_kaudit sk.sk_term ~time ~pid ~uid ~op ~obj ~allowed ~engine ~span

let sink_clear ?seg_bytes ?segments sk =
  let j =
    create
      ~seg_bytes:(Option.value seg_bytes ~default:sk.sk_journal.jseg_bytes)
      ~segments:(Option.value segments ~default:sk.sk_journal.jsegs)
      ()
  in
  sk.sk_journal <- j;
  sk.sk_term <- term j ~domain:0;
  sk.sk_emitted <- 0;
  sk.sk_seq <- 0
