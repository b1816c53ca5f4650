module Pfm = Protego_filter.Pfm
module Errno = Protego_base.Errno

type hook = {
  hid : int;
  hname : string;
  mutable h_hits : int;
  mutable h_misses : int;
  mutable h_stale : int;
}

(* --- keys ---------------------------------------------------------------- *)

module Key = struct
  type t = {
    mutable buf : Bytes.t;
    mutable len : int;
    mutable stamp : int;  (* bumped by every write: see [t.m_key] *)
  }

  let create () = { buf = Bytes.create 64; len = 0; stamp = 0 }

  let reset k =
    k.len <- 0;
    k.stamp <- k.stamp + 1

  let contents k = Bytes.sub_string k.buf 0 k.len

  (* Room for [n] more bytes; the buffer only ever grows, so a key
     written once at a given size is rewritten without allocating. *)
  let reserve k n =
    k.stamp <- k.stamp + 1;
    let need = k.len + n in
    if need > Bytes.length k.buf then begin
      let b = Bytes.create (max need (2 * Bytes.length k.buf)) in
      Bytes.blit k.buf 0 b 0 k.len;
      k.buf <- b
    end

  (* LEB128 over the 63 bits of [n], read as unsigned: at most 9 bytes.
     (Loops, not local recursive functions: those would allocate a
     closure per call.) *)
  let uvarint k n =
    reserve k 9;
    let b = k.buf and i = ref k.len and n = ref n in
    while !n land lnot 0x7f <> 0 do
      Bytes.unsafe_set b !i (Char.unsafe_chr (!n land 0x7f lor 0x80));
      incr i;
      n := !n lsr 7
    done;
    Bytes.unsafe_set b !i (Char.unsafe_chr !n);
    k.len <- !i + 1

  (* Zigzag first, so small negative values stay short too. *)
  let int k n = uvarint k ((n lsl 1) lxor (n asr (Sys.int_size - 1)))

  let last_string k s =
    let n = String.length s in
    reserve k n;
    Bytes.unsafe_blit_string s 0 k.buf k.len n;
    k.len <- k.len + n

  let string k s =
    uvarint k (String.length s);
    last_string k s

  (* One pass over the bytes, eight at a time, then the hook and subject;
     the final avalanche spreads every input bit into the low bits the
     bucket index takes. *)
  let hash k ~hid ~subject =
    let b = k.buf and n = k.len in
    let m = 0x1bd1e9955bd1e995 in
    let whole = n land lnot 7 in
    let h = ref (n * m) and i = ref 0 in
    while !i < whole do
      h := (!h lxor Int64.to_int (Bytes.get_int64_le b !i)) * m;
      i := !i + 8
    done;
    while !i < n do
      h := (!h lxor Char.code (Bytes.unsafe_get b !i)) * m;
      incr i
    done;
    let h = (((!h lxor hid) * m) lxor subject) * m in
    let h = h lxor (h lsr 29) in
    let h = h * 0x2127599bf4325c37 in
    h lxor (h lsr 32)

  (* [s] (a stored key) against the key's bytes, in place. *)
  let equal_string k s =
    let n = k.len in
    String.length s = n
    &&
    let b = k.buf and whole = n land lnot 7 in
    let i = ref 0 in
    while
      !i < whole && (String.get_int64_le s !i : int64) = Bytes.get_int64_le b !i
    do
      i := !i + 8
    done;
    if !i < whole then false
    else begin
      while !i < n && String.unsafe_get s !i = Bytes.unsafe_get b !i do
        incr i
      done;
      !i >= n
    end
end

(* --- the table ----------------------------------------------------------- *)

type entry = {
  e_hash : int;
  e_hid : int;
  e_subject : int;
  e_key : string;
  mutable e_gen : int;
  (* what [find] returns on a hit, built once when the verdict is stored *)
  mutable e_found : Pfm.verdict option;
  (* intrusive LRU ring through the table's sentinel: [prev] is more
     recent, [next] less *)
  mutable e_prev : entry;
  mutable e_next : entry;
  mutable e_chain : entry;  (* bucket chain, ended by [nil] *)
}

let rec nil =
  { e_hash = 0; e_hid = -1; e_subject = 0; e_key = ""; e_gen = 0;
    e_found = None; e_prev = nil; e_next = nil; e_chain = nil }

let no_key = Key.create ()

type t = {
  cap : int;
  buckets : entry array;  (* length a power of two *)
  lru : entry;            (* ring sentinel: [lru.e_next] is the MRU entry *)
  mutable size : int;
  mutable enabled : bool;
  (* Atomic: the dispatcher's front slots in other domains compare their
     stamped epoch against this on every decision, while [clear] bumps it
     from whichever domain serviced the /proc write. *)
  epoch : int Atomic.t;
  mutable hits : int;
  mutable misses : int;
  mutable stale : int;
  mutable evicted : int;
  mutable hooks : hook list;  (* reverse registration order *)
  (* The last [find] that left its key absent: the key, its stamp then,
     the hook id, subject and hash.  An [add] of the same unwritten key
     inserts with that hash, without hashing or searching again. *)
  mutable m_key : Key.t;
  mutable m_stamp : int;
  mutable m_hid : int;
  mutable m_subject : int;
  mutable m_hash : int;
}

let default_capacity = 1024

let create ?(capacity = default_capacity) () =
  let cap = max 1 capacity in
  let rec pow2 n = if n >= cap then n else pow2 (2 * n) in
  let rec lru =
    { e_hash = 0; e_hid = -1; e_subject = 0; e_key = ""; e_gen = 0;
      e_found = None; e_prev = lru; e_next = lru; e_chain = nil }
  in
  { cap; buckets = Array.make (pow2 1) nil; lru; size = 0; enabled = true;
    epoch = Atomic.make 0; hits = 0; misses = 0; stale = 0; evicted = 0;
    hooks = []; m_key = no_key; m_stamp = 0; m_hid = -1; m_subject = 0;
    m_hash = 0 }

let register t name =
  match List.find_opt (fun h -> h.hname = name) t.hooks with
  | Some h -> h
  | None ->
      let h =
        { hid = List.length t.hooks; hname = name; h_hits = 0; h_misses = 0;
          h_stale = 0 }
      in
      t.hooks <- h :: t.hooks;
      h

let capacity t = t.cap
let length t = t.size
let enabled t = t.enabled
let set_enabled t e = t.enabled <- e
let epoch t = Atomic.get t.epoch

let record_hit t hook =
  t.hits <- t.hits + 1;
  hook.h_hits <- hook.h_hits + 1

let hits t = t.hits
let misses t = t.misses
let stale_evictions t = t.stale
let capacity_evictions t = t.evicted
let hook_stats t = List.rev t.hooks

(* --- LRU ring and buckets ----------------------------------------------- *)

let unlink e =
  e.e_prev.e_next <- e.e_next;
  e.e_next.e_prev <- e.e_prev

let push_front t e =
  let s = t.lru in
  e.e_prev <- s;
  e.e_next <- s.e_next;
  s.e_next.e_prev <- e;
  s.e_next <- e

let touch t e =
  if t.lru.e_next != e then begin
    unlink e;
    push_front t e
  end

let bucket t h = h land (Array.length t.buckets - 1)

let rec lookup e h ~hid ~subject key =
  if e == nil then nil
  else if
    e.e_hash = h && e.e_hid = hid && e.e_subject = subject
    && Key.equal_string key e.e_key
  then e
  else lookup e.e_chain h ~hid ~subject key

let rec unchain p e =
  if p.e_chain == e then p.e_chain <- e.e_chain else unchain p.e_chain e

(* Remove [e] from the LRU ring and from the bucket its stored hash
   names. *)
let drop t e =
  unlink e;
  let i = bucket t e.e_hash in
  if t.buckets.(i) == e then t.buckets.(i) <- e.e_chain
  else unchain t.buckets.(i) e;
  t.size <- t.size - 1

(* --- the hot path ------------------------------------------------------- *)

let missed t hook ~subject key h =
  t.misses <- t.misses + 1;
  hook.h_misses <- hook.h_misses + 1;
  t.m_key <- key;
  t.m_stamp <- key.Key.stamp;
  t.m_hid <- hook.hid;
  t.m_subject <- subject;
  t.m_hash <- h

let find t hook ~subject ~key ~gen =
  if not t.enabled then None
  else
    let h = Key.hash key ~hid:hook.hid ~subject in
    let e = lookup t.buckets.(bucket t h) h ~hid:hook.hid ~subject key in
    if e == nil then begin
      missed t hook ~subject key h;
      None
    end
    else if e.e_gen = gen then begin
      touch t e;
      t.hits <- t.hits + 1;
      hook.h_hits <- hook.h_hits + 1;
      e.e_found
    end
    else begin
      drop t e;
      t.stale <- t.stale + 1;
      hook.h_stale <- hook.h_stale + 1;
      missed t hook ~subject key h;
      None
    end

let insert t hook ~subject ~key h ~gen ~found =
  if t.size >= t.cap then begin
    let lru = t.lru.e_prev in
    if lru != t.lru then begin
      drop t lru;
      t.evicted <- t.evicted + 1
    end
  end;
  let i = bucket t h in
  let e =
    { e_hash = h; e_hid = hook.hid; e_subject = subject;
      e_key = Key.contents key; e_gen = gen; e_found = found;
      e_prev = nil; e_next = nil; e_chain = t.buckets.(i) }
  in
  t.buckets.(i) <- e;
  push_front t e;
  t.size <- t.size + 1

let add t hook ~subject ~key ~gen ~verdict =
  if t.enabled then begin
    let found = Some verdict in
    if
      t.m_key == key && t.m_stamp = key.Key.stamp && t.m_hid = hook.hid
      && t.m_subject = subject
    then insert t hook ~subject ~key t.m_hash ~gen ~found
    else begin
      let h = Key.hash key ~hid:hook.hid ~subject in
      let e = lookup t.buckets.(bucket t h) h ~hid:hook.hid ~subject key in
      if e == nil then insert t hook ~subject ~key h ~gen ~found
      else begin
        e.e_gen <- gen;
        e.e_found <- found;
        touch t e
      end
    end;
    t.m_key <- no_key
  end

(* --- control ------------------------------------------------------------ *)

let clear t =
  Array.fill t.buckets 0 (Array.length t.buckets) nil;
  t.lru.e_prev <- t.lru;
  t.lru.e_next <- t.lru;
  t.size <- 0;
  Atomic.incr t.epoch

let reset t =
  clear t;
  t.hits <- 0;
  t.misses <- 0;
  t.stale <- 0;
  t.evicted <- 0;
  List.iter
    (fun h ->
      h.h_hits <- 0;
      h.h_misses <- 0;
      h.h_stale <- 0)
    t.hooks

let render t =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "cache %s capacity %d entries %d\n"
       (if t.enabled then "on" else "off")
       t.cap t.size);
  Buffer.add_string b
    (Printf.sprintf "hits %d misses %d stale %d evicted %d\n" t.hits t.misses
       t.stale t.evicted);
  List.iter
    (fun h ->
      Buffer.add_string b
        (Printf.sprintf "hook %s hits %d misses %d stale %d\n" h.hname h.h_hits
           h.h_misses h.h_stale))
    (hook_stats t);
  Buffer.contents b

let handle_write t contents =
  match String.trim contents with
  | "enable on" -> t.enabled <- true; Ok ()
  | "enable off" -> t.enabled <- false; Ok ()
  | "reset" -> reset t; Ok ()
  | other -> Error ("cache_stats: unknown command: " ^ other)
