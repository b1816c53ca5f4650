module Pfm = Protego_filter.Pfm

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

  (* The first [n] bytes of [b] (a slot's buffer, which may be longer)
     against the key's bytes, in place. *)
  let equal_prefix k b n =
    n = k.len
    &&
    let kb = k.buf and whole = n land lnot 7 in
    let i = ref 0 in
    while
      !i < whole && (Bytes.get_int64_le b !i : int64) = Bytes.get_int64_le kb !i
    do
      i := !i + 8
    done;
    if !i < whole then false
    else begin
      while !i < n && Bytes.unsafe_get b !i = Bytes.unsafe_get kb !i do
        incr i
      done;
      !i >= n
    end
end

(* --- the table ----------------------------------------------------------- *)

(* Entries live in slots of parallel arrays: an insert fills ints in arrays
   that exist already and a hit rewrites ints only, so neither allocates or
   pays the write barrier.  Slot 0 is the LRU ring's sentinel ([s_next.(0)]
   is the most recent slot).  [s_chain] links a bucket's slots (to -1) and
   the free list.  A slot's key buffer is reused with it; only a longer key
   allocates.  The arrays double on demand up to [cap + 1] slots, and the
   bucket heads with them. *)

type t = {
  cap : int;
  mutable heads : int array;  (* a bucket's first slot, or -1; length 2^k *)
  mutable s_hash : int array;
  mutable s_hid : int array;
  mutable s_subject : int array;
  mutable s_gen : int array;
  mutable s_verdict : int array;  (* [code] of the verdict *)
  mutable s_prev : int array;     (* more recent *)
  mutable s_next : int array;     (* less recent *)
  mutable s_chain : int array;
  mutable s_key : Bytes.t array;
  mutable s_klen : int array;
  mutable used : int;  (* slots [0, used) have been handed out *)
  mutable free : int;  (* the free list's first slot, or -1 *)
  mutable size : int;
  mutable enabled : bool;
  mutable epoch : int;
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

let no_key = Key.create ()

(* What [find] returns, one value per verdict. *)
let found = [| Some Pfm.Allow; Some Pfm.Deny; Some Pfm.Reject |]
let code = function Pfm.Allow -> 0 | Pfm.Deny -> 1 | Pfm.Reject -> 2

let default_capacity = 1024

(* Just the sentinel: a table no hook ever fills stays a few words. *)
let create ?(capacity = default_capacity) () =
  let ints () = Array.make 1 0 in
  { cap = max 1 capacity; heads = Array.make 1 (-1); s_hash = ints ();
    s_hid = ints (); s_subject = ints (); s_gen = ints ();
    s_verdict = ints (); s_prev = ints (); s_next = ints ();
    s_chain = ints (); s_key = Array.make 1 Bytes.empty; s_klen = ints ();
    used = 1; free = -1; size = 0; enabled = true; epoch = 0;
    hits = 0; misses = 0; stale = 0; evicted = 0; hooks = [];
    m_key = no_key; m_stamp = 0; m_hid = -1; m_subject = 0; m_hash = 0 }

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

let length t = t.size
let enabled t = t.enabled
let set_enabled t e = t.enabled <- e
let epoch t = t.epoch

let hits t = t.hits
let misses t = t.misses
let stale_evictions t = t.stale
let capacity_evictions t = t.evicted
let hook_stats t = List.rev t.hooks

(* --- slots, LRU ring and buckets ---------------------------------------- *)

let bucket t h = h land (Array.length t.heads - 1)

let grow t =
  let n = min (t.cap + 1) (2 * Array.length t.s_hash) in
  let extend a x =
    Array.init n (fun i -> if i < Array.length a then a.(i) else x)
  in
  t.s_hash <- extend t.s_hash 0;
  t.s_hid <- extend t.s_hid 0;
  t.s_subject <- extend t.s_subject 0;
  t.s_gen <- extend t.s_gen 0;
  t.s_verdict <- extend t.s_verdict 0;
  t.s_prev <- extend t.s_prev 0;
  t.s_next <- extend t.s_next 0;
  t.s_chain <- extend t.s_chain 0;
  t.s_key <- extend t.s_key Bytes.empty;
  t.s_klen <- extend t.s_klen 0;
  (* Every slot is live here: rebucket them over as many heads as the
     grown arrays can fill. *)
  let rec pow2 k = if k >= n - 1 then k else pow2 (2 * k) in
  t.heads <- Array.make (pow2 1) (-1);
  let s = ref t.s_next.(0) in
  while !s <> 0 do
    let i = bucket t t.s_hash.(!s) in
    t.s_chain.(!s) <- t.heads.(i);
    t.heads.(i) <- !s;
    s := t.s_next.(!s)
  done

let unlink t s =
  t.s_next.(t.s_prev.(s)) <- t.s_next.(s);
  t.s_prev.(t.s_next.(s)) <- t.s_prev.(s)

let push_front t s =
  let first = t.s_next.(0) in
  t.s_prev.(s) <- 0;
  t.s_next.(s) <- first;
  t.s_prev.(first) <- s;
  t.s_next.(0) <- s

let touch t s =
  if t.s_next.(0) <> s then begin
    unlink t s;
    push_front t s
  end

(* The slot holding the key, or -1. *)
let lookup t h ~hid ~subject key =
  let s = ref t.heads.(bucket t h) in
  while
    !s >= 0
    && not
         (t.s_hash.(!s) = h && t.s_hid.(!s) = hid
         && t.s_subject.(!s) = subject
         && Key.equal_prefix key t.s_key.(!s) t.s_klen.(!s))
  do
    s := t.s_chain.(!s)
  done;
  !s

(* Remove slot [s] from the LRU ring and from the bucket its stored hash
   names, and free it. *)
let drop t s =
  unlink t s;
  let i = bucket t t.s_hash.(s) in
  if t.heads.(i) = s then t.heads.(i) <- t.s_chain.(s)
  else begin
    let p = ref t.heads.(i) in
    while t.s_chain.(!p) <> s do p := t.s_chain.(!p) done;
    t.s_chain.(!p) <- t.s_chain.(s)
  end;
  t.s_chain.(s) <- t.free;
  t.free <- s;
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
    let s = lookup t h ~hid:hook.hid ~subject key in
    if s < 0 then begin
      missed t hook ~subject key h;
      None
    end
    else if t.s_gen.(s) = gen then begin
      touch t s;
      t.hits <- t.hits + 1;
      hook.h_hits <- hook.h_hits + 1;
      found.(t.s_verdict.(s))
    end
    else begin
      drop t s;
      t.stale <- t.stale + 1;
      hook.h_stale <- hook.h_stale + 1;
      missed t hook ~subject key h;
      None
    end

let insert t hook ~subject ~key h ~gen ~verdict =
  if t.size >= t.cap then begin
    drop t t.s_prev.(0);
    t.evicted <- t.evicted + 1
  end;
  (* A freed slot, else the next unused one, which below capacity is
     within [cap + 1]. *)
  let s = if t.free >= 0 then t.free else t.used in
  if s = t.free then t.free <- t.s_chain.(s)
  else begin
    if s = Array.length t.s_hash then grow t;
    t.used <- s + 1
  end;
  let n = key.Key.len in
  if Bytes.length t.s_key.(s) < n then
    (* [n lor 7] bytes fill the words [n] would take anyway *)
    t.s_key.(s) <- Bytes.create (n lor 7);
  Bytes.blit key.Key.buf 0 t.s_key.(s) 0 n;
  t.s_klen.(s) <- n;
  t.s_hash.(s) <- h;
  t.s_hid.(s) <- hook.hid;
  t.s_subject.(s) <- subject;
  t.s_gen.(s) <- gen;
  t.s_verdict.(s) <- code verdict;
  let i = bucket t h in
  t.s_chain.(s) <- t.heads.(i);
  t.heads.(i) <- s;
  push_front t s;
  t.size <- t.size + 1

let add t hook ~subject ~key ~gen ~verdict =
  if t.enabled then begin
    if
      t.m_key == key && t.m_stamp = key.Key.stamp && t.m_hid = hook.hid
      && t.m_subject = subject
    then insert t hook ~subject ~key t.m_hash ~gen ~verdict
    else begin
      let h = Key.hash key ~hid:hook.hid ~subject in
      let s = lookup t h ~hid:hook.hid ~subject key in
      if s < 0 then insert t hook ~subject ~key h ~gen ~verdict
      else begin
        t.s_gen.(s) <- gen;
        t.s_verdict.(s) <- code verdict;
        touch t s
      end
    end;
    t.m_key <- no_key
  end

(* --- control ------------------------------------------------------------ *)

let clear t =
  Array.fill t.heads 0 (Array.length t.heads) (-1);
  t.s_prev.(0) <- 0;
  t.s_next.(0) <- 0;
  t.used <- 1;
  t.free <- -1;
  t.size <- 0;
  t.epoch <- t.epoch + 1

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
