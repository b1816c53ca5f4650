module Pfm = Protego_filter.Pfm

(* A key is a packet context's ints. *)
let width = Protego_filter.Pfm_compile.packet_ints

(* --- the table ----------------------------------------------------------- *)

(* Entries live in slots of parallel arrays: an insert fills ints in arrays
   that exist already and a hit rewrites ints only, so neither allocates or
   pays the write barrier.  Slot 0 is the LRU ring's sentinel ([s_next.(0)]
   is the most recent slot).  [s_chain] links a bucket's slots (to -1) and
   the free list.  Slot [s]'s key is [s_keys.(s * width) ..], [width] ints.
   The arrays double on demand up to [cap + 1] slots, and the bucket heads
   with them. *)

type t = {
  cap : int;
  mutable heads : int array;  (* a bucket's first slot, or -1; length 2^k *)
  mutable s_hash : int array;
  mutable s_gen : int array;
  mutable s_verdict : int array;  (* [code] of the verdict *)
  mutable s_prev : int array;     (* more recent *)
  mutable s_next : int array;     (* less recent *)
  mutable s_chain : int array;
  mutable s_keys : int array;     (* [width] ints per slot *)
  mutable used : int;  (* slots [0, used) have been handed out *)
  mutable free : int;  (* the free list's first slot, or -1 *)
  mutable size : int;
  mutable enabled : bool;
  mutable epoch : int;
  mutable hits : int;
  mutable misses : int;
  mutable stale : int;
  mutable evicted : int;
}

(* What [find] returns, one value per verdict. *)
let found = [| Some Pfm.Allow; Some Pfm.Deny; Some Pfm.Reject |]
let code = function Pfm.Allow -> 0 | Pfm.Deny -> 1 | Pfm.Reject -> 2

let default_capacity = 1024

(* Just the sentinel: a table nothing ever fills stays a few words. *)
let create ?(capacity = default_capacity) () =
  let ints () = Array.make 1 0 in
  { cap = max 1 capacity; heads = Array.make 1 (-1); s_hash = ints ();
    s_gen = ints (); s_verdict = ints (); s_prev = ints (); s_next = ints ();
    s_chain = ints (); s_keys = Array.make width 0; used = 1; free = -1;
    size = 0; enabled = true; epoch = 0; hits = 0; misses = 0; stale = 0;
    evicted = 0 }

let length t = t.size
let enabled t = t.enabled
let set_enabled t e = t.enabled <- e
let epoch t = t.epoch

let hits t = t.hits
let misses t = t.misses
let stale_evictions t = t.stale
let capacity_evictions t = t.evicted

(* --- keys ---------------------------------------------------------------- *)

let check_width key =
  if Array.length key <> width then
    invalid_arg "Decision_cache: key of the wrong width"

(* One pass over the ints; the final avalanche spreads every input bit
   into the low bits the bucket index takes. *)
let hash key =
  let m = 0x1bd1e9955bd1e995 in
  let h = ref (width * m) in
  for i = 0 to width - 1 do
    h := (!h lxor Array.unsafe_get key i) * m
  done;
  let h = !h lxor (!h lsr 29) in
  let h = h * 0x2127599bf4325c37 in
  h lxor (h lsr 32)

(* Slot [s]'s stored key against [key], int by int. *)
let key_equal t s key =
  let ks = t.s_keys and base = s * width in
  let i = ref 0 in
  while
    !i < width && Array.unsafe_get ks (base + !i) = Array.unsafe_get key !i
  do
    incr i
  done;
  !i = width

(* --- slots, LRU ring and buckets ---------------------------------------- *)

let bucket t h = h land (Array.length t.heads - 1)

let grow t =
  let n = min (t.cap + 1) (2 * Array.length t.s_hash) in
  let extend a x =
    Array.init n (fun i -> if i < Array.length a then a.(i) else x)
  in
  t.s_hash <- extend t.s_hash 0;
  t.s_gen <- extend t.s_gen 0;
  t.s_verdict <- extend t.s_verdict 0;
  t.s_prev <- extend t.s_prev 0;
  t.s_next <- extend t.s_next 0;
  t.s_chain <- extend t.s_chain 0;
  let keys = Array.make (n * width) 0 in
  Array.blit t.s_keys 0 keys 0 (Array.length t.s_keys);
  t.s_keys <- keys;
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
let lookup t h key =
  let s = ref t.heads.(bucket t h) in
  while !s >= 0 && not (t.s_hash.(!s) = h && key_equal t !s key) do
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

let find t ~key ~gen =
  if not t.enabled then None
  else begin
    check_width key;
    let s = lookup t (hash key) key in
    if s < 0 then begin
      t.misses <- t.misses + 1;
      None
    end
    else if t.s_gen.(s) = gen then begin
      touch t s;
      t.hits <- t.hits + 1;
      found.(t.s_verdict.(s))
    end
    else begin
      drop t s;
      t.stale <- t.stale + 1;
      t.misses <- t.misses + 1;
      None
    end
  end

let insert t key h ~gen ~verdict =
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
  Array.blit key 0 t.s_keys (s * width) width;
  t.s_hash.(s) <- h;
  t.s_gen.(s) <- gen;
  t.s_verdict.(s) <- code verdict;
  let i = bucket t h in
  t.s_chain.(s) <- t.heads.(i);
  t.heads.(i) <- s;
  push_front t s;
  t.size <- t.size + 1

let add t ~key ~gen ~verdict =
  if t.enabled then begin
    check_width key;
    let h = hash key in
    let s = lookup t h key in
    if s < 0 then insert t key h ~gen ~verdict
    else begin
      t.s_gen.(s) <- gen;
      t.s_verdict.(s) <- code verdict;
      touch t s
    end
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
  t.evicted <- 0

(* The table is the packet hook's alone, so its per-hook line repeats the
   global counters under that hook's name. *)
let render t =
  Printf.sprintf
    "cache %s capacity %d entries %d\n\
     hits %d misses %d stale %d evicted %d\n\
     hook nf_output hits %d misses %d stale %d\n"
    (if t.enabled then "on" else "off")
    t.cap t.size t.hits t.misses t.stale t.evicted t.hits t.misses t.stale

let handle_write t contents =
  match String.trim contents with
  | "enable on" -> t.enabled <- true; Ok ()
  | "enable off" -> t.enabled <- false; Ok ()
  | "reset" -> reset t; Ok ()
  | other -> Error ("cache_stats: unknown command: " ^ other)
