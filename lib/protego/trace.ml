module Pfm = Protego_filter.Pfm
module Errno = Protego_base.Errno

let default_span_capacity = 256
let max_span_capacity = 65_536
let bucket_count = 63

type key = {
  k_hook : string;
  k_engine : string;
  k_buckets : int array;
  mutable k_count : int;
  mutable k_max : int;
}

type span = {
  sp_id : int;
  sp_hook : string;
  sp_engine : string;
  sp_verdict : Pfm.verdict;
  sp_errno : Errno.t option;
  sp_gen : int;
  sp_epoch : int;
  sp_start : int;
  sp_ns : int;
  sp_stages : (string * int) list;
}

type t = {
  mutable clock : unit -> int;
  mutable has_clock : bool;
  mutable spans_on : bool;
  mutable armed : bool;
  mutable ring : span option array;
  mutable ring_pos : int;    (* next write slot *)
  mutable ring_len : int;
  mutable next_id : int;
  mutable keys_rev : key list;
  mutable arm_listener : bool -> unit;
}

let null_clock () = 0

let clamp_capacity n = max 1 (min max_span_capacity n)

let create ?(span_capacity = default_span_capacity) () =
  let span_capacity = clamp_capacity span_capacity in
  { clock = null_clock; has_clock = false; spans_on = false; armed = false;
    ring = Array.make span_capacity None; ring_pos = 0; ring_len = 0;
    next_id = 1; keys_rev = []; arm_listener = ignore }

let rearm t =
  t.armed <- t.has_clock || t.spans_on;
  t.arm_listener t.armed

let on_arm t fn =
  t.arm_listener <- fn;
  fn t.armed

let set_clock t clock =
  t.clock <- clock;
  t.has_clock <- true;
  rearm t

let[@inline] now t = t.clock ()
let[@inline] armed t = t.armed

(* --- histograms --------------------------------------------------------- *)

(* Bucket i >= 1 holds ns in [2^(i-1), 2^i - 1]; bucket 0 holds ns <= 0.
   The index of a positive n is its bit length, clamped to the top. *)
let bucket_index ns =
  if ns <= 0 then 0
  else begin
    let i = ref 0 and n = ref ns in
    while !n > 0 do
      incr i;
      n := !n lsr 1
    done;
    if !i >= bucket_count then bucket_count - 1 else !i
  end

let bucket_upper i =
  if i <= 0 then 0
  else if i >= bucket_count - 1 then max_int
  else (1 lsl i) - 1

let register t ~hook ~engine =
  match
    List.find_opt (fun k -> k.k_hook = hook && k.k_engine = engine) t.keys_rev
  with
  | Some k -> k
  | None ->
      let k =
        { k_hook = hook; k_engine = engine;
          k_buckets = Array.make bucket_count 0; k_count = 0; k_max = 0 }
      in
      t.keys_rev <- k :: t.keys_rev;
      k

let observe k ~ns =
  let b = bucket_index ns in
  Array.unsafe_set k.k_buckets b (Array.unsafe_get k.k_buckets b + 1);
  k.k_count <- k.k_count + 1;
  if ns > k.k_max then k.k_max <- ns

let keys t = List.rev t.keys_rev
let buckets k = Array.copy k.k_buckets

let percentile k ~pct =
  if k.k_count = 0 then 0
  else begin
    let pct = if pct < 1 then 1 else if pct > 100 then 100 else pct in
    let need = ((k.k_count * pct) + 99) / 100 in
    let acc = ref 0 and b = ref 0 in
    while !acc < need && !b < bucket_count do
      acc := !acc + k.k_buckets.(!b);
      if !acc < need then incr b
    done;
    bucket_upper !b
  end

let sum ~hook ~engine keys =
  let k =
    { k_hook = hook; k_engine = engine; k_buckets = Array.make bucket_count 0;
      k_count = 0; k_max = 0 }
  in
  List.iter
    (fun s ->
      Array.iteri (fun i c -> k.k_buckets.(i) <- k.k_buckets.(i) + c) s.k_buckets;
      k.k_count <- k.k_count + s.k_count;
      if s.k_max > k.k_max then k.k_max <- s.k_max)
    keys;
  k

let reset_latency t =
  List.iter
    (fun k ->
      Array.fill k.k_buckets 0 bucket_count 0;
      k.k_count <- 0;
      k.k_max <- 0)
    t.keys_rev

(* --- spans -------------------------------------------------------------- *)

let[@inline] spans_enabled t = t.spans_on

let set_spans t on =
  t.spans_on <- on;
  rearm t

let span_capacity t = Array.length t.ring

let set_span_capacity t n =
  t.ring <- Array.make (clamp_capacity n) None;
  t.ring_pos <- 0;
  t.ring_len <- 0

let record_span t ~hook ~engine ~verdict ~errno ~gen ~epoch ~start ~finish
    ~stages =
  if not t.spans_on then None
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let sp =
      { sp_id = id; sp_hook = hook; sp_engine = engine; sp_verdict = verdict;
        sp_errno = errno; sp_gen = gen; sp_epoch = epoch; sp_start = start;
        sp_ns = finish - start; sp_stages = stages }
    in
    let cap = Array.length t.ring in
    t.ring.(t.ring_pos) <- Some sp;
    t.ring_pos <- (t.ring_pos + 1) mod cap;
    if t.ring_len < cap then t.ring_len <- t.ring_len + 1;
    Some id
  end

let spans t =
  let cap = Array.length t.ring in
  let oldest = (t.ring_pos - t.ring_len + cap * 2) mod cap in
  List.init t.ring_len (fun i ->
      match t.ring.((oldest + i) mod cap) with
      | Some sp -> sp
      | None -> assert false)

let reset_spans t =
  Array.fill t.ring 0 (Array.length t.ring) None;
  t.ring_pos <- 0;
  t.ring_len <- 0

(* --- /proc renderers ---------------------------------------------------- *)

let verdict_name = function
  | Pfm.Allow -> "allow"
  | Pfm.Deny -> "deny"
  | Pfm.Reject -> "reject"

let render_trace t =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "trace %s capacity %d spans %d next %d\n"
       (if t.spans_on then "on" else "off")
       (span_capacity t) t.ring_len t.next_id);
  List.iter
    (fun sp ->
      Buffer.add_string b
        (Printf.sprintf
           "span %d hook %s engine %s verdict %s errno %s gen %d epoch %d \
            start %d ns %d stages %s\n"
           sp.sp_id sp.sp_hook sp.sp_engine (verdict_name sp.sp_verdict)
           (match sp.sp_errno with Some e -> Errno.to_string e | None -> "-")
           sp.sp_gen sp.sp_epoch sp.sp_start sp.sp_ns
           (match sp.sp_stages with
            | [] -> "-"
            | ss ->
                String.concat ","
                  (List.map (fun (s, off) -> Printf.sprintf "%s+%d" s off) ss))))
    (spans t);
  Buffer.contents b

let handle_trace_write t contents =
  match String.trim contents with
  | "on" -> set_spans t true; Ok ()
  | "off" -> set_spans t false; Ok ()
  | "reset" -> reset_spans t; Ok ()
  | cmd -> (
      match String.index_opt cmd ' ' with
      | Some i when String.sub cmd 0 i = "capacity" -> (
          let arg = String.trim (String.sub cmd i (String.length cmd - i)) in
          match int_of_string_opt arg with
          | Some n when n >= 1 && n <= max_span_capacity ->
              set_span_capacity t n;
              Ok ()
          | Some _ | None ->
              Error
                (Printf.sprintf "trace: capacity wants an integer in 1..%d: %s"
                   max_span_capacity arg))
      | _ -> Error ("trace: unknown command: " ^ cmd))

let render_latency t =
  let ks = keys t in
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "latency series %d buckets log2\n" (List.length ks));
  List.iter
    (fun k ->
      Buffer.add_string b
        (Printf.sprintf "hook %s engine %s count %d p50 %d p90 %d p99 %d max %d\n"
           k.k_hook k.k_engine k.k_count (percentile k ~pct:50)
           (percentile k ~pct:90) (percentile k ~pct:99) k.k_max))
    ks;
  Buffer.contents b

let handle_latency_write t contents =
  match String.trim contents with
  | "reset" -> reset_latency t; Ok ()
  | cmd -> Error ("latency: unknown command: " ^ cmd)
