(* Measurement primitives: the clock, the host-speed calibration kernel,
   a log-bucket latency histogram and the few order statistics the suite
   reports.  Nothing here calls into the program under test. *)

let now () = Int64.to_int (Monotonic_clock.now ())

(* --- host-speed calibration ---------------------------------------------

   The machines this runs on share their cores with other tenants and
   switch between speed modes; contention comes in bursts of tens to
   hundreds of milliseconds and slows compute-bound code by up to 2-5x.
   A fixed kernel of the same kind of work the program does (string
   building, hashing, short-lived list allocation) is run in short chunks
   every [chunk_every_ns] all through a round; the round's timings are
   scaled by [calib_ref_ns / calib_ns], where [calib_ns] is the chunks'
   mean, in whole-kernel units.  A reported time therefore reads as
   "reference ns": what it would have cost on a host where the kernel
   takes [calib_ref_ns].  The raw values are reported beside the
   calibrated ones. *)

let kernel_iters = 8_000
let chunks_per_kernel = 8
let chunk_every_ns = 10_000_000

let calib_kernel iters =
  let h = Hashtbl.create 512 in
  let acc = ref 0 in
  for i = 0 to iters - 1 do
    let key = "k" ^ string_of_int (i land 511) in
    let l = [ i; i + 1; i + 2 ] in
    Hashtbl.replace h key l;
    match Hashtbl.find_opt h key with
    | Some l -> acc := !acc + List.fold_left ( + ) 0 l
    | None -> ()
  done;
  ignore (Sys.opaque_identity !acc)

(* One chunk, in whole-kernel ns. *)
let chunk () =
  let t0 = now () in
  calib_kernel (kernel_iters / chunks_per_kernel);
  float_of_int ((now () - t0) * chunks_per_kernel)

(* The median of five whole kernels, in ns: for spans too short to
   carry chunks (a set-up, an offline stage). *)
let calibrate () =
  let a =
    Array.init 5 (fun _ ->
        let t0 = now () in
        calib_kernel kernel_iters;
        float_of_int (now () - t0))
  in
  Array.sort compare a;
  a.(2)

(* The kernel's time on the reference host (2-vCPU x86-64 VM, OCaml
   5.1.1, no contention). *)
let calib_ref_ns = 1_400_000.

(* --- latency histogram ----------------------------------------------------

   Buckets grow by 0.2%, so a quantile read from the histogram is within
   0.1% of the exact one; values are interpolated within their bucket. *)

module Hist = struct
  let lr = log 1.002
  let nb = 16384

  type t = { b : int array; mutable n : int }

  let create () = { b = Array.make nb 0; n = 0 }

  let clear h =
    Array.fill h.b 0 nb 0;
    h.n <- 0

  let index x = if x <= 1. then 0 else min (nb - 1) (int_of_float (log x /. lr))

  let add h x =
    let i = index x in
    h.b.(i) <- h.b.(i) + 1;
    h.n <- h.n + 1

  (* Add [src]'s samples to [dst], each multiplied by [s]: the buckets
     are log-spaced, so scaling shifts them (to within half a bucket). *)
  let add_scaled dst src s =
    let shift = int_of_float (Float.round (log s /. lr)) in
    Array.iteri
      (fun i c ->
        if c > 0 then begin
          let j = max 0 (min (nb - 1) (i + shift)) in
          dst.b.(j) <- dst.b.(j) + c
        end)
      src.b;
    dst.n <- dst.n + src.n

  let quantile h q =
    if h.n = 0 then nan
    else
      let rank = q *. float_of_int (h.n - 1) in
      let rec go i cum =
        let c = h.b.(i) in
        if i = nb - 1 || float_of_int (cum + c) > rank then
          let frac = if c = 0 then 0. else (rank -. float_of_int cum) /. float_of_int c in
          exp ((float_of_int i +. frac) *. lr)
        else go (i + 1) (cum + c)
      in
      go 0 0
end

(* What a back-to-back pair of [Gc.minor_words] reads: the allocation
   probe's own cost, subtracted from every allocation measurement. *)
let probe_alloc () =
  let best = ref infinity in
  for _ = 1 to 16 do
    let a0 = Gc.minor_words () in
    let a1 = Gc.minor_words () in
    best := Float.min !best (a1 -. a0)
  done;
  !best

(* --- order statistics ----------------------------------------------------- *)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of a sample list ([p] in 0..100). *)
let percentile l p =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else
    let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (k - 1)))
