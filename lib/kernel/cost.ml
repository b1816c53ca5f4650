(* A chain of dependent loads around a 64-entry ring, where ring.(i) =
   (37i + 1) mod 64 visits every entry once per lap.  Each hop's address
   is the value the previous hop loaded, so a hop costs one L1 load
   latency, and the loop's code alignment does not change that. *)
let ring = Array.init 64 (fun i -> ((37 * i) + 1) mod 64)

let chain hops =
  let j = ref 0 in
  for _ = 1 to hops do
    j := Array.unsafe_get ring !j
  done;
  ignore (Sys.opaque_identity !j)
