(* Helpers shared across the test suites: the deterministic counter
   clock and the reference-oracle and string-matching utilities that
   used to be copy-pasted into test_plane, test_trace and
   test_interleave. *)

module PS = Protego_core.Policy_state
module Plane = Protego_plane.Plane
module Snapshot = Protego_plane.Snapshot
module Request = Protego_core.Request

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let starts_with haystack prefix =
  String.length haystack >= String.length prefix
  && String.sub haystack 0 (String.length prefix) = prefix

(* A deterministic "clock": the k-th reading is [k * step] ns.  What
   every suite installs via [Plane.set_clock] / [Trace.set_clock] to
   make wall/batch timing reproducible. *)
let counter_clock ?(step = 10) () =
  let c = ref 0 in
  fun () ->
    incr c;
    !c * step

(* The uncached, unsnapshotted reference verdict straight off the live
   policy state — what every plane decision must agree with as long as
   reloads are semantics-preserving. *)
let oracle : PS.t -> Plane.request -> bool = Request.oracle

(* The same reference verdict against a frozen snapshot. *)
let snapshot_oracle (snap : Snapshot.t) : Plane.request -> bool =
  Request.oracle snap.Snapshot.frozen

(* The protego-journal binary next to the test executable's build
   directory (the test stanza depends on it). *)
let journal_exe () =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name)
      (Filename.concat Filename.parent_dir_name
         (Filename.concat "bin" "journal.exe"))
  in
  if Sys.file_exists exe then exe
  else failwith ("protego-journal not built at " ^ exe)
