(* Forward abstract interpretation of PFM programs.

   The machine has no arithmetic: every accumulator value is a verbatim
   copy of a context field, and every conditional compares the
   accumulator against immediates (or one other field).  The analysis
   therefore tracks one abstract value per *context field* and remembers
   which field each accumulator currently aliases, so a refinement
   learned on a branch ("source <> \"sda1\"") survives the accumulator
   being reloaded with a different field and back.  That aliasing is
   what makes shadowed whitelist entries — the same field re-tested with
   the same immediate further down — detectable as dead code.

   Jumps are forward-only in verified programs, so program order is a
   topological order of the CFG and a single pass with join at merge
   points reaches the fixpoint; there are no loops, hence no widening
   (join is the widen).  Invalid edges (backward or out of range) are
   simply not propagated, mirroring Pfm.verify_all's pass 2, so the
   analysis is total even on garbage programs.

   Soundness direction: every abstract transfer function and both
   branch-refinement operators OVER-approximate the concrete state sets,
   so the computed reachable set is a superset of the concretely
   reachable instructions.  Consequences clients rely on:
   - abstractly unreachable  =>  definitely dead (no input executes it);
   - Allow abstractly unreachable  =>  the program can never allow;
   - Deny and Reject abstractly unreachable  =>  the program always
     allows (verified programs terminate with some verdict);
   - a branch whose true (false) edge is abstractly infeasible is
     definitely constant.
   The converse never holds: abstract reachability does not imply an
   input exists, which is why the lint layer words those findings
   conservatively. *)

module Pfm = Protego_filter.Pfm
module ISet = Set.Make (Int)
module SSet = Set.Make (String)

(* --- abstract values ---------------------------------------------------- *)

type iv =
  | Ibot
  | Iset of ISet.t        (* value is one of these *)
  | Irange of int * int   (* lo <= value <= hi (inclusive) *)
  | Inot of ISet.t        (* value is anything but these; Inot {} = top *)

type sv =
  | Sbot
  | Sset of SSet.t
  | Snot of SSet.t        (* Snot {} = top *)

let itop = Inot ISet.empty
let stop = Snot SSet.empty

let inorm = function
  | Iset s when ISet.is_empty s -> Ibot
  | Irange (lo, hi) when lo > hi -> Ibot
  | v -> v

let snorm = function Sset s when SSet.is_empty s -> Sbot | v -> v

let iv_to_string = function
  | Ibot -> "⊥"
  | Iset s ->
      "{" ^ String.concat "," (List.map string_of_int (ISet.elements s)) ^ "}"
  | Irange (lo, hi) -> Printf.sprintf "[%d,%d]" lo hi
  | Inot s when ISet.is_empty s -> "⊤"
  | Inot s ->
      "¬{" ^ String.concat "," (List.map string_of_int (ISet.elements s)) ^ "}"

let sv_to_string = function
  | Sbot -> "⊥"
  | Sset s ->
      "{"
      ^ String.concat "," (List.map (Printf.sprintf "%S") (SSet.elements s))
      ^ "}"
  | Snot s when SSet.is_empty s -> "⊤"
  | Snot s ->
      "¬{"
      ^ String.concat "," (List.map (Printf.sprintf "%S") (SSet.elements s))
      ^ "}"

let range_of_set s = (ISet.min_elt s, ISet.max_elt s)

let ijoin a b =
  match (a, b) with
  | Ibot, v | v, Ibot -> v
  | Iset x, Iset y -> Iset (ISet.union x y)
  | Iset x, Irange (lo, hi) | Irange (lo, hi), Iset x ->
      let slo, shi = range_of_set x in
      Irange (min lo slo, max hi shi)
  | Irange (a1, b1), Irange (a2, b2) -> Irange (min a1 a2, max b1 b2)
  | Inot x, Inot y -> Inot (ISet.inter x y)
  | Inot x, Iset y | Iset y, Inot x -> inorm (Inot (ISet.diff x y))
  | Inot x, Irange (lo, hi) | Irange (lo, hi), Inot x ->
      (* γ = ¬x ∪ [lo,hi]: only exclusions outside the range survive. *)
      Inot (ISet.filter (fun v -> v < lo || v > hi) x)

let ijoin a b = inorm (ijoin a b)

let sjoin a b =
  match (a, b) with
  | Sbot, v | v, Sbot -> v
  | Sset x, Sset y -> Sset (SSet.union x y)
  | Snot x, Snot y -> Snot (SSet.inter x y)
  | Snot x, Sset y | Sset y, Snot x -> Snot (SSet.diff x y)

let imeet a b =
  match (a, b) with
  | Ibot, _ | _, Ibot -> Ibot
  | Iset x, Iset y -> Iset (ISet.inter x y)
  | Iset x, Irange (lo, hi) | Irange (lo, hi), Iset x ->
      Iset (ISet.filter (fun v -> lo <= v && v <= hi) x)
  | Iset x, Inot y | Inot y, Iset x -> Iset (ISet.diff x y)
  | Irange (a1, b1), Irange (a2, b2) -> Irange (max a1 a2, min b1 b2)
  | Inot x, Inot y -> Inot (ISet.union x y)
  | Irange (lo, hi), Inot x | Inot x, Irange (lo, hi) ->
      (* Shave excluded endpoints off the range; interior holes are not
         representable, so they are (soundly) kept. *)
      let lo = ref lo and hi = ref hi in
      while !lo <= !hi && ISet.mem !lo x do incr lo done;
      while !hi >= !lo && ISet.mem !hi x do decr hi done;
      Irange (!lo, !hi)

let imeet a b = inorm (imeet a b)

let smeet a b =
  match (a, b) with
  | Sbot, _ | _, Sbot -> Sbot
  | Sset x, Sset y -> Sset (SSet.inter x y)
  | Sset x, Snot y | Snot y, Sset x -> Sset (SSet.diff x y)
  | Snot x, Snot y -> Snot (SSet.union x y)

let smeet a b = snorm (smeet a b)

let isingleton = function
  | Iset s when ISet.cardinal s = 1 -> Some (ISet.min_elt s)
  | Irange (lo, hi) when lo = hi -> Some lo
  | _ -> None

(* --- branch refinement -------------------------------------------------- *)

(* [irefine v c taken] over-approximates { x ∈ γ(v) | eval c x = taken }.
   A finite set is filtered exactly through the concrete semantics; the
   other shapes intersect with whatever the condition's outcome can be
   expressed as, or stay put.  Eq_field is handled by the caller (it
   relates two fields, not a field and an immediate). *)
let concrete_int_cond c x =
  match c with
  | Pfm.Eq imm -> x = imm
  | Pfm.Ge imm -> x >= imm
  | Pfm.Le imm -> x <= imm
  | Pfm.In_range (lo, hi) -> x >= lo && x <= hi
  | Pfm.All_bits imm -> x land imm = imm
  | Pfm.Masked_eq { mask; value } -> x land mask = value
  | Pfm.Eq_field _ | Pfm.Str_eq _ | Pfm.Str_prefix _ -> assert false

let irefine v c taken =
  match v with
  | Ibot -> Ibot
  | Iset s -> inorm (Iset (ISet.filter (fun x -> concrete_int_cond c x = taken) s))
  | (Irange _ | Inot _) as v -> (
      match (c, taken) with
      | Pfm.Eq imm, true -> imeet v (Iset (ISet.singleton imm))
      | Pfm.Eq imm, false -> imeet v (Inot (ISet.singleton imm))
      | Pfm.Ge imm, true -> imeet v (Irange (imm, max_int))
      | Pfm.Ge imm, false -> imeet v (Irange (min_int, imm - 1))
      | Pfm.Le imm, true -> imeet v (Irange (min_int, imm))
      | Pfm.Le imm, false -> imeet v (Irange (imm + 1, max_int))
      | Pfm.In_range (lo, hi), true -> imeet v (Irange (lo, hi))
      | Pfm.In_range (lo, hi), false ->
          (* ¬[lo,hi] is two rays; representable only when one is empty.
             A narrow interval (the common compiled port-range test) can
             be excluded pointwise instead. *)
          if lo = min_int then imeet v (Irange (hi + 1, max_int))
          else if hi = max_int then imeet v (Irange (min_int, lo - 1))
          else if hi - lo >= 0 && hi - lo < 64 then
            imeet v
              (Inot (ISet.of_list (List.init (hi - lo + 1) (fun i -> lo + i))))
          else v
      | Pfm.All_bits imm, true when imm <> 0 ->
          (* x ⊇ imm implies x >= imm for non-negative x; too weak to
             bother with.  The one exact fact: imm = 0 is always true. *)
          v
      | Pfm.All_bits 0, false -> Ibot
      | Pfm.All_bits _, _ -> v
      | Pfm.Masked_eq { mask = 0; value }, taken ->
          if (0 = value) = taken then v else Ibot
      | Pfm.Masked_eq _, _ -> v
      | (Pfm.Eq_field _ | Pfm.Str_eq _ | Pfm.Str_prefix _), _ -> v)

let srefine v c taken =
  match v with
  | Sbot -> Sbot
  | Sset s ->
      let keep x =
        match c with
        | Pfm.Str_eq imm -> String.equal x imm = taken
        | Pfm.Str_prefix p ->
            (String.length x >= String.length p
            && String.sub x 0 (String.length p) = p)
            = taken
        | _ -> true
      in
      snorm (Sset (SSet.filter keep s))
  | Snot _ as v -> (
      match (c, taken) with
      | Pfm.Str_eq imm, true -> smeet v (Sset (SSet.singleton imm))
      | Pfm.Str_eq imm, false -> smeet v (Snot (SSet.singleton imm))
      | Pfm.Str_prefix "", false -> Sbot  (* "" prefixes everything *)
      | _ -> v)

(* --- abstract machine state --------------------------------------------- *)

type state = {
  fi : iv array;          (* one abstract value per int context field *)
  fs : sv array;
  ai : iv;                (* int accumulator (kept in sync with its alias) *)
  asv : sv;
  src_i : int option;     (* field the int accumulator is a copy of *)
  src_s : int option;
}

let join_state a b =
  {
    fi = Array.map2 ijoin a.fi b.fi;
    fs = Array.map2 sjoin a.fs b.fs;
    ai = ijoin a.ai b.ai;
    asv = sjoin a.asv b.asv;
    src_i = (if a.src_i = b.src_i then a.src_i else None);
    src_s = (if a.src_s = b.src_s then a.src_s else None);
  }

(* Write a refined accumulator value back, mirroring into the aliased
   field so later reloads of that field see the refinement. *)
let with_ai st v =
  let fi =
    match st.src_i with
    | Some f ->
        let fi = Array.copy st.fi in
        fi.(f) <- v;
        fi
    | None -> st.fi
  in
  { st with ai = v; fi }

let with_asv st v =
  let fs =
    match st.src_s with
    | Some f ->
        let fs = Array.copy st.fs in
        fs.(f) <- v;
        fs
    | None -> st.fs
  in
  { st with asv = v; fs }

(* --- analysis results --------------------------------------------------- *)

type summary = {
  program : Pfm.program;
  reachable : bool array;
  allow_reachable : bool;
  deny_reachable : bool;
  reject_reachable : bool;
  const_branches : (int * bool) list;
      (* (pc of a Jif, the only feasible outcome), pc order *)
}

let verdict_reachable s = function
  | Pfm.Allow -> s.allow_reachable
  | Pfm.Deny -> s.deny_reachable
  | Pfm.Reject -> s.reject_reachable

let never_allows s = not s.allow_reachable
let always_allows s = not (s.deny_reachable || s.reject_reachable)

let dead_pcs s =
  let acc = ref [] in
  Array.iteri (fun pc r -> if not r then acc := pc :: !acc) s.reachable;
  List.rev !acc

(* --- provenance notes --------------------------------------------------- *)

(* Notes mark where a declarative rule's code begins; a note's extent
   runs to the next note (or the end of the program). *)
let note_ranges ~notes n =
  let rec go = function
    | [] -> []
    | (pc, text) :: rest ->
        let stop = match rest with (next, _) :: _ -> next - 1 | [] -> n - 1 in
        (pc, stop, text) :: go rest
  in
  go (List.sort compare notes)

let attribute ~notes pc =
  List.fold_left
    (fun best (npc, text) ->
      if npc <= pc then
        match best with
        | Some (bpc, _) when bpc >= npc -> best
        | _ -> Some (npc, text)
      else best)
    None notes
  |> Option.map snd

(* --- the interpreter ---------------------------------------------------- *)

(* The first-match compilation pattern makes merge points inherently
   disjunctive: the entry of rule k+1 is "rule k's test A failed OR its
   test B failed", and a plain join forgets which.  The analysis
   therefore keeps a bounded disjunction of states per program point
   (path-sensitivity over the DAG) and only joins when a point exceeds
   [max_disjuncts] — joining is pure precision loss, never unsoundness.
   That bound keeps the whole pass O(n · max_disjuncts · fields): the
   program is a DAG, so each (pc, disjunct) is processed once.

   A [Ret] has no successor, so a state arriving there is never read:
   the edge marks the pc reachable and raises its verdict's flag, and
   the state is dropped.  Only branching and loading pcs hold
   disjuncts, and each pc's list is released once the pc is processed. *)
let default_max_disjuncts = 64

let analyze ?(max_disjuncts = default_max_disjuncts) (p : Pfm.program) =
  let n = Array.length p.insns in
  let states : state list array = Array.make n [] in
  let count = Array.make n 0 in
  let reachable = Array.make n false in
  let allow = ref false and deny = ref false and reject = ref false in
  let const_branches = ref [] in
  let propagate pc st =
    (* Only valid forward edges; program order stays topological. *)
    if pc < n then begin
      reachable.(pc) <- true;
      match p.insns.(pc) with
      | Pfm.Ret Pfm.Allow -> allow := true
      | Pfm.Ret Pfm.Deny -> deny := true
      | Pfm.Ret Pfm.Reject -> reject := true
      | _ -> (
          match states.(pc) with
          | last :: rest when count.(pc) >= max_disjuncts ->
              states.(pc) <- join_state last st :: rest
          | old ->
              states.(pc) <- st :: old;
              count.(pc) <- count.(pc) + 1)
    end
  in
  if n > 0 then
    propagate 0
      {
        fi = Array.make p.n_int_fields itop;
        fs = Array.make p.n_str_fields stop;
        ai = Iset (ISet.singleton 0);
        asv = Sset (SSet.singleton "");
        src_i = None;
        src_s = None;
      };
  for pc = 0 to n - 1 do
    let disjuncts = states.(pc) in
    states.(pc) <- [];
    match p.insns.(pc) with
    | Pfm.Ld_int f ->
        let ok = f >= 0 && f < p.n_int_fields in
        List.iter
          (fun st ->
            propagate (pc + 1)
              { st with ai = (if ok then st.fi.(f) else itop);
                        src_i = (if ok then Some f else None) })
          disjuncts
    | Pfm.Ld_str f ->
        let ok = f >= 0 && f < p.n_str_fields in
        List.iter
          (fun st ->
            propagate (pc + 1)
              { st with asv = (if ok then st.fs.(f) else stop);
                        src_s = (if ok then Some f else None) })
          disjuncts
    | Pfm.Jmp d -> if d >= 0 then List.iter (propagate (pc + 1 + d)) disjuncts
    | Pfm.Jif (c, jt, jf) ->
        (* A branch is constant only if every disjunct reaching it has
           the same single feasible side: each in isolation may look
           constant while the outcomes differ. *)
        let only_t = ref 0 and only_f = ref 0 in
        List.iter
          (fun st ->
            let feas_t, feas_f =
              match c with
              | Pfm.Str_eq _ | Pfm.Str_prefix _ ->
                  let t = srefine st.asv c true and f = srefine st.asv c false in
                  ( (if t = Sbot then None else Some (with_asv st t)),
                    if f = Sbot then None else Some (with_asv st f) )
              | Pfm.Eq_field f ->
                  let fv =
                    if f >= 0 && f < p.n_int_fields then st.fi.(f) else itop
                  in
                  let both = imeet st.ai fv in
                  let t = if both = Ibot then None else Some (with_ai st both) in
                  (* False edge: refutable only when both sides are the
                     same known constant. *)
                  let fl =
                    match (isingleton st.ai, isingleton fv) with
                    | Some a, Some b when a = b -> None
                    | _ -> Some st
                  in
                  (t, fl)
              | _ ->
                  let t = irefine st.ai c true and f = irefine st.ai c false in
                  ( (if t = Ibot then None else Some (with_ai st t)),
                    if f = Ibot then None else Some (with_ai st f) )
            in
            (match (feas_t, feas_f) with
            | Some _, None -> incr only_t
            | None, Some _ -> incr only_f
            | _ -> ());
            Option.iter (fun s -> if jt >= 0 then propagate (pc + 1 + jt) s) feas_t;
            Option.iter (fun s -> if jf >= 0 then propagate (pc + 1 + jf) s) feas_f)
          disjuncts;
        let reached = count.(pc) in
        if reached > 0 && !only_t = reached then
          const_branches := (pc, true) :: !const_branches
        else if reached > 0 && !only_f = reached then
          const_branches := (pc, false) :: !const_branches
    | Pfm.Iswitch { tbl; default } ->
        let keys = Hashtbl.fold (fun k _ a -> ISet.add k a) tbl ISet.empty in
        List.iter
          (fun st ->
            Hashtbl.iter
              (fun k d ->
                if d >= 0 then
                  let v = imeet st.ai (Iset (ISet.singleton k)) in
                  if v <> Ibot then propagate (pc + 1 + d) (with_ai st v))
              tbl;
            if default >= 0 then begin
              let v = imeet st.ai (Inot keys) in
              if v <> Ibot then propagate (pc + 1 + default) (with_ai st v)
            end)
          disjuncts
    | Pfm.Sswitch { tbl; default } ->
        let keys = Hashtbl.fold (fun k _ a -> SSet.add k a) tbl SSet.empty in
        List.iter
          (fun st ->
            Hashtbl.iter
              (fun k d ->
                if d >= 0 then
                  let v = smeet st.asv (Sset (SSet.singleton k)) in
                  if v <> Sbot then propagate (pc + 1 + d) (with_asv st v))
              tbl;
            if default >= 0 then begin
              let v = smeet st.asv (Snot keys) in
              if v <> Sbot then propagate (pc + 1 + default) (with_asv st v)
            end)
          disjuncts
    | Pfm.Ret _ -> ()
  done;
  {
    program = p;
    reachable;
    allow_reachable = !allow;
    deny_reachable = !deny;
    reject_reachable = !reject;
    const_branches = List.rev !const_branches;
  }
