(* Symbolic product-execution equivalence prover for PFM programs.

   A product node is a pair of program counters (one per program); the
   state attached to a node is a constraint store over the *shared*
   context fields plus the accumulator-aliasing registers of both
   programs.  Verified programs only jump forward, so pc1 + pc2 is a
   strictly increasing measure and the worklist can be drained in
   ascending (sum, pc1, pc2) order: every predecessor of a node is
   fully processed before the node is popped, which lets us keep a
   bounded disjunct list per node and join only when the bound
   overflows.

   The store extends Pfm_absint's iv/sv base values with exact literal
   lists: excluded ranges, forced / forbidden masked-bit facts, and
   required / forbidden string prefixes.  Masked facts are *never*
   converted to ranges: context ints can be min_int (packet contexts
   encode absent ports that way), and e.g. min_int land m = 0
   satisfies Masked_eq {mask = m; value = 0} while sitting far outside
   [0; lnot m] — a range encoding would let the prover claim Equal
   wrongly.  All membership checks against the literal lists are
   exact, so emptiness detection errs only toward keeping a state. *)

module Pfm = Protego_filter.Pfm
module A = Pfm_absint

type counterexample = {
  cx_ctx : Pfm.ctx;
  cx_left : Pfm.verdict;
  cx_right : Pfm.verdict;
}

type result = Equal | Not_equal of counterexample | Unknown of string

let verdict_name = function
  | Pfm.Allow -> "allow"
  | Pfm.Deny -> "deny"
  | Pfm.Reject -> "reject"

(* ------------------------------------------------------------------ *)
(* Per-field constraints                                              *)
(* ------------------------------------------------------------------ *)

type icon = {
  ib : A.iv;
  nranges : (int * int) list;   (* x not in [lo; hi] *)
  mmask : int;                  (* x land mmask = mval; mmask = 0: none *)
  mval : int;
  mneg : (int * int) list;      (* x land m <> v *)
}

type scon = {
  sb : A.sv;
  pre : string;                 (* required prefix; "" = unconstrained *)
  npre : string list;           (* forbidden prefixes *)
}

let icon_top =
  { ib = A.Irange (min_int, max_int); nranges = []; mmask = 0; mval = 0;
    mneg = [] }

let scon_top = { sb = A.Snot A.SSet.empty; pre = ""; npre = [] }

let iv_mem v = function
  | A.Ibot -> false
  | A.Iset s -> A.ISet.mem v s
  | A.Irange (lo, hi) -> v >= lo && v <= hi
  | A.Inot s -> not (A.ISet.mem v s)

let sv_mem s = function
  | A.Sbot -> false
  | A.Sset ss -> A.SSet.mem s ss
  | A.Snot ss -> not (A.SSet.mem s ss)

(* Exact check of the literal lists alone (everything but [ib]). *)
let icon_lits_mem c v =
  List.for_all (fun (lo, hi) -> v < lo || v > hi) c.nranges
  && v land c.mmask = c.mval
  && List.for_all (fun (m, x) -> v land m <> x) c.mneg

let icon_mem c v = iv_mem v c.ib && icon_lits_mem c v

let scon_mem c s =
  sv_mem s c.sb
  && String.starts_with ~prefix:c.pre s
  && List.for_all (fun p -> not (String.starts_with ~prefix:p s)) c.npre

(* Emptiness-aware normalization.  None = definitely no concrete value
   satisfies the constraint.  Small ranges collapse to exact sets. *)
let norm_icon c =
  let mneg_forced () =
    List.exists (fun (m, v) -> m land c.mmask = m && c.mval land m = v)
      c.mneg
  in
  match c.ib with
  | A.Ibot -> None
  | A.Iset s ->
      let s' = A.ISet.filter (icon_lits_mem c) s in
      if A.ISet.is_empty s' then None else Some { c with ib = A.Iset s' }
  | A.Irange (lo, hi) when lo > hi -> None
  | A.Irange (lo, hi) when hi - lo >= 0 && hi - lo <= 48 ->
      let s = ref A.ISet.empty in
      for k = 0 to hi - lo do
        let v = lo + k in
        if icon_lits_mem c v then s := A.ISet.add v !s
      done;
      if A.ISet.is_empty !s then None else Some { c with ib = A.Iset !s }
  | A.Irange (lo, hi) ->
      if List.exists (fun (a, b) -> a <= lo && hi <= b) c.nranges then None
      else if mneg_forced () then None
      else begin
        (* shave unsatisfiable endpoints, bounded *)
        let lo' =
          let x = ref lo and b = ref 64 in
          while !b > 0 && !x < hi && not (icon_lits_mem c !x) do
            incr x; decr b
          done;
          !x
        in
        let hi' =
          let x = ref hi and b = ref 64 in
          while !b > 0 && !x > lo' && not (icon_lits_mem c !x) do
            decr x; decr b
          done;
          !x
        in
        if lo' = hi' then
          if icon_lits_mem c lo' then
            Some { c with ib = A.Iset (A.ISet.singleton lo') }
          else None
        else Some { c with ib = A.Irange (lo', hi') }
      end
  | A.Inot _ -> if mneg_forced () then None else Some c

let norm_scon c =
  (* every value has prefix c.pre; a forbidden prefix of c.pre (or "")
     therefore empties the constraint *)
  if List.exists (fun p -> String.starts_with ~prefix:p c.pre) c.npre then None
  else
    match c.sb with
    | A.Sbot -> None
    | A.Sset ss ->
        let ss' = A.SSet.filter (scon_mem { c with sb = A.Snot A.SSet.empty }) ss in
        if A.SSet.is_empty ss' then None else Some { c with sb = A.Sset ss' }
    | A.Snot _ -> Some c

let add_mpos c m v =
  let v = v land m in
  let common = c.mmask land m in
  if c.mval land common <> v land common then None
  else norm_icon { c with mmask = c.mmask lor m; mval = c.mval lor v }

let icon_meet a b =
  let c =
    { ib = A.imeet a.ib b.ib;
      nranges = List.sort_uniq compare (a.nranges @ b.nranges);
      mmask = a.mmask; mval = a.mval;
      mneg = List.sort_uniq compare (a.mneg @ b.mneg) }
  in
  match norm_icon c with
  | None -> None
  | Some c -> if b.mmask = 0 then Some c else add_mpos c b.mmask b.mval

let icon_singleton c =
  match c.ib with
  | A.Iset s when A.ISet.cardinal s = 1 -> Some (A.ISet.choose s)
  | A.Irange (lo, hi) when lo = hi -> Some lo
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Product state                                                      *)
(* ------------------------------------------------------------------ *)

type pstate = {
  fi : icon array;
  fs : scon array;
  a1i : int; a1s : int;   (* field aliased by each accumulator; -1 unknown *)
  a2i : int; a2s : int;
  eq_pos : (int * int) list;   (* ints.(a) = ints.(b), a < b *)
  eq_neg : (int * int) list;
}

let set_fi st f c =
  let fi = Array.copy st.fi in
  fi.(f) <- c;
  { st with fi }

let set_fs st f c =
  let fs = Array.copy st.fs in
  fs.(f) <- c;
  { st with fs }

(* Re-meet equal fields a few rounds; detect eq_neg contradictions. *)
let propagate_eqs st =
  let rec go st n =
    if n = 0 then Some st
    else begin
      let bot = ref false in
      let fi = Array.copy st.fi in
      List.iter
        (fun (a, b) ->
          if not !bot then
            match icon_meet fi.(a) fi.(b) with
            | None -> bot := true
            | Some m -> fi.(a) <- m; fi.(b) <- m)
        st.eq_pos;
      if !bot then None
      else
        let st = { st with fi } in
        let neg_hit =
          List.exists
            (fun (a, b) ->
              match icon_singleton st.fi.(a), icon_singleton st.fi.(b) with
              | Some x, Some y -> x = y
              | _ -> false)
            st.eq_neg
        in
        if neg_hit then None else go st (n - 1)
    end
  in
  go st (if st.eq_pos = [] then 1 else 3)

let finish_int st f c_opt =
  match c_opt with
  | None -> None
  | Some c ->
      let st = set_fi st f c in
      if st.eq_pos = [] && st.eq_neg = [] then Some st else propagate_eqs st

let refine_int_cond st f cond pol =
  let c = st.fi.(f) in
  let meet_iv iv = norm_icon { c with ib = A.imeet c.ib iv } in
  (* Negative facts must ALSO land in [nranges]: [A.imeet] of a range
     with [Inot] can only shave endpoints, so an interior hole (port <>
     40000 inside [min;max]) silently evaporates from [ib] alone, and
     the prover would later accept port = 40000 again. *)
  let exclude lo hi iv =
    finish_int st f
      (norm_icon
         { c with
           ib = A.imeet c.ib iv;
           nranges = List.sort_uniq compare ((lo, hi) :: c.nranges) })
  in
  match cond, pol with
  | Pfm.Eq n, true -> finish_int st f (meet_iv (A.Iset (A.ISet.singleton n)))
  | Pfm.Eq n, false -> exclude n n (A.Inot (A.ISet.singleton n))
  | Pfm.Ge n, true -> finish_int st f (meet_iv (A.Irange (n, max_int)))
  | Pfm.Ge n, false ->
      if n = min_int then None
      else finish_int st f (meet_iv (A.Irange (min_int, n - 1)))
  | Pfm.Le n, true -> finish_int st f (meet_iv (A.Irange (min_int, n)))
  | Pfm.Le n, false ->
      if n = max_int then None
      else finish_int st f (meet_iv (A.Irange (n + 1, max_int)))
  | Pfm.In_range (lo, hi), true ->
      if lo > hi then None else finish_int st f (meet_iv (A.Irange (lo, hi)))
  | Pfm.In_range (lo, hi), false ->
      if lo > hi then Some st
      else if hi - lo >= 0 && hi - lo <= 48 then begin
        let s = ref A.ISet.empty in
        for k = 0 to hi - lo do s := A.ISet.add (lo + k) !s done;
        exclude lo hi (A.Inot !s)
      end
      else
        finish_int st f
          (norm_icon
             { c with nranges = List.sort_uniq compare ((lo, hi) :: c.nranges) })
  | Pfm.All_bits m, true ->
      if m = 0 then Some st else finish_int st f (add_mpos c m m)
  | Pfm.All_bits m, false ->
      if m = 0 then None
      else
        finish_int st f
          (norm_icon { c with mneg = List.sort_uniq compare ((m, m) :: c.mneg) })
  | Pfm.Masked_eq { mask; value }, true ->
      if mask = 0 then (if value = 0 then Some st else None)
      else if value land lnot mask <> 0 then None
      else finish_int st f (add_mpos c mask value)
  | Pfm.Masked_eq { mask; value }, false ->
      if mask = 0 then (if value = 0 then None else Some st)
      else if value land lnot mask <> 0 then Some st
      else
        finish_int st f
          (norm_icon
             { c with mneg = List.sort_uniq compare ((mask, value) :: c.mneg) })
  | (Pfm.Eq_field _ | Pfm.Str_eq _ | Pfm.Str_prefix _), _ -> assert false

let refine_eq_field st fa fb pol =
  if fa = fb then (if pol then Some st else None)
  else
    let key = if fa < fb then (fa, fb) else (fb, fa) in
    if pol then
      if List.mem key st.eq_neg then None
      else
        match icon_meet st.fi.(fa) st.fi.(fb) with
        | None -> None
        | Some m ->
            let fi = Array.copy st.fi in
            fi.(fa) <- m;
            fi.(fb) <- m;
            let eq_pos =
              if List.mem key st.eq_pos then st.eq_pos else key :: st.eq_pos
            in
            propagate_eqs { st with fi; eq_pos }
    else if List.mem key st.eq_pos then None
    else
      let st' =
        { st with
          eq_neg =
            (if List.mem key st.eq_neg then st.eq_neg else key :: st.eq_neg) }
      in
      (match icon_singleton st'.fi.(fa), icon_singleton st'.fi.(fb) with
       | Some x, Some y when x = y -> None
       | _ -> Some st')

let refine_str_cond st f cond pol =
  let c = st.fs.(f) in
  let fin c_opt =
    match c_opt with None -> None | Some c' -> Some (set_fs st f c')
  in
  match cond, pol with
  | Pfm.Str_eq s, true ->
      fin (norm_scon { c with sb = A.smeet c.sb (A.Sset (A.SSet.singleton s)) })
  | Pfm.Str_eq s, false ->
      fin (norm_scon { c with sb = A.smeet c.sb (A.Snot (A.SSet.singleton s)) })
  | Pfm.Str_prefix p, true ->
      if String.starts_with ~prefix:c.pre p then fin (norm_scon { c with pre = p })
      else if String.starts_with ~prefix:p c.pre then fin (norm_scon c)
      else None
  | Pfm.Str_prefix p, false ->
      if p = "" then None
      else
        fin
          (norm_scon
             { c with npre = (if List.mem p c.npre then c.npre else p :: c.npre) })
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Join (used only when a node's disjunct list overflows)             *)
(* ------------------------------------------------------------------ *)

let icon_join a b =
  let inter l1 l2 = List.filter (fun x -> List.mem x l2) l1 in
  let mmask = a.mmask land b.mmask land lnot (a.mval lxor b.mval) in
  { ib = A.ijoin a.ib b.ib;
    nranges = inter a.nranges b.nranges;
    mmask;
    mval = a.mval land mmask;
    mneg = inter a.mneg b.mneg }

let scon_join a b =
  let lcp x y =
    let n = min (String.length x) (String.length y) in
    let i = ref 0 in
    while !i < n && x.[!i] = y.[!i] do incr i done;
    String.sub x 0 !i
  in
  { sb = A.sjoin a.sb b.sb;
    pre = lcp a.pre b.pre;
    npre = List.filter (fun p -> List.mem p b.npre) a.npre }

let pstate_join a b =
  { fi = Array.init (Array.length a.fi) (fun i -> icon_join a.fi.(i) b.fi.(i));
    fs = Array.init (Array.length a.fs) (fun i -> scon_join a.fs.(i) b.fs.(i));
    a1i = (if a.a1i = b.a1i then a.a1i else -1);
    a1s = (if a.a1s = b.a1s then a.a1s else -1);
    a2i = (if a.a2i = b.a2i then a.a2i else -1);
    a2s = (if a.a2s = b.a2s then a.a2s else -1);
    eq_pos = List.filter (fun k -> List.mem k b.eq_pos) a.eq_pos;
    eq_neg = List.filter (fun k -> List.mem k b.eq_neg) a.eq_neg }

(* ------------------------------------------------------------------ *)
(* Witness materialization                                            *)
(* ------------------------------------------------------------------ *)

let int_candidates c =
  let push acc v = if icon_mem c v && not (List.mem v acc) then v :: acc else acc in
  let acc = List.fold_left push [] [ 0; 1; min_int; max_int; c.mval ] in
  let acc =
    match c.ib with
    | A.Ibot -> []
    | A.Iset s -> A.ISet.fold (fun v acc -> push acc v) s acc
    | A.Irange (lo, hi) ->
        let acc = push (push acc lo) hi in
        let acc =
          List.fold_left
            (fun acc (a, b) ->
              let acc = if a > min_int then push acc (a - 1) else acc in
              if b < max_int then push acc (b + 1) else acc)
            acc c.nranges
        in
        let acc = push acc (c.mval lor (lo land lnot c.mmask)) in
        let rec probe acc k =
          if k > 48 || (hi - lo >= 0 && k > hi - lo) then acc
          else probe (push acc (lo + k)) (k + 1)
        in
        if hi - lo >= 0 && hi - lo <= 48 then probe acc 0 else probe acc 1
    | A.Inot _ ->
        let rec probe acc k = if k > 64 then acc else probe (push acc k) (k + 1) in
        let acc = probe acc 2 in
        List.fold_left
          (fun acc (m, _) ->
            let free = m land lnot c.mmask in
            if free = 0 then acc else push acc (c.mval lor (free land -free)))
          acc c.mneg
  in
  List.rev acc

let str_candidates c =
  let ok s = scon_mem c s in
  let uniq l =
    List.rev
      (List.fold_left
         (fun acc s -> if ok s && not (List.mem s acc) then s :: acc else acc)
         [] l)
  in
  match c.sb with
  | A.Sbot -> []
  | A.Sset ss -> uniq (A.SSet.elements ss)
  | A.Snot ss ->
      let base =
        [ c.pre; c.pre ^ "a"; c.pre ^ "b"; c.pre ^ "c"; c.pre ^ "0";
          c.pre ^ "zz"; c.pre ^ "/x" ]
      in
      let dodged = A.SSet.fold (fun s acc -> (s ^ "~") :: acc) ss [] in
      uniq (base @ dodged)

(* Build candidate contexts for one abstractly-divergent state: a
   primary greedy pick plus single-field alternates.  Every returned
   context satisfies the exact per-field constraints; the caller still
   replays it through Pfm.eval before believing anything. *)
let materialize ni ns st =
  let icands = Array.init ni (fun f -> int_candidates st.fi.(f)) in
  let scands = Array.init ns (fun f -> str_candidates st.fs.(f)) in
  if Array.exists (fun l -> l = []) icands || Array.exists (fun l -> l = []) scands
  then []
  else begin
    let ints = Array.map List.hd icands in
    let strs = Array.map List.hd scands in
    let ok = ref true in
    List.iter
      (fun (a, b) ->
        if !ok && ints.(a) <> ints.(b) then
          match List.find_opt (fun v -> List.mem v icands.(b)) icands.(a) with
          | Some v -> ints.(a) <- v; ints.(b) <- v
          | None -> ok := false)
      st.eq_pos;
    List.iter
      (fun (a, b) ->
        if !ok && ints.(a) = ints.(b) then
          match List.find_opt (fun v -> v <> ints.(a)) icands.(b) with
          | Some v -> ints.(b) <- v
          | None -> (
              match List.find_opt (fun v -> v <> ints.(b)) icands.(a) with
              | Some v -> ints.(a) <- v
              | None -> ok := false))
      st.eq_neg;
    if not !ok then []
    else begin
      let primary = { Pfm.ints; strs } in
      let out = ref [ primary ] in
      Array.iteri
        (fun f cands ->
          List.iteri
            (fun i v ->
              if i >= 1 && i <= 3 && v <> ints.(f) then begin
                let ints' = Array.copy ints in
                ints'.(f) <- v;
                out := { Pfm.ints = ints'; strs } :: !out
              end)
            cands)
        icands;
      Array.iteri
        (fun f cands ->
          List.iteri
            (fun i s ->
              if i >= 1 && i <= 2 && s <> strs.(f) then begin
                let strs' = Array.copy strs in
                strs'.(f) <- s;
                out := { Pfm.ints; strs = strs' } :: !out
              end)
            cands)
        scands;
      List.rev !out
    end
  end

(* ------------------------------------------------------------------ *)
(* The product engine                                                 *)
(* ------------------------------------------------------------------ *)

type side = Left | Right

(* --- identical-suffix cut ------------------------------------------- *)

(* Per-pc accumulator live-in: does some path from [pc] read the int
   (resp. string) accumulator before reloading it?  Programs are
   forward-only, so one backward sweep suffices. *)
let acc_live (prog : Pfm.program) =
  let n = Array.length prog.Pfm.insns in
  let li = Array.make n false and ls = Array.make n false in
  for pc = n - 1 downto 0 do
    let insn = prog.Pfm.insns.(pc) in
    (* live here: read here, or read by a successor and not overwritten *)
    let next live =
      Pfm.fold_offsets (fun acc d -> acc || live.(pc + 1 + d)) false insn
    in
    let ui, us =
      match insn with
      | Pfm.Jif (c, _, _) -> (Pfm.cond_is_int c, not (Pfm.cond_is_int c))
      | Pfm.Iswitch _ -> (true, false)
      | Pfm.Sswitch _ -> (false, true)
      | Pfm.Ld_int _ | Pfm.Ld_str _ | Pfm.Jmp _ | Pfm.Ret _ -> (false, false)
    in
    li.(pc) <-
      ui || ((match insn with Pfm.Ld_int _ -> false | _ -> true) && next li);
    ls.(pc) <-
      us || ((match insn with Pfm.Ld_str _ -> false | _ -> true) && next ls)
  done;
  (li, ls)

module Q = Set.Make (struct
  type t = int * int * int (* pc1 + pc2, pc1, pc2 *)
  let compare = compare
end)

let prove ?(max_disjuncts = 4096) ?(max_nodes = 500_000) p q =
  if p == q then Equal
  else
    match Pfm.verify p, Pfm.verify q with
    | Error e, _ ->
        Unknown ("left program fails verify: " ^ Pfm.verify_error_to_string e)
    | _, Error e ->
        Unknown ("right program fails verify: " ^ Pfm.verify_error_to_string e)
    | Ok (), Ok () ->
        let ni = max p.Pfm.n_int_fields q.Pfm.n_int_fields in
        let ns = max p.Pfm.n_str_fields q.Pfm.n_str_fields in
        let top =
          { fi = Array.make ni icon_top; fs = Array.make ns scon_top;
            a1i = -1; a1s = -1; a2i = -1; a2s = -1; eq_pos = []; eq_neg = [] }
        in
        let len1 = Array.length p.Pfm.insns
        and len2 = Array.length q.Pfm.insns in
        (* Identical-suffix cut: when the remaining code of both sides
           is instruction-for-instruction the same (two compiles of one
           policy often end in the same code), any input reaching this
           product state takes the same decisions on both sides — the
           pair has converged.  Without the cut, a rewritten region
           followed by a long shared tail makes the product walk every
           (left path x right path) combination of that tail, the
           disjunct bound overflows, and the join manufactures
           unprovable false divergences. *)
        let live2i, live2s = acc_live q in
        let suffix_memo : (int * int, bool) Hashtbl.t = Hashtbl.create 251 in
        let rec suffix_eq pc1 pc2 =
          len1 - pc1 = len2 - pc2
          &&
          match Hashtbl.find_opt suffix_memo (pc1, pc2) with
          | Some r -> r
          | None ->
              (* break the cycle pessimistically; forward-only programs
                 cannot actually revisit (pc1, pc2) *)
              Hashtbl.add suffix_memo (pc1, pc2) false;
              (* Offsets are relative and forward-only, so equal
                 instruction suffixes denote the same computation; a
                 switch table is a function of its bindings, so
                 instructions compare structurally. *)
              let r =
                p.Pfm.insns.(pc1) = q.Pfm.insns.(pc2)
                && (pc1 + 1 >= len1 || suffix_eq (pc1 + 1) (pc2 + 1))
              in
              Hashtbl.replace suffix_memo (pc1, pc2) r;
              r
        in
        let converged_cut pc1 pc2 st =
          suffix_eq pc1 pc2
          && ((not live2i.(pc2)) || (st.a1i >= 0 && st.a1i = st.a2i))
          && ((not live2s.(pc2)) || (st.a1s >= 0 && st.a1s = st.a2s))
        in
        let pending : (int * int, pstate list ref) Hashtbl.t =
          Hashtbl.create 251
        in
        let queue = ref Q.empty in
        let divergent = ref [] in
        let processed = ref 0 in
        let budget_hit = ref false in
        let push (pc1, pc2) st =
          let cell =
            match Hashtbl.find_opt pending (pc1, pc2) with
            | Some r -> r
            | None ->
                let r = ref [] in
                Hashtbl.add pending (pc1, pc2) r;
                queue := Q.add (pc1 + pc2, pc1, pc2) !queue;
                r
          in
          if List.length !cell >= max_disjuncts then begin
            match !cell with
            | last :: rest -> cell := pstate_join last st :: rest
            | [] -> cell := [ st ]
          end
          else cell := st :: !cell
        in
        let refine_cond st ~ai ~asf cond pol =
          match cond with
          | Pfm.Eq _ | Pfm.Ge _ | Pfm.Le _ | Pfm.In_range _ | Pfm.All_bits _
          | Pfm.Masked_eq _ ->
              if ai < 0 then Some st else refine_int_cond st ai cond pol
          | Pfm.Eq_field f -> if ai < 0 then Some st else refine_eq_field st ai f pol
          | Pfm.Str_eq _ | Pfm.Str_prefix _ ->
              if asf < 0 then Some st else refine_str_cond st asf cond pol
        in
        let step_side side prog pc other_pc st =
          let ai, asf =
            match side with
            | Left -> st.a1i, st.a1s
            | Right -> st.a2i, st.a2s
          in
          let with_ai st f =
            match side with
            | Left -> { st with a1i = f }
            | Right -> { st with a2i = f }
          in
          let with_as st f =
            match side with
            | Left -> { st with a1s = f }
            | Right -> { st with a2s = f }
          in
          let mk pc' st =
            match side with
            | Left -> ((pc', other_pc), st)
            | Right -> ((other_pc, pc'), st)
          in
          (* the cases a switch's key can take, each edge refined *)
          let switch_cases cond tbl =
            Pfm.table_fold
              (fun k d acc ->
                match refine_cond st ~ai ~asf (cond k) true with
                | None -> acc
                | Some st' -> mk (pc + 1 + d) st' :: acc)
              tbl []
          in
          match prog.Pfm.insns.(pc) with
          | Pfm.Ld_int f -> [ mk (pc + 1) (with_ai st f) ]
          | Pfm.Ld_str f -> [ mk (pc + 1) (with_as st f) ]
          | Pfm.Jmp d -> [ mk (pc + 1 + d) st ]
          | Pfm.Ret _ -> assert false
          | Pfm.Jif (cond, jt, jf) ->
              let branch pol tgt acc =
                match refine_cond st ~ai ~asf cond pol with
                | None -> acc
                | Some st' -> mk (pc + 1 + tgt) st' :: acc
              in
              branch true jt (branch false jf [])
          | Pfm.Iswitch { tbl; default } ->
              let keys =
                Pfm.table_fold (fun k _ acc -> A.ISet.add k acc) tbl A.ISet.empty
              in
              let cases = switch_cases (fun k -> Pfm.Eq k) tbl in
              let def =
                if ai < 0 then Some (mk (pc + 1 + default) st)
                else
                  let c = st.fi.(ai) in
                  (* keys go into nranges too — see refine_int_cond on
                     why [imeet _ (Inot _)] alone loses interior holes *)
                  let nranges =
                    A.ISet.fold (fun k acc -> (k, k) :: acc) keys c.nranges
                    |> List.sort_uniq compare
                  in
                  match
                    finish_int st ai
                      (norm_icon
                         { c with ib = A.imeet c.ib (A.Inot keys); nranges })
                  with
                  | None -> None
                  | Some st' -> Some (mk (pc + 1 + default) st')
              in
              (match def with None -> cases | Some d -> d :: cases)
          | Pfm.Sswitch { tbl; default } ->
              let keys =
                Pfm.table_fold (fun k _ acc -> A.SSet.add k acc) tbl A.SSet.empty
              in
              let cases = switch_cases (fun k -> Pfm.Str_eq k) tbl in
              let def =
                if asf < 0 then Some (mk (pc + 1 + default) st)
                else
                  let c = st.fs.(asf) in
                  match norm_scon { c with sb = A.smeet c.sb (A.Snot keys) } with
                  | None -> None
                  | Some c' -> Some (mk (pc + 1 + default) (set_fs st asf c'))
              in
              (match def with None -> cases | Some d -> d :: cases)
        in
        let nonbranching = function
          | Pfm.Ld_int _ | Pfm.Ld_str _ | Pfm.Jmp _ -> true
          | _ -> false
        in
        let is_switch = function
          | Pfm.Iswitch _ | Pfm.Sswitch _ -> true
          | _ -> false
        in
        push (0, 0) top;
        while (not (Q.is_empty !queue)) && not !budget_hit do
          let (_, pc1, pc2) as key = Q.min_elt !queue in
          queue := Q.remove key !queue;
          let states =
            match Hashtbl.find_opt pending (pc1, pc2) with
            | None -> []
            | Some r ->
                Hashtbl.remove pending (pc1, pc2);
                !r
          in
          List.iter
            (fun st ->
              if !processed >= max_nodes then budget_hit := true
              else if converged_cut pc1 pc2 st then ()
              else begin
                incr processed;
                let i1 = p.Pfm.insns.(pc1) and i2 = q.Pfm.insns.(pc2) in
                match i1, i2 with
                | Pfm.Ret v1, Pfm.Ret v2 ->
                    if v1 <> v2 then divergent := (v1, v2, st) :: !divergent
                | Pfm.Ret _, _ ->
                    List.iter (fun (k, s) -> push k s)
                      (step_side Right q pc2 pc1 st)
                | _, Pfm.Ret _ ->
                    List.iter (fun (k, s) -> push k s)
                      (step_side Left p pc1 pc2 st)
                | _ ->
                    (* Keep the two walks in rough lockstep: racing one
                       program to its leaves while the other waits at
                       its first branch piles up disjuncts whose join
                       forgets facts the waiting program still needs.
                       Switches go first — their case refinements are
                       singletons, and the other side then constant-
                       folds under each branch.  The tie-break steps
                       the side with MORE instructions remaining: that
                       drives every pair toward equal-remaining-length
                       alignment, which is exactly where the identical-
                       suffix cut can fire.  (Proportional-position
                       lockstep instead parks one side mid-region while
                       the other fans out through the shared tail, and
                       the disjunct joins destroy the facts that made
                       those path products infeasible.) *)
                    let step_left =
                      if nonbranching i1 then true
                      else if nonbranching i2 then false
                      else if is_switch i1 then true
                      else if is_switch i2 then false
                      else len1 - pc1 >= len2 - pc2
                    in
                    if step_left then
                      List.iter (fun (k, s) -> push k s)
                        (step_side Left p pc1 pc2 st)
                    else
                      List.iter (fun (k, s) -> push k s)
                        (step_side Right q pc2 pc1 st)
              end)
            states
        done;
        if !budget_hit then
          Unknown (Printf.sprintf "budget exhausted after %d states" !processed)
        else begin
          match List.rev !divergent with
          | [] -> Equal
          | divs ->
              (* fresh counters: proving never perturbs the live profile *)
              let pq = Pfm.clone p and qq = Pfm.clone q in
              let replays = ref 0 in
              let rec try_divs = function
                | [] ->
                    Unknown
                      (Printf.sprintf
                         "%d abstractly-divergent paths, none concretized"
                         (List.length divs))
                | (_, _, st) :: rest ->
                    let rec try_ctxs = function
                      | [] -> try_divs rest
                      | ctx :: more ->
                          if !replays > 4096 then
                            Unknown
                              (Printf.sprintf
                                 "replay budget exhausted over %d divergent \
                                  paths"
                                 (List.length divs))
                          else begin
                            incr replays;
                            let v1 = Pfm.eval pq ctx
                            and v2 = Pfm.eval qq ctx in
                            if v1 <> v2 then
                              Not_equal
                                { cx_ctx = ctx; cx_left = v1; cx_right = v2 }
                            else try_ctxs more
                          end
                    in
                    try_ctxs (materialize ni ns st)
              in
              try_divs divs
        end

let result_to_string = function
  | Equal -> "equal"
  | Not_equal cx ->
      Printf.sprintf "not-equal (ints=[%s] strs=[%s] left=%s right=%s)"
        (String.concat ";"
           (Array.to_list (Array.map string_of_int cx.cx_ctx.Pfm.ints)))
        (String.concat ";"
           (Array.to_list
              (Array.map (Printf.sprintf "%S") cx.cx_ctx.Pfm.strs)))
        (verdict_name cx.cx_left) (verdict_name cx.cx_right)
  | Unknown m -> "unknown: " ^ m
