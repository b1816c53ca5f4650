(* Profile-guided recompilation.

   Every pass here works on a decoded form of the program in which
   jump targets are absolute ids: original pcs (>= 0) for surviving
   instructions, synthetic ids (< 0) for positions the passes invent.
   Re-encoding binds one assembler label per referenced id, so a pass
   only has to say *which* original instruction a jump should reach,
   never at what offset it will land.

   The structural unit is the cascade "element":

       h:   Ld_int f
       h+1: Jif (selector, jt, jf)        jf -> next element head
       ...  interior (the rule body jt enters)

   A run of same-field elements chained through their jf edges is a
   compiled first-match cascade.  A pass may rewrite a run only when
   the run is *closed*: element interiors and every head but the first
   are entered from inside the run alone.  Closure makes "continue
   scanning" edges meaningful: inside element j the selector has
   matched, so under pairwise-disjoint selectors no later element can
   match and the edge may be collapsed to the cascade's fall-out.

   Nothing here is trusted: the caller must gate every rewritten
   program on Pfm.verify and Pfm_equiv.prove before installing it
   (Pfm_dispatch does), so the passes only need to be right about
   profitability, not soundness. *)

type report = {
  applied : (string * string) list;
  before_insns : int;
  after_insns : int;
}

let report_to_string r =
  Printf.sprintf "%d -> %d insns; %s" r.before_insns r.after_insns
    (String.concat ", "
       (List.map (fun (p, d) -> p ^ " (" ^ d ^ ")") r.applied))

(* ------------------------------------------------------------------ *)
(* Decoded instructions with absolute targets                         *)
(* ------------------------------------------------------------------ *)

type xi =
  | Xld_int of int
  | Xld_str of int
  | Xjmp of int
  | Xjif of Pfm.cond * int * int
  | Xiswitch of (int * int) list * int
  | Xsswitch of (string * int) list * int
  | Xret of Pfm.verdict

let decode insns pc =
  let cases tbl =
    Pfm.table_fold (fun k d acc -> (k, pc + 1 + d) :: acc) tbl []
  in
  match insns.(pc) with
  | Pfm.Ld_int f -> Xld_int f
  | Pfm.Ld_str f -> Xld_str f
  | Pfm.Jmp d -> Xjmp (pc + 1 + d)
  | Pfm.Jif (c, jt, jf) -> Xjif (c, pc + 1 + jt, pc + 1 + jf)
  | Pfm.Iswitch { tbl; default } -> Xiswitch (cases tbl, pc + 1 + default)
  | Pfm.Sswitch { tbl; default } -> Xsswitch (cases tbl, pc + 1 + default)
  | Pfm.Ret v -> Xret v

let xmap f = function
  | Xjmp t -> Xjmp (f t)
  | Xjif (c, a, b) -> Xjif (c, f a, f b)
  | Xiswitch (cs, d) -> Xiswitch (List.map (fun (k, t) -> (k, f t)) cs, f d)
  | Xsswitch (cs, d) -> Xsswitch (List.map (fun (k, t) -> (k, f t)) cs, f d)
  | (Xld_int _ | Xld_str _ | Xret _) as x -> x

(* Items: (ids bound at this position, instruction). *)
let encode ~name ~n_int_fields ~n_str_fields items =
  let a = Pfm.Asm.create () in
  let labels : (int, Pfm.Asm.label) Hashtbl.t = Hashtbl.create 64 in
  let lab id =
    match Hashtbl.find_opt labels id with
    | Some l -> l
    | None ->
        let l = Pfm.Asm.fresh_label a in
        Hashtbl.add labels id l;
        l
  in
  let cases cs = List.map (fun (k, t) -> (k, lab t)) cs in
  List.iter
    (fun (ids, xi) ->
      List.iter (fun id -> Pfm.Asm.place a (lab id)) ids;
      match xi with
      | Xld_int f -> Pfm.Asm.ld_int a f
      | Xld_str f -> Pfm.Asm.ld_str a f
      | Xjmp t -> Pfm.Asm.jmp a (lab t)
      | Xjif (c, t, f_) -> Pfm.Asm.jif a c ~jt:(lab t) ~jf:(lab f_)
      | Xiswitch (cs, d) -> Pfm.Asm.iswitch a (cases cs) ~default:(lab d)
      | Xsswitch (cs, d) -> Pfm.Asm.sswitch a (cases cs) ~default:(lab d)
      | Xret v -> Pfm.Asm.ret a v)
    items;
  Pfm.Asm.assemble a ~name ~n_int_fields ~n_str_fields

(* ------------------------------------------------------------------ *)
(* CFG helpers                                                        *)
(* ------------------------------------------------------------------ *)

let compute_preds insns =
  let n = Array.length insns in
  let p = Array.make n [] in
  for pc = 0 to n - 1 do
    Pfm.fold_offsets
      (fun () d ->
        let s = pc + 1 + d in
        if s >= 0 && s < n then p.(s) <- pc :: p.(s))
      () insns.(pc)
  done;
  p

(* ------------------------------------------------------------------ *)
(* Cascade runs                                                       *)
(* ------------------------------------------------------------------ *)

type elt = {
  e_head : int;
  e_field : int;
  e_cond : Pfm.cond;
  e_jt : int;   (* absolute *)
  e_next : int; (* absolute jf target: next head, or the run's fall-out *)
}

let element_at insns pc =
  if pc + 1 >= Array.length insns then None
  else
    match insns.(pc), insns.(pc + 1) with
    | Pfm.Ld_int f, Pfm.Jif (cond, jt, jf) -> (
        match cond with
        | Pfm.Eq _ | Pfm.In_range _ | Pfm.Masked_eq _ ->
            let e_jt = pc + 2 + jt and e_next = pc + 2 + jf in
            if e_next > pc + 1 then
              Some { e_head = pc; e_field = f; e_cond = cond; e_jt; e_next }
            else None
        | _ -> None)
    | _ -> None

let collect_run insns pc0 =
  let rec go pc acc field =
    match element_at insns pc with
    | Some e when (match field with None -> true | Some f -> f = e.e_field) ->
        go e.e_next (e :: acc) (Some e.e_field)
    | _ -> (List.rev acc, pc)
  in
  go pc0 [] None

(* Interiors and every head but the first reachable from inside the
   run region only. *)
let run_closed preds elts fallout =
  let first = (List.hd elts).e_head in
  let in_region pc = pc >= first && pc < fallout in
  List.for_all
    (fun e ->
      let interior_ok = ref true in
      for pc = e.e_head + 1 to e.e_next - 1 do
        if
          not
            (List.for_all
               (fun pr -> pr >= e.e_head && pr < e.e_next)
               preds.(pc))
        then interior_ok := false
      done;
      !interior_ok
      && (e.e_head = first || List.for_all in_region preds.(e.e_head)))
    elts

let eq_key = function
  | Pfm.Eq k -> Some k
  | Pfm.In_range (lo, hi) when lo = hi -> Some lo
  | _ -> None

let prefix_mask m =
  m <> 0
  && m land 0xffffffff = m
  && (let inv = lnot m land 0xffffffff in
      inv land (inv + 1) = 0)

let masked_of = function
  | Pfm.Masked_eq { mask; value } when prefix_mask mask && value land mask = value
    -> Some (mask, value)
  | _ -> None

let cond_disjoint a b =
  match a, b with
  | Pfm.Eq x, Pfm.Eq y -> x <> y
  | Pfm.Eq x, Pfm.In_range (lo, hi) | Pfm.In_range (lo, hi), Pfm.Eq x ->
      x < lo || x > hi
  | Pfm.In_range (a1, b1), Pfm.In_range (a2, b2) -> b1 < a2 || b2 < a1
  | Pfm.Masked_eq { mask = m1; value = v1 }, Pfm.Masked_eq { mask = m2; value = v2 }
    ->
      let common = m1 land m2 in
      v1 land common <> v2 land common
  | Pfm.Eq x, Pfm.Masked_eq { mask; value }
  | Pfm.Masked_eq { mask; value }, Pfm.Eq x ->
      x land mask <> value
  | _ -> false

let pairwise_disjoint conds =
  let rec go = function
    | [] -> true
    | c :: rest -> List.for_all (cond_disjoint c) rest && go rest
  in
  go conds

(* Estimated matches for an element: entries into its body when the
   body is private, else head-count differences.  Heuristic only —
   correctness never depends on it. *)
let elt_heat counters e ~next_is_head =
  if e.e_jt > e.e_head + 1 && e.e_jt < e.e_next then counters.(e.e_jt)
  else
    max 0
      (counters.(e.e_head)
      - (if next_is_head then counters.(e.e_next) else 0))

(* ------------------------------------------------------------------ *)
(* Region emitters.  Each returns items; [rw] is the global id rewrite
   (removed heads of switch-converted runs -> their fall-out).        *)
(* ------------------------------------------------------------------ *)

let with_ends elts fallout =
  let rec go = function
    | [] -> []
    | [ e ] -> [ (e, fallout) ]
    | e :: (e2 :: _ as rest) -> (e, e2.e_head) :: go rest
  in
  go elts

(* Body of one element, with targets rewritten and an explicit jump
   appended when the body could fall off its original end. *)
let interior_items insns rw e end_ =
  let items = ref [] in
  for pc = e.e_head + 2 to end_ - 1 do
    items := ([ pc ], xmap rw (decode insns pc)) :: !items
  done;
  let items = List.rev !items in
  if end_ - 1 >= e.e_head + 2 then
    match insns.(end_ - 1) with
    | Pfm.Ld_int _ | Pfm.Ld_str _ -> items @ [ ([], Xjmp (rw end_)) ]
    | _ -> items
  else items

let emit_eq_switch insns rw field elts fallout =
  let ends = with_ends elts fallout in
  let cases =
    List.map
      (fun e ->
        match eq_key e.e_cond with
        | Some k -> (k, rw e.e_jt)
        | None -> assert false)
      elts
  in
  ([ (List.hd elts).e_head ], Xld_int field)
  :: ([], Xiswitch (cases, rw fallout))
  :: List.concat_map (fun (e, end_) -> interior_items insns rw e end_) ends

(* Shared by reorder and the trie's in-group chains: emit blocks in
   the given order, re-chaining "continue scanning" through fresh ids.
   [entry_id] is additionally bound at the first block so external
   entries still scan everything.  [exhausted] is where scanning ends
   (the run fall-out, or it for a trie group since other groups cannot
   match once this group's coarse test has matched). *)
let emit_chain insns rw fresh heads field blocks ~entry_id ~exhausted =
  let syn = List.map (fun _ -> fresh ()) blocks in
  let nexts =
    match syn with [] -> [] | _ :: tl -> tl @ [ exhausted ]
  in
  List.concat
    (List.mapi
       (fun i ((e : elt), end_) ->
         let self = List.nth syn i and next = List.nth nexts i in
         let local t = if List.mem t heads && t <> e.e_head then next else t in
         let rw' t = rw (local t) in
         let bound =
           if i = 0 then
             match entry_id with Some id -> [ id; self ] | None -> [ self ]
           else [ self ]
         in
         (* The selector-failed edge must test the next block in the
            NEW order, even when this block was originally last (its
            e_next is the fall-out, which [local] would leave alone). *)
         (bound, Xld_int field)
         :: ([], Xjif (e.e_cond, rw' e.e_jt, rw next))
         :: interior_items insns rw' e end_)
       blocks)

(* ------------------------------------------------------------------ *)
(* The driver                                                         *)
(* ------------------------------------------------------------------ *)

type region = {
  r_start : int;
  r_stop : int; (* exclusive *)
  r_emit : (int -> int) -> (int list * xi) list;
}

(* The case of the switch at [pc] whose target ran most (the first in
   key order on a tie): (key, target pc, the target's count). *)
let hottest counters pc tbl =
  Pfm.table_fold
    (fun k d acc ->
      let t = pc + 1 + d in
      let c = if t < Array.length counters then counters.(t) else 0 in
      match acc with
      | Some (_, _, best) when best >= c -> acc
      | _ -> Some (k, t, c))
    tbl None

let optimize_exn (p : Pfm.program) =
  let insns = p.Pfm.insns and counters = p.Pfm.counters in
  let n = Array.length insns in
  let preds = compute_preds insns in
  let applied = ref [] in
  let regions = ref [] in
  let removed_heads : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let syn_counter = ref 0 in
  let fresh () =
    decr syn_counter;
    !syn_counter
  in
  let pc = ref 0 in
  while !pc < n do
    let advanced = ref false in
    (match collect_run insns !pc with
     | elts, fallout when List.length elts >= 2 && run_closed preds elts fallout
       -> (
         let len = List.length elts in
         let field = (List.hd elts).e_field in
         let conds = List.map (fun e -> e.e_cond) elts in
         let keys = List.map (fun e -> eq_key e.e_cond) elts in
         let all_keys = List.filter_map (fun k -> k) keys in
         let distinct_keys =
           List.length all_keys = len
           && List.length (List.sort_uniq compare all_keys) = len
         in
         let ends = with_ends elts fallout in
         let heats =
           List.map
             (fun (e, end_) -> elt_heat counters e ~next_is_head:(end_ <> fallout))
             ends
         in
         if len >= 4 && distinct_keys then begin
           (* eq-cascade -> hashed switch *)
           List.iter
             (fun e ->
               if e.e_head <> (List.hd elts).e_head then
                 Hashtbl.replace removed_heads e.e_head fallout)
             elts;
           regions :=
             { r_start = !pc; r_stop = fallout;
               r_emit =
                 (fun rw -> emit_eq_switch insns rw field elts fallout) }
             :: !regions;
           applied :=
             ("eq-switch",
              Printf.sprintf "field %d, %d keys" field len)
             :: !applied;
           pc := fallout;
           advanced := true
         end
         else begin
           let masked = List.map (fun e -> masked_of e.e_cond) elts in
           let all_masked = List.for_all (fun m -> m <> None) masked in
           let octets =
             List.filter_map
               (fun m ->
                 match m with
                 | Some (mask, value) when mask land 0xff000000 = 0xff000000 ->
                     Some (value lsr 24)
                 | _ -> None)
               masked
           in
           let heads = List.map (fun e -> e.e_head) elts in
           if
             len >= 4 && all_masked
             && List.length octets = len
             && List.length (List.sort_uniq compare octets) >= 2
             && pairwise_disjoint conds
           then begin
             (* CIDR-trie lowering: one-level radix on the top octet *)
             let blocks = List.combine ends octets in
             let groups =
               List.sort_uniq compare octets
               |> List.map (fun o ->
                      let members =
                        List.filter_map
                          (fun (be, o') -> if o' = o then Some be else None)
                          blocks
                      in
                      let heat =
                        List.fold_left
                          (fun acc (e, end_) ->
                            acc
                            + elt_heat counters e
                                ~next_is_head:(end_ <> fallout))
                          0 members
                      in
                      (o, heat, members))
             in
             let groups =
               List.stable_sort (fun (_, h1, _) (_, h2, _) -> compare h2 h1)
                 groups
             in
             let entry = (List.hd elts).e_head in
             regions :=
               { r_start = !pc; r_stop = fallout;
                 r_emit =
                   (fun rw ->
                     let tests = List.map (fun _ -> fresh ()) groups in
                     let chain_entries = List.map (fun _ -> fresh ()) groups in
                     let test_nexts =
                       match tests with
                       | [] -> []
                       | _ :: tl -> tl @ [ fallout ]
                     in
                     let test_items =
                       List.concat
                         (List.mapi
                            (fun i (o, _, _) ->
                              let bound = [ List.nth tests i ] in
                              let bound = if i = 0 then entry :: bound else bound in
                              [ (bound, Xld_int field);
                                ( [],
                                  Xjif
                                    ( Pfm.Masked_eq
                                        { mask = 0xff000000;
                                          value = o lsl 24 },
                                      List.nth chain_entries i,
                                      rw (List.nth test_nexts i) ) ) ])
                            groups)
                     in
                     let chain_items =
                       List.concat
                         (List.mapi
                            (fun i (_, _, members) ->
                              emit_chain insns rw fresh heads field members
                                ~entry_id:(Some (List.nth chain_entries i))
                                ~exhausted:fallout)
                            groups)
                     in
                     test_items @ chain_items) }
               :: !regions;
             applied :=
               ("cidr-trie",
                Printf.sprintf "field %d, %d prefixes in %d octet groups"
                  field len (List.length groups))
             :: !applied;
             pc := fallout;
             advanced := true
           end
           else if pairwise_disjoint conds then begin
             (* hot-rule reordering within a first-match-safe class *)
             let order =
               List.stable_sort
                 (fun (_, h1) (_, h2) -> compare h2 h1)
                 (List.combine ends heats)
             in
             let reordered = List.map fst order in
             let changed = reordered <> ends in
             let any_heat = List.exists (fun h -> h > 0) heats in
             if changed && any_heat then begin
               let entry = (List.hd elts).e_head in
               let heads = List.map (fun e -> e.e_head) elts in
               regions :=
                 { r_start = !pc; r_stop = fallout;
                   r_emit =
                     (fun rw ->
                       emit_chain insns rw fresh heads field reordered
                         ~entry_id:(Some entry) ~exhausted:fallout) }
                 :: !regions;
               applied :=
                 ("hot-reorder",
                  Printf.sprintf "field %d, %d rules" field len)
                 :: !applied;
               pc := fallout;
               advanced := true
             end
           end
         end)
     | _ -> ());
    if not !advanced then begin
      (* switch re-bucketing: hoist a dominant case over the table *)
      (if !pc + 1 < n then
         let e = !pc in
         let hoist =
           match insns.(e), insns.(e + 1) with
           | Pfm.Ld_int f, Pfm.Iswitch { tbl; _ } ->
               Option.map
                 (fun (k, t, c) ->
                   (Xld_int f, Pfm.Eq k, t, c,
                    Printf.sprintf "iswitch at %d, hot key %d" (e + 1) k))
                 (hottest counters (e + 1) tbl)
           | Pfm.Ld_str f, Pfm.Sswitch { tbl; _ } ->
               Option.map
                 (fun (k, t, c) ->
                   (Xld_str f, Pfm.Str_eq k, t, c,
                    Printf.sprintf "sswitch at %d, hot key %S" (e + 1) k))
                 (hottest counters (e + 1) tbl)
           | _ -> None
         in
         match hoist with
         | Some (load, cond, target, cnt, what)
           when cnt > 0 && cnt * 2 > counters.(e + 1) ->
             regions :=
               { r_start = e; r_stop = e + 2;
                 r_emit =
                   (fun rw ->
                     [ ([ e ], load);
                       ([], Xjif (cond, rw target, e + 1));
                       ([ e + 1 ], xmap rw (decode insns (e + 1))) ]) }
               :: !regions;
             applied := ("switch-hoist", what) :: !applied;
             pc := e + 2;
             advanced := true
         | _ -> ());
      if not !advanced then incr pc
    end
  done;
  if !regions = [] then None
  else begin
    let rw t =
      match Hashtbl.find_opt removed_heads t with Some f -> f | None -> t
    in
    let regions =
      List.sort (fun a b -> compare a.r_start b.r_start) !regions
    in
    let items = ref [] in
    let emit its = List.iter (fun it -> items := it :: !items) its in
    let pc = ref 0 in
    let rest = ref regions in
    while !pc < n do
      match !rest with
      | r :: tl when r.r_start = !pc ->
          emit (r.r_emit rw);
          pc := r.r_stop;
          rest := tl
      | _ ->
          emit [ ([ !pc ], xmap rw (decode insns !pc)) ];
          incr pc
    done;
    let prog =
      encode
        ~name:(p.Pfm.pname ^ "+opt")
        ~n_int_fields:p.Pfm.n_int_fields
        ~n_str_fields:p.Pfm.n_str_fields
        (List.rev !items)
    in
    Some
      ( prog,
        { applied = List.rev !applied;
          before_insns = n;
          after_insns = Array.length prog.Pfm.insns } )
  end

let optimize p =
  match optimize_exn p with
  | res -> res
  | exception _ -> None
