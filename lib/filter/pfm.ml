type verdict = Allow | Deny | Reject

type cond =
  | Eq of int
  | Ge of int
  | Le of int
  | In_range of int * int
  | All_bits of int
  | Masked_eq of { mask : int; value : int }
  | Eq_field of int
  | Str_eq of string
  | Str_prefix of string

(* --- switch tables ------------------------------------------------------ *)

(* An immutable open-addressing table from keys to jump offsets.  The
   entries sit in [keys]/[dests] in key order, which is the iteration
   order; [slots] (a power of two, at most half full, so every probe
   ends at a free slot) holds each entry's index at its key's home slot
   [hash k land mask] or the first free slot after it, and -1 where
   free.  Nothing mutates a table after [build]: clones and plane
   domains share it as is. *)
type 'k table = {
  keys : 'k array;
  dests : int array;
  slots : int array;
  mask : int;
}

let[@inline] hash_int h =
  let h = (h lxor (h lsr 32)) * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

external get64 : string -> int -> int64 = "%caml_string_get64"

(* A word at a time, the last word overlapping the one before it (byte
   by byte under 8 bytes); no allocation, the loads stay unboxed. *)
let hash_str s =
  let n = String.length s in
  let h = ref n and i = ref 0 in
  if n < 8 then
    for j = 0 to n - 1 do h := (!h lsl 8) lor Char.code s.[j] done
  else begin
    while !i + 8 < n do
      h := hash_int (!h lxor Int64.to_int (get64 s !i));
      i := !i + 8
    done;
    h := !h lxor Int64.to_int (get64 s (n - 8))
  end;
  hash_int !h

(* One sort of the case list; a key bound twice keeps its last binding. *)
let build ~dummy ~compare ~hash cases =
  let entries =
    List.fold_left
      (fun acc ((k, _) as c) ->
        match acc with
        | (k', _) :: rest when compare k k' = 0 -> c :: rest
        | _ -> c :: acc)
      []
      (List.stable_sort (fun (a, _) (b, _) -> compare a b) cases)
    |> List.rev
  in
  let n = List.length entries in
  let cap = ref 1 in
  while !cap < 2 * n do cap := 2 * !cap done;
  let mask = !cap - 1 in
  let keys = Array.make n dummy and dests = Array.make n 0 in
  let slots = Array.make !cap (-1) in
  List.iteri
    (fun e (k, d) ->
      keys.(e) <- k;
      dests.(e) <- d;
      let i = ref (hash k land mask) in
      while slots.(!i) >= 0 do i := (!i + 1) land mask done;
      slots.(!i) <- e)
    entries;
  { keys; dests; slots; mask }

(* The lookups: loops over the table's own arrays, whose invariants
   ([slots] entries index [keys]/[dests]; a slot index is masked) are
   the only bounds the unchecked reads rely on. *)
let find_int (t : int table) k default =
  let slots = t.slots and keys = t.keys and mask = t.mask in
  let i = ref (hash_int k land mask) in
  let e = ref (Array.unsafe_get slots !i) in
  while !e >= 0 && Array.unsafe_get keys !e <> k do
    i := (!i + 1) land mask;
    e := Array.unsafe_get slots !i
  done;
  if !e < 0 then default else Array.unsafe_get t.dests !e

let find_str (t : string table) k default =
  let slots = t.slots and keys = t.keys and mask = t.mask in
  let i = ref (hash_str k land mask) in
  let e = ref (Array.unsafe_get slots !i) in
  while !e >= 0 && not (String.equal (Array.unsafe_get keys !e) k) do
    i := (!i + 1) land mask;
    e := Array.unsafe_get slots !i
  done;
  if !e < 0 then default else Array.unsafe_get t.dests !e

let table_fold f t acc =
  let r = ref acc in
  for e = 0 to Array.length t.keys - 1 do
    r := f t.keys.(e) t.dests.(e) !r
  done;
  !r

let int_table = build ~dummy:0 ~compare:Int.compare ~hash:hash_int
let string_table = build ~dummy:"" ~compare:String.compare ~hash:hash_str

type insn =
  | Ld_int of int
  | Ld_str of int
  | Jmp of int
  | Jif of cond * int * int
  | Iswitch of { tbl : int table; default : int }
  | Sswitch of { tbl : string table; default : int }
  | Ret of verdict

type ctx = { ints : int array; strs : string array }

type program = {
  pname : string;
  n_int_fields : int;
  n_str_fields : int;
  insns : insn array;
  counters : int array;
  mutable retired : int;
}

let max_insns = 65536

(* --- verifier ---------------------------------------------------------- *)

type verify_error =
  | Empty_program
  | Program_too_long of int
  | Backward_jump of int
  | Jump_out_of_range of int
  | Missing_verdict of int
  | Int_field_out_of_range of int * int
  | Str_field_out_of_range of int * int
  | Int_acc_unset of int
  | Str_acc_unset of int
  | Unreachable_insn of int

let verify_error_to_string = function
  | Empty_program -> "empty program"
  | Program_too_long n -> Printf.sprintf "program too long (%d instructions)" n
  | Backward_jump pc -> Printf.sprintf "backward jump at pc %d" pc
  | Jump_out_of_range pc -> Printf.sprintf "jump out of range at pc %d" pc
  | Missing_verdict pc ->
      Printf.sprintf "control can fall off the end at pc %d (missing verdict)" pc
  | Int_field_out_of_range (pc, f) ->
      Printf.sprintf "int field %d out of range at pc %d" f pc
  | Str_field_out_of_range (pc, f) ->
      Printf.sprintf "string field %d out of range at pc %d" f pc
  | Int_acc_unset pc ->
      Printf.sprintf "integer condition before any Ld_int at pc %d" pc
  | Str_acc_unset pc ->
      Printf.sprintf "string condition before any Ld_str at pc %d" pc
  | Unreachable_insn pc -> Printf.sprintf "unreachable instruction at pc %d" pc

let cond_is_int = function
  | Eq _ | Ge _ | Le _ | In_range _ | All_bits _ | Masked_eq _ | Eq_field _ ->
      true
  | Str_eq _ | Str_prefix _ -> false

let fold_offsets f acc = function
  | Ld_int _ | Ld_str _ -> f acc 0
  | Jmp d -> f acc d
  | Jif (_, jt, jf) -> f (f acc jt) jf
  | Iswitch { tbl; default } -> Array.fold_left f (f acc default) tbl.dests
  | Sswitch { tbl; default } -> Array.fold_left f (f acc default) tbl.dests
  | Ret _ -> acc

(* The verifier runs two passes and collects *every* error it finds (the
   lint CLI wants complete diagnostics, not just the first problem):

   Pass 1 (locals) checks, at every slot, operand validity that does not
   depend on control flow: jump direction and range, field indices.

   Pass 2 (flow) is a forward dataflow over the same slots.  Jumps are
   forward-only, so visiting program counters in order is a topological
   order; a slot's predecessors have all been processed when it is reached.
   It tracks, per slot, whether the slot is reachable and whether each
   accumulator is definitely initialized on every path into it.  Both
   passes run regardless of the other's outcome: pass 2 simply refuses to
   propagate through invalid edges (backward or out of range), so a slot
   that is only reachable through an ill-targeted jump is reported both as
   the jump error (pass 1, at the jump) and as unreachable (pass 2, at the
   slot).  Errors within a pass come out in pc order; accumulator errors
   are only reported for reachable slots (an unreachable slot gets
   [Unreachable_insn] instead). *)
let verify_all p =
  let n = Array.length p.insns in
  if n = 0 then Error [ Empty_program ]
  else if n > max_insns then Error [ Program_too_long n ]
  else begin
    let errs = ref [] in
    let err e = errs := e :: !errs in
    (* Pass 1: local validity of operands at every slot. *)
    for pc = 0 to n - 1 do
      let insn = p.insns.(pc) in
      if fold_offsets (fun bad d -> bad || d < 0) false insn then
        err (Backward_jump pc)
      else if fold_offsets (fun bad d -> bad || pc + 1 + d >= n) false insn then
        if
          (* A load whose fall-through is the end of the program is a
             missing verdict, not a bad jump. *)
          match insn with Ld_int _ | Ld_str _ -> true | _ -> false
        then err (Missing_verdict pc)
        else err (Jump_out_of_range pc);
      (match insn with
      | Ld_int f when f < 0 || f >= p.n_int_fields ->
          err (Int_field_out_of_range (pc, f))
      | Ld_str f when f < 0 || f >= p.n_str_fields ->
          err (Str_field_out_of_range (pc, f))
      | Jif (Eq_field f, _, _) when f < 0 || f >= p.n_int_fields ->
          err (Int_field_out_of_range (pc, f))
      | _ -> ())
    done;
    (* Pass 2: forward dataflow. *)
    let reach = Array.make n false in
    let int_ok = Array.make n false in
    let str_ok = Array.make n false in
    reach.(0) <- true;
    let merge ~from i s () d =
      (* Propagate only along valid forward in-range edges; invalid edges
         were already reported by pass 1. *)
      let pc = from + 1 + d in
      if pc > from && pc < n then
        if reach.(pc) then begin
          int_ok.(pc) <- int_ok.(pc) && i;
          str_ok.(pc) <- str_ok.(pc) && s
        end
        else begin
          reach.(pc) <- true;
          int_ok.(pc) <- i;
          str_ok.(pc) <- s
        end
    in
    for pc = 0 to n - 1 do
      if not reach.(pc) then err (Unreachable_insn pc)
      else begin
        let insn = p.insns.(pc) in
        (match insn with
        | Jif (c, _, _) when cond_is_int c && not int_ok.(pc) ->
            err (Int_acc_unset pc)
        | Jif (c, _, _) when (not (cond_is_int c)) && not str_ok.(pc) ->
            err (Str_acc_unset pc)
        | Iswitch _ when not int_ok.(pc) -> err (Int_acc_unset pc)
        | Sswitch _ when not str_ok.(pc) -> err (Str_acc_unset pc)
        | _ -> ());
        let i = int_ok.(pc) || (match insn with Ld_int _ -> true | _ -> false)
        and s = str_ok.(pc) || (match insn with Ld_str _ -> true | _ -> false) in
        fold_offsets (merge ~from:pc i s) () insn
      end
    done;
    match List.rev !errs with [] -> Ok () | es -> Error es
  end

let verify p =
  match verify_all p with Error (e :: _) -> Error e | Ok () | Error [] -> Ok ()

(* --- evaluation -------------------------------------------------------- *)

(* Allocation-free prefix test (the shadow-file rule runs it on every
   open): a top-level loop, as a local one would allocate its closure. *)
let rec prefix_from ~prefix s i =
  i >= String.length prefix
  || (s.[i] = prefix.[i] && prefix_from ~prefix s (i + 1))

let has_prefix ~prefix s =
  String.length s >= String.length prefix && prefix_from ~prefix s 0

let eval_cond c acc_i acc_s (ctx : ctx) =
  match c with
  | Eq imm -> acc_i = imm
  | Ge imm -> acc_i >= imm
  | Le imm -> acc_i <= imm
  | In_range (lo, hi) -> acc_i >= lo && acc_i <= hi
  | All_bits imm -> acc_i land imm = imm
  | Masked_eq { mask; value } -> acc_i land mask = value
  | Eq_field f -> acc_i = ctx.ints.(f)
  | Str_eq imm -> String.equal acc_s imm
  | Str_prefix prefix -> has_prefix ~prefix acc_s

(* The interpreter loop, top-level so that an evaluation allocates no
   closure for it.  A load runs the test after it in the same dispatch
   ([fused]), and a jump runs its target ([goto]): a [Ret] returns
   there.  Each instruction run still bumps its own counter and counts
   one step, so counters and [retired] read as if every instruction had
   been dispatched alone. *)
let rec step p (ctx : ctx) counters insns pc acc_i acc_s steps =
  match insns.(pc) with
  | Ld_int f ->
      counters.(pc) <- counters.(pc) + 1;
      fused p ctx counters insns (pc + 1) ctx.ints.(f) acc_s (steps + 1)
  | Ld_str f ->
      counters.(pc) <- counters.(pc) + 1;
      fused p ctx counters insns (pc + 1) acc_i ctx.strs.(f) (steps + 1)
  | Jmp d ->
      counters.(pc) <- counters.(pc) + 1;
      goto p ctx counters insns (pc + 1 + d) acc_i acc_s (steps + 1)
  | Ret v ->
      counters.(pc) <- counters.(pc) + 1;
      p.retired <- p.retired + steps + 1;
      v
  | Jif _ | Iswitch _ | Sswitch _ ->
      fused p ctx counters insns pc acc_i acc_s steps

(* A test runs here; anything else takes its own dispatch. *)
and fused p ctx counters insns pc acc_i acc_s steps =
  match insns.(pc) with
  | Jif (c, jt, jf) ->
      counters.(pc) <- counters.(pc) + 1;
      let d = if eval_cond c acc_i acc_s ctx then jt else jf in
      goto p ctx counters insns (pc + 1 + d) acc_i acc_s (steps + 1)
  | Iswitch { tbl; default } ->
      counters.(pc) <- counters.(pc) + 1;
      goto p ctx counters insns (pc + 1 + find_int tbl acc_i default) acc_i
        acc_s (steps + 1)
  | Sswitch { tbl; default } ->
      counters.(pc) <- counters.(pc) + 1;
      goto p ctx counters insns (pc + 1 + find_str tbl acc_s default) acc_i
        acc_s (steps + 1)
  | Ld_int _ | Ld_str _ | Jmp _ | Ret _ ->
      step p ctx counters insns pc acc_i acc_s steps

(* A jump's target: a [Ret] returns and a load runs here. *)
and goto p ctx counters insns pc acc_i acc_s steps =
  match insns.(pc) with
  | Ret v ->
      counters.(pc) <- counters.(pc) + 1;
      p.retired <- p.retired + steps + 1;
      v
  | Ld_int f ->
      counters.(pc) <- counters.(pc) + 1;
      fused p ctx counters insns (pc + 1) ctx.ints.(f) acc_s (steps + 1)
  | Ld_str f ->
      counters.(pc) <- counters.(pc) + 1;
      fused p ctx counters insns (pc + 1) acc_i ctx.strs.(f) (steps + 1)
  | Jmp _ | Jif _ | Iswitch _ | Sswitch _ ->
      step p ctx counters insns pc acc_i acc_s steps

let eval p ctx =
  if
    Array.length ctx.ints < p.n_int_fields
    || Array.length ctx.strs < p.n_str_fields
  then
    invalid_arg
      (Printf.sprintf "Pfm.eval: context too narrow for program %s" p.pname);
  step p ctx p.counters p.insns 0 0 "" 0

let insn_count p = Array.fold_left ( + ) 0 p.counters

let reset_counters p =
  Array.fill p.counters 0 (Array.length p.counters) 0;
  p.retired <- 0

let clone p =
  { p with counters = Array.make (Array.length p.counters) 0; retired = 0 }

(* --- disassembly ------------------------------------------------------- *)

let verdict_to_string = function
  | Allow -> "allow"
  | Deny -> "deny"
  | Reject -> "reject"

let cond_to_string = function
  | Eq imm -> Printf.sprintf "eq %d" imm
  | Ge imm -> Printf.sprintf "ge %d" imm
  | Le imm -> Printf.sprintf "le %d" imm
  | In_range (lo, hi) -> Printf.sprintf "in [%d,%d]" lo hi
  | All_bits imm -> Printf.sprintf "allbits 0x%x" imm
  | Masked_eq { mask; value } -> Printf.sprintf "masked 0x%x=0x%x" mask value
  | Eq_field f -> Printf.sprintf "eq i%d" f
  | Str_eq s -> Printf.sprintf "streq %S" s
  | Str_prefix s -> Printf.sprintf "strpfx %S" s

let switch_entries_to_string to_s tbl default =
  let entries =
    table_fold (fun k d acc -> (to_s k, d) :: acc) tbl []
    |> List.sort compare
    |> List.map (fun (k, d) -> Printf.sprintf "%s=>+%d" k d)
  in
  String.concat " " (entries @ [ Printf.sprintf "_=>+%d" default ])

let insn_to_string = function
  | Ld_int f -> Printf.sprintf "ldi i%d" f
  | Ld_str f -> Printf.sprintf "lds s%d" f
  | Jmp d -> Printf.sprintf "jmp +%d" d
  | Jif (c, jt, jf) -> Printf.sprintf "jif (%s) +%d +%d" (cond_to_string c) jt jf
  | Iswitch { tbl; default } ->
      "iswitch " ^ switch_entries_to_string string_of_int tbl default
  | Sswitch { tbl; default } ->
      "sswitch "
      ^ switch_entries_to_string (fun s -> Printf.sprintf "%S" s) tbl default
  | Ret v -> "ret " ^ verdict_to_string v

let disassemble p =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "; %s (%d insns, %d int fields, %d str fields)\n" p.pname
       (Array.length p.insns) p.n_int_fields p.n_str_fields);
  Array.iteri
    (fun pc insn ->
      Buffer.add_string b
        (Printf.sprintf "%4d: %-40s ; hits=%d\n" pc (insn_to_string insn)
           p.counters.(pc)))
    p.insns;
  Buffer.contents b

(* --- assembler --------------------------------------------------------- *)

module Asm = struct
  type label = int

  (* Instructions are counted as they are pushed, so a label or a note
     is bound to its address on the spot and takes no item. *)
  type aitem =
    | A_insn of insn                      (* no label operands *)
    | A_jmp of label
    | A_jif of cond * label * label
    | A_iswitch of (int * label) list * label
    | A_sswitch of (string * label) list * label

  type t = {
    mutable items : aitem list;           (* reversed *)
    mutable n : int;                      (* instructions pushed *)
    mutable next_label : int;
    mutable addr : int array;             (* by label; -1 until placed *)
    mutable notes : (int * string) list;  (* reversed *)
  }

  let create () =
    { items = []; n = 0; next_label = 0; addr = Array.make 16 (-1); notes = [] }

  let fresh_label t =
    let l = t.next_label in
    t.next_label <- l + 1;
    l

  let push t item =
    t.items <- item :: t.items;
    t.n <- t.n + 1

  let place t l =
    let len = Array.length t.addr in
    if l >= len then begin
      let grown = Array.make (max (2 * len) (l + 1)) (-1) in
      Array.blit t.addr 0 grown 0 len;
      t.addr <- grown
    end;
    if t.addr.(l) >= 0 then
      invalid_arg (Printf.sprintf "Pfm.Asm.place: label %d placed twice" l);
    t.addr.(l) <- t.n

  let note t s = t.notes <- (t.n, s) :: t.notes
  let notes t = List.rev t.notes
  let ld_int t f = push t (A_insn (Ld_int f))
  let ld_str t f = push t (A_insn (Ld_str f))
  let jmp t l = push t (A_jmp l)
  let jif t c ~jt ~jf = push t (A_jif (c, jt, jf))
  let iswitch t cases ~default = push t (A_iswitch (cases, default))
  let sswitch t cases ~default = push t (A_sswitch (cases, default))
  let ret t v = push t (A_insn (Ret v))

  let assemble t ~name ~n_int_fields ~n_str_fields =
    let resolve pc l =
      if l < Array.length t.addr && t.addr.(l) >= 0 then t.addr.(l) - (pc + 1)
      else invalid_arg (Printf.sprintf "Pfm.Asm.assemble: unplaced label %d" l)
    in
    let cases pc = List.map (fun (k, l) -> (k, resolve pc l)) in
    let n = t.n in
    let insns = Array.make n (Ret Deny) in
    (* The items are newest first: fill the program from its end. *)
    List.iteri
      (fun i item ->
        let pc = n - 1 - i in
        insns.(pc) <-
          (match item with
          | A_insn insn -> insn
          | A_jmp l -> Jmp (resolve pc l)
          | A_jif (c, jt, jf) -> Jif (c, resolve pc jt, resolve pc jf)
          | A_iswitch (cs, default) ->
              Iswitch
                { tbl = int_table (cases pc cs); default = resolve pc default }
          | A_sswitch (cs, default) ->
              Sswitch
                { tbl = string_table (cases pc cs); default = resolve pc default }))
      t.items;
    { pname = name; n_int_fields; n_str_fields; insns;
      counters = Array.make n 0; retired = 0 }
end
