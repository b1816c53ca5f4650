(** The Protego Filter Machine (PFM): a tiny typed bytecode for the
    argument-level policy checks on the LSM hot path.

    Declarative policy (the mount whitelist, the bind map, netfilter
    chains, the ppp device whitelist) is compiled once into a straight-line
    program over a small typed register machine and evaluated by one
    interpreter at every hook invocation, instead of re-walking the OCaml
    rule lists.  The design follows classic BPF: two accumulators (one
    integer, one string), forward-only jumps, and an explicit verdict at
    the end of every path, so every program provably terminates in at most
    [Array.length insns] steps.

    A program never reaches the interpreter unverified: {!verify} performs
    a single forward dataflow pass that rejects backward jumps,
    out-of-range jump targets or field indices, falls off the end of the
    program (a path without a verdict), conditionals that read an
    accumulator before any load wrote it, and unreachable instructions.

    A switch looks its key up in a typed, immutable {!table}.  The
    interpreter runs a load and the test after it in one dispatch, and a
    jump's target at the jump (a [Ret] returns there).

    Every instruction slot carries an execution counter
    (observability for /proc/protego/filter_stats and for the
    differential-rollout audit trail); a fused dispatch bumps each
    counter it passes and counts each instruction toward [retired], as
    if every instruction had been dispatched alone. *)

(** {1 Values and programs} *)

type verdict = Allow | Deny | Reject
(** [Reject] is only meaningful for packet programs (netfilter REJECT);
    syscall hooks map [Deny] and [Reject] to their errno alike. *)

(** A conditional test against the current accumulator.  Integer
    conditions read the integer accumulator (loaded by {!insn.Ld_int}),
    string conditions the string accumulator ({!insn.Ld_str}). *)
type cond =
  | Eq of int                              (** acc = imm *)
  | Ge of int                              (** acc >= imm *)
  | Le of int                              (** acc <= imm *)
  | In_range of int * int                  (** lo <= acc <= hi (inclusive) *)
  | All_bits of int                        (** acc land imm = imm (flag subset) *)
  | Masked_eq of { mask : int; value : int }  (** acc land mask = value (CIDR) *)
  | Eq_field of int                        (** acc = ints.(field) *)
  | Str_eq of string                       (** acc = imm *)
  | Str_prefix of string                   (** imm is a prefix of acc *)

(** A switch's table: an immutable map from keys to jump offsets, built
    once from the case list by {!int_table} or {!string_table} (a key
    bound twice keeps its last binding; equal bindings give structurally
    equal tables).  [find_int t k default] ({!find_str}) is [k]'s offset,
    or [default], and allocates nothing; {!table_fold} visits the
    bindings in increasing key order.  A key's home slot is
    [hash_int k land (c - 1)] ({!hash_str}), [c] the table's power-of-two
    capacity. *)
type 'k table

val int_table : (int * int) list -> int table
val string_table : (string * int) list -> string table
val find_int : int table -> int -> int -> int
val find_str : string table -> string -> int -> int
val table_fold : ('k -> int -> 'a -> 'a) -> 'k table -> 'a -> 'a
val hash_int : int -> int
val hash_str : string -> int

(** Jump offsets are relative to the {e next} instruction and must be
    [>= 0]: a verified program can only move forward. *)
type insn =
  | Ld_int of int                          (** int accumulator <- ints.(i) *)
  | Ld_str of int                          (** string accumulator <- strs.(i) *)
  | Jmp of int
  | Jif of cond * int * int                (** (cond, jump-if-true, jump-if-false) *)
  | Iswitch of { tbl : int table; default : int }
      (** table dispatch on the int accumulator; offsets like [Jmp] *)
  | Sswitch of { tbl : string table; default : int }
      (** table dispatch on the string accumulator *)
  | Ret of verdict

(** The subject of one evaluation: the hook marshals the syscall arguments
    into two small arrays.  Field layouts are per-hook contracts defined in
    {!module:Pfm_compile}. *)
type ctx = { ints : int array; strs : string array }

type program = {
  pname : string;                  (** for diagnostics / disassembly *)
  n_int_fields : int;              (** arity of [ctx.ints] this program expects *)
  n_str_fields : int;
  insns : insn array;
  counters : int array;            (** per-instruction execution counts *)
  mutable retired : int;           (** total instructions executed by {!eval} *)
}

val max_insns : int
(** Upper bound the verifier places on program length. *)

(** {1 Verifier} *)

type verify_error =
  | Empty_program
  | Program_too_long of int
  | Backward_jump of int                   (** pc of the offending jump *)
  | Jump_out_of_range of int
  | Missing_verdict of int                 (** pc that can fall off the end *)
  | Int_field_out_of_range of int * int    (** (pc, field index) *)
  | Str_field_out_of_range of int * int
  | Int_acc_unset of int                   (** int cond before any [Ld_int] *)
  | Str_acc_unset of int
  | Unreachable_insn of int

val verify : program -> (unit, verify_error) result
(** First error of {!verify_all} — the historical single-error interface
    the dispatch path uses. *)

val verify_all : program -> (unit, verify_error list) result
(** Complete diagnostics: {e every} verification error, in program order
    (local operand errors for a slot before dataflow errors).  The two
    passes are independent — a slot that is only reachable through an
    ill-targeted jump is reported both for the bad jump (at the jump's pc)
    and as unreachable (at the target's pc).  The lint CLI renders this
    list.  [Empty_program] and [Program_too_long] preempt everything
    else. *)

val verify_error_to_string : verify_error -> string

val cond_is_int : cond -> bool

val fold_offsets : ('a -> int -> 'a) -> 'a -> insn -> 'a
(** Fold over the instruction's relative control offsets, a load's
    fall-through counting as offset 0 ([Ret] has none). *)

(** {1 Evaluation} *)

val eval : program -> ctx -> verdict
(** Run a {e verified} program.  Raises [Invalid_argument] on a context
    narrower than the program's declared arity (never on a verified
    program evaluated on the matching hook's context). *)

val insn_count : program -> int
(** Total instructions executed so far (sum of the per-slot counters). *)

val reset_counters : program -> unit

val clone : program -> program
(** A copy with fresh, zeroed execution counters ([counters], [retired])
    that shares the instruction array and the switch tables: nothing
    writes either after assembly, and a table is immutable by
    construction.  How one program is run by several evaluators — a
    dispatcher, each plane worker — without any of them writing to
    another's counters or to the shared original. *)

(** {1 Disassembly} *)

val disassemble : program -> string
(** One instruction per line, with execution counts. *)

(** {1 Assembler}

    A tiny label-based assembler used by the compilers: emit instructions
    with symbolic jump targets, then {!Asm.assemble} resolves labels into
    relative offsets.  Labels occupy no space. *)

module Asm : sig
  type t
  type label

  val create : unit -> t
  val fresh_label : t -> label
  val place : t -> label -> unit
  (** Bind a label to the current position.  Raises [Invalid_argument] if
      already placed. *)

  val note : t -> string -> unit
  (** Attach a provenance marker (e.g. the source rule's text) to the
      current position.  Notes occupy no space; {!notes} returns them with
      resolved addresses after {!assemble}.  The static analyzer uses them
      to attribute findings on compiled code back to declarative rules. *)

  val notes : t -> (int * string) list
  (** [(pc, note)] pairs in program order; valid after {!assemble}. *)

  val ld_int : t -> int -> unit
  val ld_str : t -> int -> unit
  val jmp : t -> label -> unit
  val jif : t -> cond -> jt:label -> jf:label -> unit
  val iswitch : t -> (int * label) list -> default:label -> unit
  val sswitch : t -> (string * label) list -> default:label -> unit
  val ret : t -> verdict -> unit

  val assemble :
    t -> name:string -> n_int_fields:int -> n_str_fields:int -> program
  (** Resolve labels and build the program.  Raises [Invalid_argument] on
      an unplaced label.  The result is {e not} implicitly verified. *)
end
