(** The §5.3 exhaustive functional scripts.

    [exercise_all img] drives every ported binary through its success and
    failure paths on the given image (both flavours accept the same
    invocations), feeding the coverage counters behind Table 7.  Returns the
    list of (scenario, exit-or-errno) observations so tests can compare the
    two configurations for behavioural equivalence. *)

type observation = {
  scenario : string;
  outcome : (int, Protego_base.Errno.t) result;
}

val exercise_all : Protego_dist.Image.t -> observation list

val coverage_rows : unit -> (string * float) list
(** Current coverage per Table 7 binary. *)

val render_table7 : unit -> string
