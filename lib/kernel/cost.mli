(** The one primitive behind the simulator's modelled fixed costs: the
    user/kernel mode switch ({!Syscall}'s trap at every syscall entry)
    and the per-packet protocol work ({!Netstack}).

    It is a chain of dependent loads, bound by L1 load latency rather
    than by the CPU's front end, so its cost does not depend on where
    the linker places its code. *)

val chain : int -> unit
(** [chain hops] runs [hops] dependent loads (none when [hops <= 0]);
    allocates nothing. *)
