(** Shared plumbing for the ported setuid(-candidate) binaries.

    The only difference between a binary's two flavours is the paper's Table
    2 change: [Legacy] binaries carry the hard-coded "am I root?" checks and
    rely on the setuid bit having made them root, while [Protego] binaries
    have those checks removed and simply issue the system call, trusting the
    kernel policy. *)

open Protego_base
open Protego_kernel

type flavor = Legacy | Protego

val out : Ktypes.machine -> string -> unit
(** Program output ("stdout"): appends a line to the machine console. *)

val outf :
  Ktypes.machine -> ('a, unit, string, unit) format4 -> 'a

val fail :
  Ktypes.machine -> string -> ('a, unit, string, (int, Errno.t) result) format4 -> 'a
(** Print "<prog>: <message>" and return [Ok 1] (the conventional error
    exit status). *)

val getpwnam :
  Ktypes.machine -> Ktypes.task -> string ->
  Protego_policy.Pwdb.passwd_entry option
(** Resolve a user by name through the world-readable /etc/passwd, exactly
    as libc would. *)

val getpwuid :
  Ktypes.machine -> Ktypes.task -> int ->
  Protego_policy.Pwdb.passwd_entry option

val getgrnam :
  Ktypes.machine -> Ktypes.task -> string ->
  Protego_policy.Pwdb.group_entry option

val getgrgid :
  Ktypes.machine -> Ktypes.task -> int ->
  Protego_policy.Pwdb.group_entry option

val read_password : Ktypes.machine -> Ktypes.task -> string option
(** Prompt on the controlling terminal (simulated by
    [machine.password_source] keyed by the task's real uid). *)
