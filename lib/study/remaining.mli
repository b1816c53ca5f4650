(** Table 8: the remaining 67 packages (91 binaries) not in the §4 study,
    grouped by the interface that requires privilege, with the paper's
    assessment of whether Protego's existing mechanisms cover them. *)

type status =
  | Covered           (** interface already addressed by Protego *)
  | Kernel_solved     (** solved by newer kernels (namespaces >= 3.8) *)
  | Future_work       (** needs additional consideration *)

type group = {
  g_interface : string;
  g_binaries : int;
  g_status : status;
  g_note : string;
}

val groups : group list

val total_binaries : int
(** 91 binaries in 67 packages, 77 of them covered, per the paper. *)

val render : unit -> string
