(** Fixed-width table rendering for the experiment reports. *)

type align = L | R

val table :
  ?title:string -> header:string list -> align:align list ->
  string list list -> string
(** Render rows under a header with a separator rule; column widths adapt to
    content.  [align] gives per-column alignment (padded with [L]). *)

val fmt_pct : float -> string
(** Two-decimal percentage, e.g. "99.99". *)
