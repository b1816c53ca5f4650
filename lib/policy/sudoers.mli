(** /etc/sudoers parsing and delegation queries (§4.3).

    The supported grammar covers the constructs the paper's study relies on:

    {v
    Defaults timestamp_timeout=5
    alice ALL=(bob) /usr/bin/lpr, /usr/bin/lpq
    bob   ALL=(ALL) NOPASSWD: ALL
    %lp   ALL=(root) SETENV: /usr/bin/lpadmin
    #includedir /etc/sudoers.d
    v}

    Protego explicates the policies of other delegation utilities (su,
    sudoedit, newgrp, policykit, dbus) as extended sudoers rules, so this
    parser is the single source of delegation policy. *)

type principal = User of string | Group of string | All_users

type runas = Runas_any | Runas_users of string list

type command =
  | Any_command
  | Command of { path : string; args : string list option }
      (** [args = None] permits any arguments; [Some l] requires exactly
          [l]. *)

type tag = Nopasswd | Setenv | Targetpw
(** [Targetpw]: authentication is by the *target* user's password (su
    semantics) rather than the invoker's (sudo semantics). *)

type rule = {
  who : principal;
  runas : runas;
  tags : tag list;
  commands : command list;
  rphase : Protego_base.Phase.guard;
      (** lifecycle window the rule is active in; an optional
          [phase<=...] token before the tags *)
}

type t = {
  rules : rule list;
  timestamp_timeout : float;  (** minutes -> seconds at parse; default 300s *)
  includedirs : string list;
}

val empty : t

val parse : string -> (t, string) result
(** Parse one file's contents.  [#includedir] directives are collected in
    [includedirs] for the caller to read and {!merge}. *)

val merge : t -> t -> t
(** Left-biased merge of defaults; rules concatenate. *)

type decision =
  | Denied
  | Allowed of { nopasswd : bool; setenv : bool }

val check :
  ?phase:Protego_base.Phase.t ->
  t -> user:string -> groups:string list -> target:string ->
  command:(string * string list) option -> decision
(** May [user] (with group memberships [groups]) act as [target] to run
    [command]?  [command = None] asks for an unrestricted shell (matches only
    [ALL] command rules). *)

val allowed_binaries :
  ?phase:Protego_base.Phase.t ->
  t -> user:string -> groups:string list -> target:string ->
  [ `Unrestricted | `Only of string list | `Nothing ]
(** The set of binaries [user] may exec as [target] — the data Protego
    stores in a pending setuid-on-exec. *)

val aggregate_tags :
  ?phase:Protego_base.Phase.t ->
  t -> user:string -> groups:string list -> target:string -> bool * bool
(** [(nopasswd, setenv)] — a conservative tag summary over all rules
    matching (user, target): NOPASSWD only if every matching rule carries
    it; SETENV likewise.  Used when the command is not yet known (pending
    setuid-on-exec). *)

val to_string : t -> string
