module PS = Protego_core.Policy_state
module Pfm = Protego_filter.Pfm

type progs = {
  p_mount : Pfm.program;
  p_umount : Pfm.program;
  p_bind : Pfm.program;
  p_ppp : Pfm.program;
}

type t = {
  epoch : int;
  gens : int array;
  frozen : PS.t;
  progs : progs;
}

let program progs = function
  | PS.Mount_program -> progs.p_mount
  | PS.Umount_program -> progs.p_umount
  | PS.Bind_program -> progs.p_bind
  | PS.Ppp_program -> progs.p_ppp

let of_kinds f =
  { p_mount = f PS.Mount_program; p_umount = f PS.Umount_program;
    p_bind = f PS.Bind_program; p_ppp = f PS.Ppp_program }

(* The programs come from the state's program store, so a source whose
   value did not change since the last publish shares that snapshot's
   program instead of recompiling it. *)
let freeze ~epoch (st : PS.t) =
  let frozen = PS.copy st in
  let gens = Array.of_list (List.map (PS.generation st) PS.sources) in
  { epoch; gens; frozen; progs = of_kinds (PS.program frozen) }

let clone_progs ?prev t =
  of_kinds (fun kind ->
      let p = program t.progs kind in
      match prev with
      | Some (s, mine) when program s.progs kind == p -> program mine kind
      | _ -> Pfm.clone p)

let gen_for t s = t.gens.(PS.source_index s)

(* --- publication -------------------------------------------------------- *)

type pub = {
  cur : t Atomic.t;
  hist : (int, t) Hashtbl.t;  (* epoch -> snapshot, last [hcap] epochs *)
  hcap : int;
}

let default_history = 1024

let make ?(history = default_history) st =
  let s0 = freeze ~epoch:0 st in
  let hist = Hashtbl.create 64 in
  Hashtbl.replace hist 0 s0;
  { cur = Atomic.make s0; hist; hcap = max 1 history }

let current pub = Atomic.get pub.cur

(* The history is what lets the journal replay re-evaluate an
   epoch-stamped decision against the exact policy that served it.
   Each retained snapshot pins its frozen state copy and the programs it
   does not share with its neighbours — a publish after a bare reload
   shares all four, so such an epoch costs a few words — and the window
   is bounded: only the newest [hcap] epochs survive, and a replay
   reaching further back reports the miss (Replay.rp_missing_epochs)
   instead of growing the plane without limit under reload storms. *)
let at_epoch pub e = Hashtbl.find_opt pub.hist e

let publish pub st =
  let prev = Atomic.get pub.cur in
  let next = freeze ~epoch:(prev.epoch + 1) st in
  Atomic.set pub.cur next;
  Hashtbl.replace pub.hist next.epoch next;
  (* Epochs advance by exactly one, so evicting [epoch - hcap] keeps
     precisely the newest [hcap]. *)
  Hashtbl.remove pub.hist (next.epoch - pub.hcap);
  next

let stale pub st =
  let prev = Atomic.get pub.cur in
  List.exists (fun s -> PS.generation st s <> gen_for prev s) PS.sources
