module PS = Protego_core.Policy_state
module Pfm = Protego_filter.Pfm
module Compile = Protego_filter.Pfm_compile

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

let freeze ~epoch (st : PS.t) =
  let frozen = PS.copy st in
  let gens = Array.of_list (List.map (PS.generation st) PS.sources) in
  let rules = List.map PS.filter_rule frozen.PS.mounts in
  let progs =
    { p_mount = Compile.mount rules;
      p_umount = Compile.umount rules;
      p_bind = Compile.bind frozen.PS.binds;
      p_ppp = Compile.ppp_ioctl frozen.PS.ppp }
  in
  { epoch; gens; frozen; progs }

let clone_prog (p : Pfm.program) =
  { p with Pfm.counters = Array.make (Array.length p.Pfm.counters) 0;
    retired = 0 }

let clone_progs t =
  { p_mount = clone_prog t.progs.p_mount;
    p_umount = clone_prog t.progs.p_umount;
    p_bind = clone_prog t.progs.p_bind;
    p_ppp = clone_prog t.progs.p_ppp }

let gen_for t s = t.gens.(PS.source_index s)

let ref_mount ?phase t ~source ~target ~fstype ~flags =
  PS.mount_decision ?phase t.frozen ~source ~target ~fstype ~flags


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
   Each retained snapshot pins its frozen policy and compiled programs,
   so the window is bounded: only the newest [hcap] epochs survive, and
   a replay reaching further back reports the miss
   (Replay.rp_missing_epochs) instead of growing the plane without
   limit under reload storms. *)
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
