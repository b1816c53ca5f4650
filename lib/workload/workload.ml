module PS = Protego_core.Policy_state
module Plane = Protego_plane.Plane
module Bindconf = Protego_policy.Bindconf
module Pppopts = Protego_policy.Pppopts
module Ppp = Protego_net.Ppp
module Ktypes = Protego_kernel.Ktypes

type phase =
  | Steady
  | Deny_flood
  | Audit_heavy
  | Reload_storm of { period : int }
  | Phase_storm of { period : int }

type spec = {
  seed : int;
  subjects : int;
  zipf_s : float;
  rules : int;
  pool : int;
  mix : int * int * int * int;
  loop : [ `Open | `Closed ];
  phases : (phase * int) list;
}

let default ?(seed = 42) ?(phases = [ (Steady, 10_000) ]) () =
  { seed; subjects = 16; zipf_s = 1.1; rules = 64; pool = 256;
    mix = (4, 2, 3, 1); loop = `Open; phases }

(* --- zipf sampling ------------------------------------------------------ *)

(* CDF over ranks 0..k-1 with weight 1/(r+1)^s; sampling is a float draw
   plus binary search.  Popularity is by rank: pool item 0 is hottest. *)
let zipf_cdf k s =
  let w = Array.init k (fun r -> 1. /. ((float_of_int (r + 1)) ** s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_draw cdf rng =
  let u = Prng.float rng in
  let n = Array.length cdf in
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* --- the synthetic policy ---------------------------------------------- *)

let rule_flags i = if i mod 3 = 0 then [ Ktypes.Mf_nosuid ] else []
let rule_mode i = if i mod 2 = 0 then `Users else `User
let rule_source i = "/dev/wl" ^ string_of_int i
let rule_target i = "/media/wl" ^ string_of_int i
let bind_port i = 1000 + i
let bind_proto i = if i mod 2 = 0 then Bindconf.Tcp else Bindconf.Udp
let bind_exe i = "/usr/sbin/svc" ^ string_of_int (i mod 8)
let bind_owner spec i = i mod spec.subjects
let ppp_devices = [ "/dev/ttyS0"; "/dev/ttyS1" ]

(* Audit_heavy exercises the journal's string encoder: deep paths that
   approach the journal's 255-byte string cap.  The heavy rules only
   enter the policy when the spec actually has a heavy phase, so every
   other schedule is byte-for-byte what it was before the phase
   existed. *)
let heavy_pad = String.make 150 'p'
let heavy_count = 8
let heavy_source i = "/dev/hv" ^ string_of_int i
let heavy_target i = "/media/heavy/" ^ heavy_pad ^ "/vol" ^ string_of_int i
let heavy_port i = 9000 + i
let heavy_exe i = "/opt/heavy/" ^ heavy_pad ^ "/svc" ^ string_of_int (i mod 4)

let has_heavy spec = List.exists (fun (p, _) -> p = Audit_heavy) spec.phases

let install_policy spec (st : PS.t) =
  let heavy_mounts =
    if has_heavy spec then
      List.init heavy_count (fun i ->
          { PS.mr_source = heavy_source i; mr_target = heavy_target i;
            mr_fstype = "ext4"; mr_flags = []; mr_mode = `Users;
            mr_phase = PS.Phase.Always })
    else []
  in
  let heavy_binds =
    if has_heavy spec then
      List.init heavy_count (fun i ->
          { Bindconf.port = heavy_port i; proto = Bindconf.Tcp;
            exe = heavy_exe i; owner = bind_owner spec i;
            phase = Protego_base.Phase.Always })
    else []
  in
  let mounts =
    List.init spec.rules (fun i ->
        { PS.mr_source = rule_source i; mr_target = rule_target i;
          mr_fstype = "ext4"; mr_flags = rule_flags i; mr_mode = rule_mode i;
          mr_phase = PS.Phase.Always })
    @ heavy_mounts
  and binds =
    List.init spec.rules (fun i ->
        { Bindconf.port = bind_port i; proto = bind_proto i; exe = bind_exe i;
          owner = bind_owner spec i; phase = Protego_base.Phase.Always })
    @ heavy_binds
  and ppp =
    { Pppopts.directives =
        Pppopts.Session_option (Ppp.Compression "deflate")
        :: List.map
             (fun d -> Pppopts.Allow_device (d, Protego_base.Phase.Always))
             ppp_devices }
  in
  PS.set st (PS.Set_mounts mounts);
  PS.set st (PS.Set_binds binds);
  PS.set st (PS.Set_ppp ppp)

(* --- request pools ------------------------------------------------------ *)

let safe_opts =
  [| Ppp.Compression "deflate"; Ppp.Async_map 0xffff; Ppp.Mru 1500; Ppp.Accomp |]

let unsafe_opts =
  [| Ppp.Default_route; Ppp.Modem_line_speed 115200;
     Ppp.Modem_flow_control "rts/cts" |]

(* Interned request pools, one per (hook, polarity).  Built once per
   schedule from the spec's own PRNG stream; every generated request
   aliases a pool entry, so repeated draws are physically identical. *)
let build_pools spec =
  let rng = Prng.create (spec.seed lxor 0x5eed) in
  let subj_cdf = zipf_cdf spec.subjects spec.zipf_s in
  let subj () = zipf_draw subj_cdf rng in
  let rule () = Prng.int rng spec.rules in
  let mount_allow () =
    let i = rule () in
    Plane.Mount
      { subject = subj (); source = rule_source i; target = rule_target i;
        fstype = "ext4"; flags = rule_flags i }
  in
  let mount_deny () =
    let i = rule () in
    match Prng.int rng 3 with
    | 0 ->
        (* fstype mismatch: no rule matches *)
        Plane.Mount
          { subject = subj (); source = rule_source i; target = rule_target i;
            fstype = "vfat"; flags = rule_flags i }
    | 1 ->
        (* missing required flag (only nosuid rules can miss one) *)
        let i = i - (i mod 3) in
        Plane.Mount
          { subject = subj (); source = rule_source i; target = rule_target i;
            fstype = "ext4"; flags = [] }
    | _ ->
        Plane.Mount
          { subject = subj (); source = "/dev/evil"; target = rule_target i;
            fstype = "ext4"; flags = [] }
  in
  let umount_allow () =
    let i = rule () in
    let s = subj () in
    match rule_mode i with
    | `Users -> Plane.Umount { subject = s; target = rule_target i;
                               mounted_by = s + 7 }
    | `User -> Plane.Umount { subject = s; target = rule_target i;
                              mounted_by = s }
  in
  let umount_deny () =
    let s = subj () in
    if spec.rules >= 2 && Prng.int rng 2 = 0 then
      (* a `User (odd-index) rule, unmounted by someone else *)
      let i = (2 * Prng.int rng (spec.rules / 2)) + 1 in
      Plane.Umount { subject = s; target = rule_target i; mounted_by = s + 1 }
    else Plane.Umount { subject = s; target = "/media/none"; mounted_by = s }
  in
  let bind_allow () =
    let i = rule () in
    Plane.Bind
      { subject = bind_owner spec i; port = bind_port i; proto = bind_proto i;
        exe = bind_exe i }
  in
  let bind_deny () =
    let i = rule () in
    if Prng.int rng 2 = 0 then
      Plane.Bind
        { subject = bind_owner spec i; port = bind_port i;
          proto = bind_proto i; exe = "/usr/bin/rogue" }
    else
      Plane.Bind
        { subject = bind_owner spec i + 1; port = bind_port i;
          proto = bind_proto i; exe = bind_exe i }
  in
  let ppp_allow () =
    Plane.Ppp_ioctl
      { subject = subj ();
        device = List.nth ppp_devices (Prng.int rng (List.length ppp_devices));
        opt = safe_opts.(Prng.int rng (Array.length safe_opts)) }
  in
  let ppp_deny () =
    if Prng.int rng 2 = 0 then
      Plane.Ppp_ioctl
        { subject = subj (); device = "/dev/ttyUSB9";
          opt = safe_opts.(Prng.int rng (Array.length safe_opts)) }
    else
      Plane.Ppp_ioctl
        { subject = subj (); device = List.hd ppp_devices;
          opt = unsafe_opts.(Prng.int rng (Array.length unsafe_opts)) }
  in
  let pool f = Array.init spec.pool (fun _ -> f ()) in
  [| (pool mount_allow, pool mount_deny);
     (pool umount_allow, pool umount_deny);
     (pool bind_allow, pool bind_deny);
     (pool ppp_allow, pool ppp_deny) |]

(* Long-string pools for the [Audit_heavy] phase, against the gated
   heavy rules [install_policy] adds.  Separate PRNG stream so the
   heavy pools never perturb the normal ones. *)
let build_heavy_pools spec =
  let rng = Prng.create (spec.seed lxor 0x4eaf) in
  let subj_cdf = zipf_cdf spec.subjects spec.zipf_s in
  let subj () = zipf_draw subj_cdf rng in
  let hrule () = Prng.int rng heavy_count in
  let mount_allow () =
    let i = hrule () in
    Plane.Mount
      { subject = subj (); source = heavy_source i; target = heavy_target i;
        fstype = "ext4"; flags = [] }
  in
  let mount_deny () =
    let i = hrule () in
    Plane.Mount
      { subject = subj (); source = heavy_source i; target = heavy_target i;
        fstype = "vfat"; flags = [] }
  in
  let umount_allow () =
    let s = subj () in
    Plane.Umount
      { subject = s; target = heavy_target (hrule ()); mounted_by = s + 3 }
  in
  let umount_deny () =
    let s = subj () in
    Plane.Umount
      { subject = s; target = "/media/heavy/" ^ heavy_pad ^ "/none";
        mounted_by = s }
  in
  let bind_allow () =
    let i = hrule () in
    Plane.Bind
      { subject = bind_owner spec i; port = heavy_port i;
        proto = Bindconf.Tcp; exe = heavy_exe i }
  in
  let bind_deny () =
    let i = hrule () in
    Plane.Bind
      { subject = bind_owner spec i; port = heavy_port i;
        proto = Bindconf.Tcp; exe = "/opt/rogue/" ^ heavy_pad ^ "/bin" }
  in
  let ppp_allow () =
    Plane.Ppp_ioctl
      { subject = subj ();
        device = List.nth ppp_devices (Prng.int rng (List.length ppp_devices));
        opt = safe_opts.(Prng.int rng (Array.length safe_opts)) }
  in
  let ppp_deny () =
    Plane.Ppp_ioctl
      { subject = subj (); device = "/dev/tty/" ^ heavy_pad;
        opt = safe_opts.(Prng.int rng (Array.length safe_opts)) }
  in
  let pool f = Array.init spec.pool (fun _ -> f ()) in
  [| (pool mount_allow, pool mount_deny);
     (pool umount_allow, pool umount_deny);
     (pool bind_allow, pool bind_deny);
     (pool ppp_allow, pool ppp_deny) |]

(* --- schedule generation ------------------------------------------------ *)

type schedule = {
  s_requests : Plane.request array;
  s_reloads : (int * PS.source) list;
  s_phase_steps : (int * int) list;
}

let storm_sources = [| PS.Mounts; PS.Binds; PS.Ppp |]

let generate spec ~workers =
  if workers < 1 then invalid_arg "Workload.generate";
  let pools = build_pools spec in
  let hpools = if has_heavy spec then build_heavy_pools spec else pools in
  let pool_cdf = zipf_cdf spec.pool spec.zipf_s in
  let m1, m2, m3, m4 = spec.mix in
  let mix_total = m1 + m2 + m3 + m4 in
  if mix_total <= 0 then invalid_arg "Workload.generate: empty mix";
  let hook_of_draw d =
    if d < m1 then 0 else if d < m1 + m2 then 1 else if d < m1 + m2 + m3 then 2
    else 3
  in
  let n = List.fold_left (fun acc (_, c) -> acc + c) 0 spec.phases in
  let rngs =
    match spec.loop with
    | `Open -> [| Prng.create spec.seed |]
    | `Closed ->
        let master = Prng.create spec.seed in
        Array.init workers (fun _ -> Prng.split master)
  in
  let rng_for i =
    match spec.loop with `Open -> rngs.(0) | `Closed -> rngs.(i mod workers)
  in
  let requests = Array.make n (fst pools.(0)).(0) in
  let reloads = ref [] in
  let phase_steps = ref [] in
  let stepped = ref 0 in
  let storms = ref 0 in
  let off = ref 0 in
  List.iter
    (fun (phase, count) ->
      let deny_pct =
        match phase with
        | Steady | Reload_storm _ | Phase_storm _ -> 10
        | Audit_heavy -> 30
        | Deny_flood -> 85
      in
      let pools = if phase = Audit_heavy then hpools else pools in
      (match phase with
       | Reload_storm { period } when period > 0 ->
           let th = ref (!off + period) in
           while !th < !off + count do
             reloads :=
               (!th, storm_sources.(!storms mod Array.length storm_sources))
               :: !reloads;
             incr storms;
             th := !th + period
           done
       | Phase_storm { period } when period > 0 ->
           (* Each threshold advances one subject a single lifecycle
              step (round-robin over subjects).  The workload's own
              rules are all [Always]-guarded, so the storm is
              verdict-preserving — it stresses the phase-keyed cache
              invalidation, not the policy semantics. *)
           let th = ref (!off + period) in
           while !th < !off + count do
             phase_steps := (!th, !stepped mod spec.subjects) :: !phase_steps;
             incr stepped;
             th := !th + period
           done
       | _ -> ());
      for i = !off to !off + count - 1 do
        let rng = rng_for i in
        let hook = hook_of_draw (Prng.int rng mix_total) in
        let allow_pool, deny_pool = pools.(hook) in
        let pool =
          if Prng.int rng 100 < deny_pct then deny_pool else allow_pool
        in
        requests.(i) <- pool.(zipf_draw pool_cdf rng)
      done;
      off := !off + count)
    spec.phases;
  { s_requests = requests; s_reloads = List.rev !reloads;
    s_phase_steps = List.rev !phase_steps }
