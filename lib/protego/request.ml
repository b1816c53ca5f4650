module Pfm = Protego_filter.Pfm
module Compile = Protego_filter.Pfm_compile
module Phase = Protego_base.Phase
module PS = Policy_state
module J = Protego_journal.Journal

module Value = struct
  type request =
    | Mount of {
        subject : int;
        source : string;
        target : string;
        fstype : string;
        flags : Protego_kernel.Ktypes.mount_flag list;
      }
    | Umount of { subject : int; target : string; mounted_by : int }
    | Bind of {
        subject : int;
        port : int;
        proto : Protego_policy.Bindconf.proto;
        exe : string;
      }
    | Ppp_ioctl of {
        subject : int;
        device : string;
        opt : Protego_net.Ppp.option_;
      }
end

include Value

type t = request

let count = 4

let index = function
  | Mount _ -> 0
  | Umount _ -> 1
  | Bind _ -> 2
  | Ppp_ioctl _ -> 3

let kinds = Decider.[| Mount; Umount; Bind; Ppp_ioctl |]
let kind_of_index i = kinds.(i)

let subject = function
  | Mount { subject; _ } | Umount { subject; _ } | Bind { subject; _ }
  | Ppp_ioctl { subject; _ } ->
      subject

let sources = PS.[| Mounts; Mounts; Binds; Ppp |]
let source_of_index i = sources.(i)

let program_kind = function
  | Mount _ -> PS.Mount_program
  | Umount _ -> PS.Umount_program
  | Bind _ -> PS.Bind_program
  | Ppp_ioctl _ -> PS.Ppp_program

let deny_errno r = Option.get (Decider.deny_errno kinds.(index r))

(* A bind's protocol code in both journal record kinds. *)
let proto_code = function
  | Protego_policy.Bindconf.Tcp -> 0
  | Protego_policy.Bindconf.Udp -> 1

(* One PFM context per hook, by {!index}, each refilled in place by the
   hook's next decision. *)
let contexts () =
  [| Compile.mount_ctx ~phase:0 ~source:"" ~target:"" ~fstype:"" ~flags:[];
     Compile.umount_ctx ~phase:0 ~target:"" ~mounted_by:0 ~ruid:0;
     Compile.bind_ctx ~phase:0 ~port:0 ~proto:Protego_policy.Bindconf.Tcp
       ~exe:"" ~uid:0;
     Compile.ppp_ctx ~phase:0 ~device:"" ~opt:Protego_net.Ppp.Accomp |]

let refill (ctxs : Pfm.ctx array) ~phase = function
  | Mount { source; target; fstype; flags; _ } ->
      let c = ctxs.(0) in
      Compile.mount_into c ~phase ~source ~target ~fstype ~flags;
      c
  | Umount { subject; target; mounted_by } ->
      let c = ctxs.(1) in
      Compile.umount_into c ~phase ~target ~mounted_by ~ruid:subject;
      c
  | Bind { subject; port; proto; exe } ->
      let c = ctxs.(2) in
      Compile.bind_into c ~phase ~port ~proto ~exe ~uid:subject;
      c
  | Ppp_ioctl { device; opt; _ } ->
      let c = ctxs.(3) in
      Compile.ppp_into c ~phase ~device ~opt;
      c

let oracle ?phase st = function
  | Mount { source; target; fstype; flags; _ } ->
      PS.mount_decision ?phase st ~source ~target ~fstype ~flags
  | Umount { subject; target; mounted_by } ->
      PS.umount_decision ?phase st ~target ~mounted_by ~ruid:subject
  | Bind { subject; port; proto; exe } ->
      PS.bind_allowed ?phase st ~port ~proto ~exe ~uid:subject
  | Ppp_ioctl { device; opt; _ } -> PS.ppp_ioctl_decision ?phase st ~device ~opt

(* The shared engine; [run] supplies the program, per path (see the
   interface for why a plane worker never reads the store).  It returns
   a closure of the engine's own arity, so the decider's call reaches it
   directly rather than through a partial application's stubs, and the
   closure owns the contexts it refills. *)
let eval ~state ~run =
  let ctxs = contexts () in
  let eval env (engine : Decider.engine) ~phase req =
    match engine with
    | `Ref ->
        if oracle ~phase:(Phase.of_index phase) (state env) req then Pfm.Allow
        else Pfm.Deny
    | `Pfm -> run env (program_kind req) (refill ctxs ~phase req)
  in
  eval

(* --- journal records ----------------------------------------------------- *)

let append term ~seq ~run ~epoch ~phase ~verdict ~errno = function
  | Mount { subject; source; target; fstype; flags } ->
      J.append_mount term ~seq ~run ~epoch ~phase ~subject ~verdict ~errno
        ~source ~target ~fstype ~flags:(Compile.flags_mask flags)
  | Umount { subject; target; mounted_by } ->
      J.append_umount term ~seq ~run ~epoch ~phase ~subject ~verdict ~errno
        ~target ~mounted_by
  | Bind { subject; port; proto; exe } ->
      J.append_bind term ~seq ~run ~epoch ~phase ~subject ~verdict ~errno ~port
        ~proto:(proto_code proto) ~exe
  | Ppp_ioctl { subject; device; opt } ->
      J.append_ppp term ~seq ~run ~epoch ~phase ~subject ~verdict ~errno ~device
        ~safe:(Protego_net.Ppp.option_is_safe opt)

let sink sk ~time ~pid ~uid ~phase ~engine ~span ~verdict ~record = function
  | Mount { subject; source; target; fstype; flags } ->
      J.sink_mount sk ~time ~pid ~uid ~subject ~phase ~engine ~span ~verdict
        ~record ~source ~target ~fstype ~flags
        ~flag_code:Protego_kernel.Ktypes.mount_flag_code
  | Umount { subject; target; mounted_by } ->
      J.sink_umount sk ~time ~pid ~uid ~subject ~phase ~engine ~span ~verdict
        ~record ~target ~mounted_by
  | Bind { subject; port; proto; exe } ->
      J.sink_bind sk ~time ~pid ~uid ~subject ~phase ~engine ~span ~verdict
        ~record ~port ~proto:(proto_code proto) ~exe
  | Ppp_ioctl { subject; device; opt } ->
      J.sink_ppp sk ~time ~pid ~uid ~subject ~phase ~engine ~span ~verdict
        ~device ~safe:(Protego_net.Ppp.option_is_safe opt)

(* The one decoder; see the interface for the two lossy steps. *)
let of_journal ~subject = function
  | J.Mount { source; target; fstype; flags } ->
      let flags = Compile.flags_of_mask flags in
      Some (Mount { subject; source; target; fstype; flags })
  | J.Umount { target; mounted_by } ->
      Some (Umount { subject; target; mounted_by })
  | J.Bind { port; proto; exe } ->
      let proto =
        if proto = 1 then Protego_policy.Bindconf.Udp
        else Protego_policy.Bindconf.Tcp
      in
      Some (Bind { subject; port; proto; exe })
  | J.Ppp { device; safe } ->
      let opt =
        if safe then Protego_net.Ppp.Accomp else Protego_net.Ppp.Default_route
      in
      Some (Ppp_ioctl { subject; device; opt })
  | J.Nf _ -> None

let expected st ~phase ~recorded req =
  if oracle ~phase:(Phase.of_index phase) st req then (1, 0)
  else if recorded then (3, 0)
  else (0, Protego_base.Errno.to_code (deny_errno req))
