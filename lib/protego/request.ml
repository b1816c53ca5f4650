module Pfm = Protego_filter.Pfm
module Compile = Protego_filter.Pfm_compile
module Phase = Protego_base.Phase
module PS = Policy_state
module Key = Decision_cache.Key
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

(* A bind's protocol code in the table key and both journal record
   kinds. *)
let proto_code = function
  | Protego_policy.Bindconf.Tcp -> 0
  | Protego_policy.Bindconf.Udp -> 1

(* One string goes last, unprefixed: see the interface. *)
let key k phase r =
  Key.int k phase;
  match r with
  | Mount { source; target; fstype; flags; _ } ->
      Key.int k (Compile.flags_mask flags);
      Key.string k source;
      Key.string k fstype;
      Key.last_string k target
  | Umount { target; mounted_by; _ } ->
      Key.int k mounted_by;
      Key.last_string k target
  | Bind { port; proto; exe; _ } ->
      Key.int k port;
      Key.int k (proto_code proto);
      Key.last_string k exe
  | Ppp_ioctl { device; opt; _ } ->
      Key.int k (if Protego_net.Ppp.option_is_safe opt then 1 else 0);
      Key.last_string k device

let ctx ~phase = function
  | Mount { source; target; fstype; flags; _ } ->
      Compile.mount_ctx ~phase ~source ~target ~fstype ~flags
  | Umount { subject; target; mounted_by } ->
      Compile.umount_ctx ~phase ~target ~mounted_by ~ruid:subject
  | Bind { subject; port; proto; exe } ->
      Compile.bind_ctx ~phase ~port ~proto ~exe ~uid:subject
  | Ppp_ioctl { device; opt; _ } -> Compile.ppp_ctx ~phase ~device ~opt

let oracle ?phase st = function
  | Mount { source; target; fstype; flags; _ } ->
      PS.mount_decision ?phase st ~source ~target ~fstype ~flags
  | Umount { subject; target; mounted_by } ->
      PS.umount_decision ?phase st ~target ~mounted_by ~ruid:subject
  | Bind { subject; port; proto; exe } ->
      PS.bind_allowed ?phase st ~port ~proto ~exe ~uid:subject
  | Ppp_ioctl { device; opt; _ } -> PS.ppp_ioctl_decision ?phase st ~device ~opt

(* The shared engine; [run] supplies the program, per path (see the
   interface for why a plane worker never reads the store). *)
let eval ~state ~run env (engine : Decider.engine) ~phase req =
  match engine with
  | `Ref ->
      if oracle ~phase:(Phase.of_index phase) (state env) req then Pfm.Allow
      else Pfm.Deny
  | `Pfm -> run env (program_kind req) (ctx ~phase req)

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
