(** Record mode on the kernel's own path: the synthesizer's LSM lane.

    Drives decision-plane requests (as {!Protego_workload.Workload}
    generates them) through [Syscall] on a booted Protego image with
    [/proc/protego/record] on, so each one passes the real LSM hook and
    leaves that hook's typed decision record in the machine's audit
    journal ({!Protego_kernel.Audit}).  {!Synth.observations} reads those
    records like plane decision records.

    A request's subject [s] runs as uid [2000 + s] (subject 0 would
    otherwise be root, which no hook is asked about), and so do an
    umount's [mounted_by] and a bind map entry's owner: the relations
    between them survive.
    Before an umount the target is mounted, as [mounted_by], by a
    capable helper task, so the hook sees the recorded mount owner.
    Requests the kernel decides without the LSM (an unprivileged bind
    port) leave no record.

    After the requests, every subject (in order of first appearance)
    sends {!nf_battery} through the netfilter OUTPUT hook; each packet
    leaves one nf record. *)

val nf_battery :
  (Protego_kernel.Ktypes.sock_domain * int * Protego_net.Packet.t) list
(** (socket domain, protocol, packet) of each raw send: raw UDP to port
    53 (outside the traceroute range 33434-33534), a raw TCP SYN to port
    80, and a non-ARP frame (0x88cc) on a packet socket, all to
    10.0.0.1. *)

type result = {
  journal : Protego_journal.Journal.t;  (** the machine's audit journal *)
  state : Protego_core.Policy_state.t;  (** the policy the hooks enforced *)
  netfilter : Protego_net.Netfilter.t;  (** the machine's chains *)
  requests : int;  (** requests driven *)
  decided : int;   (** LSM decision records written *)
  recorded : int;  (** of which would-denies (verdict 3) *)
}

val run :
  ?seg_bytes:int -> ?segments:int -> Protego_workload.Workload.spec ->
  Protego_plane.Plane.request array -> (result, string) Stdlib.result
(** Install the spec's policy ({!Protego_workload.Workload.install_policy},
    bind owners shifted by 2000) on a fresh image, switch record
    mode on, drive [requests] in order, then the nf battery.  The audit
    journal is [seg_bytes] x [segments] (default 256 KiB x 32); [Error]
    if any record was lost to wraparound. *)
