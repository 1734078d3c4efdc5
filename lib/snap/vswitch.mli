(** Virtualization packet-switch engine (§2, Figure 2).

    Models the Andromeda-style cloud-VM datapath Snap hosts: guest VMs
    see virtual addresses; the engine rewrites virtual destinations to
    physical hosts via a per-host routing table, forwards guest transmit
    traffic to the NIC, and demultiplexes received traffic back to the
    right guest's receive ring. *)

type t
type guest

val create :
  loop:Sim.Loop.t ->
  nic:Nic.t ->
  group:Engine.group ->
  rx_queue:int ->
  unit ->
  t
(** The engine claims NIC receive ring [rx_queue] for guest-bound
    traffic (steering must be configured by the caller). *)

val add_guest : t -> vip:int -> guest
(** Attach a guest with a virtual IP. *)

val add_route : t -> vip:int -> host:Memory.Packet.addr -> unit
(** Program the virtual-to-physical routing table. *)

type Memory.Packet.payload +=
  | Vnet of { src_vip : int; dst_vip : int }
        (** Encapsulated guest traffic. *)

val guest_transmit : t -> guest -> dst_vip:int -> bytes:int -> bool
(** Guest posts a packet to its transmit ring; [false] if full. *)

val forwarded : t -> int
val unroutable : t -> int
(** This switch's counts.  All switch counters are also registered in
    {!Stats.Registry}: [vswitch_forwarded]/[vswitch_unroutable]/
    [vswitch_to_guests] labelled by host, and per-port
    [vswitch_port_drops] (packets lost at a full guest rx ring on
    delivery or a full tx ring on [guest_transmit]) plus a
    [vswitch_port_depth] gauge (tx + rx occupancy) labelled by host and
    port. *)
