(** Datacenter fabric: hosts attached to a top-of-rack switch.

    The evaluation's topologies are racks of machines under a single ToR
    (§5.1, §5.2), which is what this models: every host has a full-duplex
    link to the switch; the switch is store-and-forward with a fixed
    forwarding latency and per-egress-port drop-tail queues, one per QoS
    class with strict priority (Pony Express runs on its own class,
    §3.1).  Uplink serialization is modeled by the sender's NIC; this
    module models propagation, forwarding, egress queueing, egress
    serialization, and loss. *)

type t

type config = {
  link_gbps : float;  (** Host link rate, both directions. *)
  egress_buffer_bytes : int;  (** Drop-tail capacity per port per class. *)
}

val default_config : config
(** 100 Gbps links and 1 MiB buffers.  Every fabric has 500 ns
    propagation, 300 ns forwarding and 4 QoS classes. *)

val create : loop:Sim.Loop.t -> config:config -> hosts:int -> t

val config : t -> config

val attach : t -> addr:Memory.Packet.addr -> rx:(Memory.Packet.t -> unit) -> unit
(** Register the receive callback for a host (its NIC).  Must be called
    exactly once per host before traffic flows to it. *)

(** {1 Fault injection}

    A single hook consulted at egress enqueue, the point where the switch
    commits a packet to a destination port.  Fault injection (lib/fault)
    uses it to model link blackouts, bursty loss, reordering and
    corruption without the fabric knowing about plans or windows. *)

type fault_action =
  | Fault_pass  (** Forward normally (the default hook's only answer). *)
  | Fault_drop  (** Silently discard, as a lossy link would. *)
  | Fault_corrupt
      (** Deliver with [corrupted] set; the transport's end-to-end check
          must catch it. *)
  | Fault_delay of Sim.Time.t
      (** Hold the packet before egress queueing, reordering it past
          later traffic. *)

val set_fault_hook : t -> (Memory.Packet.t -> fault_action) -> unit
(** Replaces the previous hook; [fun _ -> Fault_pass] removes it.
    Injected drops count in {!port_drops}. *)

val send : t -> Memory.Packet.t -> unit
(** Hand a packet to the fabric at the sender's uplink (the sender NIC
    has already paid tx serialization).  The packet is delivered to the
    destination's [rx] callback after propagation, switching, egress
    queueing and serialization — or dropped if the egress queue
    overflows. *)

(** {1 Telemetry} *)

val dropped : t -> int
(** Drop-tail overflows and arrivals with no rx handler attached. *)

val port_drops : t -> addr:Memory.Packet.addr -> int
(** Packets lost on the egress toward the given host: drop-tail overflow,
    injected drops, and arrivals with no rx handler attached. *)

val port_max_queue_bytes : t -> addr:Memory.Packet.addr -> int
(** High-water mark of the egress queue toward the given host, all
    classes. *)
