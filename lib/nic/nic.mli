(** NIC model: descriptor rings, receive-side steering, interrupts.

    One NIC per host.  Receive: the fabric delivers a packet; after the
    DMA/PCIe latency it is steered by flow hash to one of the receive
    rings and the ring's notification policy fires (kick for polling
    consumers, a NAPI-style armed interrupt for blocking consumers).
    Transmit: producers post packets into the transmit ring when slots
    are free — Snap engines generate packets just-in-time against slot
    availability (§3.1) — and the NIC serializes them onto the wire at
    link rate. *)

type t

type config = {
  mtu : int;  (** Maximum wire bytes per packet. *)
  num_rx_queues : int;
}

val default_config : config
(** 5000 B MTU, 8 rx queues.  Every NIC has 4096 slots per rx ring and
    1024 tx slots, and takes 1 us from wire to rx-ring visibility (DMA,
    PCIe) and 1 us from descriptor post to wire start. *)

(** How to tell the consumer of an rx ring that packets arrived. *)
type rx_notify =
  | No_notify  (** Consumer polls on its own schedule. *)
  | Kick of Cpu.Sched.task
      (** Resume a spin-polling consumer (cheap, no interrupt). *)
  | Interrupt of (unit -> unit)
      (** NAPI-style: fire an interrupt on the host and run the callback
          in interrupt context, then stay disarmed until
          {!rearm_rx_interrupt}. *)
  | Soft of (unit -> unit)
      (** Invoke the callback directly with no interrupt cost; the
          consumer is responsible for charging any work it does (used by
          busy-polling consumers that poll from their own context). *)

val create :
  loop:Sim.Loop.t ->
  machine:Cpu.Sched.machine ->
  fabric:Fabric.t ->
  addr:Memory.Packet.addr ->
  config ->
  t
(** Creates the NIC and attaches it to the fabric at [addr]. *)

val addr : t -> Memory.Packet.addr
val mtu : t -> int
val config : t -> config

(** {1 Receive} *)

val set_rx_notify : t -> queue:int -> rx_notify -> unit

val rearm_rx_interrupt : t -> queue:int -> unit
(** Re-enable interrupts on the ring after the consumer drained it.  If
    packets arrived while disarmed, the interrupt fires again
    immediately. *)

val rx_ring : t -> queue:int -> Memory.Packet.t Squeue.Spsc.t
(** Direct access to a receive ring for polling consumers. *)

val install_steering : t -> (Memory.Packet.t -> int) -> unit
(** Replace the default steering function (flow hash modulo queue
    count).  Used by Snap to direct flow groups at specific engines
    (§2.2 "utilizing NIC steering functionality as needed"). *)

val stall_rx : t -> queue:int -> until:Sim.Time.t -> unit
(** Fault injection: packets steered to [queue] are held (DMA write
    deferred, arrival order preserved) until the virtual clock reaches
    [until].  Overlapping stalls keep the later deadline. *)

(** {1 Transmit} *)

val tx_slots_free : t -> int

val try_transmit : t -> Memory.Packet.t -> bool
(** Post a packet for transmission.  [false] when the transmit ring is
    full.  Packets larger than the MTU are rejected with
    [Invalid_argument]: segmentation is the sender's job. *)

val set_tx_drain_hook : t -> (unit -> unit) -> unit
(** Invoked each time a transmit slot frees up (a packet hit the wire),
    so just-in-time producers can top the ring up. *)

(** {1 Telemetry} *)

val tx_count : t -> int
val rx_dropped : t -> int
(** Packets dropped because an rx ring was full. *)

val rx_stalled : t -> int
(** Packets deferred by an injected rx-queue stall. *)

(** I/OAT-style asynchronous copy offload (§3.4).

    Pony Express uses the Intel I/OAT DMA device to take receive-side
    memory copies off the CPU.  The model: submitting a copy costs the
    CPU only the descriptor-programming time (charged by the caller via
    the cost table); the bytes then move at the device's bandwidth and a
    completion callback fires.  Copies on one engine's channel are
    serialized, as on the real device. *)
module Copy_engine : sig
  type ce

  val create : loop:Sim.Loop.t -> unit -> ce
  (** A channel that moves 240 Gbps (30 GB/s). *)

  val submit : ce -> bytes:int -> on_complete:(unit -> unit) -> unit
  (** Queue a copy of [bytes]; [on_complete] fires when it lands. *)
end

val link_gbps : t -> float
(** The attached link's rate (from the fabric config). *)
