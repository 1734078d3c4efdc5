(** Reliable flows: Pony Express's lower transport layer (§3.1).

    "The lower layer implements reliable flows between a pair of engines
    across the network ...  only responsible for reliably delivering
    individual packets, whereas the upper layer handles reordering,
    reassembly, and semantics associated with specific operations."

    A flow paces transmissions at the rate chosen by the {!Timely}
    controller, keeps a flight buffer for retransmission (duplicate-ack
    fast retransmit plus a retransmission timeout with bounded
    go-back-N), and on the receive side deduplicates and acknowledges
    packets, delivering upper-layer items immediately — even out of
    order. *)

type t

val max_flight : int
(** Per-flow flight cap in packets; also the largest window a receiver
    ever advertises. *)

val engine_name : host:int -> engine:int -> string
(** ["pony<engine>@<host>"], the name of Pony engine [engine] on host
    [host]: it labels the engine's metrics, among them the one
    [pony_flow_rtt_ns] where all of that engine's flows record RTT. *)

val create :
  loop:Sim.Loop.t ->
  key:Wire.flow_key ->
  max_rate_gbps:float ->
  ?version:int ->
  ?incarnation:int ->
  unit ->
  t
(** [incarnation] (default 0) is the sending host's incarnation number,
    stamped on every outgoing packet.  It is fixed for the flow's
    lifetime: a host crash destroys its flows, so a flow never outlives
    the incarnation it was born under. *)

val key : t -> Wire.flow_key
val version : t -> int

(** {1 Transmit side} *)

val enqueue : t -> Wire.item -> payload_bytes:int -> unit
(** Queue an upper-layer item for transmission. *)

val pending : t -> int
(** Items queued but not yet on the wire. *)

val queue_age : t -> now:Sim.Time.t -> Sim.Time.t
(** Age of the oldest queued (unsent) item; the transmit-side component
    of the engine's queueing-delay load signal. *)

val purge_queue : t -> drop:(Wire.item -> bool) -> unit
(** Remove not-yet-sent items for which [drop] is true (items bound for
    a dead connection); the caller settles their ops itself.  Flight and
    retransmission entries are untouched — removing them would punch
    holes in the go-back-N sequence space. *)

val in_flight : t -> int

val ready_to_emit : t -> now:Sim.Time.t -> bool
(** True when an item is queued, the window (both the local flight cap
    and the peer's advertised window) has room, and the pacer allows a
    transmission now.  A flow quenched by a zero advertised window
    becomes ready again once the window-reopen probe interval elapses. *)

val transmit : t -> now:Sim.Time.t -> gen:Memory.Packet.Id_gen.t -> Memory.Packet.t
(** Build the next packet (a queued retransmission first, else one
    queued item), advancing the pacer and flight buffer;
    {!Memory.Packet.none} when nothing may go now.  Allocates the packet
    and its header only. *)

val emit : t -> now:Sim.Time.t -> gen:Memory.Packet.Id_gen.t -> Memory.Packet.t option
(** {!transmit} as an option: [None] if nothing may go now. *)

val make_ack : t -> now:Sim.Time.t -> gen:Memory.Packet.Id_gen.t -> Memory.Packet.t option
(** Build a bare-ack packet if one is owed, else [None]. *)

val ack_owed : t -> bool

(** {1 Receive side} *)

val receive : t -> now:Sim.Time.t -> Memory.Packet.t -> Wire.item
(** Process an incoming packet of this flow: handles the piggybacked
    ack (congestion control, flight trimming, fast retransmit) and
    returns the upper-layer item if it has not been seen before, or
    [Wire.Bare_ack] when there is none to deliver (a duplicate, a bare
    ack, an item that is itself [Bare_ack], or a foreign payload).
    Allocates nothing. *)

val on_receive : t -> now:Sim.Time.t -> Memory.Packet.t -> Wire.item option
(** {!receive} as an option: [None] when there is no item to deliver. *)

(** {1 Engine membership}

    A flow is idle when nothing is queued or awaiting retransmission,
    nothing is in flight and no ack is owed: an engine pass has nothing
    to do for it, and {!next_deadline} is [max_int]. *)

val set_activity_hook : t -> (unit -> unit) -> unit
(** Install the function that marks this flow in its engine's
    membership set, and mark it now unless idle.  The flow becomes
    {!marked} and calls the hook at the first {!enqueue}, scheduled
    retransmission, or received packet that leaves an ack owed — the
    only ways out of idle — and stays marked, without calling again,
    until {!settle}.  Defaults to a no-op. *)

val marked : t -> bool
(** The hook has run since the flow was last settled idle. *)

val settle : t -> bool
(** Whether the flow is idle; if so, unmark it so its next activity
    calls the hook again.  The engine calls this to drop an idle
    member. *)

(** {1 Timers} *)

val next_deadline : t -> Sim.Time.t
(** Earliest time this flow needs service again (pacing release or
    retransmission timeout); [max_int] when nothing is queued or in
    flight. *)

val check_timeout : t -> now:Sim.Time.t -> int
(** Fire the retransmission timeout if due: requeues up to a bounded
    window of lost packets for retransmission and applies the loss
    signal to congestion control.  Returns how many packets were
    requeued. *)

val resync : t -> now:Sim.Time.t -> int
(** Engine-restart resynchronization: requeue the entire flight for
    immediate retransmission and reset the RTO, pacer release and
    duplicate-ack state, so in-flight operations complete by
    retransmission instead of waiting out a backed-off timeout.  Called
    when the owning engine's restart epoch bumps.  Returns how many
    packets were requeued (0 if retransmissions were already pending). *)

(** {1 Telemetry} *)

val retransmits : t -> int
val delivered : t -> int

(** {1 Receiver back-pressure (advertised window)} *)

val set_window_provider : t -> (unit -> int) -> unit
(** Install the function supplying the advertised receive window (in
    packets) stamped on every outgoing packet of this flow — derived by
    the owning engine from its rx-ring occupancy and op-pool pressure.
    Defaults to the full flight cap (no back-pressure).  The sender
    keeps the peer's most recent advertised window: new transmissions
    stop while [in_flight >= min max-flight window]; retransmissions are
    exempt (their flight slots are already accounted). *)

val zero_window_probes : t -> int
(** Probe packets sent to reopen a zero advertised window after idle:
    without them, "no data -> no acks -> no window update" would
    livelock the flow. *)
