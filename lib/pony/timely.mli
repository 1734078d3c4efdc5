(** Timely-variant congestion control (§3.1).

    "The congestion control algorithm we deploy with Pony Express is a
    variant of Timely and runs on dedicated fabric QoS classes."  Timely
    is rate-based: each acknowledged packet carries an RTT sample, and
    the sending rate adjusts on the RTT's absolute value and gradient:

    - RTT below [t_low]: additive increase (the fabric is underused).
    - RTT above [t_high]: multiplicative decrease proportional to the
      overshoot.
    - In between: gradient-based — decrease when RTT is rising, increase
      when falling, with hyperactive additive increase after several
      consecutive negative gradients.  The gradient is the smoothed RTT
      difference over the smallest RTT seen so far.

    The module is pure state-machine logic so the algorithm is testable
    without the simulator. *)

type t

val create : max_rate_gbps:float -> unit -> t
(** A controller starting at half of [max_rate_gbps], with [t_low]
    15 us, [t_high] 50 us (datacenter-scale), a 0.05 Gbps floor,
    additive increase 0.5 Gbps, multiplicative decrease factor 0.8, and
    hyperactive increase after 5 consecutive negative gradients. *)

val on_rtt_sample : t -> Sim.Time.t -> unit
(** Feed one RTT measurement (ack arrival). *)

val on_loss : t -> unit
(** Retransmission-detected loss: treat as a severe congestion signal. *)

val pacing_gap : t -> int -> Sim.Time.t
(** Time to send that many wire bytes at the current rate, rounded to
    the nearest ns: the pacer's gap after a packet. *)
