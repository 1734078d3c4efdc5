(** Traffic-shaping engine (§2, Figure 2).

    One of Snap's original production engine types: "pacing and rate
    limiting ('shaping') for bandwidth enforcement" applied to host
    traffic.  The engine pulls packets from an input queue, runs them
    through a Click-style pipeline (ACL, per-class token buckets,
    counters), and forwards survivors to the NIC. *)

type t

val create :
  loop:Sim.Loop.t ->
  nic:Nic.t ->
  group:Engine.group ->
  ?rate_gbps:float ->
  ?burst_bytes:int ->
  unit ->
  t
(** Build the engine and add it to [group].  Default 10 Gbps rate,
    1 MiB burst, allow-all ACL. *)

val submit : t -> Memory.Packet.t -> bool
(** Hand a packet to the shaper (e.g. from the kernel-injection path);
    [false] if its input ring is full. *)

val forwarded : t -> int
val shaped_drops : t -> int
(** Packets dropped by policy (rate/ACL), as opposed to queue overflow. *)
