(** Simulated network packets.

    A packet carries addressing metadata and a [payload], an extensible
    variant so that each protocol layer (kernel TCP, Pony Express, raw
    workloads) attaches its own typed header without this module knowing
    about any of them.  Packet payload *bytes* are represented only by
    their length: the simulation charges copy costs and wire time from
    sizes, and correctness-sensitive data (op arguments, one-sided
    results) travels inside the typed payloads. *)

type addr = int
(** Host address: index of the machine in the fabric. *)

type payload = ..
(** Extensible protocol payload. *)

type payload += Empty

type t = {
  id : int;  (** Unique per simulation, for tracing. *)
  src : addr;
  dst : addr;
  flow_hash : int;  (** Used for NIC receive-side steering. *)
  qos : int;  (** Fabric QoS class (Pony runs on its own class, §3.1). *)
  wire_bytes : int;  (** Total size on the wire, headers included. *)
  payload_bytes : int;  (** Application bytes carried. *)
  payload : payload;
  mutable sent_at : Sim.Time.t;  (** Stamped by the NIC on transmit. *)
  mutable corrupted : bool;
      (** Payload poisoned in flight (fault injection).  The wire CRC
          still passes — corruption is detected only by the transport's
          end-to-end check, which must discard the packet and recover by
          retransmission. *)
}

val make :
  id:int ->
  src:addr ->
  dst:addr ->
  ?flow_hash:int ->
  ?qos:int ->
  wire_bytes:int ->
  ?payload_bytes:int ->
  payload ->
  unit ->
  t

val none : t
(** A placeholder that is never sent: marks an empty packet field,
    compared with [==].  Never mutate it. *)

module Id_gen : sig
  type packet = t

  type t
  (** Per-simulation packet id generator. *)

  val create : unit -> t
  val next : t -> int
end
