(** The one owner of a spec workload's run ({!Spec}).

    {!create} opens a fresh invariant scope, makes the seeded loop and
    binds the checker to it, then builds the default fabric, one Pony
    directory and hosts [0..n-1] in address order.  {!finish} runs to
    the cap, quiesces the checker and asserts that every host's op pool
    drained.  Between the two, a workload drives traffic with its own
    code and with the drivers below, which more than one workload
    runs. *)

type t = {
  loop : Sim.Loop.t;
  fabric : Fabric.t;
  hosts : Snap.Host.t array;  (** Indexed by address. *)
}

val create :
  seed:int ->
  tie_salt:int ->
  hosts:int ->
  (loop:Sim.Loop.t ->
  fabric:Fabric.t ->
  directory:Pony.Express.Directory.dir ->
  addr:Memory.Packet.addr ->
  Snap.Host.t) ->
  t
(** [create ~seed ~tie_salt ~hosts:n host] calls [host], the
    workload's own {!Snap.Host.create}, once per address from 0 to
    [n - 1]. *)

val inject : t -> Fault.Plan.t -> Fault.Injector.t
(** Install [plan] against the fabric and every host. *)

val finish : t -> until:Sim.Time.t -> unit
(** Run the loop to [until], evaluate every invariant once more, and
    assert that every host's op pool drained.  A leaked op-pool byte
    raises [Failure] naming its owner, so a workload that returns a
    result leaked nothing. *)

(** {1 Round trips} *)

type trips = {
  latencies : Stats.Histogram.t;  (** This run's round trips, ns. *)
  labelled : Stats.Histogram.t;
      (** The same samples in the registry, labelled by workload. *)
  mutable ok : int;
  mutable failed : int;  (** Ops the driver gave up on. *)
  mutable retries : int;  (** Attempts after an op's first. *)
  mutable last_done : Sim.Time.t;  (** When the last round trip ended. *)
}

val trips : workload:string -> string -> trips
(** [trips ~workload metric] starts an empty tally whose samples also
    feed the registry histogram [metric], labelled [workload]. *)

val trip : trips -> Cpu.Thread.ctx -> t0:Sim.Time.t -> unit
(** Count a round trip that started at [t0] and ends now. *)

val echo_gbps : trips -> bytes:int -> float
(** Goodput of the completed round trips, each carrying [bytes] out and
    [bytes] back, over the time the last one ended; 0 when none did. *)

(** {1 Drivers}

    Each spawns one spinning application thread on its host. *)

val echo_server : Snap.Host.t -> name:string -> exclusive_engine:bool -> unit
(** A client named [name] that answers every message with one of the
    same size, on an engine of its own when [exclusive_engine]. *)

val sink : Snap.Host.t -> name:string -> service:Sim.Time.t -> unit
(** A client named [name] that consumes every message, computing for
    [service] per message, and never replies.  Service time is compute,
    not sleep: a sleeping spin thread is woken early by the next
    delivery, so it would drain as fast as messages arrive. *)

val echo_client :
  Snap.Host.t ->
  trips ->
  name:string ->
  dst_host:Memory.Packet.addr ->
  dst_name:string ->
  ops:int ->
  bytes:int ->
  think:Sim.Time.t ->
  unit
(** A closed-loop client: 500 us after start it dials [dst_name] on
    [dst_host], then [ops] times sends [bytes], awaits the echo, counts
    the round trip and thinks for [think]. *)

val guest_victim :
  trips ->
  Guest.Tenant.t ->
  ops:int ->
  bytes:int ->
  stop_at:Sim.Time.t ->
  gap:Sim.Time.t ->
  Cpu.Thread.ctx ->
  unit
(** A well-behaved guest, run on the thread that attached the tenant:
    it fills the rx ring with buffers, then issues up to [ops]
    closed-loop echoes of [bytes] over the tx ring until [stop_at],
    pausing [gap] between ops.  Each op gets up to three attempts, each
    with a fresh descriptor id: 4 ms for the send's completion and,
    once it completed, 10 ms for the echo.  The caller detaches. *)

(** {1 Fingerprints} *)

val add_fault_log : Buffer.t -> Fault.Log.t -> unit
(** One ["at kind detail"] line per entry, oldest first, with packet-id
    labels stripped from the details: which of two same-timestamp
    packets draws the lower id is a schedule tie the perturbation sweep
    reorders on purpose, while drop times and counts are not. *)
