(** Snap engines and engine-group scheduling (§2.2, §2.4).

    An engine is a stateful, single-threaded task encapsulating a packet
    processing pipeline.  Engines communicate with applications, NIC
    rings, the kernel and each other exclusively over memory-mapped
    queues; the control plane reaches them through a depth-1 mailbox
    serviced on the engine's own thread.

    Engines are bundled into {e groups} with one of three scheduling
    modes:

    - {b Dedicating cores}: engines pinned to reserved hyperthreads that
      spin-poll; multiple engines on a core are round-robined (the mode
      fair-shares when CPU constrained).
    - {b Spreading engines}: one kernel-visible thread per engine,
      blocking on notification when idle and woken through the
      MicroQuanta class for low tail latency.
    - {b Compacting engines}: engines collapse onto as few threads as
      possible; a rebalancer polls queueing delays and scales out onto
      more threads when the delay SLO is violated, and compacts back
      when load subsides (the Shenango-style algorithm of §2.4). *)

type t
(** An engine. *)

type outcome = private int
(** What one [run] call did, as an immediate so that a step allocates
    nothing.  Only {!worked} and {!no_work} build one. *)

val worked : Sim.Time.t -> outcome
(** The engine processed a bounded batch costing this much CPU.  Raises
    [Invalid_argument] on a negative cost. *)

val no_work : outcome
(** Nothing to do right now. *)

val create :
  name:string ->
  run:(unit -> outcome) ->
  ?queue_delay:(Sim.Time.t -> Sim.Time.t) ->
  ?state_bytes:(unit -> int) ->
  unit ->
  t
(** [run] performs one bounded batch of work.  [queue_delay now] reports
    the age of the oldest unserviced input (the compacting scheduler's
    load signal); default reports zero.  [state_bytes ()] sizes the
    engine's serializable state for transparent upgrades (§4); default
    0.  The engine's CPU is accounted to "snap". *)

val name : t -> string

val mailbox : t -> Squeue.Mailbox.t
(** The control-plane mailbox; work posted here executes on the engine's
    thread before its next batch (§2.3). *)

val notify : t -> unit
(** Tell the engine's current thread that new input exists.  Producers
    (applications posting commands, NICs, peer engines) call this after
    enqueueing.  Cheap for spinning threads; a scheduler wakeup for
    blocked ones; no-op when the engine is detached. *)

val state_bytes : t -> int
val steps : t -> int
(** Number of [run] calls that made progress. *)

val busy_ns : t -> int
(** Total CPU cost this engine's batches have reported. *)

val is_attached : t -> bool

(** {1 Restart epochs and failure flags}

    The availability machinery (watchdog, transactional upgrades, crash
    recovery) coordinates through a small amount of per-engine state:
    an {e epoch} that counts instantiations, and flags marking wedged,
    faulted, or migrating instances. *)

val epoch : t -> int
(** Incremented every time the engine is (re)loaded into a group.
    Transports compare epochs to detect a restart and resynchronize
    in-flight state (see [Pony.Flow.resync]). *)

val is_wedged : t -> bool

val set_wedged : t -> bool -> unit
(** A wedged engine spins on its thread without servicing its mailbox or
    making progress — a silent failure only heartbeat monitoring can
    see.  Reloading the engine ({!add}) clears the wedge: a fresh
    instance discards the stuck computation while its queues survive. *)

val is_failed : t -> bool

val mark_failed : t -> unit
(** Record that a fault (e.g. an injected crash) landed on this engine
    while it was detached — mid-migration or awaiting recovery.  The
    upgrade transaction checks this at commit and rolls back. *)

val clear_failed : t -> unit

val is_migrating : t -> bool

val set_migrating : t -> bool -> unit
(** Set while an upgrade transaction owns the engine (blackout).  The
    watchdog excuses migrating engines from heartbeat deadlines so
    recovery cannot race a planned migration. *)

(** {1 Groups} *)

type mode =
  | Dedicating of { cores : int }
  | Spreading of { runtime_pct : float }
      (** One MicroQuanta thread per engine (the production setup). *)
  | Spreading_class of Cpu.Sched.klass
      (** Spreading, but with an explicit scheduling class — Figure 6(d)
          compares MicroQuanta against CFS nice -20 for the same
          spreading engines. *)
  | Compacting of { slo : Sim.Time.t; max_threads : int }

type group

val create_group :
  machine:Cpu.Sched.machine -> name:string -> mode:mode -> group

val group_mode : group -> mode

val add : group -> t -> unit
(** Load an engine into the group and start scheduling it.  An engine
    lives in at most one group. *)

val remove : group -> t -> unit
(** Detach an engine (it stops being scheduled); used during transparent
    upgrades.  Pending inputs stay in its queues. *)

val engines : group -> t list

val home : t -> group option
(** The group the engine last belonged to, surviving detach — where
    crash recovery reloads it. *)

(** Click-style packet processing elements (§2.2): see {!Element}. *)
module Element : sig
  type action =
    | Pass of Memory.Packet.t  (** Continue down the pipeline. *)
    | Drop  (** Discard. *)
    | Consume  (** The element took ownership (e.g. queued it). *)

  type t

  val name : t -> string

  (** {1 Stock elements} *)

  val counter : name:string -> t
  (** Passes everything; useful for telemetry taps. *)

  val acl :
    name:string -> allow:(Memory.Packet.t -> bool) -> t
  (** Drops packets failing the predicate. *)

  val token_bucket :
    name:string ->
    loop:Sim.Loop.t ->
    rate_gbps:float ->
    burst_bytes:int ->
    t
  (** Traffic shaping: passes packets while tokens last, drops beyond the
      rate (§2: "pacing and rate limiting for bandwidth enforcement").
      Tokens refill continuously at [rate_gbps]. *)

  (** {1 Pipelines} *)

  module Pipeline : sig
    type element = t
    type t

    val of_list : element list -> t

    val push : t -> Memory.Packet.t -> Memory.Packet.t option * Sim.Time.t
    (** Run a packet through every element.  Returns the surviving packet
        (None if dropped/consumed) and the total CPU cost incurred. *)
  end
end
