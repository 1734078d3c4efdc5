(** Snap control plane (§2.3).

    The control plane is "centered around RPC serving": applications
    reach Snap over a Unix domain socket (the slow path) to authenticate,
    set up shared memory, and ask modules to create engines.  Control
    components synchronize with running engines only through their
    depth-1 mailboxes.

    Control traffic is not performance critical; calls model the
    syscall + domain-socket round trip with a fixed latency and run the
    registered handler inline. *)

type t

type message = ..
(** Extensible RPC payload; each module defines its own cases. *)

type message += Error_no_service of string

val create : loop:Sim.Loop.t -> name:string -> t

val register_service : t -> service:string -> (message -> message) -> unit
(** Modules (e.g. the Pony module of Figure 2) expose their setup RPCs
    here. *)

val call : Cpu.Thread.ctx -> t -> service:string -> message -> message
(** Application-side RPC over the domain socket: blocks the calling
    thread for the round trip, then returns the handler's response.
    Unknown services answer {!Error_no_service}. *)

val authenticate : Cpu.Thread.ctx -> unit
(** Models the cost of the identity check applications perform when
    establishing interactions with Snap (§2.6): one domain-socket round
    trip. *)

(** {1 Engine synchronization} *)

val recover_engine :
  t ->
  group:Engine.group ->
  Engine.t ->
  after:Sim.Time.t ->
  on_recovered:(unit -> unit) ->
  unit
(** Restart a crashed (detached) engine: [after] the detection delay plus
    one control RPC round trip, reload it into [group] and notify it.
    Pending ring/mailbox inputs survive the crash, mirroring how
    transparent upgrades preserve engine state.  No-op if the engine was
    already reattached. *)

(** {1 Watchdog}

    Health checking for engines (§4.3): the control plane posts
    heartbeat probes through each watched engine's mailbox and expects
    them to execute within a deadline.  A wedged engine (spinning
    without servicing its mailbox) or a crashed (detached) engine misses
    heartbeats; after [miss_threshold] consecutive misses the watchdog
    declares it unhealthy, restarts it through {!recover_engine} with
    exponential backoff, and — if restarts keep failing — escalates to a
    quarantined, degraded state instead of flapping forever.  Engines
    owned by an in-flight upgrade transaction are excused from heartbeat
    deadlines. *)

module Watchdog : sig
  type control := t
  type t

  val create : control:control -> unit -> t
  (** Heartbeats go out every 100us; 3 consecutive unanswered probes
      declare an engine dead, so detection latency is bounded by about
      400us.  A restart waits 200us, doubled per consecutive failure;
      after 3 failed restarts the engine is quarantined.  The
      consecutive-failure count resets only after the engine stays
      responsive for a stability window (600us), so flapping engines
      escalate even if each restart briefly sticks.  Each detection's
      latency, from the last answered heartbeat, lands in the
      [wd_detection_latency_ns] histogram labeled by control name. *)

  val watch_group : t -> Engine.group -> unit
  (** Start monitoring every engine currently in the group, with the
      group as the restart target of an engine never attached.
      Idempotent per engine. *)

  val start : t -> unit
  (** Arm the periodic heartbeat timer (no-op if already armed). *)

  val counters : t -> (string * int) list
  (** [wd_heartbeats], [wd_detections], [wd_restarts],
      [wd_quarantines]. *)
end
