(** Transparent Snap upgrades (§4), run as per-engine transactions.

    A release upgrade runs a second Snap instance beside the old one and
    migrates engines one at a time, each in its entirety:

    - {e prepare}: sanity-check the engine is running and compute the
      migration plan;
    - {e brownout}: control-plane connections and shared-memory file
      descriptors transfer in the background, and the new instance
      pre-builds queues and allocators, while the old engine keeps
      processing (minimal performance impact);
    - {e blackout}: the old engine ceases packet processing, detaches
      its NIC receive filters, and serializes remaining state into a
      shared-memory volume; the new engine attaches identical filters,
      deserializes, and resumes;
    - {e commit}: the new instance is attached and notified.

    Each per-engine migration is transactional: if the engine is lost
    before the blackout, a fault corrupts it mid-blackout, a concurrent
    recovery reattaches the old instance, or the blackout would exceed a
    configured SLO, the transaction {e rolls back} — the old instance
    resumes with its state intact — and is retried after an
    exponentially backed-off delay, up to a bounded number of attempts
    before giving up.  An aborted or abandoned migration always leaves
    the engine attached to exactly one group.

    Packets arriving during the blackout are dropped (ring overflow once
    the detached ring fills) and recovered by the transport as if lost
    to congestion; application connections remain established.

    The migration reuses the same engine objects across "instances" —
    the state hand-off is modeled by its serialization time, which is
    what determines the blackout the paper measures (Figure 9: median
    250 ms, heavy-tailed, correlated with state size). *)

type phase =
  | Prepare
  | Brownout
  | Blackout
  | Commit
  | Rollback of string  (** Aborting; the argument is the reason. *)
  | Retry of int  (** Backoff elapsed; starting the given attempt. *)
  | Give_up of string
      (** Attempt budget exhausted; the engine stays on the old
          release. *)

val phase_to_string : phase -> string

type outcome = Committed | Gave_up of string

type report = {
  engine_name : string;
  state_bytes : int;
  brownout_scheduled : Sim.Time.t;
      (** The planned brownout duration (model output). *)
  brownout : Sim.Time.t;
      (** Measured: blackout start minus attempt start, as observed on
          the final attempt. *)
  blackout : Sim.Time.t;
      (** Measured on the final attempt (0 if the engine never reached
          blackout). *)
  started_at : Sim.Time.t;  (** First attempt's start. *)
  finished_at : Sim.Time.t;
  attempts : int;
  rollbacks : int;
  outcome : outcome;
}

type config = {
  blackout_slo : Sim.Time.t option;
      (** Abort (at the deadline) any blackout that would run longer
          than this; [None] disables the check. *)
  max_attempts : int;  (** Per-engine attempt budget. *)
  retry_backoff : Sim.Time.t;
      (** Base delay before a retry, doubled per failed attempt. *)
}

val default_config : config
(** No blackout SLO, 3 attempts, 5 ms base backoff.  Consecutive
    engine migrations are always spaced 1 ms apart. *)

val upgrade :
  loop:Sim.Loop.t ->
  old_group:Engine.group ->
  new_group:Engine.group ->
  ?extra_state_bytes:(Engine.t -> int) ->
  ?config:config ->
  ?on_transition:(engine:string -> phase -> unit) ->
  on_done:(report list -> unit) ->
  unit ->
  unit
(** Start an upgrade of every engine currently in [old_group], moving
    them into [new_group] (the new release's scheduling setup).
    [extra_state_bytes] adds synthetic serialized state per engine on
    top of what the engine itself reports — production engines carry
    far more state (flow tables, buffer pools) than a fresh simulation
    accumulates, and Figure 9's distribution is reproduced by drawing
    from a calibrated distribution here.  [on_transition] observes every
    state-machine transition (for logging and tests).  [on_done]
    receives one report per engine, committed or given up. *)

val blackout_of : state_bytes:int -> Sim.Time.t
(** The blackout duration the model assigns to a given amount of
    serialized state: filter detach + serialize + filter attach +
    deserialize. *)
