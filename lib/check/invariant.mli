(** Registry of named runtime invariants, evaluated at a cadence and at
    quiesce.

    Snap's production story (SOSP '19 §6–7) leans on always-on
    self-checking to make weekly transparent upgrades safe; this module
    is the simulator's version of that discipline.  Each layer registers
    predicates over its own live state when it constructs (flow flight
    accounting, connection credit conservation, op-pool byte
    conservation, SPSC/mailbox occupancy bounds, engine state-machine
    legality, sim-time monotonicity, event-heap ordering); the checker
    replays them every 50 us of virtual time while the run has events
    pending, and once more when the workload quiesces.

    Checking is globally off by default.  While off, {!register} is a
    no-op (no registry growth, no closures held) and the hot paths pay
    nothing.  Turn it on with {!set_enabled} — the [--check] flag on
    [bench/main.exe] — before constructing the system under test. *)

exception Violation of string
(** Raised by a failed predicate: names the invariant, the virtual
    time, the detail supplied by the predicate, and (when span capture
    is on) the most recent span events as context. *)

type kind =
  | Cadence  (** Evaluated periodically and at quiesce (the default). *)
  | Quiesce_only
      (** Only meaningful once the system has drained (e.g. "op pool
          empty"); evaluated by {!quiesce} alone. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

val begin_run : unit -> unit
(** Start a fresh run scope: drop every registration and counter from
    the previous run (their closures reference dead objects).  Call
    before constructing the system under test. *)

val register : ?kind:kind -> name:string -> (unit -> string option) -> unit
(** [register ~name pred] adds a predicate; [pred () = Some detail]
    means violated.  No-op while checking is disabled. *)

val install : loop:Sim.Loop.t -> unit -> unit
(** Bind the checker to [loop]: registers the simulator's own
    invariants (time monotonicity, heap ordering) and schedules
    {!check_now} every 50 us of virtual time for as long as another
    event is pending, so a drained run idles to its cap without
    evaluating anything; {!quiesce} checks the end state.  No-op while
    checking is disabled. *)

val check_now : unit -> unit
(** Evaluate every [Cadence] invariant immediately; raises {!Violation}
    on the first failure. *)

val quiesce : unit -> unit
(** Evaluate {e every} invariant, including [Quiesce_only] ones.  Call
    after the run drains, before tearing the system down. *)

val registered : unit -> int
val evaluations : unit -> int
(** Total predicate evaluations this run — the proof the checker
    actually ran. *)

(** {1 Sabotage switches}

    Deliberate-bug flags proving the checker is not vacuous: production
    code consults {!sabotage} at a fault point and skips some piece of
    bookkeeping while the named flag is armed, and the sweep asserts the
    checker catches the resulting violation.  Test-only. *)

val set_sabotage : string -> bool -> unit
val sabotage : string -> bool
