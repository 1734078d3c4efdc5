(** Per-engine pressure state machine.

    Snap keeps Pony Express stable under saturation by degrading
    gracefully instead of collapsing (§3.3, §5): the mechanisms that do
    the degrading — admission control, receiver back-pressure, load
    shedding — need a shared, cheap notion of {e how loaded this engine
    is right now}.  [Pressure.t] folds the engine's queue occupancy and
    its pool occupancy into one of three levels with hysteresis, so the
    gates downstream do not flap on every batch:

    - [Nominal]: everything admitted, full advertised windows.
    - [Pressured]: advertised windows shrink; expired-deadline ops are
      dropped at dequeue.
    - [Saturated]: advertised windows go to zero, over-quota clients'
      ops are shed at dequeue (cheapest-first: before any segmentation
      or transmission work is invested in them).

    Transitions are counted in {!Stats.Registry} and emitted as
    {!Sim.Span} instants, so a trace shows exactly when an engine
    entered and left each regime. *)

type level = Nominal | Pressured | Saturated

type t

val create : loop:Sim.Loop.t -> name:string -> unit -> t
(** [name] labels the registry metrics ([overload_pressure_level],
    [overload_pressure_transitions]) and the span track.  An engine
    enters Pressured at 50% occupancy and leaves it below 35%; it
    enters Saturated at 80% and leaves it below 60%. *)

val update : t -> occupancy:float -> level
(** Feed the current load signal (the max of the engine's queue
    fractions and the pool fraction, in [0,1]) and return the resulting
    level, applying hysteresis against the previous level. *)

val level : t -> level
val transitions : t -> int
(** Level changes since creation. *)
