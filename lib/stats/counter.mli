(** Monotonic counters.

    The simplest telemetry primitive: subsystems that want queryable
    event counts (fault injections, retransmissions) expose these instead
    of ad-hoc mutable ints, so reports can enumerate them uniformly. *)

type t

val create : unit -> t
val incr : ?by:int -> t -> unit
val value : t -> int
