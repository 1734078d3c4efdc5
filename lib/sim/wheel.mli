(** Hierarchical timing wheel, ticked from the {!Loop}.

    Arming and cancelling timers are O(1) regardless of how many are
    outstanding — the datapath's alternative to scheduling every
    per-connection deadline straight onto the loop's global heap.

    The wheel is tickless: it keeps at most one pending loop event (at
    the earliest tick that could fire or cascade a timer) and none when
    idle, so an armed-but-quiet wheel never stops the loop from
    draining.  A tick is one nanosecond, so timers fire at their exact
    due times, and same-instant timers fire in the same salted
    tie-break order as {!Heap}: FIFO when the loop's [tie_salt] is 0,
    a deterministic shuffle of arm order otherwise. *)

type t
type timer

val create : loop:Loop.t -> unit -> t
(** [create ~loop ()] makes an empty wheel driven by [loop], inheriting
    its tie-break salt. *)

val arm : t -> at:Time.t -> (unit -> unit) -> timer
(** O(1).  Schedule [fn] at absolute time [at] (clamped to fire no
    earlier than the next wheel tick; past times fire promptly). *)

val cancel : timer -> unit
(** O(1).  Cancelling a fired or already-cancelled timer is a no-op. *)

val is_armed : timer -> bool

