(** The discrete-event simulation driver.

    A [Loop.t] owns the virtual clock and the pending-event queue.
    Components schedule either closures or handler events against it: a
    handler is an [int -> unit] function registered once, and a handler
    event names it with an int argument, so scheduling and firing one
    allocate nothing.  Both kinds share one queue and one ordering.
    Events scheduled for the same instant fire in scheduling order
    (FIFO), which keeps runs deterministic. *)

type t

type handle [@@immediate]
(** A scheduled event, usable for cancellation: an immediate int packing
    the event's slot in the loop's closure table with that slot's
    generation, so a handle that outlives its event never matches the
    slot's next occupant. *)

val none : handle
(** A handle that is never pending: a placeholder for "no event". *)

type handler [@@immediate]
(** A registered [int -> unit] function, named by its index in the
    loop's handler table. *)

val create : ?seed:int -> ?tie_salt:int -> unit -> t
(** [create ~seed ()] makes a fresh simulation at time zero.  [seed]
    (default 42) seeds the root RNG stream.  [tie_salt] (default 0)
    deterministically perturbs the ordering of same-timestamp events:
    0 keeps scheduling-order (FIFO) ties, any other value replays them
    in a salted but still fully reproducible order — the perturbation
    sweep's lever against hidden tie-order dependence. *)

val now : t -> Time.t
(** Current virtual time. *)

val tie_salt : t -> int
(** The tie-break salt this loop was created with. *)

val validate_heap : t -> string option
(** Heap-property sanity check over the pending-event queue ([None] =
    healthy).  O(pending); used by the invariant checker. *)

val rng : t -> Rng.t
(** The root RNG stream of this simulation.  Components should [Rng.split]
    their own stream from it at construction time. *)

val at : t -> Time.t -> (unit -> unit) -> handle
(** [at t when_ f] schedules [f] to run at absolute time [when_].  If
    [when_] is in the past, [f] runs at the current instant, after all
    already-pending events for it. *)

val after : t -> Time.t -> (unit -> unit) -> handle
(** [after t d f] schedules [f] at [now t + d]. *)

val handler : t -> (int -> unit) -> handler
(** Register a handler for the loop's lifetime.  Register once per
    component, not per event: the table never shrinks. *)

val after_h : t -> Time.t -> handler -> int -> handle
(** [after_h t d h arg] schedules [h arg] at [now t + d], as {!after}
    would schedule a closure: same clamping, same tie order.  Allocates
    nothing once the slot table and heap have grown to the pending
    peak. *)

val cancel : t -> handle -> unit
(** Cancel a pending event.  Cancelling an event that has already fired
    or been cancelled is a no-op, even once its slot holds a newer
    event. *)

val is_pending : t -> handle -> bool
(** [true] until the event fires or is cancelled. *)

val every : t -> Time.t -> (unit -> unit) -> handle
(** [every t period f] runs [f] periodically, first at [now + period].
    The returned handle cancels the whole periodic activity. *)

val run : ?until:Time.t -> t -> unit
(** Execute events in time order until the queue empties or the clock
    would pass [until].  When [until] is given, the clock is left at
    exactly [until]. *)

val step : t -> bool
(** Run the single next event.  Returns [false] if the queue is empty. *)

val pending_events : t -> int
