(** Bounded single-producer single-consumer ring.

    This is the simulated analogue of Snap's lock-free shared-memory
    queues (Figure 2): command queues, completion queues, packet rings,
    and engine-to-engine links all use it.  Each element is timestamped
    on enqueue so consumers (in particular the compacting engine
    scheduler, §2.4) can estimate queueing delay.

    A push allocates only the [Some v] the ring keeps; [pop] returns
    that same option, allocating nothing.  Slot storage grows on demand
    up to [capacity], so an idle ring is a few words however large its
    capacity. *)

type 'a t

val create : capacity:int -> unit -> 'a t
(** [capacity] must be positive. *)

val capacity : 'a t -> int
val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> now:Sim.Time.t -> 'a -> bool
(** [push t ~now v] enqueues [v]; returns [false] when full. *)

val pop : 'a t -> 'a option

val oldest_age : 'a t -> now:Sim.Time.t -> Sim.Time.t
(** Age of the element at the head, i.e. the current queueing delay;
    zero when empty. *)
