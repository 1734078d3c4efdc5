(** Int-indexed flat arena with generation-tagged handles.

    The object-granularity cousin of [Pool]'s owner generations: every
    slot carries a generation counter bumped on free, and a handle
    minted under an older generation is simply stale — [get] returns
    [None] and [free] returns [false].  Stale access is a checked
    no-op, never a use-after-free.

    The NIC and the fabric park packets here while a {!Sim.Loop}
    handler event carries their handle. *)

type handle = int
(** A generation-tagged reference to an arena slot: an int packing
    (generation, index), so it can travel as a {!Sim.Loop} handler
    event's argument.  Any int is safe to pass back: one that names no
    live slot of this generation is stale. *)

type 'a t

val create : unit -> 'a t
(** An empty arena of 64 slots; the backing arrays double as needed. *)

val alloc : 'a t -> 'a -> handle
(** O(1) amortized.  Reuses the most recently freed slot first. *)

val free : 'a t -> handle -> bool
(** O(1).  Returns [false] (and does nothing) if the handle is stale —
    the slot was already freed, possibly reused by a newer occupant. *)

val get : 'a t -> handle -> 'a option
(** O(1).  [None] if the handle is stale.  Allocates nothing: the
    option is the one stored at [alloc]. *)

val take : 'a t -> handle -> 'a option
(** [get] then [free]: the value, with its slot vacated so the arena no
    longer retains it.  [None] (and no effect) if the handle is stale.
    Allocates nothing. *)
