(** A map from non-negative ints to values, for lookups on the
    per-packet path.

    Open addressing with linear probing over two flat arrays, so a
    binding costs two array slots and no bucket, and a lookup hashes
    with one multiply in OCaml: no C call, no polymorphic compare, no
    allocation.  Removal shifts the probe run back instead of leaving
    tombstones.  There is no iteration: callers that need an order keep
    it themselves (this table's slot order would depend on its hash). *)

type 'a t

val create : dummy:'a -> unit -> 'a t
(** An empty table.  [dummy] fills vacant value slots, so a removed
    value is not kept alive by the table; it is never returned. *)

val find : 'a t -> int -> 'a
(** @raise Not_found when the key is unbound.  Allocates nothing. *)

val replace : 'a t -> int -> 'a -> unit
(** Bind the key, replacing any previous binding.  Doubles the arrays
    when more than half the slots would be full.
    @raise Invalid_argument on a negative key. *)

val remove : 'a t -> int -> unit
(** Unbind the key; no effect when it is unbound. *)

val length : 'a t -> int

val reset : 'a t -> unit
(** Remove every binding and shrink back to the initial size. *)

val home : bits:int -> int -> int
(** [home ~bits k] is the slot where key [k]'s probe run starts in a
    table of [2^bits] slots: the top [bits] bits of [k] times an odd
    constant near 2^63 / phi (Fibonacci hashing).  For an index that
    keeps its own slot array and probes linearly from here. *)
