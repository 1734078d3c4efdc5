(** Growable set of small non-negative integers, iterated in index
    order.

    Built for per-pass membership: an engine marks the index of a flow
    or client when it gains work, and its passes walk only the members
    ([next] finds the smallest member at or after an index) instead of
    every slot.  An empty set answers [next] with one integer compare,
    so it costs a pass a single test. *)

type t

val create : unit -> t
(** An empty set; storage grows on the first [set] past its end. *)

val set : t -> int -> unit
(** Add a member (idempotent), growing the storage to fit it.
    @raise Invalid_argument on a negative index. *)

val clear : t -> int -> unit
(** Remove a member; a no-op for non-members and out-of-range indices. *)

val reset : t -> unit
(** Remove every member, keeping the storage. *)

val next : t -> int -> int
(** [next t i] is the smallest member [>= i], or [-1] when there is
    none. *)
