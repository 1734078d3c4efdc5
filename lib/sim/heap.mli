(** Mutable binary min-heap of int payloads.

    Used by the event queue (payloads are slot ids into the loop's
    closure table) and by the CFS run queue (payloads are task ids).
    Elements are ordered by an integer key supplied at insertion; ties
    are broken by insertion order so that iteration is deterministic.

    A non-zero [salt] deterministically perturbs the tie-break among
    equal keys (a hash of the salt and insertion sequence instead of
    FIFO).  The perturbation sweep runs workloads under several salts to
    flush out code that silently depends on FIFO ordering of
    same-timestamp events; every salt still gives fully reproducible
    pops.

    Entries are unboxed: [add], [top_key] and [pop_exn] allocate
    nothing (beyond doubling the backing arrays when full). *)

type t

val create : ?salt:int -> unit -> t

val salt : t -> int
(** The tie-break salt this heap was created with (0 = FIFO ties). *)

val tie_rank : salt:int -> int -> int
(** [tie_rank ~salt seq] is the tie-break rank of the [seq]-th insertion
    under [salt]: [seq] itself when [salt = 0], otherwise an injective
    hash of (salt, seq).  Equal keys pop in increasing rank.  Exported
    so other same-instant orderings ({!Wheel}) replay the heap's. *)

val length : t -> int

val is_empty : t -> bool

val add : t -> key:int -> int -> unit
(** [add h ~key v] inserts [v] with priority [key] (smaller pops first). *)

val top_key : t -> int
(** Key of the minimum element.
    @raise Invalid_argument if the heap is empty. *)

val pop_exn : t -> int
(** Remove and return the minimum element.
    @raise Invalid_argument if the heap is empty. *)

val validate : t -> string option
(** [None] when the internal arrays satisfy the heap property and the
    bookkeeping is coherent; otherwise a description of the violation.
    O(n); meant for the invariant checker, not hot paths. *)
