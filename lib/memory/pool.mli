(** Buffer pools with per-owner accounting.

    Section 2.5: Snap attributes memory consumed on behalf of applications
    back to those applications.  A [Pool.t] hands out fixed-size buffers
    up to a byte capacity and tracks consumption per owner so the
    accounting tests and the control plane can observe it.  Buffer
    contents are not materialised; only sizes are tracked. *)

type t

type account
(** One owner's charge and generation in one pool.  Resolve it once with
    {!account} and allocate through {!try_alloc_from}: no per-op path
    then hashes the owner's name. *)

type alloc = private {
  account : account;
  bytes : int;
  mutable live : bool;
  gen : int;
      (** Owner generation at mint time; {!release_owner} invalidates
          older generations so their late [free]s are no-ops. *)
}
(** A live allocation; return it with {!free}. *)

exception Exhausted of string
(** Raised when an allocation would exceed pool capacity. *)

val create : name:string -> capacity_bytes:int -> t

val capacity : t -> int
val in_use : t -> int

val account : t -> owner:string -> account
(** The owner's account, made on first use.  It lives as long as the
    pool, and {!release_owner} acts on it. *)

val try_alloc_from : account -> bytes:int -> alloc option
(** Allocate [bytes] charged to the account, or [None] if the pool
    cannot satisfy the request. *)

val alloc : t -> owner:string -> bytes:int -> alloc
(** Allocate [bytes] charged to [owner], resolving its account.  Raises
    {!Exhausted} if the pool cannot satisfy the request. *)

val try_hold : t -> bytes:int -> bool
(** Take [bytes] from the pool for the duration of one synchronous step,
    with no owner and no [alloc] record: [in_use] and the high
    watermark move exactly as {!try_alloc} would move them.  [false]
    (and no effect) when the pool cannot cover it.  Return the bytes
    with {!unhold} before control leaves the step: until then the
    per-owner charges do not sum to [in_use], so the hold must never
    span an event boundary, where the invariant checker runs. *)

val unhold : t -> bytes:int -> unit
(** Return bytes taken with {!try_hold}. *)

val free : alloc -> unit
(** Return an allocation.  Double-free raises [Invalid_argument].
    Freeing an allocation whose owner was since bulk-reclaimed with
    {!release_owner} is a safe no-op: the bytes were already returned. *)

val release_owner : t -> owner:string -> int
(** Reclaim every byte currently charged to [owner] in one step and
    invalidate that owner's outstanding allocations (their later
    {!free}s become no-ops).  Used by crash recovery: an engine that
    dies with in-flight allocations must not strand pool bytes forever.
    Returns the number of bytes reclaimed. *)

val owner_usage : t -> string -> int
(** Bytes currently charged to the given owner. *)

val high_watermark : t -> int
(** Maximum [in_use] ever observed. *)

val check_consistency : t -> string option
(** Internal-accounting invariant: [in_use] within [0, capacity],
    per-owner charges non-negative and summing exactly to [in_use],
    watermark no lower than the live total.  [None] = healthy; used by
    the invariant checker at cadence. *)

val check_quiesced : t -> string option
(** Non-raising form of {!assert_quiesced}: [None] when drained, else
    the leak description naming the owners still charged. *)

val assert_quiesced : t -> unit
(** Raise [Failure] (naming the owners still charged) unless the pool
    is completely drained.  Chaos and overload workloads call this at
    quiesce: any live byte after every operation has completed is a
    leak. *)
