(** Per-client admission control at op submission (§3.3).

    "Pony Express bounds the memory consumed on behalf of each client":
    every submitted op charges its payload bytes against a shared
    {!Memory.Pool} under the client's name and holds the charge until
    the op's completion is delivered, so one misbehaving client cannot
    consume the host's op memory.  Three gates run in order, all on the
    submitting thread (the shared-memory command queue is the fourth,
    structural, gate):

    + outstanding-op quota (count),
    + outstanding-byte quota charged against the pool ([try_alloc],
      never the raising [alloc] — overload must answer [Rejected], not
      throw into the hot path),
    + a token-bucket submission rate limiter.

    A rejected op never reaches the engine: the client library converts
    the verdict into a completion with status [Rejected].  Admissions
    and rejections are counted per client in {!Stats.Registry}. *)

type t

type reject_reason = Over_op_quota | Over_byte_quota | Pool_exhausted | Rate_limited

type verdict = Admitted of Memory.Pool.alloc option | Rejected of reject_reason
(** [Admitted] carries the pool charge (None for zero-byte ops); pass
    it back via {!release} when the op completes. *)

val create :
  pool:Memory.Pool.t ->
  owner:string ->
  ?max_ops:int ->
  ?max_bytes:int ->
  ?rate_ops_per_sec:float ->
  ?burst_ops:int ->
  unit ->
  t
(** Defaults: 256 outstanding ops, 4 MiB outstanding bytes, no rate
    limit.  [rate_ops_per_sec] arms the token bucket with [burst_ops]
    (default 32) of burst capacity. *)

val admit : t -> now:Sim.Time.t -> bytes:int -> verdict
(** Gate one op of [bytes] payload.  On admission the op counts against
    the quotas until {!release}. *)

val release : t -> Memory.Pool.alloc option -> unit
(** Op completed (any status): return its charge and op slot. *)

val op_quota : t -> int
val byte_quota : t -> int
val outstanding_ops : t -> int
val outstanding_bytes : t -> int
val rejected : t -> int
(** Ops this admission refused, for any reason; its
    [overload_ops_rejected] counter. *)
