(** Deterministic pseudo-random number generation.

    Every stochastic element of the simulation draws from an explicit
    stream so that runs are reproducible bit-for-bit from a single seed.
    The generator is splitmix64, which is fast and supports cheap stream
    splitting. *)

type t

val create : seed:int -> t

val split : t -> t
(** [split t] derives an independent stream from [t], advancing [t]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val exponential : t -> mean:float -> float
(** Sample from an exponential distribution with the given mean. *)

val lognormal : t -> mu:float -> sigma:float -> float
(** Sample from a log-normal distribution with the given parameters of the
    underlying normal. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
