(** Simulated time.

    All simulation time is kept as an integer number of nanoseconds since
    the start of the simulation.  OCaml's native 63-bit integers give a
    range of roughly 146 years at nanosecond granularity, which is far more
    than any experiment needs. *)

type t = int
(** A point in time, or a duration, in nanoseconds. *)

val zero : t

val ns : int -> t
(** [ns n] is a duration of [n] nanoseconds. *)

val us : int -> t
(** [us n] is a duration of [n] microseconds. *)

val ms : int -> t
(** [ms n] is a duration of [n] milliseconds. *)

val sec : int -> t
(** [sec n] is a duration of [n] seconds. *)

val to_float_us : t -> float
(** [to_float_us t] is [t] expressed in microseconds. *)

val to_float_ms : t -> float
(** [to_float_ms t] is [t] expressed in milliseconds. *)

val to_float_sec : t -> float
(** [to_float_sec t] is [t] expressed in seconds. *)

val add : t -> t -> t
val sub : t -> t -> t
val max : t -> t -> t
val min : t -> t -> t

val scale : t -> float -> t
(** [scale t f] is the duration [t] multiplied by [f], rounded. *)

val pp : Format.formatter -> t -> unit
(** Human-readable rendering with an adaptive unit, e.g. ["18.3us"],
    ["250ms"]. *)
