(** Append-only time series of (virtual time, value) samples.

    Used for dashboard-style outputs such as the Figure 8 IOPS plot. *)

type t

val create : unit -> t
val add : t -> Sim.Time.t -> float -> unit

val max_value : t -> float
(** Largest sample; 0 when empty. *)

val iter : t -> (Sim.Time.t -> float -> unit) -> unit
