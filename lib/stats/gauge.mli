(** Point-in-time values.

    A gauge reports the current value of something — a queue depth, a
    utilization fraction — rather than an accumulated count.  Gauges are
    either {e pushed} ({!set}/{!add} store a value) or {e pulled}: after
    {!set_sampler} the gauge reads its value through the sampler closure
    at query time, so registry snapshots always see fresh state without
    the owner having to publish on every change. *)

type t

val create : unit -> t

val set : t -> float -> unit
(** Store a value (ignored while a sampler is installed). *)

val add : t -> float -> unit

val set_sampler : t -> (unit -> float) -> unit
(** Switch the gauge to pull mode: {!value} calls [f] from now on.
    Installing a new sampler replaces the previous one — re-created
    components (a fresh machine with the same name) simply re-register
    and the gauge follows the latest instance. *)

val value : t -> float
(** The sampler's result in pull mode, the stored value otherwise. *)

