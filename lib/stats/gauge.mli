(** Point-in-time values.

    A gauge reports the current value of something — a queue depth, a
    utilization fraction — rather than an accumulated count.  It reads
    that value through a sampler closure at query time, so registry
    snapshots always see fresh state without the owner having to publish
    on every change. *)

type t

val create : (unit -> float) -> t

val set_sampler : t -> (unit -> float) -> unit
(** Replace the sampler.  Re-created components (a fresh machine with
    the same name) simply re-register and the gauge follows the latest
    instance. *)

val value : t -> float
(** The sampler's result. *)
