val ns : unit -> int
(** Modeled CPU (ns) burned inside engine batches, summed over every
    engine registered so far: the [cpu_ns_per_op] accounting of the
    perf rows.  Callers measure the delta across a window. *)
