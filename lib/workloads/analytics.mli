(** Figure 8 workload: the distributed data-analytics service.

    A server shares a large in-memory table through Snap/Pony one-sided
    operations; remote clients hammer it with the custom {e batched
    indirect read} (eight indirections resolved server-side per network
    operation, §3.2/§5.4).  The service runs on a single dedicated
    engine core; the paper's dashboard shows it serving up to 5 M remote
    memory accesses per second. *)

type result = {
  iops_series : Stats.Series.t;
      (** Remote memory accesses per second, sampled per interval. *)
  peak_iops : float;
  mean_iops : float;
  server_engine_cores : float;
}

val run :
  ?clients:int ->
  ?batch:int ->
  ?outstanding:int ->
  unit ->
  result
(** Defaults: 4 client hosts, batch 8, 32 outstanding requests per
    client.  Every run issues 64-byte reads for 100 ms, sampled every
    10 ms. *)
