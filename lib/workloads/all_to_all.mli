(** The rack-scale all-to-all RPC workload of §5.2 (Figures 6(b)-(d)).

    A rack of machines under one ToR, each running [jobs_per_host]
    background jobs plus one latency prober.  Every job issues RPCs at a
    Poisson rate to uniformly random jobs on other machines, requesting
    a 1 MB (cache-resident) response.  The prober issues tiny RPCs and
    its 99th-percentile latency is reported alongside per-machine CPU
    consumption as offered load sweeps.

    Substitution note: the paper uses 42 machines with 50 Gbps NICs; the
    default here is a smaller rack (the shape is preserved — per-machine
    offered load, not rack size, is the x-axis). *)

type transport =
  | Tcp
  | Pony of Engine.mode
      (** Each job requests its own exclusive engine (§5.2), scheduled
          in the given mode. *)

type antagonist = No_antagonist | Md5 of int

type config = {
  hosts : int;
  jobs_per_host : int;
  offered_gbps_per_host : float;
      (** Target per-machine load, both directions combined (the
          x-axis of Figure 6(b)-(d)). *)
  window : Sim.Time.t;
  antagonist : antagonist;
}

val default_config : config
(** 8 hosts x 4 jobs, 30 ms window.  Every run uses 1 MB RPCs, 50 Gbps
    links, 16 cores per machine and a 10 ms warmup. *)

type result = {
  cpu_cores : float;  (** Mean busy cores per machine over the window. *)
  achieved_gbps : float;  (** Mean per-machine bidirectional goodput. *)
  prober : Stats.Histogram.t;  (** Pooled prober RTTs. *)
  rpcs : int;  (** RPCs completed rack-wide in the window. *)
}

val run : transport -> config -> result
