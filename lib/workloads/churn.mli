(** C10M-style connection-scaling workload (datapath scaling).

    A full bipartite client mesh between two hosts puts
    [clients_per_side]^2 live Pony Express connections on host 0
    (102,400 at the default 320), drives heavy-tailed RPCs over all of
    them in a closed loop, then runs connect/disconnect storms that
    close and re-dial a slice of the mesh and prove each replacement
    conn carries traffic.

    The steady-state window is measured in-workload — minor-GC words
    and modeled engine ns per op between two fixed completed-op counts
    — so connection ramp and teardown cannot launder the per-op
    figures.  [tools/bench_gate.py] holds the churn section's
    [gc_minor_words_per_op] and [cpu_ns_per_op] to absolute ceilings:
    an O(conns) rescan or a per-packet allocation regression shows up
    here first. *)

type config = {
  clients_per_side : int;
      (** Drivers on host 0 and sinks on host 1; live connections on
          host 0 = clients_per_side^2. *)
  ops_per_driver : int;  (** Closed-loop steady-state ops per driver. *)
  seed : int;
  tie_salt : int;  (** Event-loop tie-break perturbation; 0 keeps FIFO. *)
  stop_at : Sim.Time.t;  (** Drivers stop submitting here. *)
  run_cap : Sim.Time.t;
}

val default_config : config
(** 320 clients per side (102,400 live conns on host 0), 40 steady ops
    per driver, two storms closing and re-dialing every 8th conn. *)

type result = {
  n_drivers : int;
  conns_target : int;
  ramp_failures : int;  (** Connects that raised during ramp. *)
  live_at_steady : int;
      (** Established conns on host 0 when the measured window opens. *)
  ops_ok : int;
  ops_failed : int;
  stray_completions : int;
      (** Completions not matching the op awaited (late timeouts, Busy
          follow-ups); consumed and counted, never desync the loop. *)
  steady_ops : int;  (** Ops inside the measured window. *)
  steady_gc_words_per_op : float;
  steady_cpu_ns_per_op : float;  (** Modeled engine batch ns per op. *)
  bytes_completed : int;  (** Payload bytes of [Ok] steady+burst ops. *)
  last_done : Sim.Time.t;  (** Virtual completion time of the last Ok op. *)
  closes : int;
  reconnects : int;
  burst_ok : int;  (** Post-reconnect proof ops that completed [Ok]. *)
  burst_failed : int;
  conns_established : int;  (** Halves installed, both hosts. *)
  conns_closed : int;
  conn_resets : int;
  peer_deaths : int;
  latencies : Stats.Histogram.t;
}

val run : config -> result

val goodput_gbps : result -> float
(** Completed payload bytes over the virtual time of the last [Ok]
    completion (one-directional: bytes are not doubled for an echo
    leg, because there is none). *)

val fingerprint : result -> string
(** Digest of the driver-decision counters only — per-op ns/GC
    measurements, and transport reactions whose counts hinge on
    packet-vs-close races (resets sent, close-vs-death splits, stray
    completions), legitimately move under the sweep's schedule
    perturbation; what the drivers {e decided} must not. *)
