(** Availability under faults: a closed-loop RR workload run beneath a
    fault plan.

    Clients on host 0 ping-pong fixed-size messages against an echo
    server on host 1 while the {!Fault.Injector} replays the configured
    plan.  The claim under test is Snap's (§4.3): the transport absorbs
    loss, corruption, reordering, stalls, and an engine crash/restart
    without losing a single operation — faults cost latency and goodput,
    never correctness.  Runs are deterministic: the same config produces
    an identical fault log and latency histogram. *)

type config = {
  ops_per_client : int;  (** Each of the 2 clients on host 0. *)
  seed : int;  (** Sim-loop seed (the plan carries its own). *)
  tie_salt : int;
      (** Event-loop tie-break perturbation (see {!Sim.Loop.create});
          0 keeps FIFO order.  Used by the determinism sweep. *)
  plan : Fault.Plan.t;
}
(** Every run has 2 concurrent closed-loop clients and a 500 ms
    virtual-time budget, generous so recovery can finish. *)

val default_config : config
(** 2 clients x 1500 ops of 1 KiB on dedicated engine cores, under the
    acceptance scenario: 2% bursty loss for 30 ms, a 5% corruption
    window, a reordering window, one 10 ms link blackout, one engine
    crash + restart, an rx stall and a straggler window — staged across
    the first ~30 ms so every fault overlaps live traffic. *)

type result = {
  ops_expected : int;
  ops_completed : int;
  lost_ops : int;  (** Must be 0: faults may slow ops, never eat them. *)
  latencies : Stats.Histogram.t;  (** Per-op completion latency, ns. *)
  goodput_gbps : float;  (** Application bytes moved per virtual time. *)
  completion_time : Sim.Time.t;  (** Virtual time of the last completion. *)
  fault_log : Fault.Log.t;
  fault_counters : (string * int) list;
  retransmits : int;  (** Summed over every flow on both hosts. *)
  corrupt_dropped : int;  (** Poisoned packets caught end-to-end. *)
  rx_stalled : int;  (** NIC receives deferred by injected stalls. *)
  port_report : (int * int * int) list;
      (** Per egress port: (addr, drops, max queue depth in bytes). *)
}

val run : config -> result

val fingerprint : result -> string
(** Deterministic digest of the run's correctness counters, fault log
    and port report; the perturbation sweep asserts it is a function of
    the seed alone. *)

val goodput_degradation_pct : baseline:result -> faulted:result -> float
(** How much goodput the faults cost, as a percentage of the baseline
    (run the same config with [Fault.Plan.empty] for the baseline). *)
