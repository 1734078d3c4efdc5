(** Availability under upgrade: closed-loop RR traffic while the fleet
    migrates to a new release under injected faults.

    Clients on host 0 ping-pong fixed-size messages against an echo
    server on host 1.  Mid-run, each host's engines are migrated into a
    new-release group by the transactional {!Upgrade} machinery while
    the {!Fault.Injector} replays a plan crafted to hit the windows that
    matter: a link blackout across the server's brownout, an engine
    crash landing mid-blackout (forcing a rollback and retry), and a
    post-commit engine wedge that only the {!Control.Watchdog} can
    detect and repair.

    The claims under test (§4.3): no operation is ever lost — faults and
    rollbacks cost latency, never correctness; the per-engine blackout
    stays bounded by the state-size model; a contested upgrade leaves
    every engine in exactly one group; and the whole run is
    deterministic — same config, byte-identical {!fingerprint}. *)

type config = {
  ops_per_client : int;
  seed : int;  (** Sim-loop seed (the plan carries its own). *)
  tie_salt : int;  (** Event-loop tie-break perturbation; 0 keeps FIFO. *)
}

val default_config : config
(** 2 clients x 1200 ops of 1 KiB with 50 us think time (traffic spans
    ~70 ms); server upgrades at 10 ms, clients' host at 40 ms, 4 MB of
    synthetic state per engine (12 ms modeled blackout); default
    transactional-upgrade config and a 100 us watchdog heartbeat.  The
    fault plan is a 2 ms link blackout over the server's brownout, an
    engine crash at 15 ms that lands mid-blackout of the server's
    migration (aborting the transaction), and an engine wedge at 60 ms
    on the already-upgraded client host. *)

type result = {
  ops_expected : int;
  ops_completed : int;
  lost_ops : int;  (** Must be 0. *)
  latencies : Stats.Histogram.t;  (** Per-op completion latency, ns. *)
  goodput_gbps : float;
      (** Request and echo bytes per virtual time, to the last completion. *)
  reports : (int * Upgrade.report list) list;  (** Per host addr. *)
  committed : int;  (** Engine migrations that committed. *)
  rollbacks : int;  (** Transaction aborts, summed over engines. *)
  give_ups : int;  (** Engines left on the old release. *)
  max_blackout : Sim.Time.t;
      (** Largest measured per-engine blackout (the bounded tail). *)
  transition_log : Fault.Log.t;
      (** Every upgrade state-machine transition, virtual-time order. *)
  fault_log : Fault.Log.t;
  fault_counters : (string * int) list;
  watchdog_counters : (string * int) list;  (** Summed over hosts. *)
  watchdog_restarts : int;
  flow_resyncs : int;
      (** Epoch-triggered flow resynchronizations (restart recovery). *)
  groups_consistent : bool;
      (** Every engine attached and in exactly one group at the end. *)
}

val run : config -> result

val fingerprint : result -> string
(** Deterministic rendering of fault log + transition log + reports:
    two same-config runs must produce byte-identical fingerprints. *)
