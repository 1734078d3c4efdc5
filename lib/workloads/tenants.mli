(** Multi-tenant guest networking acceptance workload.

    Hundreds of tenants share one host's guest backend through
    virtio-style rings ({!Guest}): a victim cohort runs closed-loop
    echoes against an isolated server while a noisy-neighbor aggressor
    cohort floods a shared sink far above its per-tenant token-bucket
    quota.  The run exercises the full tenant lifecycle under stress:

    - {e containment}: aggressor descriptors above quota complete
      [Rejected] on the aggressor's own ring; victims keep their
      goodput;
    - {e transparent upgrade}: the guest engine group upgrades
      mid-traffic — ring contents and in-flight state survive the
      engine epoch change, tenants observe only a bounded blackout;
    - {e detach reclaim}: victims and aggressors detach gracefully at
      end of run, and a cohort of aggressors is force-detached
      mid-stream, exercising generation-tagged bulk reclaim.

    Acceptance criteria are the typed checks of the [tenants] entry in
    {!Spec}, plus the per-tenant isolation invariants under [--check]. *)

type config = {
  tenants : int;
  victim_ops : int;  (** Closed-loop echoes per victim. *)
  aggressor_ops : int;  (** Open-loop posts per aggressor. *)
  upgrade_at : Sim.Time.t option;
      (** Transparent upgrade of the guest engine group. *)
  force_detach_at : Sim.Time.t option;
  seed : int;
  tie_salt : int;
  stop_at : Sim.Time.t;
  run_cap : Sim.Time.t;
}

val default_config : config
(** 256 tenants, alternating victim/aggressor; aggressors post at
    twice their token-bucket rate; guest-group upgrade at 3 ms; every
    4th aggressor force-detached at 4 ms. *)

type result = {
  n_tenants : int;
  n_victims : int;
  n_aggressors : int;
  victim_ok : int;
  victim_failed : int;
  victim_retries : int;
  victim_goodput_gbps : float;
  victim_latencies : Stats.Histogram.t;
  agg_completed : int;
  agg_rejected : int;  (** Aggressor descs refused by tenant quotas. *)
  agg_failed : int;
  agg_cancelled : int;
  rx_delivered : int;
  rx_drops : int;
  tx_post_failures : int;  (** Guest-side posts bounced off full rings. *)
  detached : int;  (** Tenants fully detached at quiesce. *)
  force_detached : int;
  reclaimed_bytes : int;  (** Bytes returned by bulk owner reclaim. *)
  mux_resyncs : int;  (** Engine-epoch changes the mux rode through. *)
  upgrade_committed : int;
  upgrade_rollbacks : int;
  max_blackout : Sim.Time.t;
}

val run : config -> result
(** Raises [Failure] at quiesce if any op-pool byte leaked. *)

val fingerprint : result -> string
(** Digest of the run's semantic counters only (latencies, goodput and
    blackout durations excluded); byte-identical across same-seed
    runs. *)
