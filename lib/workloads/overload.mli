(** Overload acceptance workload: open-loop aggressors at a multiple of
    link capacity against a slow server, plus a well-behaved closed-loop
    victim on an isolated path (§3.3, robustness).

    The run drives every layer of the overload-protection stack:

    - {e admission control}: aggressor op/byte quotas and the
      host op pool refuse work with [Rejected] completions;
    - {e receiver back-pressure}: the flooded server's rx occupancy
      shrinks its advertised windows, and the slow server's full
      incoming queue produces [Busy] NACKs;
    - {e deadlines and shedding}: every aggressor op carries a deadline
      and expired or over-quota work is dropped at dequeue;
    - {e pressure state machine}: host 0's pool saturates, driving
      Nominal -> Pressured -> Saturated transitions.

    Acceptance criteria are the typed checks of the [overload] entry in
    {!Spec}; a leaked op-pool byte also raises at quiesce
    ([Pool.assert_quiesced]). *)

type config = {
  aggressors : int;  (** Together they offer 4x link capacity. *)
  aggressor_bytes : int;
  aggressor_quota_ops : int;
  aggressor_quota_bytes : int;
  aggressor_deadline : Sim.Time.t;
      (** Relative deadline attached to every aggressor op. *)
  victim_ops : int;
  server_service_time : Sim.Time.t;
      (** Slow server's per-message think time (the choke point). *)
  seed : int;
  tie_salt : int;  (** Event-loop tie-break perturbation; 0 keeps FIFO. *)
  stop_at : Sim.Time.t;  (** Load stops here. *)
  run_cap : Sim.Time.t;  (** Hard stop; the tail is the drain window. *)
  aggressor_pool_bytes : int;
      (** Host 0's op pool — deliberately smaller than the sum of
          aggressor byte quotas so sustained overload saturates it. *)
}

val default_config : config
(** 4 aggressors at 4x capacity with 2 ms deadlines, a 20 us/message
    slow server, and a 300-op victim on an exclusive engine. *)

type result = {
  offered : int;
  agg_ok : int;
  agg_rejected : int;
  agg_timed_out : int;
  agg_busy : int;
  quota_rejected : int;
  ops_shed : int;
  ops_expired : int;
  busy_nacks : int;
  rx_pool_drops : int;
  zero_window_probes : int;
  pressure_transitions : int;
  victim_ok : int;
  victim_failed : int;
  victim_goodput_gbps : float;
  victim_latencies : Stats.Histogram.t;
  exhausted_escapes : int;
}

val run : config -> result
(** Raises [Failure] at quiesce if any op-pool byte leaked. *)

val fingerprint : result -> string
(** Digest of every counter the run produced; byte-identical across
    same-seed runs. *)
