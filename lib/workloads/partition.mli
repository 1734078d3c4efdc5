(** Partition / peer-failure acceptance workload (§4.3, robustness).

    Two closed-loop victims (hosts 0 and 1) echo against a server on
    host 2 while the fault plan injects rolling symmetric link
    blackouts (host 0), a half-open one-way blackout (host 1's packets
    toward the server are dropped while the reverse direction flows),
    and a mid-run whole-host crash of the server with an
    incarnation-bumping restart.

    Acceptance invariants (typed checks of the [partition] entry in
    {!Spec}):

    - every submitted op resolves — echo received, retries exhausted,
      or [Peer_dead] — and both victims finish before the run cap
      (keepalives bound silent peer death; every await has a deadline);
    - the slowest failed op resolves within [resolution_bound]
      (keepalive declaration window plus the retry policy's worst
      case);
    - zero op-pool bytes remain charged on any host after quiesce
      ([Pool.assert_quiesced] — the run raises otherwise), with the
      peer-reclaim invariants registered throughout;
    - victims reconnect via [connect_with_retry] and the restarted
      server re-registers under the same name with a fresh incarnation;
    - same-seed runs produce byte-identical fingerprints. *)

type config = {
  ops_per_victim : int;
  op_interval : Sim.Time.t;
      (** Closed-loop pacing, so the victims stay active across the
          whole fault timeline instead of finishing before it starts. *)
  bytes : int;
  seed : int;
  tie_salt : int;  (** Event-loop tie-break perturbation; 0 keeps FIFO. *)
  stop_at : Sim.Time.t;  (** Victims stop submitting here. *)
  run_cap : Sim.Time.t;
}

val default_config : config
(** 250 ops per victim.  Every run uses 200 us keepalives with a miss
    budget of 3 (800 us detection), two rolling blackouts, one
    half-open window, and a 4 ms server-host outage at 12 ms. *)

type result = {
  ops_attempted : int;
  ops_resolved : int;
      (** Send episodes that returned — must equal [ops_attempted]. *)
  echo_ok : int;
  echo_timeouts : int;
  peer_dead_failures : int;  (** Episodes ending [Error Peer_dead]. *)
  retry_exhausted : int;
      (** Episodes out of attempts (blackout without a declared death). *)
  other_failures : int;
  reconnects : int;  (** Re-dials after the first successful connect. *)
  server_registrations : int;
      (** 1 + re-registrations after the restart. *)
  victims_finished : int;
  conns_established : int;
  conns_closed : int;
  conn_resets : int;
  peer_deaths : int;
  death_hosts : int;  (** Hosts that declared at least one conn dead. *)
  peer_dead_ops : int;
  stale_drops : int;
  peer_restarts : int;
  keepalive_probes : int;
  server_incarnation : int;
  max_failed_resolution : Sim.Time.t;
      (** Slowest failed send episode, submission to [Error]. *)
  resolution_bound : Sim.Time.t;
      (** [ka_interval * (ka_miss_budget + 1)] of silence to declare the
          peer dead, plus the send policy's worst case (every attempt
          spending its full op timeout plus inter-attempt backoff), plus
          scheduling slack. *)
  max_outage : Sim.Time.t;
      (** Longest gap between a victim's successive successful echoes —
          the end-to-end blast radius of a fault window. *)
  outage_bound : Sim.Time.t;
      (** Longest fault window, plus the keepalive declaration window,
          plus one straddling echo wait, plus re-dial slack. *)
  detection_ok : bool;
      (** Failed ops within [resolution_bound] and outages within
          [outage_bound]. *)
  goodput_gbps : float;
      (** Request and echo bytes of the successful echoes per virtual
          time, to the last of them. *)
  latencies : Stats.Histogram.t;
      (** Successful request+echo round trips. *)
  fault_log : Fault.Log.t;
  fault_counters : (string * int) list;
}

val run : config -> result
(** Raises [Failure] at quiesce if any op-pool byte leaked. *)

val fingerprint : result -> string
(** Digest of the semantic outcome counters; byte-identical across
    same-seed runs and stable under schedule perturbation (edge-timed
    counts like individual probes are deliberately excluded). *)
