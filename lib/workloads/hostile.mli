(** Hostile-guest acceptance workload: byzantine tenants against the
    hardened trust boundary.

    A victim cohort runs closed-loop echoes through the guest backend
    while every k-th tenant turns byzantine for a
    {!Fault.Plan.Guest_byzantine} window, abusing its rings through the
    unchecked raw surface: garbage descriptor geometry, avail-index
    rollback and runahead, descriptor-id aliasing, reap withholding,
    and kick storms (behavior mixes cycle per attacker).  The run is
    the end-to-end proof of the trust boundary:

    - {e no crash}: every abuse becomes a counted take-side verdict —
      malformed descriptors complete [Failed] on the attacker's own
      ring, index corruption is dropped or stopped — and no exception
      ever reaches a mux engine (the run completing at all asserts
      this);
    - {e containment}: every attacker escalates Suspect and is
      quarantined within [detect_bound] of the attack opening; its
      host-side ring indices freeze and its pool bytes return through
      generation-tagged bulk reclaim (the [guest.quarantine] invariant
      checks both);
    - {e no false positives}: victims score zero violations and keep
      [>= 80%] of the goodput of the clean same-seed baseline
      ([byzantine = false]);
    - {e determinism}: same-seed runs produce byte-identical
      fingerprints under schedule perturbation. *)

type config = {
  tenants : int;
  victim_ops : int;  (** Closed-loop echoes per victim. *)
  byzantine : bool;
      (** [false] runs the clean same-seed baseline: identical cohorts
          and schedule, empty fault plan. *)
  seed : int;
  tie_salt : int;
}

val default_config : config
(** 40 tenants, 12 echoes per victim.  Every run alternates victim and
    attacker, opens the attack window over [2 ms, 5 ms), and
    quarantines after 12 violations (suspect after 3). *)

val detect_bound : Sim.Time.t
(** Max allowed quarantine latency from attack start: 2 ms. *)

type result = {
  n_tenants : int;
  n_victims : int;
  n_attackers : int;
  victim_ok : int;
  victim_failed : int;
  victim_retries : int;
  victim_goodput_gbps : float;
  victim_latencies : Stats.Histogram.t;
  victim_violations : int;
      (** Violations scored against victims — must be zero: the
          escalation ladder must not produce false positives. *)
  attackers_quarantined : int;
  suspects : int;  (** Suspect escalations at the mux. *)
  max_detection : Sim.Time.t;
      (** Worst quarantine latency from attack start. *)
  detection_ok : bool;
      (** All attackers quarantined within [detect_bound] (vacuously
          true on the clean baseline). *)
  violations : (string * int) list;
      (** Attacker violations by reason (schedule-sensitive counts). *)
  post_bad_range : int;
      (** Checked posts refused guest-side: each attacker fires one
          buggy-but-honest out-of-range {!Guest.Ring.post} probe,
          proving the non-fatal rejection path end to end. *)
  unmatched_completions : int;
      (** Straggler completions for descriptors the quarantine had
          already abandoned. *)
  atk_completed : int;  (** Attacker ops that completed normally. *)
  atk_failed : int;  (** Malformed/aliased descs, completed [Failed]. *)
  atk_cancelled : int;
  rx_drops : int;
  detached : int;  (** Tenants fully detached at quiesce. *)
  guest_attacks : int;  (** Byzantine windows the injector launched. *)
}

val run : config -> result
(** Raises [Failure] at quiesce if any op-pool byte leaked. *)

val fingerprint : result -> string
(** Digest of decision-level counters only (violation totals and retry
    counts are schedule-sensitive and excluded); byte-identical across
    same-seed runs. *)
