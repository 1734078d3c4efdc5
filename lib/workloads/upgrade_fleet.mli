(** Figure 9 workload: transparent upgrade across a production cell.

    Each machine migrates its engines to a new release, one engine at a
    time (§4); the figure reports the distribution of per-engine
    blackout durations.  A fresh simulation accumulates far less engine
    state than three years of production, so serialized state sizes are
    drawn from a calibrated heavy-tailed (log-normal) distribution on
    top of the live state; live traffic runs during the upgrade to
    demonstrate that connections survive. *)

type result = {
  blackouts : Stats.Histogram.t;  (** Per-engine blackout durations. *)
  median : Sim.Time.t;
  engines_migrated : int;
  messages_delivered_during : int;
      (** Application messages that completed while upgrades ran,
          demonstrating the stack stayed up. *)
}

val run :
  ?machines:int ->
  ?engines_per_machine:int ->
  ?state_median_mb:float ->
  unit ->
  result
(** Defaults: 10 machines x 4 engines, median 270 MB of serialized
    state with sigma 0.6 (pins the paper's 250 ms median and heavy
    tail). *)
