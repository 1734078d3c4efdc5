(** Process-wide registry of named, labeled metrics.

    Every instrument in the system — fault counters, engine latency
    histograms, per-core utilization gauges — registers
    here under a (name, labels) key so that one [snapshot] (or
    [to_json]) enumerates the whole telemetry surface.  Asking for an
    existing key with a different kind raises [Invalid_argument].

    What a second registration under one key returns depends on the
    kind:
    - {!counter} makes a fresh counter and points the key at it.  A
      component's counter counts only that component, so its own
      accessors read it directly; the registry shows the latest
      registration.
    - {!gauge_fn} keeps one gauge and re-points its sampler at the
      latest registration.
    - {!histogram} is create-or-get: every registration returns the
      one histogram, which sums over them.  Its readers aggregate
      across instances — engines that share a name feed one
      [engine_batch_cost_ns], every host feeds the same [op_stage_*]
      histograms — so it stays shared.

    Determinism: snapshots are sorted by (name, labels), floats render
    through one fixed formatter, and nothing here touches wall-clock
    time or randomness — same-seed runs serialize byte-identically. *)

type labels = (string * string) list
(** Label sets are canonically sorted on registration, so label order at
    the call site does not matter. *)

type kind =
  | Counter of Counter.t
  | Gauge of Gauge.t
  | Histogram of Histogram.t

type metric = { m_name : string; m_labels : labels; m_kind : kind }

val counter : ?labels:labels -> string -> Counter.t
(** A fresh counter at 0, now the one the key names. *)

val gauge_fn : ?labels:labels -> string -> (unit -> float) -> Gauge.t
(** Create-or-get a gauge and (re-)install [f] as its sampler.  The last
    registration wins: components re-created under the same identity
    simply call this again and the gauge tracks the live instance. *)

val histogram : ?labels:labels -> string -> Histogram.t
val find : ?labels:labels -> string -> metric option

val snapshot : unit -> metric list
(** All registered metrics, sorted by (name, labels). *)

val clear : unit -> unit
(** Drop every registration entirely. *)

val to_json : unit -> string
(** The snapshot as one JSON document:
    [{"metrics":[{"name":..,"labels":{..},"type":..,...},...]}].
    Counters carry [value]; gauges a float [value]; histograms
    [count]/[sum]/[min]/[max]/[mean]/[p50]/[p90]/[p99]/[p999]. *)
