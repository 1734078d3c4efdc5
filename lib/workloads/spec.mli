(** One contract for the fault, overload and tenancy acceptance
    workloads (§3.3, §4.3, §5).

    Each workload is one {!t}: a full-size run (bench section and perf
    row), a sweep-size run, and armed-sabotage runs proving its
    invariant checkers are not vacuous.  Acceptance criteria are typed
    {!check}s, so the bench, the sweep, [--check] and the tests all
    evaluate the same bounds on every seed and salt.  A new workload
    costs one entry in {!all}, and its runs start and end in
    {!Scenario}. *)

type check = { name : string; ok : bool; detail : string }

(** The normalized perf-trajectory row ([BENCH_8.json]).  The per-op
    figures cover the measured run only — comparison baselines run
    outside the window — and churn supplies its in-workload steady
    window instead. *)
type row = {
  ops : int;
  goodput_gbps : float;  (** 0 when the workload has no goodput notion. *)
  latencies : Stats.Histogram.t;
  cpu_ns_per_op : float;  (** Modeled engine batch cost per op. *)
  gc_words_per_op : float;  (** Minor-heap words allocated per op. *)
}

type outcome = {
  fingerprint : string;  (** The workload's fingerprint of the run. *)
  checks : check list;
  row : row;
      (** Op attribution ({!Sim.Optrace}, [op_stage_*] histograms)
          restarts with the measured run, so right after the run it
          describes that run alone. *)
  report : unit -> string list;
      (** Informational lines; may run an uncontended baseline, so
          callers that only want the verdict never pay for it. *)
}

type t = {
  name : string;
  title : string;  (** Bench section heading. *)
  seed : int;  (** The default config's seed. *)
  full : seed:int -> tie_salt:int -> outcome;
  small : seed:int -> tie_salt:int -> outcome;
      (** Sweep size: reaches the scenario its checks claim. *)
  sabotages : (string * (unit -> unit)) list;
      (** [(flag, run)]: with the flag armed, [run] must raise
          {!Check.Invariant.Violation}. *)
}

val all : t list
(** chaos, chaos_upgrade, overload, partition, tenants, churn, hostile. *)

val failed : check list -> check list

val verdict : check list -> [ `Pass | `Fail ]
(** [`Fail] when any check is false. *)

val checked_fingerprint : outcome -> string
(** The fingerprint, or [Failure] naming every failed check — what
    {!Check.Explore.sweep} records as a failed run. *)

val catch_sabotage : string * (unit -> unit) -> string option
(** Arm the flag and run with the checker and op attribution on;
    [Some msg] when caught.  Restores all three either way. *)
