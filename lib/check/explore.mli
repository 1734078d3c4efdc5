(** Schedule-perturbation sweep: prove determinism instead of assuming
    it.

    Runs a workload across the cross product of seeds, event-loop
    tie-break salts ({!Sim.Loop.create}'s [tie_salt]) and optionally
    randomized [Hashtbl] hashing, collecting invariant violations and
    fingerprint divergence.  A correct stack satisfies: fingerprints
    are a function of the seed alone — identical across repeats,
    perturbed same-timestamp event ordering, and hash-iteration order.
    Anything else is hidden nondeterminism. *)

type failure = {
  f_seed : int;
  f_salt : int;  (** -1 for seed-level fingerprint divergence. *)
  f_repeat : int;
  f_what : string;
}

type outcome = {
  total_runs : int;
  seeds : int list;
  salts : int list;
  repeats : int;
  hash_randomized : bool;
  failures : failure list;
  per_seed : (int * string list) list;
      (** Distinct fingerprints observed per seed (singleton on
          success). *)
}

val sweep :
  ?salts:int list ->
  ?randomize_hash:bool ->
  seeds:int list ->
  run:(seed:int -> salt:int -> string) ->
  unit ->
  outcome
(** [sweep ~seeds ~run ()] executes [run ~seed ~salt] twice for every
    seed/salt pair; [salts] defaults to [[0; 1; 7]].  [randomize_hash]
    (default false) calls [Hashtbl.randomize ()] first — process-global and irreversible, so
    every run from then on sees randomized iteration order.
    {!Invariant.Violation}s and other exceptions become {!failure}s
    rather than escaping. *)

val ok : outcome -> bool

val summary : outcome -> string
(** Human-readable report, one line per failure. *)
