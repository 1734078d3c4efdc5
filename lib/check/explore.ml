(* Schedule-perturbation sweep (SimBricks-style determinism proof).

   A workload is a function of a seed and an event-loop tie-break salt
   returning a fingerprint string.  The sweep runs the full cross
   product seeds x salts, [repeats] times each, optionally with
   randomized Hashtbl hashing, and asserts two properties:

   - every run completes with all registered invariants holding
     (violations and stray exceptions are collected, not rethrown);
   - the fingerprint is a function of the seed alone: repeated runs,
     perturbed tie-breaks and randomized hash order must all reproduce
     it bit-for-bit.  Any divergence is hidden iteration-order or
     tie-order dependence somewhere in the stack. *)

type failure = { f_seed : int; f_salt : int; f_repeat : int; f_what : string }

type outcome = {
  total_runs : int;
  seeds : int list;
  salts : int list;
  repeats : int;
  hash_randomized : bool;
  failures : failure list;
  per_seed : (int * string list) list;
      (* seed -> distinct fingerprints observed (singleton on success) *)
}

let default_salts = [ 0; 1; 7 ]

(* Runs of each seed/salt pair. *)
let repeats = 2

let sweep ?(salts = default_salts) ?(randomize_hash = false) ~seeds ~run () =
  if seeds = [] then invalid_arg "Explore.sweep: seeds";
  if salts = [] then invalid_arg "Explore.sweep: salts";
  (* Process-global and irreversible: every Hashtbl created from here
     on gets a fresh random seed, so two repeats of the same run see
     different iteration orders — exactly the perturbation we want. *)
  if randomize_hash then Hashtbl.randomize ();
  let failures = ref [] in
  let per_seed = ref [] in
  let total = ref 0 in
  List.iter
    (fun seed ->
      let prints = ref [] in
      List.iter
        (fun salt ->
          for repeat = 1 to repeats do
            incr total;
            match run ~seed ~salt with
            | fp -> if not (List.mem fp !prints) then prints := fp :: !prints
            | exception Invariant.Violation msg ->
                failures := { f_seed = seed; f_salt = salt; f_repeat = repeat;
                              f_what = msg } :: !failures
            | exception exn ->
                failures := { f_seed = seed; f_salt = salt; f_repeat = repeat;
                              f_what = Printexc.to_string exn } :: !failures
          done)
        salts;
      (match List.rev !prints with
      | [] | [ _ ] -> ()
      | fps ->
          failures :=
            { f_seed = seed; f_salt = -1; f_repeat = 0;
              f_what =
                Printf.sprintf
                  "fingerprint diverged: %d distinct values across %d runs"
                  (List.length fps)
                  (List.length salts * repeats) } :: !failures);
      per_seed := (seed, List.rev !prints) :: !per_seed)
    seeds;
  {
    total_runs = !total;
    seeds;
    salts;
    repeats;
    hash_randomized = randomize_hash;
    failures = List.rev !failures;
    per_seed = List.rev !per_seed;
  }

let ok o = o.failures = []

let summary o =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf
       "%d runs (%d seeds x %d salts x %d repeats%s): %s\n"
       o.total_runs (List.length o.seeds) (List.length o.salts) o.repeats
       (if o.hash_randomized then ", randomized hashing" else "")
       (if ok o then "all invariants held, fingerprints stable per seed"
        else Printf.sprintf "%d FAILURES" (List.length o.failures)));
  List.iter
    (fun f ->
      Buffer.add_string buf
        (if f.f_salt < 0 then
           Printf.sprintf "  seed %d: %s\n" f.f_seed f.f_what
         else
           Printf.sprintf "  seed %d salt %d repeat %d: %s\n" f.f_seed
             f.f_salt f.f_repeat f.f_what))
    o.failures;
  Buffer.contents buf
