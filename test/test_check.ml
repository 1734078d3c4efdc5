(* Tests for the correctness harness: the invariant registry, salted
   heap tie-breaks, the schedule-perturbation sweep, and the workload
   table every mode iterates. *)

module I = Check.Invariant
module E = Check.Explore

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Every test restores the globally-off default so checking never leaks
   into unrelated suites. *)
let with_checking f =
  I.set_enabled true;
  I.begin_run ();
  Fun.protect ~finally:(fun () ->
      I.begin_run ();
      I.set_enabled false)
    f

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let expect_violation ~substring f =
  match f () with
  | exception I.Violation msg ->
      check_bool
        (Printf.sprintf "violation mentions %S (got %S)" substring msg)
        true
        (contains ~needle:substring msg)
  | _ -> Alcotest.fail "expected Invariant.Violation"

(* -- Registry ----------------------------------------------------------- *)

let test_register_disabled_noop () =
  I.set_enabled false;
  I.begin_run ();
  I.register ~name:"never" (fun () -> Some "should not register");
  check_int "no entries while disabled" 0 (I.registered ());
  I.check_now ();
  I.quiesce ();
  check_int "no evaluations while disabled" 0 (I.evaluations ())

let test_violation_raises_with_name () =
  with_checking (fun () ->
      I.register ~name:"always.fine" (fun () -> None);
      I.register ~name:"test.broken" (fun () -> Some "thing went sideways");
      expect_violation ~substring:"test.broken" I.check_now;
      expect_violation ~substring:"thing went sideways" I.check_now;
      check_bool "predicates were evaluated" true (I.evaluations () > 0))

let test_quiesce_only_skipped_by_cadence () =
  with_checking (fun () ->
      I.register ~kind:I.Quiesce_only ~name:"drain.only" (fun () ->
          Some "not drained");
      I.check_now ();
      expect_violation ~substring:"drain.only" I.quiesce)

let test_begin_run_clears () =
  with_checking (fun () ->
      I.register ~name:"stale" (fun () -> Some "from the previous run");
      check_int "registered" 1 (I.registered ());
      I.begin_run ();
      check_int "cleared" 0 (I.registered ());
      I.check_now ())

let test_sabotage_flags () =
  check_bool "unarmed by default" false (I.sabotage "test.flag");
  I.set_sabotage "test.flag" true;
  check_bool "armed" true (I.sabotage "test.flag");
  I.set_sabotage "test.flag" false;
  check_bool "disarmed" false (I.sabotage "test.flag")

(* The cadence tick re-arms only while another event is pending, so a
   run that drains early idles to its horizon without evaluating
   anything: 20 ticks of two simulator invariants here, where a tick
   that re-armed forever would evaluate them 20,000 times each. *)
let test_tick_stops_when_idle () =
  with_checking (fun () ->
      let loop = Sim.Loop.create () in
      ignore (Sim.Loop.at loop (Sim.Time.ms 1) (fun () -> ()));
      I.install ~loop ();
      Sim.Loop.run ~until:(Sim.Time.sec 1) loop;
      let n = I.evaluations () in
      check_bool (Printf.sprintf "%d evaluations < 100" n) true (n < 100);
      check_int "nothing left pending" 0 (Sim.Loop.pending_events loop))

(* -- Salted heap tie-breaks --------------------------------------------- *)

let drain h =
  let rec go acc =
    if Sim.Heap.is_empty h then List.rev acc else go (Sim.Heap.pop_exn h :: acc)
  in
  go []

let heap_prop_salted_total_order =
  QCheck.Test.make ~name:"salted heap still pops in nondecreasing key order"
    ~count:300
    QCheck.(pair (list small_int) small_int)
    (fun (keys, salt) ->
      let h = Sim.Heap.create ~salt () in
      List.iter (fun k -> Sim.Heap.add h ~key:k k) keys;
      drain h = List.sort compare keys)

let test_heap_salt_perturbs_ties () =
  let order salt =
    let h = Sim.Heap.create ~salt () in
    List.iter (fun v -> Sim.Heap.add h ~key:1 v) [ 0; 1; 2; 3; 4; 5; 6; 7 ];
    drain h
  in
  let fifo = order 0 in
  check_bool "salt 0 is FIFO" true (fifo = [ 0; 1; 2; 3; 4; 5; 6; 7 ]);
  let salted = List.map order [ 1; 2; 3; 4; 5; 6; 7 ] in
  List.iter
    (fun o ->
      check_bool "salted order is a permutation" true
        (List.sort compare o = fifo))
    salted;
  check_bool "some salt reorders the ties" true
    (List.exists (fun o -> o <> fifo) salted)

let test_heap_salt_reproducible () =
  let order salt =
    let h = Sim.Heap.create ~salt () in
    List.iter (fun v -> Sim.Heap.add h ~key:1 v) [ 10; 20; 30; 40; 50 ];
    drain h
  in
  Alcotest.(check (list int)) "same salt, same order" (order 7) (order 7)

(* -- Perturbation sweep machinery --------------------------------------- *)

let test_sweep_stable_fingerprints () =
  let o =
    E.sweep ~seeds:[ 1; 2; 3 ] ~salts:[ 0; 1 ]
      ~run:(fun ~seed ~salt:_ -> Printf.sprintf "fp-of-%d" seed)
      ()
  in
  check_bool "ok" true (E.ok o);
  check_int "total runs" 12 o.E.total_runs;
  List.iter
    (fun (_, fps) -> check_int "one fingerprint per seed" 1 (List.length fps))
    o.E.per_seed

let test_sweep_detects_salt_divergence () =
  let o =
    E.sweep ~seeds:[ 1 ] ~salts:[ 0; 1 ]
      ~run:(fun ~seed ~salt -> Printf.sprintf "%d.%d" seed salt)
      ()
  in
  check_bool "not ok" false (E.ok o);
  check_bool "divergence reported at seed level" true
    (List.exists (fun f -> f.E.f_salt = -1) o.E.failures)

let test_sweep_captures_violations () =
  let o =
    E.sweep ~seeds:[ 1; 2 ] ~salts:[ 0 ]
      ~run:(fun ~seed ~salt:_ ->
        if seed = 2 then raise (I.Violation "injected for the test");
        "stable")
      ()
  in
  check_bool "not ok" false (E.ok o);
  check_bool "violation recorded, not raised" true
    (List.exists
       (fun f -> f.E.f_seed = 2 && f.E.f_salt <> -1)
       o.E.failures)

(* -- End to end: the workload table under the checker -------------------- *)

module S = Workloads.Spec

let mini_chaos ~seed ~salt =
  let r =
    Workloads.Chaos.run
      {
        Workloads.Chaos.default_config with
        ops_per_client = 40;
        seed;
        tie_salt = salt;
      }
  in
  Workloads.Chaos.fingerprint r

let test_chaos_mini_sweep () =
  with_checking (fun () ->
      let o =
        E.sweep ~seeds:[ 1; 2 ] ~salts:[ 0; 1 ] ~run:mini_chaos ()
      in
      if not (E.ok o) then Alcotest.fail (E.summary o);
      check_bool "invariants actually ran" true (I.evaluations () > 0))

let test_sabotage_is_caught () =
  with_checking (fun () ->
      I.set_sabotage "skip_credit_release" true;
      Fun.protect ~finally:(fun () ->
          I.set_sabotage "skip_credit_release" false)
        (fun () ->
          expect_violation ~substring:"not quiesced" (fun () ->
              ignore (mini_chaos ~seed:1 ~salt:0))))

(* Golden digests of each spec's sweep-size fingerprint at seed 1 (salt
   0; the sweep below proves every salt and repeat agrees).  A change
   meant to move only host cost — wall-clock, allocation — must leave
   these byte-identical; one that changes behaviour on purpose updates
   them and says why. *)
let golden_fingerprints =
  [
    ("chaos", "46c9663e97fbce7e57488573e9fa79dc");
    ("chaos_upgrade", "8583f15b2fbc0ea55754fceed2384db6");
    ("overload", "bbd2d90def45565ad278d09a63a09e6c");
    ("partition", "993344ff5d09ac3438a1a8e5a00c32c1");
    ("tenants", "fe9f65daa9d2ed1396ae05a319a50478");
    ("churn", "03a2f6461424a177aa5dfdaa1e0bbb3e");
    ("hostile", "8a638e77cce11f6351bdd4160f2820c4");
  ]

(* Every spec at sweep size: its acceptance checks hold, its fingerprint
   is stable across salts and repeats and matches its golden digest,
   and each armed sabotage is caught. *)
let test_spec_table () =
  with_checking (fun () ->
      List.iter
        (fun (spec : S.t) ->
          let o =
            E.sweep ~seeds:[ 1 ] ~salts:[ 0; 1 ]
              ~run:(fun ~seed ~salt ->
                S.checked_fingerprint (spec.small ~seed ~tie_salt:salt))
              ()
          in
          if not (E.ok o) then Alcotest.failf "%s: %s" spec.name (E.summary o);
          (match (o.E.per_seed, List.assoc_opt spec.name golden_fingerprints) with
          | [ (_, [ fp ]) ], Some golden ->
              Alcotest.(check string)
                (spec.name ^ ": fingerprint digest")
                golden
                (Digest.to_hex (Digest.string fp))
          | _, None -> Alcotest.failf "%s: no golden fingerprint" spec.name
          | _ -> Alcotest.failf "%s: expected one fingerprint" spec.name);
          List.iter
            (fun ((flag, _) as sabotage) ->
              check_bool
                (Printf.sprintf "%s: sabotage %s caught" spec.name flag)
                true
                (S.catch_sabotage sabotage <> None))
            spec.sabotages)
        S.all;
      check_bool "invariants actually ran" true (I.evaluations () > 0))

let test_verdict () =
  let c name ok = { S.name; ok; detail = "" } in
  let checks = [ c "a" true; c "b" false; c "c" true ] in
  check_bool "all true passes" true (S.verdict [ c "a" true ] = `Pass);
  check_bool "one false fails" true (S.verdict checks = `Fail);
  Alcotest.(check (list string))
    "failed names it" [ "b" ]
    (List.map (fun (x : S.check) -> x.name) (S.failed checks))

let () =
  Alcotest.run "check"
    [
      ( "registry",
        [
          Alcotest.test_case "disabled register is a no-op" `Quick
            test_register_disabled_noop;
          Alcotest.test_case "violation carries name and detail" `Quick
            test_violation_raises_with_name;
          Alcotest.test_case "quiesce-only skipped by cadence" `Quick
            test_quiesce_only_skipped_by_cadence;
          Alcotest.test_case "begin_run clears scope" `Quick
            test_begin_run_clears;
          Alcotest.test_case "sabotage flags" `Quick test_sabotage_flags;
          Alcotest.test_case "tick stops when the run drains" `Quick
            test_tick_stops_when_idle;
        ] );
      ( "heap-salt",
        [
          QCheck_alcotest.to_alcotest heap_prop_salted_total_order;
          Alcotest.test_case "salt perturbs ties" `Quick
            test_heap_salt_perturbs_ties;
          Alcotest.test_case "salt reproducible" `Quick
            test_heap_salt_reproducible;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "stable fingerprints pass" `Quick
            test_sweep_stable_fingerprints;
          Alcotest.test_case "salt divergence detected" `Quick
            test_sweep_detects_salt_divergence;
          Alcotest.test_case "violations captured" `Quick
            test_sweep_captures_violations;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "mini chaos sweep" `Slow test_chaos_mini_sweep;
          Alcotest.test_case "sabotage caught" `Slow test_sabotage_is_caught;
          Alcotest.test_case "spec table at sweep size" `Slow test_spec_table;
          Alcotest.test_case "verdict fails on a false check" `Quick
            test_verdict;
        ] );
    ]
