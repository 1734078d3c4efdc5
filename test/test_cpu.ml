(* Tests for the simulated CPU scheduler: classes, wakeups, C-states,
   accounting, preemption, throttling. *)

module T = Sim.Time

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk ?(cores = 4) () =
  let loop = Sim.Loop.create () in
  let m =
    Cpu.Sched.create_machine ~loop ~name:"m0" ~cores
  in
  (loop, m)

let test_thread_compute_accounting () =
  let loop, m = mk () in
  let done_at = ref (-1) in
  ignore
    (Cpu.Thread.spawn m ~name:"worker" ~account:"app"
       ~klass:(Cpu.Sched.Cfs { nice = 0 }) (fun ctx ->
         Cpu.Thread.compute ctx (T.us 100);
         Cpu.Thread.compute ctx (T.us 50);
         done_at := Cpu.Thread.now ctx));
  Sim.Loop.run loop;
  check_int "app busy" (T.us 150) (Cpu.Sched.account_busy_ns m "app");
  check_bool "finished after at least 150us" true (!done_at >= T.us 150);
  check_bool "wakeup latency bounded" true (!done_at < T.us 170)

let test_thread_sleep () =
  let loop, m = mk () in
  let woke_at = ref 0 in
  ignore
    (Cpu.Thread.spawn m ~name:"sleeper" ~account:"app"
       ~klass:(Cpu.Sched.Cfs { nice = 0 }) (fun ctx ->
         Cpu.Thread.sleep ctx (T.ms 5);
         woke_at := Cpu.Thread.now ctx));
  Sim.Loop.run loop;
  check_bool "slept at least 5ms" true (!woke_at >= T.ms 5);
  (* C-state exit + wakeup should stay well under 100us. *)
  check_bool "woke promptly" true (!woke_at < T.ms 5 + T.us 100)

let test_wait_wake () =
  let loop, m = mk () in
  let woke_at = ref (-1) in
  let t =
    Cpu.Thread.spawn m ~name:"waiter" ~account:"app"
      ~klass:(Cpu.Sched.Micro_quanta { runtime_pct = 0.9 }) (fun ctx ->
        Cpu.Thread.wait ctx;
        woke_at := Cpu.Thread.now ctx)
  in
  ignore (Sim.Loop.at loop (T.us 50) (fun () -> Cpu.Sched.wake t));
  Sim.Loop.run loop;
  check_bool "woke after signal" true (!woke_at >= T.us 50);
  check_bool "microquanta wake fast" true (!woke_at <= T.us 50 + T.us 40)

let test_wake_lost_race () =
  (* A wake delivered while the task is still running must not be lost. *)
  let loop, m = mk () in
  let rounds = ref 0 in
  let t =
    Cpu.Thread.spawn m ~name:"w" ~account:"app"
      ~klass:(Cpu.Sched.Cfs { nice = 0 }) (fun ctx ->
        Cpu.Thread.compute ctx (T.us 100);
        Cpu.Thread.wait ctx;
        incr rounds)
  in
  (* Wake at 10us: thread is mid-compute (running); when it later waits,
     the pending wake must resume it. *)
  ignore (Sim.Loop.at loop (T.us 10) (fun () -> Cpu.Sched.wake t));
  Sim.Loop.run loop;
  check_int "wait returned" 1 !rounds

let test_cfs_fair_share () =
  let loop, m = mk ~cores:1 () in
  let busy_a = ref 0 and busy_b = ref 0 in
  let spin_chunk ctx total =
    let remaining = ref total in
    while !remaining > 0 do
      let c = min !remaining (T.us 200) in
      Cpu.Thread.compute ctx c;
      remaining := !remaining - c
    done
  in
  List.iter
    (fun name ->
      ignore
        (Cpu.Thread.spawn m ~name ~account:name
           ~klass:(Cpu.Sched.Cfs { nice = 0 })
           (fun ctx -> spin_chunk ctx (T.ms 200))))
    [ "a"; "b" ];
  Sim.Loop.run ~until:(T.ms 100) loop;
  busy_a := Cpu.Sched.account_busy_ns m "a";
  busy_b := Cpu.Sched.account_busy_ns m "b";
  let total = !busy_a + !busy_b in
  check_bool "both ran" true (!busy_a > 0 && !busy_b > 0);
  (* Equal-nice tasks should split the core roughly evenly. *)
  let ratio = float_of_int !busy_a /. float_of_int total in
  check_bool "fair split" true (ratio > 0.40 && ratio < 0.60)

let test_mq_priority_over_cfs () =
  (* One core hogged by a CFS task; an MQ task waking up should get the
     CPU within a bounded time (step granularity + context switch), not
     wait for CFS timeslices. *)
  let loop, m = mk ~cores:1 () in
  ignore
    (Cpu.Thread.spawn m ~name:"hog" ~account:"hog"
       ~klass:(Cpu.Sched.Cfs { nice = 0 }) (fun ctx ->
         for _ = 1 to 10_000 do
           Cpu.Thread.compute ctx (T.us 100)
         done));
  let latency = ref (-1) in
  let waker = ref T.zero in
  let t =
    Cpu.Thread.spawn m ~name:"rt" ~account:"rt"
      ~klass:(Cpu.Sched.Micro_quanta { runtime_pct = 0.5 }) (fun ctx ->
        Cpu.Thread.wait ctx;
        latency := T.sub (Cpu.Thread.now ctx) !waker)
  in
  ignore
    (Sim.Loop.at loop (T.ms 10) (fun () ->
         waker := Sim.Loop.now loop;
         Cpu.Sched.wake t));
  Sim.Loop.run ~until:(T.ms 20) loop;
  check_bool "mq ran" true (!latency >= 0);
  (* Bound: remaining chunk (<=100us) + context switch + wake latency. *)
  check_bool "mq latency bounded" true (!latency <= T.us 110)

let test_mq_throttling () =
  (* An MQ task with 20% bandwidth on an otherwise idle machine must not
     consume much more than 20% of one core. *)
  let loop, m = mk ~cores:1 () in
  ignore
    (Cpu.Thread.spawn m ~name:"rt" ~account:"rt"
       ~klass:(Cpu.Sched.Micro_quanta { runtime_pct = 0.2 }) (fun ctx ->
         for _ = 1 to 1_000_000 do
           Cpu.Thread.compute ctx (T.us 50)
         done));
  Sim.Loop.run ~until:(T.ms 100) loop;
  let frac =
    float_of_int (Cpu.Sched.account_busy_ns m "rt") /. float_of_int (T.ms 100)
  in
  check_bool "throttled near 20%" true (frac > 0.15 && frac < 0.30)

let test_pinned_spin_accounting () =
  (* A dedicated spinning engine burns its core: busy ~ wall time. *)
  let loop, m = mk ~cores:2 () in
  let core = Cpu.Sched.reserve_core m in
  let t =
    Cpu.Sched.spawn m ~name:"engine" ~account:"snap"
      ~klass:(Cpu.Sched.Pinned core) ~idle:Cpu.Sched.Spin ~step:(fun () ->
        Cpu.Sched.idle)
  in
  Cpu.Sched.start t;
  Sim.Loop.run ~until:(T.ms 10) loop;
  check_bool "spinning counts as busy" true
    (Cpu.Sched.account_busy_ns m "snap" > T.ms 9)

let test_kick_spinning_task () =
  let loop, m = mk ~cores:2 () in
  let core = Cpu.Sched.reserve_core m in
  let work = Queue.create () in
  let processed = ref [] in
  let t =
    Cpu.Sched.spawn m ~name:"engine" ~account:"snap"
      ~klass:(Cpu.Sched.Pinned core) ~idle:Cpu.Sched.Spin ~step:(fun () ->
        match Queue.take_opt work with
        | Some v ->
            processed := (v, Sim.Loop.now loop) :: !processed;
            Cpu.Sched.ran (T.us 1)
        | None -> Cpu.Sched.idle)
  in
  Cpu.Sched.start t;
  ignore
    (Sim.Loop.at loop (T.ms 1) (fun () ->
         Queue.add 42 work;
         Cpu.Sched.kick t));
  Sim.Loop.run ~until:(T.ms 2) loop;
  match !processed with
  | [ (v, at) ] ->
      check_int "value" 42 v;
      check_bool "picked up almost immediately" true (at - T.ms 1 < T.us 1)
  | _ -> Alcotest.fail "expected exactly one processed item"

let test_cstate_wakeup_penalty () =
  (* After a long idle period the core sleeps; waking a task then incurs
     the C-state exit latency.  Compare a wake after 10us of idleness
     (awake core) against one after 10ms (sleeping core). *)
  let wake_delay idle_gap =
    let loop, m = mk ~cores:1 () in
    let woke = ref 0 and signaled = ref 0 in
    let t =
      Cpu.Thread.spawn m ~name:"w" ~account:"app"
        ~klass:(Cpu.Sched.Cfs { nice = 0 }) (fun ctx ->
          Cpu.Thread.wait ctx;
          woke := Cpu.Thread.now ctx)
    in
    ignore
      (Sim.Loop.at loop idle_gap (fun () ->
           signaled := Sim.Loop.now loop;
           Cpu.Sched.wake t));
    Sim.Loop.run loop;
    !woke - !signaled
  in
  let fast = wake_delay (T.us 10) in
  let slow = wake_delay (T.ms 10) in
  check_bool "sleeping core pays C-state exit" true
    (slow - fast >= Sim.Costs.default.Sim.Costs.cstate_exit - T.us 1)

let test_nonpreemptible_blocks_mq () =
  (* All cores busy; one runs a non-preemptible kernel section.  An MQ
     wakeup must wait for the section to finish (Figure 7(b) pathology),
     far longer than the normal MQ wake latency. *)
  let loop, m = mk ~cores:1 () in
  ignore
    (Cpu.Thread.spawn m ~name:"mmap-antagonist" ~account:"antag"
       ~klass:(Cpu.Sched.Cfs { nice = 0 }) (fun ctx ->
         for _ = 1 to 1000 do
           Cpu.Thread.compute_nonpreemptible ctx (T.ms 2)
         done));
  let latency = ref (-1) in
  let waker = ref T.zero in
  let t =
    Cpu.Thread.spawn m ~name:"rt" ~account:"rt"
      ~klass:(Cpu.Sched.Micro_quanta { runtime_pct = 0.5 }) (fun ctx ->
        Cpu.Thread.wait ctx;
        latency := T.sub (Cpu.Thread.now ctx) !waker)
  in
  ignore
    (Sim.Loop.at loop (T.ms 10 + T.us 100) (fun () ->
         waker := Sim.Loop.now loop;
         Cpu.Sched.wake t));
  Sim.Loop.run ~until:(T.ms 30) loop;
  check_bool "mq ran" true (!latency >= 0);
  check_bool "delayed by non-preemptible section" true (!latency > T.us 500)

let test_interrupt_accounting () =
  let loop, m = mk ~cores:2 () in
  let handled = ref false in
  Cpu.Sched.interrupt m ~cost:(T.us 5) (fun () -> handled := true);
  Sim.Loop.run loop;
  check_bool "handler ran" true !handled;
  check_int "softirq charged" (T.us 5) (Cpu.Sched.account_busy_ns m "softirq")

let test_interrupt_steals_from_running () =
  (* Interrupt landing on a busy core delays the running task. *)
  let loop, m = mk ~cores:1 () in
  let done_at = ref 0 in
  ignore
    (Cpu.Thread.spawn m ~name:"w" ~account:"app"
       ~klass:(Cpu.Sched.Cfs { nice = 0 }) (fun ctx ->
         Cpu.Thread.compute ctx (T.us 100);
         Cpu.Thread.compute ctx (T.us 100);
         done_at := Cpu.Thread.now ctx));
  ignore
    (Sim.Loop.at loop (T.us 50) (fun () ->
         Cpu.Sched.interrupt m ~cost:(T.us 30) (fun () -> ())));
  Sim.Loop.run loop;
  check_bool "task delayed by steal" true (!done_at >= T.us 230)

let test_reserve_core_exclusion () =
  let _loop, m = mk ~cores:2 () in
  let c1 = Cpu.Sched.reserve_core m in
  let c2 = Cpu.Sched.reserve_core m in
  check_bool "distinct" true (c1 <> c2);
  Alcotest.check_raises "exhausted" (Failure "Sched.reserve_core: none left")
    (fun () -> ignore (Cpu.Sched.reserve_core m))

let test_spawn_validation () =
  let _loop, m = mk ~cores:2 () in
  Alcotest.check_raises "bad nice" (Invalid_argument "Sched.spawn: nice")
    (fun () ->
      ignore
        (Cpu.Sched.spawn m ~name:"x" ~account:"x"
           ~klass:(Cpu.Sched.Cfs { nice = 25 }) ~idle:Cpu.Sched.Block
           ~step:(fun () -> Cpu.Sched.finished)));
  Alcotest.check_raises "unreserved pin"
    (Invalid_argument "Sched.spawn: pinned core not reserved") (fun () ->
      ignore
        (Cpu.Sched.spawn m ~name:"x" ~account:"x" ~klass:(Cpu.Sched.Pinned 0)
           ~idle:Cpu.Sched.Spin
           ~step:(fun () -> Cpu.Sched.finished)))

let test_multicore_parallelism () =
  (* Two CPU-bound tasks on two cores should both finish in ~wall time,
     not 2x. *)
  let loop, m = mk ~cores:2 () in
  let finished = ref 0 in
  let body ctx =
    for _ = 1 to 100 do
      Cpu.Thread.compute ctx (T.us 100)
    done;
    incr finished
  in
  ignore (Cpu.Thread.spawn m ~name:"a" ~account:"a" ~klass:(Cpu.Sched.Cfs { nice = 0 }) body);
  ignore (Cpu.Thread.spawn m ~name:"b" ~account:"b" ~klass:(Cpu.Sched.Cfs { nice = 0 }) body);
  Sim.Loop.run ~until:(T.ms 11) loop;
  check_int "both finished in parallel" 2 !finished

(* Allocation budgets for a switch.  A thread's switch performs one
   constant effect and parks the continuation; an engine step returns
   its cost as an immediate.  After a warm-up, each loop below runs
   10,000 switches and holds the minor words per switch under a bound
   twice what OCaml 5.1.1 measures: 4.0 per compute (the continuation
   and its [Some]), 6.0 per sleep (also the core's [Some] task) and 0.0
   per engine step.  With a closure per switch, boxed step results and
   a closure per sleep's wake, the same loops measured 22.0, 32.0 and
   4.0. *)
let switch_words ~loop ~count ~n =
  let run () =
    let target = count () + n in
    while count () < target do
      ignore (Sim.Loop.step loop)
    done
  in
  run ();
  let before = Gc.minor_words () in
  run ();
  (Gc.minor_words () -. before) /. float_of_int n

let check_switch_budget what ~budget words =
  check_bool
    (Printf.sprintf "%.1f minor words per %s, budget %.0f" words what budget)
    true (words < budget)

(* One CFS thread alone on a one-core machine, computing or sleeping. *)
let thread_switch_words ~sleep =
  let loop, m = mk ~cores:1 () in
  let switches = ref 0 in
  ignore
    (Cpu.Thread.spawn m ~name:"t" ~account:"app"
       ~klass:(Cpu.Sched.Cfs { nice = 0 }) (fun ctx ->
         while true do
           incr switches;
           if sleep then Cpu.Thread.sleep ctx (T.us 1)
           else Cpu.Thread.compute ctx (T.us 1)
         done));
  switch_words ~loop ~count:(fun () -> !switches) ~n:10_000

let test_compute_switch_alloc () =
  check_switch_budget "compute switch" ~budget:8.0
    (thread_switch_words ~sleep:false)

let test_sleep_switch_alloc () =
  check_switch_budget "sleep switch" ~budget:12.0
    (thread_switch_words ~sleep:true)

(* An engine alone on a dedicated core.  Its cost is computed, not a
   constant the compiler could build once. *)
let test_engine_step_alloc () =
  let loop, m = mk ~cores:2 () in
  let g =
    Engine.create_group ~machine:m ~name:"g"
      ~mode:(Engine.Dedicating { cores = 1 })
  in
  let runs = ref 0 in
  let e =
    Engine.create ~name:"e"
      ~run:(fun () ->
        incr runs;
        Engine.worked (T.ns 100 + (!runs land 7)))
      ()
  in
  Engine.add g e;
  check_switch_budget "engine step" ~budget:1.0
    (switch_words ~loop ~count:(fun () -> Engine.steps e) ~n:10_000)

(* An interrupt's delivery is a handler event keyed by a slot of the
   machine, so raising one allocates nothing: 0.0 minor words measured.
   As a closure event capturing the machine, core, cost and handler it
   measured 7.0. *)
let test_interrupt_alloc () =
  let loop, m = mk ~cores:2 () in
  let delivered = ref 0 in
  let rec handler () =
    incr delivered;
    Cpu.Sched.interrupt m ~cost:(T.ns 400) handler
  in
  Cpu.Sched.interrupt m ~cost:(T.ns 400) handler;
  check_switch_budget "interrupt" ~budget:1.0
    (switch_words ~loop ~count:(fun () -> !delivered) ~n:10_000)

let () =
  Alcotest.run "cpu"
    [
      ( "threads",
        [
          Alcotest.test_case "compute accounting" `Quick test_thread_compute_accounting;
          Alcotest.test_case "sleep" `Quick test_thread_sleep;
          Alcotest.test_case "wait/wake" `Quick test_wait_wake;
          Alcotest.test_case "wake race" `Quick test_wake_lost_race;
          Alcotest.test_case "multicore" `Quick test_multicore_parallelism;
        ] );
      ( "scheduling",
        [
          Alcotest.test_case "cfs fair share" `Quick test_cfs_fair_share;
          Alcotest.test_case "mq priority" `Quick test_mq_priority_over_cfs;
          Alcotest.test_case "mq throttling" `Quick test_mq_throttling;
          Alcotest.test_case "nonpreemptible" `Quick test_nonpreemptible_blocks_mq;
        ] );
      ( "engines",
        [
          Alcotest.test_case "pinned spin accounting" `Quick test_pinned_spin_accounting;
          Alcotest.test_case "kick" `Quick test_kick_spinning_task;
        ] );
      ( "system",
        [
          Alcotest.test_case "cstate penalty" `Quick test_cstate_wakeup_penalty;
          Alcotest.test_case "interrupt accounting" `Quick test_interrupt_accounting;
          Alcotest.test_case "interrupt steal" `Quick test_interrupt_steals_from_running;
          Alcotest.test_case "reserve cores" `Quick test_reserve_core_exclusion;
          Alcotest.test_case "spawn validation" `Quick test_spawn_validation;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "compute switch budget" `Quick test_compute_switch_alloc;
          Alcotest.test_case "sleep switch budget" `Quick test_sleep_switch_alloc;
          Alcotest.test_case "engine step budget" `Quick test_engine_step_alloc;
          Alcotest.test_case "interrupt allocation budget" `Quick
            test_interrupt_alloc;
        ] );
    ]
