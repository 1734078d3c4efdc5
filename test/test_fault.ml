(* Tests for the fault-injection subsystem: Pony flow recovery under
   forced loss/corruption, trace capture, fabric fault hooks and port
   counters, and end-to-end chaos determinism. *)

module T = Sim.Time

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk_flow_pair () =
  let loop = Sim.Loop.create () in
  let k = { Pony.Wire.src_host = 0; src_engine = 0; dst_host = 1; dst_engine = 0 } in
  let a = Pony.Flow.create ~loop ~key:k ~max_rate_gbps:100.0 () in
  let b = Pony.Flow.create ~loop ~key:(Pony.Wire.reverse k) ~max_rate_gbps:100.0 () in
  (loop, a, b)

let ck =
  {
    Pony.Wire.initiator_host = 0;
    initiator_client = 0;
    target_host = 1;
    target_client = 0;
    session = 0;
  }

let grant i = Pony.Wire.Credit_grant { conn = ck; bytes = i }

(* -- Flow recovery ------------------------------------------------------- *)

let test_fast_retransmit () =
  (* Drop the first packet; later arrivals generate duplicate bare acks
     which must trigger a fast retransmit without waiting for the RTO.
     Also asserts the retransmit lands in the span capture. *)
  Sim.Span.set_capture (Some 64);
  let _loop, a, b = mk_flow_pair () in
  let gen = Memory.Packet.Id_gen.create () in
  for i = 1 to 4 do
    Pony.Flow.enqueue a (grant i) ~payload_bytes:0
  done;
  let now = ref 0 in
  let emit () =
    now := !now + 1_000;
    match Pony.Flow.emit a ~now:!now ~gen with
    | Some p -> p
    | None -> Alcotest.fail "emit"
  in
  let p1 = emit () in
  ignore p1 (* lost on the wire *);
  for _ = 2 to 4 do
    let p = emit () in
    ignore (Pony.Flow.on_receive b ~now:!now p);
    (* Each out-of-order arrival owes a duplicate cumulative ack. *)
    match Pony.Flow.make_ack b ~now:!now ~gen with
    | Some ack ->
        now := !now + 1_000;
        ignore (Pony.Flow.on_receive a ~now:!now ack)
    | None -> Alcotest.fail "expected dup ack"
  done;
  check_int "fast retransmit scheduled" 1 (Pony.Flow.retransmits a);
  (* The retransmitted head converges the receiver. *)
  let p1' = emit () in
  ignore (Pony.Flow.on_receive b ~now:!now p1');
  check_int "all items delivered" 4 (Pony.Flow.delivered b);
  (* Final cumulative ack clears the sender's flight. *)
  (match Pony.Flow.make_ack b ~now:!now ~gen with
  | Some ack -> ignore (Pony.Flow.on_receive a ~now:(!now + 1_000) ack)
  | None -> Alcotest.fail "expected final ack");
  check_int "flight cleared" 0 (Pony.Flow.in_flight a);
  check_bool "fast_retx span recorded" true
    (List.exists
       (fun e -> e.Sim.Span.ev_name = "fast_retx")
       (Sim.Span.events ()));
  Sim.Span.set_capture None

let test_rto_go_back_n () =
  (* No acks at all: the timeout must requeue a whole window and the
     re-emitted packets must converge the receiver exactly once each. *)
  let _loop, a, b = mk_flow_pair () in
  let gen = Memory.Packet.Id_gen.create () in
  for i = 1 to 5 do
    Pony.Flow.enqueue a (grant i) ~payload_bytes:0
  done;
  let now = ref 0 in
  for _ = 1 to 5 do
    now := !now + 1_000;
    match Pony.Flow.emit a ~now:!now ~gen with
    | Some _ -> () (* all lost *)
    | None -> Alcotest.fail "emit"
  done;
  check_int "five in flight" 5 (Pony.Flow.in_flight a);
  let requeued = Pony.Flow.check_timeout a ~now:(T.ms 1) in
  check_int "go-back-N requeued the window" 5 requeued;
  (* Second timeout while retransmissions are pending must not double. *)
  check_int "no duplicate timeout" 0 (Pony.Flow.check_timeout a ~now:(T.ms 2));
  now := T.ms 2;
  for _ = 1 to 5 do
    now := !now + 1_000;
    match Pony.Flow.emit a ~now:!now ~gen with
    | Some p -> ignore (Pony.Flow.on_receive b ~now:!now p)
    | None -> Alcotest.fail "re-emit"
  done;
  check_int "delivered exactly once each" 5 (Pony.Flow.delivered b);
  check_int "retx counted" 5 (Pony.Flow.retransmits a)

let test_receive_dedup () =
  (* Out-of-order arrival plus retransmitted duplicates: the receiver
     delivers each item exactly once. *)
  let _loop, a, b = mk_flow_pair () in
  let gen = Memory.Packet.Id_gen.create () in
  Pony.Flow.enqueue a (grant 1) ~payload_bytes:0;
  Pony.Flow.enqueue a (grant 2) ~payload_bytes:0;
  let p1 = Option.get (Pony.Flow.emit a ~now:1_000 ~gen) in
  let p2 = Option.get (Pony.Flow.emit a ~now:2_000 ~gen) in
  (* p2 first (out of order), then duplicated; then p1, then p1 again. *)
  check_bool "ooo delivered" true (Option.is_some (Pony.Flow.on_receive b ~now:3_000 p2));
  check_bool "ooo duplicate dropped" true
    (Option.is_none (Pony.Flow.on_receive b ~now:4_000 p2));
  check_bool "head delivered" true (Option.is_some (Pony.Flow.on_receive b ~now:5_000 p1));
  check_bool "head duplicate dropped" true
    (Option.is_none (Pony.Flow.on_receive b ~now:6_000 p1));
  check_int "two deliveries" 2 (Pony.Flow.delivered b)

(* -- Fabric hooks and port counters -------------------------------------- *)

let mk_fabric ?(config = Fabric.default_config) () =
  let loop = Sim.Loop.create () in
  let fab = Fabric.create ~loop ~config ~hosts:2 in
  (loop, fab)

let mk_pkt ~gen ~dst ~bytes =
  Memory.Packet.make
    ~id:(Memory.Packet.Id_gen.next gen)
    ~src:(1 - dst) ~dst ~wire_bytes:bytes Memory.Packet.Empty ()

let test_fabric_fault_hook () =
  let loop, fab = mk_fabric () in
  let gen = Memory.Packet.Id_gen.create () in
  let got = ref 0 in
  Fabric.attach fab ~addr:1 ~rx:(fun _ -> incr got);
  Fabric.set_fault_hook fab (fun pkt ->
      if pkt.Memory.Packet.id mod 2 = 0 then Fabric.Fault_drop
      else Fabric.Fault_pass);
  for _ = 1 to 10 do
    Fabric.send fab (mk_pkt ~gen ~dst:1 ~bytes:1000)
  done;
  Sim.Loop.run loop;
  check_int "half delivered" 5 !got;
  check_int "port counted the injected drops" 5 (Fabric.port_drops fab ~addr:1);
  check_bool "queue high-water mark recorded" true
    (Fabric.port_max_queue_bytes fab ~addr:1 >= 1000);
  Fabric.set_fault_hook fab (fun _ -> Fabric.Fault_pass);
  Fabric.send fab (mk_pkt ~gen ~dst:1 ~bytes:1000);
  Sim.Loop.run loop;
  check_int "hook cleared" 6 !got

let test_fabric_corrupt_hook () =
  let loop, fab = mk_fabric () in
  let gen = Memory.Packet.Id_gen.create () in
  let corrupted = ref 0 and clean = ref 0 in
  Fabric.attach fab ~addr:1 ~rx:(fun pkt ->
      if pkt.Memory.Packet.corrupted then incr corrupted else incr clean);
  Fabric.set_fault_hook fab (fun pkt ->
      if pkt.Memory.Packet.id = 0 then Fabric.Fault_corrupt else Fabric.Fault_pass);
  for _ = 1 to 3 do
    Fabric.send fab (mk_pkt ~gen ~dst:1 ~bytes:1000)
  done;
  Sim.Loop.run loop;
  check_int "one poisoned delivery" 1 !corrupted;
  check_int "rest clean" 2 !clean

let test_fabric_overflow_port_counter () =
  (* Drop-tail overflow also lands in the per-port counter. *)
  let config = { Fabric.default_config with Fabric.egress_buffer_bytes = 2500 } in
  let loop, fab = mk_fabric ~config () in
  let gen = Memory.Packet.Id_gen.create () in
  let got = ref 0 in
  Fabric.attach fab ~addr:1 ~rx:(fun _ -> incr got);
  for _ = 1 to 10 do
    Fabric.send fab (mk_pkt ~gen ~dst:1 ~bytes:1000)
  done;
  Sim.Loop.run loop;
  check_bool "overflow dropped some" true (Fabric.port_drops fab ~addr:1 > 0);
  check_int "conservation" 10 (!got + Fabric.port_drops fab ~addr:1);
  check_bool "high-water below cap" true
    (Fabric.port_max_queue_bytes fab ~addr:1 <= 2500)

(* -- Straggler hook ------------------------------------------------------ *)

let test_cost_scale () =
  let loop = Sim.Loop.create () in
  let m =
    Cpu.Sched.create_machine ~loop ~name:"m" ~cores:2
  in
  let ran_for = ref 0 in
  Cpu.Sched.set_cost_scale m 3.0;
  ignore
    (Cpu.Thread.spawn m ~name:"w" ~account:"test"
       ~klass:(Cpu.Sched.Cfs { nice = 0 }) ~idle:Cpu.Sched.Block (fun ctx ->
         let t0 = Cpu.Thread.now ctx in
         Cpu.Thread.compute ctx 1_000;
         ran_for := Cpu.Thread.now ctx - t0));
  Sim.Loop.run loop;
  check_bool "cost inflated 3x" true (!ran_for >= 3_000);
  Cpu.Sched.set_cost_scale m 1.0;
  check_bool "rejects speedups" true
    (try
       Cpu.Sched.set_cost_scale m 0.5;
       false
     with Invalid_argument _ -> true)

(* -- End-to-end: corruption recovered by retransmission ------------------ *)

let test_corruption_recovery () =
  let plan =
    Fault.Plan.make ~seed:5
      [
        Fault.Plan.Corrupt
          {
            port = 1;
            start = T.ms 1;
            duration = T.ms 8;
            corrupt_pct = 20.0;
          };
      ]
  in
  let cfg =
    {
      Workloads.Chaos.default_config with
      Workloads.Chaos.ops_per_client = 200;
      plan;
    }
  in
  let r = Workloads.Chaos.run cfg in
  check_int "no operation lost" 0 r.Workloads.Chaos.lost_ops;
  check_bool "corruption was injected" true
    (List.assoc "corruptions" r.Workloads.Chaos.fault_counters > 0);
  check_bool "poisoned packets caught end-to-end" true
    (r.Workloads.Chaos.corrupt_dropped > 0);
  check_bool "recovered by retransmission" true
    (r.Workloads.Chaos.retransmits > 0)

(* -- Acceptance: chaos plan completes and is deterministic --------------- *)

let hist_fingerprint h =
  ( Stats.Histogram.count h,
    Stats.Histogram.sum h,
    Stats.Histogram.percentile h 50.0,
    Stats.Histogram.percentile h 99.0,
    Stats.Histogram.percentile h 99.9,
    Stats.Histogram.max_value h )

let test_chaos_deterministic () =
  let r1 = Workloads.Chaos.run Workloads.Chaos.default_config in
  let r2 = Workloads.Chaos.run Workloads.Chaos.default_config in
  check_int "all ops completed" 0 r1.Workloads.Chaos.lost_ops;
  check_int "every op accounted" r1.Workloads.Chaos.ops_expected
    r1.Workloads.Chaos.ops_completed;
  (* The default plan really exercises the acceptance scenario. *)
  let c k = List.assoc k r1.Workloads.Chaos.fault_counters in
  check_bool "bursty loss fired" true (c "loss_drops" > 0);
  check_bool "blackout fired" true (c "blackout_drops" > 0);
  check_int "engine crashed" 1 (c "engine_crashes");
  check_int "engine restarted" 1 (c "engine_restarts");
  (* Determinism: identical fault logs and latency histograms. *)
  check_bool "identical fault logs" true
    (Fault.Log.entries r1.Workloads.Chaos.fault_log
    = Fault.Log.entries r2.Workloads.Chaos.fault_log);
  check_bool "fault log non-trivial" true
    (Fault.Log.entries r1.Workloads.Chaos.fault_log <> []);
  Alcotest.(check (list (pair string int)))
    "identical counters" r1.Workloads.Chaos.fault_counters
    r2.Workloads.Chaos.fault_counters;
  check_bool "identical latency histograms" true
    (hist_fingerprint r1.Workloads.Chaos.latencies
    = hist_fingerprint r2.Workloads.Chaos.latencies);
  check_int "identical completion times" r1.Workloads.Chaos.completion_time
    r2.Workloads.Chaos.completion_time

let test_plan_validate_byzantine () =
  let byz ?(host = 0) ?(tenant = "x0") ?(start = T.ms 1) ?(duration = T.ms 2)
      ?(behaviors = [ Fault.Plan.Bad_desc_range ]) () =
    Fault.Plan.Guest_byzantine { host; tenant; start; duration; behaviors }
  in
  let rejects name ev msg =
    Alcotest.check_raises name (Invalid_argument msg) (fun () ->
        ignore (Fault.Plan.make [ ev ]))
  in
  rejects "negative host" (byz ~host:(-1) ()) "Fault.Plan: byzantine host";
  rejects "empty tenant" (byz ~tenant:"" ()) "Fault.Plan: byzantine tenant";
  rejects "negative start"
    (byz ~start:(-1) ())
    "Fault.Plan: byzantine window";
  rejects "zero duration" (byz ~duration:0 ()) "Fault.Plan: byzantine window";
  rejects "no behaviors" (byz ~behaviors:[] ())
    "Fault.Plan: byzantine behaviors";
  rejects "kick storm needs a rate"
    (byz ~behaviors:[ Fault.Plan.Kick_storm { hz = 0.0 } ] ())
    "Fault.Plan: kick_storm hz";
  (* A well-formed event with every behavior passes, and each behavior
     renders to a distinct name (the injector logs them). *)
  let all =
    [
      Fault.Plan.Bad_desc_range;
      Fault.Plan.Desc_id_alias;
      Fault.Plan.Avail_rollback;
      Fault.Plan.Avail_runahead;
      Fault.Plan.Reap_withhold;
      Fault.Plan.Kick_storm { hz = 1e5 };
    ]
  in
  let plan = Fault.Plan.make [ byz ~behaviors:all () ] in
  check_int "event accepted" 1 (List.length (Fault.Plan.events plan));
  let names = List.map Fault.Plan.byzantine_to_string all in
  check_int "behavior names distinct" (List.length all)
    (List.length (List.sort_uniq compare names))

let () =
  Alcotest.run "fault"
    [
      ( "flow-recovery",
        [
          Alcotest.test_case "fast retransmit on dup acks" `Quick
            test_fast_retransmit;
          Alcotest.test_case "rto go-back-n" `Quick test_rto_go_back_n;
          Alcotest.test_case "receive-side dedup" `Quick test_receive_dedup;
        ] );
      ( "fabric",
        [
          Alcotest.test_case "fault hook drop" `Quick test_fabric_fault_hook;
          Alcotest.test_case "fault hook corrupt" `Quick test_fabric_corrupt_hook;
          Alcotest.test_case "overflow port counters" `Quick
            test_fabric_overflow_port_counter;
        ] );
      ( "cpu",
        [ Alcotest.test_case "straggler cost scale" `Quick test_cost_scale ] );
      ( "plan",
        [
          Alcotest.test_case "byzantine event validation" `Quick
            test_plan_validate_byzantine;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "corruption recovery" `Quick
            test_corruption_recovery;
          Alcotest.test_case "deterministic acceptance run" `Slow
            test_chaos_deterministic;
        ] );
    ]
