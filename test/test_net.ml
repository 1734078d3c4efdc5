(* Tests for the fabric and NIC models. *)

module T = Sim.Time
module P = Memory.Packet

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk_pkt ?(id = 0) ?(src = 0) ?(dst = 1) ?(flow = 0) ?(qos = 0) bytes =
  P.make ~id ~src ~dst ~flow_hash:flow ~qos ~wire_bytes:bytes P.Empty ()

let test_fabric_delivery_latency () =
  let loop = Sim.Loop.create () in
  let fab = Fabric.create ~loop ~config:Fabric.default_config ~hosts:2 in
  let arrived = ref (-1) and delivered = ref 0 and bytes = ref 0 in
  Fabric.attach fab ~addr:1 ~rx:(fun p ->
      arrived := Sim.Loop.now loop;
      incr delivered;
      bytes := !bytes + p.P.wire_bytes);
  Fabric.attach fab ~addr:0 ~rx:(fun _ -> ());
  Fabric.send fab (mk_pkt 1000);
  Sim.Loop.run loop;
  (* prop 500 + switch 300 + serialization 80 (1000B @ 100Gbps) + prop 500 *)
  check_int "latency" 1380 !arrived;
  check_int "delivered" 1 !delivered;
  check_int "bytes" 1000 !bytes

let test_fabric_queueing () =
  (* Two packets to the same port serialize one after the other. *)
  let loop = Sim.Loop.create () in
  let fab = Fabric.create ~loop ~config:Fabric.default_config ~hosts:2 in
  let times = ref [] in
  Fabric.attach fab ~addr:1 ~rx:(fun _ -> times := Sim.Loop.now loop :: !times);
  Fabric.attach fab ~addr:0 ~rx:(fun _ -> ());
  Fabric.send fab (mk_pkt 10_000);
  Fabric.send fab (mk_pkt 10_000);
  Sim.Loop.run loop;
  match List.rev !times with
  | [ a; b ] ->
      (* 10 kB at 100 Gbps = 800 ns serialization; the second waits for
         the first. *)
      check_int "gap equals serialization" 800 (b - a)
  | _ -> Alcotest.fail "expected two deliveries"

let test_fabric_qos_priority () =
  let loop = Sim.Loop.create () in
  let fab = Fabric.create ~loop ~config:Fabric.default_config ~hosts:2 in
  let order = ref [] in
  Fabric.attach fab ~addr:1 ~rx:(fun p -> order := p.P.id :: !order);
  Fabric.attach fab ~addr:0 ~rx:(fun _ -> ());
  (* Fill the port with low-priority traffic, then send one high-priority
     packet; it must overtake the queued low-priority ones. *)
  for i = 1 to 5 do
    Fabric.send fab (mk_pkt ~id:i ~qos:3 50_000)
  done;
  ignore
    (Sim.Loop.at loop (T.us 2) (fun () ->
         Fabric.send fab (mk_pkt ~id:100 ~qos:0 1000)));
  Sim.Loop.run loop;
  let order = List.rev !order in
  let pos_hi = ref (-1) in
  List.iteri (fun i id -> if id = 100 then pos_hi := i) order;
  check_bool "high priority overtakes" true (!pos_hi >= 0 && !pos_hi < 4)

let test_fabric_drop_overflow () =
  let loop = Sim.Loop.create () in
  let config = { Fabric.default_config with Fabric.egress_buffer_bytes = 20_000 } in
  let fab = Fabric.create ~loop ~config ~hosts:2 in
  let n = ref 0 in
  Fabric.attach fab ~addr:1 ~rx:(fun _ -> incr n);
  Fabric.attach fab ~addr:0 ~rx:(fun _ -> ());
  for i = 0 to 9 do
    Fabric.send fab (mk_pkt ~id:i 10_000)
  done;
  Sim.Loop.run loop;
  check_bool "some dropped" true (Fabric.dropped fab > 0);
  check_int "conservation" 10 (!n + Fabric.dropped fab)

let mk_host ?(hosts = 2) ?(nic_cfg = Nic.default_config) () =
  let loop = Sim.Loop.create () in
  let fab = Fabric.create ~loop ~config:Fabric.default_config ~hosts in
  let mks addr =
    let m =
      Cpu.Sched.create_machine ~loop ~name:(Printf.sprintf "m%d" addr) ~cores:4
    in
    let nic = Nic.create ~loop ~machine:m ~fabric:fab ~addr nic_cfg in
    (m, nic)
  in
  (loop, fab, List.init hosts mks)

let test_nic_end_to_end () =
  let loop, _fab, hosts = mk_host () in
  let _, nic0 = List.nth hosts 0 in
  let _, nic1 = List.nth hosts 1 in
  check_bool "tx accepted" true (Nic.try_transmit nic0 (mk_pkt 1000));
  Sim.Loop.run loop;
  check_int "tx count" 1 (Nic.tx_count nic0);
  let ring = Nic.rx_ring nic1 ~queue:0 in
  check_int "packet in ring 0" 1 (Squeue.Spsc.length ring)

let test_nic_steering () =
  let loop, _fab, hosts = mk_host () in
  let _, nic0 = List.nth hosts 0 in
  let _, nic1 = List.nth hosts 1 in
  for flow = 0 to 7 do
    ignore (Nic.try_transmit nic0 (mk_pkt ~flow ~id:flow 500))
  done;
  Sim.Loop.run loop;
  for q = 0 to 7 do
    check_int
      (Printf.sprintf "queue %d got its flow" q)
      1
      (Squeue.Spsc.length (Nic.rx_ring nic1 ~queue:q))
  done

let test_nic_custom_steering () =
  let loop, _fab, hosts = mk_host () in
  let _, nic0 = List.nth hosts 0 in
  let _, nic1 = List.nth hosts 1 in
  Nic.install_steering nic1 (fun _ -> 3);
  for flow = 0 to 7 do
    ignore (Nic.try_transmit nic0 (mk_pkt ~flow ~id:flow 500))
  done;
  Sim.Loop.run loop;
  check_int "all in queue 3" 8 (Squeue.Spsc.length (Nic.rx_ring nic1 ~queue:3))

let test_nic_kick_notify () =
  let loop, _fab, hosts = mk_host () in
  let m1, nic1 = List.nth hosts 1 in
  let _, nic0 = List.nth hosts 0 in
  let seen = ref 0 in
  let core = Cpu.Sched.reserve_core m1 in
  let task =
    Cpu.Sched.spawn m1 ~name:"poller" ~account:"snap"
      ~klass:(Cpu.Sched.Pinned core) ~idle:Cpu.Sched.Spin ~step:(fun () ->
        match Squeue.Spsc.pop (Nic.rx_ring nic1 ~queue:0) with
        | Some _ ->
            incr seen;
            Cpu.Sched.ran (T.ns 200)
        | None -> Cpu.Sched.idle)
  in
  Cpu.Sched.start task;
  Nic.set_rx_notify nic1 ~queue:0 (Nic.Kick task);
  ignore (Nic.try_transmit nic0 (mk_pkt 500));
  Sim.Loop.run ~until:(T.ms 1) loop;
  check_int "polled packet" 1 !seen

let test_nic_interrupt_notify_and_rearm () =
  let loop, _fab, hosts = mk_host () in
  let _, nic1 = List.nth hosts 1 in
  let _, nic0 = List.nth hosts 0 in
  let irqs = ref 0 in
  Nic.set_rx_notify nic1 ~queue:0 (Nic.Interrupt (fun () -> incr irqs));
  ignore (Nic.try_transmit nic0 (mk_pkt 500));
  Sim.Loop.run loop;
  check_int "one interrupt" 1 !irqs;
  (* While disarmed, more packets do not interrupt. *)
  ignore (Nic.try_transmit nic0 (mk_pkt 500));
  Sim.Loop.run loop;
  check_int "coalesced" 1 !irqs;
  (* Re-arming with a non-empty ring fires immediately. *)
  Nic.rearm_rx_interrupt nic1 ~queue:0;
  Sim.Loop.run loop;
  check_int "rearm fires" 2 !irqs

let test_nic_tx_ring_full () =
  let loop, _fab, hosts = mk_host () in
  let _, nic0 = List.nth hosts 0 in
  let slots = Nic.tx_slots_free nic0 in
  let accepted = ref 0 in
  for _ = 1 to slots + 6 do
    if Nic.try_transmit nic0 (mk_pkt 1000) then incr accepted
  done;
  check_int "ring bounded" 1024 !accepted;
  check_int "slots free" 0 (Nic.tx_slots_free nic0);
  Sim.Loop.run loop;
  check_int "slots recovered" 1024 (Nic.tx_slots_free nic0)

let test_nic_tx_drain_hook () =
  let loop, _fab, hosts = mk_host () in
  let _, nic0 = List.nth hosts 0 in
  let drains = ref 0 in
  Nic.set_tx_drain_hook nic0 (fun () -> incr drains);
  ignore (Nic.try_transmit nic0 (mk_pkt 1000));
  ignore (Nic.try_transmit nic0 (mk_pkt 1000));
  Sim.Loop.run loop;
  check_int "hook per packet" 2 !drains

let test_nic_mtu_enforced () =
  let loop, _fab, hosts = mk_host () in
  ignore loop;
  let _, nic0 = List.nth hosts 0 in
  Alcotest.check_raises "oversize rejected"
    (Invalid_argument "Nic.try_transmit: packet exceeds MTU") (fun () ->
      ignore (Nic.try_transmit nic0 (mk_pkt 9000)))

let test_copy_engine () =
  let loop = Sim.Loop.create () in
  let ce = Nic.Copy_engine.create ~loop () in
  let done_at = ref [] in
  Nic.Copy_engine.submit ce ~bytes:10_000 ~on_complete:(fun () ->
      done_at := Sim.Loop.now loop :: !done_at);
  Nic.Copy_engine.submit ce ~bytes:10_000 ~on_complete:(fun () ->
      done_at := Sim.Loop.now loop :: !done_at);
  Sim.Loop.run loop;
  match List.rev !done_at with
  | [ a; b ] ->
      (* 10 kB at 240 Gbps = 333 ns each, serialized. *)
      check_int "first" 333 a;
      check_int "second" 666 b
  | _ -> Alcotest.fail "expected two completions"

let () =
  Alcotest.run "net"
    [
      ( "fabric",
        [
          Alcotest.test_case "delivery latency" `Quick test_fabric_delivery_latency;
          Alcotest.test_case "queueing" `Quick test_fabric_queueing;
          Alcotest.test_case "qos priority" `Quick test_fabric_qos_priority;
          Alcotest.test_case "drop overflow" `Quick test_fabric_drop_overflow;
        ] );
      ( "nic",
        [
          Alcotest.test_case "end to end" `Quick test_nic_end_to_end;
          Alcotest.test_case "steering" `Quick test_nic_steering;
          Alcotest.test_case "custom steering" `Quick test_nic_custom_steering;
          Alcotest.test_case "kick notify" `Quick test_nic_kick_notify;
          Alcotest.test_case "interrupt rearm" `Quick test_nic_interrupt_notify_and_rearm;
          Alcotest.test_case "tx ring full" `Quick test_nic_tx_ring_full;
          Alcotest.test_case "tx drain hook" `Quick test_nic_tx_drain_hook;
          Alcotest.test_case "mtu" `Quick test_nic_mtu_enforced;
        ] );
      ("copy engine", [ Alcotest.test_case "serialized copies" `Quick test_copy_engine ]);
    ]
