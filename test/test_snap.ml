(* Tests for the control plane, the shaper/vswitch engines, transparent
   upgrades, and workload-level invariants. *)

module T = Sim.Time
module PE = Pony.Express

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk_host ?(hosts = 2) ?(mode = Engine.Dedicating { cores = 2 }) () =
  let loop = Sim.Loop.create ~seed:13 () in
  let fab = Fabric.create ~loop ~config:Fabric.default_config ~hosts in
  let dir = PE.Directory.create () in
  let hs =
    List.init hosts (fun addr ->
        Snap.Host.create ~loop ~fabric:fab ~directory:dir ~addr ~mode ())
  in
  (loop, hs)

(* -- Control plane ------------------------------------------------------- *)

type Control.message += Echo of int | Echoed of int

let test_control_rpc () =
  let loop, hosts = mk_host () in
  let h = List.hd hosts in
  Control.register_service h.Snap.Host.control ~service:"echo" (fun msg ->
      match msg with Echo n -> Echoed (n + 1) | m -> m);
  let got = ref 0 in
  ignore
    (Snap.Host.spawn_app h ~name:"app" (fun ctx ->
         match Control.call ctx h.Snap.Host.control ~service:"echo" (Echo 41) with
         | Echoed n -> got := n
         | _ -> ()));
  Sim.Loop.run ~until:(T.ms 1) loop;
  check_int "rpc round trip" 42 !got

let test_control_unknown_service () =
  let loop, hosts = mk_host () in
  let h = List.hd hosts in
  let failed = ref false in
  ignore
    (Snap.Host.spawn_app h ~name:"app" (fun ctx ->
         match Control.call ctx h.Snap.Host.control ~service:"nope" (Echo 1) with
         | Control.Error_no_service "nope" -> failed := true
         | _ -> ()));
  Sim.Loop.run ~until:(T.ms 1) loop;
  check_bool "unknown service errors" true !failed

(* Authenticating a client and registering each of its regions costs
   the app thread one control-plane round trip apiece. *)
let test_control_memory_accounting () =
  let loop, hosts = mk_host () in
  let h = List.hd hosts in
  let done_at = ref (-1) in
  ignore
    (Snap.Host.spawn_app h ~name:"app" (fun ctx ->
         let c = PE.create_client ctx h.Snap.Host.pony ~name:"appc" () in
         let r1 = Memory.Region.create ~id:1 ~size:4096 ~owner:"appc" () in
         let r2 = Memory.Region.create ~id:2 ~size:8192 ~owner:"appc" () in
         PE.register_region ctx c r1;
         PE.register_region ctx c r2;
         done_at := Cpu.Thread.now ctx));
  Sim.Loop.run ~until:(T.ms 2) loop;
  check_bool "registered" true (!done_at >= 0);
  check_bool "three control round trips" true (!done_at >= 3 * T.us 25)

let test_mailbox_via_control () =
  let loop, hosts = mk_host () in
  let h = List.hd hosts in
  let ran = ref false in
  ignore
    (Snap.Host.spawn_app h ~name:"app" (fun _ ->
         let eng = PE.engine_handle h.Snap.Host.pony 0 in
         if Squeue.Mailbox.post (Engine.mailbox eng) (fun () -> ran := true)
         then Engine.notify eng));
  Sim.Loop.run ~until:(T.ms 2) loop;
  check_bool "mailbox work executed on engine" true !ran

(* -- Shaper ---------------------------------------------------------------- *)

let test_shaper_enforces_rate () =
  let loop, hosts = mk_host () in
  let a = List.hd hosts and b = List.nth hosts 1 in
  ignore b;
  let shaper =
    Snap.Shaper.create ~loop ~nic:a.Snap.Host.nic ~group:a.Snap.Host.group
      ~rate_gbps:1.0 ~burst_bytes:10_000 ()
  in
  let gen = Memory.Packet.Id_gen.create () in
  (* Offer 4 Gbps for 10 ms. *)
  ignore
    (Sim.Loop.every loop (T.ns 3000) (fun () ->
         if Sim.Loop.now loop < T.ms 10 then
           ignore
             (Snap.Shaper.submit shaper
                (Memory.Packet.make
                   ~id:(Memory.Packet.Id_gen.next gen)
                   ~src:0 ~dst:1 ~wire_bytes:1500 Memory.Packet.Empty ()))));
  Sim.Loop.run ~until:(T.ms 12) loop;
  let shaped_gbps =
    float_of_int (Snap.Shaper.forwarded shaper * 1500 * 8) /. 10e6
  in
  check_bool
    (Printf.sprintf "rate near policy (%.2f Gbps)" shaped_gbps)
    true
    (shaped_gbps > 0.8 && shaped_gbps < 1.3);
  check_bool "drops happened" true (Snap.Shaper.shaped_drops shaper > 0)

(* -- Vswitch ---------------------------------------------------------------- *)

let test_vswitch_routes_guest_traffic () =
  let loop, hosts = mk_host () in
  let a = List.hd hosts and b = List.nth hosts 1 in
  let vs_a =
    Snap.Vswitch.create ~loop ~nic:a.Snap.Host.nic ~group:a.Snap.Host.group
      ~rx_queue:7 ()
  in
  let vs_b =
    Snap.Vswitch.create ~loop ~nic:b.Snap.Host.nic ~group:b.Snap.Host.group
      ~rx_queue:7 ()
  in
  (* Steer Vnet packets to ring 7 on both NICs. *)
  List.iter
    (fun h ->
      let nic = h.Snap.Host.nic in
      Nic.install_steering nic (fun pkt ->
          match pkt.Memory.Packet.payload with
          | Snap.Vswitch.Vnet _ -> 7
          | Pony.Wire.Pony { flow; _ } -> flow.Pony.Wire.dst_engine
          | _ -> 0))
    [ a; b ];
  let g1 = Snap.Vswitch.add_guest vs_a ~vip:1 in
  ignore (Snap.Vswitch.add_guest vs_b ~vip:2);
  Snap.Vswitch.add_route vs_a ~vip:2 ~host:1;
  Snap.Vswitch.add_route vs_b ~vip:1 ~host:0;
  for _ = 1 to 20 do
    ignore (Snap.Vswitch.guest_transmit vs_a g1 ~dst_vip:2 ~bytes:1000)
  done;
  (* Unroutable destination. *)
  ignore (Snap.Vswitch.guest_transmit vs_a g1 ~dst_vip:99 ~bytes:1000);
  Sim.Loop.run ~until:(T.ms 5) loop;
  (match Stats.Registry.find ~labels:[ ("host", "1") ] "vswitch_to_guests" with
  | Some { Stats.Registry.m_kind = Stats.Registry.Counter c; _ } ->
      check_int "guest packets delivered" 20 (Stats.Counter.value c)
  | _ -> Alcotest.fail "vswitch_to_guests not registered");
  check_int "forwarded" 20 (Snap.Vswitch.forwarded vs_a);
  check_int "unroutable dropped" 1 (Snap.Vswitch.unroutable vs_a)

(* -- Upgrade ---------------------------------------------------------------- *)

let test_upgrade_blackout_model () =
  let b = Upgrade.blackout_of ~state_bytes:400_000_000 in
  (* 2 x 4ms filter updates + 2 x (400MB / 2B-per-ns) = 8ms + 400ms. *)
  check_int "blackout formula" (T.ms 408) b

let test_upgrade_migrates_and_traffic_survives () =
  let r =
    Workloads.Upgrade_fleet.run ~machines:2 ~engines_per_machine:2
      ~state_median_mb:100.0 ()
  in
  check_int "all engines migrated" 4 r.Workloads.Upgrade_fleet.engines_migrated;
  check_bool "traffic survived" true (r.messages_delivered_during > 0);
  check_bool "median blackout plausible" true
    (r.median > T.ms 20 && r.median < T.sec 2)

let test_upgrade_engine_processes_after_move () =
  (* An engine must keep processing after migrating groups. *)
  let loop, hosts = mk_host () in
  let a = List.hd hosts and b = List.nth hosts 1 in
  let delivered = ref 0 in
  ignore
    (Snap.Host.spawn_app b ~name:"echo" (fun ctx ->
         let c = PE.create_client ctx b.Snap.Host.pony ~name:"echo" () in
         while true do
           let m = PE.await_message ctx c in
           ignore m;
           incr delivered
         done));
  ignore
    (Snap.Host.spawn_app a ~name:"src" (fun ctx ->
         let c = PE.create_client ctx a.Snap.Host.pony ~name:"src" () in
         Cpu.Thread.sleep ctx (T.us 300);
         let conn = PE.connect ctx c ~dst_host:1 ~dst_client:0 in
         while true do
           ignore (PE.send_message ctx conn ~bytes:128 ());
           ignore (PE.await_completion ctx c);
           Cpu.Thread.sleep ctx (T.us 200)
         done));
  let report = ref [] in
  ignore
    (Sim.Loop.at loop (T.ms 5) (fun () ->
         let machine = b.Snap.Host.machine in
         let ng =
           Engine.create_group ~machine ~name:"v2"
             ~mode:(Engine.Dedicating { cores = 1 })
         in
         Upgrade.upgrade ~loop
           ~old_group:b.Snap.Host.group ~new_group:ng
           ~extra_state_bytes:(fun _ -> 1_000_000)
           ~on_done:(fun rs -> report := rs)
           ()));
  Sim.Loop.run ~until:(T.ms 60) loop;
  check_bool "upgrade completed" true (List.length !report = 1);
  let before = !delivered in
  Sim.Loop.run ~until:(T.ms 90) loop;
  check_bool "messages flow after migration" true (!delivered > before)

(* -- Workload sanity ---------------------------------------------------------- *)

let test_analytics_correct_batching () =
  let r = Workloads.Analytics.run ~clients:1 ~outstanding:4 () in
  check_bool "IOPS positive" true (r.Workloads.Analytics.mean_iops > 0.0);
  check_bool "single engine core" true (r.server_engine_cores <= 1.05)

let test_a2a_small () =
  let cfg =
    {
      Workloads.All_to_all.default_config with
      Workloads.All_to_all.hosts = 4;
      jobs_per_host = 2;
      offered_gbps_per_host = 4.0;
      window = T.ms 25;
    }
  in
  let r =
    Workloads.All_to_all.run
      (Workloads.All_to_all.Pony (Engine.Spreading { runtime_pct = 1.0 }))
      cfg
  in
  check_bool "achieved near offered" true
    (r.Workloads.All_to_all.achieved_gbps > 1.5
    && r.Workloads.All_to_all.achieved_gbps < 8.0);
  check_bool "prober sampled" true (Stats.Histogram.count r.prober > 10)

let () =
  Alcotest.run "snap"
    [
      ( "control",
        [
          Alcotest.test_case "rpc" `Quick test_control_rpc;
          Alcotest.test_case "unknown service" `Quick test_control_unknown_service;
          Alcotest.test_case "memory accounting" `Quick test_control_memory_accounting;
          Alcotest.test_case "post to engine" `Quick test_mailbox_via_control;
        ] );
      ( "engines",
        [
          Alcotest.test_case "shaper rate" `Quick test_shaper_enforces_rate;
          Alcotest.test_case "vswitch routing" `Quick test_vswitch_routes_guest_traffic;
        ] );
      ( "upgrade",
        [
          Alcotest.test_case "blackout model" `Quick test_upgrade_blackout_model;
          Alcotest.test_case "fleet migrate" `Slow test_upgrade_migrates_and_traffic_survives;
          Alcotest.test_case "engine survives move" `Quick test_upgrade_engine_processes_after_move;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "analytics" `Slow test_analytics_correct_batching;
          Alcotest.test_case "all-to-all" `Slow test_a2a_small;
        ] );
    ]
