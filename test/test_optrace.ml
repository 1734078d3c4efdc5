(* Tests for cross-host op latency attribution (Sim.Optrace): stage
   charging and the conservation property, bounded drop-oldest storage
   for both in-flight and completed records, deterministic slow-op
   export, Chrome flow events linking tx and rx sides, and the Express
   debug snapshot's per-conn stage counters / oldest-op age. *)

module T = Sim.Time
module OT = Sim.Optrace
module PE = Pony.Express

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let with_ot f =
  Fun.protect f ~finally:(fun () ->
      OT.set_capture None;
      OT.set_stage_sink None;
      Sim.Span.set_capture None)

let key ?(op = 1) () =
  {
    OT.k_origin = 0;
    k_origin_client = 0;
    k_peer = 1;
    k_session = 7;
    k_origin_init = true;
    k_op = op;
  }

(* -- Capture off: everything is a no-op ---------------------------------- *)

let test_disabled_noop () =
  with_ot (fun () ->
      let loop = Sim.Loop.create () in
      check_bool "off by default" false (OT.enabled ());
      OT.start loop (key ()) ~kind:"send" ~bytes:64;
      OT.stamp loop (key ()) OT.First_tx;
      OT.finish loop (key ()) ~host:0 ~status:"ok";
      check_int "nothing in flight" 0 (OT.in_flight ());
      check_int "nothing completed" 0 (List.length (OT.completed ()));
      check_bool "no violation" true (OT.conservation_error () = None))

(* -- Stage charging telescopes to end-to-end latency --------------------- *)

let test_stage_charging_telescopes () =
  with_ot (fun () ->
      OT.set_capture (Some 16);
      let loop = Sim.Loop.create () in
      let k = key () in
      let sink_total = ref 0 in
      OT.set_stage_sink (Some (fun _si d -> sink_total := !sink_total + d));
      ignore
        (Sim.Loop.at loop 0 (fun () -> OT.start loop k ~kind:"send" ~bytes:64));
      ignore (Sim.Loop.at loop (T.us 2) (fun () -> OT.stamp loop k OT.Dequeued));
      (* Stamps are idempotent per stage: a later re-stamp must neither
         re-charge nor advance the cursor. *)
      ignore (Sim.Loop.at loop (T.us 3) (fun () -> OT.stamp loop k OT.Dequeued));
      ignore (Sim.Loop.at loop (T.us 5) (fun () -> OT.stamp loop k OT.First_tx));
      ignore
        (Sim.Loop.at loop (T.us 9) (fun () ->
             OT.finish loop k ~host:1 ~status:"ok"));
      Sim.Loop.run loop;
      check_int "nothing left in flight" 0 (OT.in_flight ());
      match OT.completed () with
      | [ r ] ->
          check_int "dequeued charged 2us" (T.us 2)
            r.OT.durs.(OT.stage_index OT.Dequeued);
          (* The ignored re-stamp's interval rolls into the next stage. *)
          check_int "first_tx charged 3us" (T.us 3)
            r.OT.durs.(OT.stage_index OT.First_tx);
          check_int "completion charged 4us" (T.us 4)
            r.OT.durs.(OT.stage_index OT.Completed);
          check_int "durations telescope to end-to-end"
            (r.OT.r_end - r.OT.r_start)
            (Array.fold_left ( + ) 0 r.OT.durs);
          check_int "stage sink saw every charge" (r.OT.r_end - r.OT.r_start)
            !sink_total;
          check_str "status recorded" "ok" r.OT.r_status;
          check_bool "conserved" true (OT.conservation_error () = None)
      | l -> Alcotest.failf "expected 1 completed record, got %d" (List.length l))

(* -- An uncharged stamp is exactly what conservation catches ------------- *)

let test_uncharged_stamp_breaks_conservation () =
  with_ot (fun () ->
      OT.set_capture (Some 16);
      let loop = Sim.Loop.create () in
      let k = key () in
      ignore
        (Sim.Loop.at loop 0 (fun () -> OT.start loop k ~kind:"send" ~bytes:64));
      ignore
        (Sim.Loop.at loop (T.us 2) (fun () ->
             OT.stamp loop ~charge:false k OT.Dequeued));
      ignore
        (Sim.Loop.at loop (T.us 4) (fun () ->
             OT.finish loop k ~host:0 ~status:"ok"));
      Sim.Loop.run loop;
      (match OT.conservation_error () with
      | Some msg ->
          check_bool "violation names the op" true (contains_sub msg "#1")
      | None -> Alcotest.fail "uncharged stamp went unnoticed");
      OT.clear ();
      check_bool "clear resets the sticky violation" true
        (OT.conservation_error () = None))

(* -- Bounded storage: drop-oldest on both sides -------------------------- *)

let test_completed_ring_drop_oldest () =
  with_ot (fun () ->
      OT.set_capture (Some 2);
      let loop = Sim.Loop.create () in
      for op = 1 to 5 do
        ignore
          (Sim.Loop.at loop (T.us op) (fun () ->
               let k = key ~op () in
               OT.start loop k ~kind:"send" ~bytes:8;
               OT.finish loop k ~host:0 ~status:"ok"))
      done;
      Sim.Loop.run loop;
      let ops = List.map (fun r -> r.OT.r_key.OT.k_op) (OT.completed ()) in
      Alcotest.(check (list int)) "ring keeps the newest two" [ 4; 5 ] ops;
      check_int "three dropped" 3 (OT.dropped ()))

let test_in_flight_evicts_oldest () =
  with_ot (fun () ->
      OT.set_capture (Some 2);
      let loop = Sim.Loop.create () in
      for op = 1 to 5 do
        ignore
          (Sim.Loop.at loop (T.us op) (fun () ->
               OT.start loop (key ~op ()) ~kind:"send" ~bytes:8))
      done;
      Sim.Loop.run loop;
      check_int "capped in flight" 2 (OT.in_flight ());
      check_int "three evicted" 3 (OT.dropped ());
      let ops = ref [] in
      OT.iter_in_flight (fun r -> ops := r.OT.r_key.OT.k_op :: !ops);
      Alcotest.(check (list int))
        "newest survive, start order" [ 4; 5 ] (List.rev !ops))

(* -- Slow-op export: sorted, shaped, byte-stable ------------------------- *)

let test_slow_ops_json_shape () =
  with_ot (fun () ->
      OT.set_capture (Some 16);
      let loop = Sim.Loop.create () in
      List.iter
        (fun (op, dur_us) ->
          ignore
            (Sim.Loop.at loop (T.us (op * 100)) (fun () ->
                 let k = key ~op () in
                 OT.start loop k ~kind:"send" ~bytes:64;
                 ignore
                   (Sim.Loop.at loop
                      (T.us ((op * 100) + dur_us))
                      (fun () -> OT.finish loop k ~host:1 ~status:"ok")))))
        [ (1, 5); (2, 50); (3, 20) ];
      Sim.Loop.run loop;
      let json = OT.slow_ops_json ~k:2 () in
      check_bool "header counts" true (contains_sub json "\"completed\":3");
      check_bool "slowest op first" true
        (contains_sub json "#2\",");
      check_bool "k limits the list" false (contains_sub json "#1\",");
      check_bool "stage timeline present" true
        (contains_sub json "{\"stage\":\"submitted\"");
      check_bool "latency recorded" true
        (contains_sub json (Printf.sprintf "\"latency_ns\":%d" (T.us 50))))

let test_slow_ops_deterministic_across_runs () =
  with_ot (fun () ->
      OT.set_capture (Some 4096);
      let module C = Workloads.Chaos in
      let run () =
        OT.clear ();
        ignore (C.run { C.default_config with C.ops_per_client = 30 });
        OT.slow_ops_json ~k:16 ()
      in
      let a = run () in
      let b = run () in
      check_str "same-seed export is byte-identical" a b;
      check_bool "export is non-trivial" true (contains_sub a "\"stages\"");
      check_bool "runs conserved attribution" true
        (OT.conservation_error () = None))

(* -- Chrome flow events: tx and rx sides linked by one arrow ------------- *)

let test_flow_events_in_trace () =
  with_ot (fun () ->
      OT.set_capture (Some 16);
      Sim.Span.set_capture (Some 64);
      let loop = Sim.Loop.create () in
      let k = key () in
      ignore
        (Sim.Loop.at loop 0 (fun () -> OT.start loop k ~kind:"send" ~bytes:64));
      ignore (Sim.Loop.at loop (T.us 1) (fun () -> OT.stamp loop k OT.First_tx));
      ignore
        (Sim.Loop.at loop (T.us 8) (fun () ->
             OT.finish loop k ~host:1 ~status:"ok"));
      Sim.Loop.run loop;
      let json = Sim.Span.to_chrome_json () in
      check_bool "flow start on origin track" true
        (contains_sub json "\"ph\":\"s\"");
      check_bool "flow finish with enclosing binding" true
        (contains_sub json "\"ph\":\"f\",\"bp\":\"e\"");
      check_bool "origin op track" true (contains_sub json "host0 ops");
      check_bool "destination op track" true (contains_sub json "host1 ops");
      check_bool "sides share the op name" true
        (contains_sub json "0.0->1 s7i #1"))

(* -- Express integration: per-conn stage counters and oldest-op age ------ *)

let mk_cluster ?keepalive () =
  let loop = Sim.Loop.create ~seed:7 () in
  let fab = Fabric.create ~loop ~config:Fabric.default_config ~hosts:2 in
  let dir = PE.Directory.create () in
  let hs =
    List.init 2 (fun addr ->
        Snap.Host.create ~loop ~fabric:fab ~directory:dir ~addr
          ~mode:(Engine.Dedicating { cores = 2 })
          ?keepalive ())
  in
  (loop, hs)

let sleep_until ctx t =
  while Cpu.Thread.now ctx < t do
    Cpu.Thread.sleep ctx (T.sub t (Cpu.Thread.now ctx))
  done

(* An op stranded by a peer crash stays in Optrace's in-flight table
   until the keepalive declares the peer dead, then completes as
   [peer_dead]. *)
let test_snapshot_stage_counters () =
  with_ot (fun () ->
      OT.set_capture (Some 1024);
      let keepalive = { PE.ka_interval = T.us 100; ka_miss_budget = 3 } in
      let loop, hosts = mk_cluster ~keepalive () in
      let ha = List.hd hosts and hb = List.nth hosts 1 in
      ignore
        (Snap.Host.spawn_app hb ~name:"b" ~spin:true (fun ctx ->
             let c = PE.create_client ctx hb.Snap.Host.pony ~name:"b" () in
             ignore (PE.await_message ctx c)));
      (* The stranded op is the one submitted at 1.1 ms. *)
      let stranded (r : OT.record) = r.OT.r_start >= T.us 1100 in
      let mid_in_flight = ref false in
      ignore
        (Snap.Host.spawn_app ha ~name:"a" ~spin:true (fun ctx ->
             let c = PE.create_client ctx ha.Snap.Host.pony ~name:"a" () in
             sleep_until ctx (T.us 200);
             let cn = PE.connect_by_name ctx c ~dst_host:1 ~dst_name:"b" in
             (* One op that completes cleanly... *)
             ignore (PE.send_message ctx cn ~bytes:256 ());
             ignore (PE.await_completion ctx c);
             (* ...and one stranded by a peer crash, so an in-flight
                record exists at 1.2 ms. *)
             sleep_until ctx (T.us 1100);
             ignore (PE.send_message ctx cn ~bytes:256 ());
             sleep_until ctx (T.ms 3)));
      ignore
        (Sim.Loop.at loop (T.ms 1) (fun () -> PE.crash_host hb.Snap.Host.pony));
      ignore
        (Sim.Loop.at loop (T.us 1200) (fun () ->
             OT.iter_in_flight (fun r ->
                 if stranded r then mid_in_flight := true)));
      Sim.Loop.run ~until:(T.ms 4) loop;
      check_bool "stranded op in flight" true !mid_in_flight;
      (* The keepalive declared the peer dead and failed the op. *)
      check_bool "stranded op completed peer_dead" true
        (List.exists
           (fun (r : OT.record) -> stranded r && r.OT.r_status = "peer_dead")
           (OT.completed ()));
      check_int "nothing left in flight" 0 (OT.in_flight ()))

let () =
  Alcotest.run "optrace"
    [
      ( "core",
        [
          Alcotest.test_case "disabled no-op" `Quick test_disabled_noop;
          Alcotest.test_case "stage charging telescopes" `Quick
            test_stage_charging_telescopes;
          Alcotest.test_case "uncharged stamp breaks conservation" `Quick
            test_uncharged_stamp_breaks_conservation;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "completed ring drop-oldest" `Quick
            test_completed_ring_drop_oldest;
          Alcotest.test_case "in-flight evicts oldest" `Quick
            test_in_flight_evicts_oldest;
        ] );
      ( "export",
        [
          Alcotest.test_case "slow-op json shape" `Quick
            test_slow_ops_json_shape;
          Alcotest.test_case "slow-op json deterministic" `Quick
            test_slow_ops_deterministic_across_runs;
          Alcotest.test_case "chrome flow events" `Quick
            test_flow_events_in_trace;
        ] );
      ( "express",
        [
          Alcotest.test_case "snapshot stage counters + oldest age" `Quick
            test_snapshot_stage_counters;
        ] );
    ]
