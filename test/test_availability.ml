(* Tests for the availability machinery: watchdog health checking,
   transactional upgrades with rollback, engine-restart flow resync,
   recover_engine edge cases, fault-plan validation, and the
   chaos-upgrade acceptance scenario. *)

module T = Sim.Time
module WD = Control.Watchdog
module CU = Workloads.Chaos_upgrade

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let mk ?(cores = 4) () =
  let loop = Sim.Loop.create () in
  let m =
    Cpu.Sched.create_machine ~loop ~name:"m" ~cores
  in
  (loop, m)

let idle_engine ~name () =
  Engine.create ~name ~run:(fun () -> Engine.no_work) ~queue_delay:(fun _ -> 0) ()

let mk_group m name = Engine.create_group ~machine:m ~name
    ~mode:(Engine.Dedicating { cores = 1 })

(* -- Watchdog ------------------------------------------------------------ *)

let test_watchdog_detects_wedge () =
  (* A wedged engine (spinning, not servicing its mailbox) misses
     heartbeats; the watchdog must detect it, restart it, and the engine
     must come back healthy and unwedged. *)
  Stats.Registry.clear ();
  let loop, m = mk () in
  let g = mk_group m "g" in
  let e = idle_engine ~name:"e0" () in
  Engine.add g e;
  let ctl = Control.create ~loop ~name:"ctl" in
  let wd = WD.create ~control:ctl () in
  WD.watch_group wd g;
  WD.start wd;
  ignore (Sim.Loop.at loop (T.ms 1) (fun () -> Engine.set_wedged e true));
  Sim.Span.set_capture (Some 4096);
  Sim.Loop.run ~until:(T.ms 5) loop;
  let spans = Sim.Span.events () in
  Sim.Span.set_capture None;
  check_bool "unwedged" true (not (Engine.is_wedged e));
  check_bool "attached" true (Engine.is_attached e);
  let c name = List.assoc name (WD.counters wd) in
  check_int "one detection" 1 (c "wd_detections");
  check_int "one restart counted" 1 (c "wd_restarts");
  check_int "no quarantine" 0 (c "wd_quarantines");
  check_bool "heartbeats flowed" true (c "wd_heartbeats" > 10);
  let h =
    match
      Stats.Registry.find ~labels:[ ("control", "ctl") ]
        "wd_detection_latency_ns"
    with
    | Some { Stats.Registry.m_kind = Stats.Registry.Histogram h; _ } -> h
    | _ -> Alcotest.fail "no detection latency histogram"
  in
  check_int "one detection latency sample" 1 (Stats.Histogram.count h);
  (* Detection is bounded by ~period * (miss_threshold + 1). *)
  check_bool "detection latency bounded" true
    (Stats.Histogram.max_value h <= T.us 500);
  (* The detection lands in the span capture as one instant. *)
  let detections =
    List.filter
      (fun (ev : Sim.Span.event) ->
        ev.ev_name = "detected unresponsive engine" && ev.ev_dur = None)
      spans
  in
  match detections with
  | [ ev ] ->
      Alcotest.(check string) "on the watchdog track" "watchdog ctl"
        ev.ev_track;
      Alcotest.(check (option string)) "names the engine" (Some "e0")
        (List.assoc_opt "engine" ev.ev_args);
      check_bool "after the wedge" true (ev.ev_ts > T.ms 1)
  | evs ->
      Alcotest.failf "expected one detection instant, got %d"
        (List.length evs)

let test_watchdog_crash_detection () =
  (* A crashed (detached) engine also misses heartbeats; the watchdog
     restarts it into its home group. *)
  let loop, m = mk () in
  let g = mk_group m "g" in
  let e = idle_engine ~name:"e0" () in
  Engine.add g e;
  let ctl = Control.create ~loop ~name:"ctl" in
  let wd = WD.create ~control:ctl () in
  WD.watch_group wd g;
  WD.start wd;
  ignore (Sim.Loop.at loop (T.ms 1) (fun () -> Engine.remove g e));
  Sim.Loop.run ~until:(T.ms 5) loop;
  check_bool "reattached" true (Engine.is_attached e);
  check_bool "in home group" true (List.memq e (Engine.engines g));
  check_int "one restart" 1 (List.assoc "wd_restarts" (WD.counters wd))

let test_watchdog_quarantine () =
  (* An engine that re-wedges immediately after every restart exhausts
     the restart budget and must be quarantined (removed, not
     flapping forever). *)
  let loop, m = mk () in
  let g = mk_group m "g" in
  let e = idle_engine ~name:"e0" () in
  Engine.add g e;
  let ctl = Control.create ~loop ~name:"ctl" in
  let wd = WD.create ~control:ctl () in
  WD.watch_group wd g;
  WD.start wd;
  ignore
    (Sim.Loop.at loop (T.ms 1) (fun () ->
         ignore
           (Sim.Loop.every loop (T.us 10) (fun () ->
                if Engine.is_attached e then Engine.set_wedged e true))));
  Sim.Loop.run ~until:(T.ms 20) loop;
  check_bool "detached" true (not (Engine.is_attached e));
  let c name = List.assoc name (WD.counters wd) in
  check_int "one quarantine" 1 (c "wd_quarantines");
  check_int "restart budget spent" 3 (c "wd_restarts")

(* -- Transactional upgrade ----------------------------------------------- *)

let test_upgrade_clean_commit () =
  (* Happy path: every engine commits on the first attempt, and the
     report carries the measured (not just scheduled) brownout. *)
  let loop, m = mk () in
  let og = mk_group m "old" and ng = mk_group m "new" in
  let e1 = idle_engine ~name:"e1" () and e2 = idle_engine ~name:"e2" () in
  Engine.add og e1;
  Engine.add og e2;
  let got = ref [] in
  Upgrade.upgrade ~loop ~old_group:og ~new_group:ng
    ~extra_state_bytes:(fun _ -> 2_000_000)
    ~on_done:(fun rs -> got := rs)
    ();
  Sim.Loop.run ~until:(T.ms 100) loop;
  check_int "two reports" 2 (List.length !got);
  List.iter
    (fun (r : Upgrade.report) ->
      check_bool "committed" true (r.Upgrade.outcome = Upgrade.Committed);
      check_int "one attempt" 1 r.Upgrade.attempts;
      check_int "no rollbacks" 0 r.Upgrade.rollbacks;
      check_int "measured brownout" r.Upgrade.brownout_scheduled
        r.Upgrade.brownout;
      check_int "measured blackout matches model"
        (Upgrade.blackout_of ~state_bytes:r.Upgrade.state_bytes)
        r.Upgrade.blackout)
    !got;
  check_int "old group empty" 0 (List.length (Engine.engines og));
  check_int "new group full" 2 (List.length (Engine.engines ng))

let test_upgrade_rollback_on_fault_mid_blackout () =
  (* A fault lands on the detached instance mid-blackout: the
     transaction must roll back to the old instance and commit on a
     later attempt. *)
  let loop, m = mk () in
  let og = mk_group m "old" and ng = mk_group m "new" in
  let e = idle_engine ~name:"e" () in
  Engine.add og e;
  (* 2 MB extra state: brownout 1 ms, blackout 10 ms => [1, 11) ms. *)
  ignore (Sim.Loop.at loop (T.ms 5) (fun () -> Engine.mark_failed e));
  let transitions = ref [] in
  let got = ref [] in
  Upgrade.upgrade ~loop ~old_group:og ~new_group:ng
    ~extra_state_bytes:(fun _ -> 2_000_000)
    ~config:{ Upgrade.default_config with Upgrade.retry_backoff = T.ms 1 }
    ~on_transition:(fun ~engine:_ ph -> transitions := ph :: !transitions)
    ~on_done:(fun rs -> got := rs)
    ();
  Sim.Loop.run ~until:(T.ms 100) loop;
  let r = List.hd !got in
  check_bool "committed eventually" true (r.Upgrade.outcome = Upgrade.Committed);
  check_int "two attempts" 2 r.Upgrade.attempts;
  check_int "one rollback" 1 r.Upgrade.rollbacks;
  check_bool "rollback reason recorded" true
    (List.exists
       (function Upgrade.Rollback "fault-during-blackout" -> true | _ -> false)
       !transitions);
  check_bool "retry recorded" true
    (List.exists (function Upgrade.Retry 2 -> true | _ -> false) !transitions);
  check_bool "fail flag cleared" true (not (Engine.is_failed e));
  check_bool "ended in new group" true (List.memq e (Engine.engines ng));
  check_int "old group empty" 0 (List.length (Engine.engines og))

let test_upgrade_slo_give_up () =
  (* A blackout SLO below the 8 ms filter-update floor can never be met:
     every attempt aborts at the deadline and the engine must end up
     back in the old group, intact. *)
  let loop, m = mk () in
  let og = mk_group m "old" and ng = mk_group m "new" in
  let e = idle_engine ~name:"e" () in
  Engine.add og e;
  let got = ref [] in
  Upgrade.upgrade ~loop ~old_group:og ~new_group:ng
    ~config:
      {
        Upgrade.blackout_slo = Some (T.ms 4);
        max_attempts = 2;
        retry_backoff = T.ms 1;
      }
    ~on_done:(fun rs -> got := rs)
    ();
  Sim.Loop.run ~until:(T.ms 100) loop;
  let r = List.hd !got in
  check_bool "gave up" true
    (r.Upgrade.outcome = Upgrade.Gave_up "blackout-slo-exceeded");
  check_int "budget exhausted" 2 r.Upgrade.attempts;
  check_int "rolled back each attempt" 2 r.Upgrade.rollbacks;
  check_bool "still on old release" true (List.memq e (Engine.engines og));
  check_int "new group empty" 0 (List.length (Engine.engines ng));
  check_bool "attached and serving" true (Engine.is_attached e)

(* -- recover_engine edge cases ------------------------------------------- *)

let test_recover_double_noop () =
  (* Two racing recoveries of the same crash: the second must observe
     the engine already attached and do nothing. *)
  let loop, m = mk () in
  let g = mk_group m "g" in
  let e = idle_engine ~name:"e" () in
  Engine.add g e;
  Engine.remove g e;
  let ctl = Control.create ~loop ~name:"ctl" in
  let n = ref 0 in
  Control.recover_engine ctl ~group:g e ~after:(T.ms 1)
    ~on_recovered:(fun () -> incr n);
  Control.recover_engine ctl ~group:g e ~after:(T.ms 2)
    ~on_recovered:(fun () -> incr n);
  Sim.Loop.run ~until:(T.ms 10) loop;
  check_int "recovered exactly once" 1 !n;
  check_bool "attached" true (Engine.is_attached e);
  check_int "in group once" 1
    (List.length (List.filter (fun x -> x == e) (Engine.engines g)))

let test_recover_races_upgrade () =
  (* A crash recovery reattaches the old instance while an upgrade
     transaction holds the engine in blackout: the commit must detect
     the concurrent recovery, roll back, and succeed on the retry. *)
  let loop, m = mk () in
  let og = mk_group m "old" and ng = mk_group m "new" in
  let e = idle_engine ~name:"e" () in
  Engine.add og e;
  let ctl = Control.create ~loop ~name:"ctl" in
  let recovered = ref 0 in
  (* Fires at 3.025 ms: mid-blackout of the first attempt ([1, 11) ms). *)
  Control.recover_engine ctl ~group:og e ~after:(T.ms 3)
    ~on_recovered:(fun () -> incr recovered);
  let transitions = ref [] in
  let got = ref [] in
  Upgrade.upgrade ~loop ~old_group:og ~new_group:ng
    ~extra_state_bytes:(fun _ -> 2_000_000)
    ~config:{ Upgrade.default_config with Upgrade.retry_backoff = T.ms 1 }
    ~on_transition:(fun ~engine:_ ph -> transitions := ph :: !transitions)
    ~on_done:(fun rs -> got := rs)
    ();
  Sim.Loop.run ~until:(T.ms 100) loop;
  check_int "recovery fired once" 1 !recovered;
  let r = List.hd !got in
  check_bool "committed eventually" true (r.Upgrade.outcome = Upgrade.Committed);
  check_int "one rollback" 1 r.Upgrade.rollbacks;
  check_bool "concurrent recovery detected" true
    (List.exists
       (function Upgrade.Rollback "concurrent-recovery" -> true | _ -> false)
       !transitions);
  check_bool "ended in new group" true (List.memq e (Engine.engines ng));
  check_int "old group empty" 0 (List.length (Engine.engines og))

let test_recover_mailbox_survives () =
  (* Work posted to a crashed engine's mailbox must execute once the
     engine is reloaded: queues survive the restart (§4.3). *)
  let loop, m = mk () in
  let g = mk_group m "g" in
  let e = idle_engine ~name:"e" () in
  Engine.add g e;
  Engine.remove g e;
  let hit = ref false in
  check_bool "posted while detached" true
    (Squeue.Mailbox.post (Engine.mailbox e) (fun () -> hit := true));
  let ctl = Control.create ~loop ~name:"ctl" in
  Control.recover_engine ctl ~group:g e ~after:(T.ms 1)
    ~on_recovered:(fun () -> ());
  Sim.Loop.run ~until:(T.ms 10) loop;
  check_bool "pending work ran after restart" true !hit

(* -- Flow resync --------------------------------------------------------- *)

let test_flow_resync () =
  let loop = Sim.Loop.create () in
  let k =
    { Pony.Wire.src_host = 0; src_engine = 0; dst_host = 1; dst_engine = 0 }
  in
  let a = Pony.Flow.create ~loop ~key:k ~max_rate_gbps:100.0 () in
  let b =
    Pony.Flow.create ~loop ~key:(Pony.Wire.reverse k) ~max_rate_gbps:100.0 ()
  in
  let ck =
    {
      Pony.Wire.initiator_host = 0;
      initiator_client = 0;
      target_host = 1;
      target_client = 0;
      session = 0;
    }
  in
  let gen = Memory.Packet.Id_gen.create () in
  for i = 1 to 3 do
    Pony.Flow.enqueue a
      (Pony.Wire.Credit_grant { conn = ck; bytes = i })
      ~payload_bytes:0
  done;
  let now = ref 0 in
  for _ = 1 to 3 do
    now := !now + 1_000;
    match Pony.Flow.emit a ~now:!now ~gen with
    | Some _ -> () (* all lost: the engine restarted under them *)
    | None -> Alcotest.fail "emit"
  done;
  check_int "three in flight" 3 (Pony.Flow.in_flight a);
  (* Epoch bump: requeue the whole flight immediately, no RTO wait. *)
  check_int "flight requeued" 3 (Pony.Flow.resync a ~now:!now);
  check_int "idempotent while pending" 0 (Pony.Flow.resync a ~now:!now);
  check_bool "ready to transmit immediately" true
    (Pony.Flow.ready_to_emit a ~now:(!now + 1));
  for _ = 1 to 3 do
    now := !now + 1_000;
    match Pony.Flow.emit a ~now:!now ~gen with
    | Some p -> ignore (Pony.Flow.on_receive b ~now:!now p)
    | None -> Alcotest.fail "re-emit"
  done;
  check_int "delivered exactly once each" 3 (Pony.Flow.delivered b);
  check_int "counted as retransmits" 3 (Pony.Flow.retransmits a)

(* -- Fault plan validation ----------------------------------------------- *)

let test_plan_validate () =
  let validate ev = ignore (Fault.Plan.make [ ev ]) in
  validate
    (Fault.Plan.Link_blackout
       { a = 0; b = 1; start = 0; duration = T.ms 1 });
  validate (Fault.Plan.Engine_wedge { host = 0; engine = 0; start = 0 });
  let bad msg ev =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () -> validate ev)
  in
  bad "Fault.Plan: blackout window"
    (Fault.Plan.Link_blackout { a = 0; b = 1; start = -1; duration = T.ms 1 });
  bad "Fault.Plan: blackout window"
    (Fault.Plan.Link_blackout { a = 0; b = 1; start = 0; duration = 0 });
  bad "Fault.Plan: blackout hosts"
    (Fault.Plan.Link_blackout { a = 2; b = 2; start = 0; duration = 1 });
  bad "Fault.Plan: loss_pct"
    (Fault.Plan.Burst_loss
       { port = 0; start = 0; duration = 1; loss_pct = 120.0 });
  bad "Fault.Plan: straggler slowdown"
    (Fault.Plan.Straggler { host = 0; start = 0; duration = 1; slowdown = 0.5 });
  bad "Fault.Plan: wedge target"
    (Fault.Plan.Engine_wedge { host = 0; engine = -1; start = 0 });
  bad "Fault.Plan: wedge start"
    (Fault.Plan.Engine_wedge { host = 0; engine = 0; start = -1 })

(* -- Chaos upgrade acceptance -------------------------------------------- *)

let test_chaos_upgrade_acceptance () =
  (* The headline scenario: a fleet upgrade under an engine crash
     mid-blackout, a link blackout over the brownout, and a post-commit
     wedge — zero lost ops, at least one rollback-and-retry, a bounded
     blackout tail, and full determinism across same-seed runs. *)
  let cfg = CU.default_config in
  let r = CU.run cfg in
  check_int "no lost ops" 0 r.CU.lost_ops;
  check_bool "all ops completed" true (r.CU.ops_completed = r.CU.ops_expected);
  check_int "both hosts committed" 2 r.CU.committed;
  check_int "no give-ups" 0 r.CU.give_ups;
  check_bool "at least one rollback" true (r.CU.rollbacks >= 1);
  check_bool "rollback-and-retry logged" true
    (List.exists
       (fun (e : Fault.Log.entry) ->
         contains_sub e.Fault.Log.detail "rollback:fault-during-blackout")
       (Fault.Log.entries r.CU.transition_log));
  check_int "crash landed mid-blackout" 1
    (List.length
       (List.filter
          (fun (e : Fault.Log.entry) ->
            e.Fault.Log.kind = "engine-crash-inflight")
          (Fault.Log.entries r.CU.fault_log)));
  check_bool "watchdog repaired the wedge" true (r.CU.watchdog_restarts >= 1);
  check_bool "flows resynced after restarts" true (r.CU.flow_resyncs >= 1);
  (* Blackout tail bounded by the state-size model (12 ms) plus slack
     for the engine's own accumulated state. *)
  check_bool "blackout tail bounded" true (r.CU.max_blackout <= T.ms 14);
  check_bool "every engine in exactly one group" true r.CU.groups_consistent;
  let r2 = CU.run cfg in
  check_bool "deterministic across same-seed runs" true
    (String.equal (CU.fingerprint r) (CU.fingerprint r2))

let () =
  Alcotest.run "availability"
    [
      ( "watchdog",
        [
          Alcotest.test_case "detects and restarts a wedged engine" `Quick
            test_watchdog_detects_wedge;
          Alcotest.test_case "detects a crashed engine" `Quick
            test_watchdog_crash_detection;
          Alcotest.test_case "quarantines after repeated failures" `Quick
            test_watchdog_quarantine;
        ] );
      ( "upgrade",
        [
          Alcotest.test_case "clean transactional commit" `Quick
            test_upgrade_clean_commit;
          Alcotest.test_case "rollback on fault mid-blackout" `Quick
            test_upgrade_rollback_on_fault_mid_blackout;
          Alcotest.test_case "gives up under an unmeetable SLO" `Quick
            test_upgrade_slo_give_up;
        ] );
      ( "recover",
        [
          Alcotest.test_case "double recovery is a no-op" `Quick
            test_recover_double_noop;
          Alcotest.test_case "recovery racing an upgrade" `Quick
            test_recover_races_upgrade;
          Alcotest.test_case "mailbox work survives restart" `Quick
            test_recover_mailbox_survives;
        ] );
      ( "resync",
        [ Alcotest.test_case "flow resync after epoch bump" `Quick
            test_flow_resync ] );
      ( "plan",
        [ Alcotest.test_case "validate rejects nonsense" `Quick
            test_plan_validate ] );
      ( "chaos-upgrade",
        [
          Alcotest.test_case "availability under upgrade" `Slow
            test_chaos_upgrade_acceptance;
        ] );
    ]
