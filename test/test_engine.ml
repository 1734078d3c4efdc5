(* Tests for the Snap engine framework: groups, scheduling modes,
   mailboxes, and Click-style elements. *)

module T = Sim.Time

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk ?(cores = 6) () =
  let loop = Sim.Loop.create () in
  let m =
    Cpu.Sched.create_machine ~loop ~name:"m" ~cores
  in
  (loop, m)

(* A simple engine fed by an SPSC queue: each item costs [item_cost]. *)
let queue_engine ~loop ~name ?(item_cost = T.us 1) ?(batch = 16) () =
  let q = Squeue.Spsc.create ~capacity:4096 () in
  let processed = ref 0 in
  let run () =
    let n = ref 0 in
    while
      !n < batch && Option.is_some (Squeue.Spsc.pop q)
    do
      incr n;
      incr processed
    done;
    if !n = 0 then Engine.no_work else Engine.worked (!n * item_cost)
  in
  let queue_delay now = Squeue.Spsc.oldest_age q ~now in
  let e = Engine.create ~name ~run ~queue_delay () in
  let feed v =
    ignore (Squeue.Spsc.push q ~now:(Sim.Loop.now loop) v);
    Engine.notify e
  in
  (e, feed, processed)

let test_dedicated_processes_work () =
  let loop, m = mk () in
  let g =
    Engine.create_group ~machine:m ~name:"g"
      ~mode:(Engine.Dedicating { cores = 1 })
  in
  let e, feed, processed = queue_engine ~loop ~name:"e0" () in
  Engine.add g e;
  ignore
    (Sim.Loop.at loop (T.ms 1) (fun () ->
         for i = 1 to 100 do
           feed i
         done));
  Sim.Loop.run ~until:(T.ms 2) loop;
  check_int "all processed" 100 !processed;
  check_bool "engine made progress" true (Engine.steps e > 0);
  (* A dedicated core spins: the snap account burns ~the whole time. *)
  check_bool "core burned" true (Cpu.Sched.account_busy_ns m "snap" > T.ms 1)

let test_dedicated_fair_share () =
  (* Two engines on one dedicated core must both make progress. *)
  let loop, m = mk () in
  let g =
    Engine.create_group ~machine:m ~name:"g"
      ~mode:(Engine.Dedicating { cores = 1 })
  in
  let e1, feed1, p1 = queue_engine ~loop ~name:"e1" () in
  let e2, feed2, p2 = queue_engine ~loop ~name:"e2" () in
  Engine.add g e1;
  Engine.add g e2;
  for i = 1 to 500 do
    feed1 i;
    feed2 i
  done;
  Sim.Loop.run ~until:(T.ms 2) loop;
  check_int "e1 done" 500 !p1;
  check_int "e2 done" 500 !p2

let test_spreading_blocks_when_idle () =
  let loop, m = mk () in
  let g =
    Engine.create_group ~machine:m ~name:"g"
      ~mode:(Engine.Spreading { runtime_pct = 0.9 })
  in
  let e, feed, processed = queue_engine ~loop ~name:"e0" () in
  Engine.add g e;
  (* Let it go idle, measure CPU over a quiet window: must be ~zero
     (blocked, not spinning). *)
  Sim.Loop.run ~until:(T.ms 5) loop;
  let busy_before = Cpu.Sched.account_busy_ns m "snap" in
  Sim.Loop.run ~until:(T.ms 15) loop;
  let busy_quiet = Cpu.Sched.account_busy_ns m "snap" - busy_before in
  check_bool "blocked engine burns nothing" true (busy_quiet < T.us 50);
  (* Now feed and check wakeup. *)
  let woke = ref 0 in
  ignore
    (Sim.Loop.at loop (T.ms 20) (fun () ->
         feed 1;
         woke := 1));
  Sim.Loop.run ~until:(T.ms 21) loop;
  check_int "processed after wake" 1 !processed

(* The lane (group/thread span track) of each batch an engine ran at
   or after [from], oldest first, from the span capture. *)
let lanes ?(from = 0) name =
  List.filter_map
    (fun (ev : Sim.Span.event) ->
      if ev.ev_cat = "engine" && ev.ev_name = name && ev.ev_ts >= from then
        Some ev.ev_track
      else None)
    (Sim.Span.events ())

let with_span_capture f =
  Sim.Span.set_capture (Some 100_000);
  Fun.protect f ~finally:(fun () -> Sim.Span.set_capture None)

let test_spreading_one_thread_per_engine () =
  with_span_capture (fun () ->
      let loop, m = mk () in
      let g =
        Engine.create_group ~machine:m ~name:"g"
          ~mode:(Engine.Spreading { runtime_pct = 0.9 })
      in
      let e1, feed1, _ = queue_engine ~loop ~name:"e1" () in
      let e2, feed2, _ = queue_engine ~loop ~name:"e2" () in
      Engine.add g e1;
      Engine.add g e2;
      feed1 1;
      feed2 2;
      Sim.Loop.run ~until:(T.ms 1) loop;
      match (lanes "e1", lanes "e2") with
      | [ l1 ], [ l2 ] -> check_bool "distinct threads" true (l1 <> l2)
      | _ -> Alcotest.fail "expected one lane per engine")

let test_compacting_scales_out_and_back () =
  with_span_capture @@ fun () ->
  let loop, m = mk () in
  let g =
    Engine.create_group ~machine:m ~name:"g"
      ~mode:(Engine.Compacting { slo = T.us 20; max_threads = 4 })
  in
  (* Two heavy engines: each item costs 20us, so one thread cannot hold
     the SLO for both. *)
  let e1, feed1, p1 = queue_engine ~loop ~name:"e1" ~item_cost:(T.us 20) ~batch:1 () in
  let e2, feed2, p2 = queue_engine ~loop ~name:"e2" ~item_cost:(T.us 20) ~batch:1 () in
  Engine.add g e1;
  Engine.add g e2;
  (* Offered load: 2 x one item per 30us = ~1.3 cores of work. *)
  let stop_feeding = ref false in
  let rec feeder i =
    if not !stop_feeding then begin
      feed1 i;
      feed2 i;
      ignore (Sim.Loop.after loop (T.us 30) (fun () -> feeder (i + 1)))
    end
  in
  feeder 0;
  Sim.Loop.run ~until:(T.us 100) loop;
  let first name = List.nth_opt (lanes name) 0 in
  check_bool "starts compacted" true
    (first "e1" <> None && first "e1" = first "e2");
  Sim.Loop.run ~until:(T.ms 5) loop;
  (* The lane of each engine's latest batch is the thread that owns it
     now. *)
  let last name = List.nth_opt (List.rev (lanes name)) 0 in
  check_bool "scaled out under load" true (last "e1" <> last "e2");
  check_bool "both progressing" true (!p1 > 50 && !p2 > 50);
  (* Stop the load; the group must compact back to one thread, which
     then runs a batch of each. *)
  stop_feeding := true;
  Sim.Loop.run ~until:(T.ms 10) loop;
  feed1 0;
  ignore (Sim.Loop.at loop (T.us 10_100) (fun () -> feed2 0));
  Sim.Loop.run ~until:(T.us 10_500) loop;
  match (lanes ~from:(T.ms 10) "e1", lanes ~from:(T.ms 10) "e2") with
  | [ l1 ], [ l2 ] -> check_bool "compacted when idle" true (l1 = l2)
  | _ -> Alcotest.fail "expected one batch of each after the load"

let test_mailbox_runs_on_engine_thread () =
  let loop, m = mk () in
  let g =
    Engine.create_group ~machine:m ~name:"g"
      ~mode:(Engine.Dedicating { cores = 1 })
  in
  let e, feed, _ = queue_engine ~loop ~name:"e0" () in
  Engine.add g e;
  let ran_at = ref (-1) in
  ignore
    (Sim.Loop.at loop (T.ms 1) (fun () ->
         check_bool "posted" true
           (Squeue.Mailbox.post (Engine.mailbox e) (fun () ->
                ran_at := Sim.Loop.now loop));
         feed 1));
  Sim.Loop.run ~until:(T.ms 2) loop;
  check_bool "mailbox work executed" true (!ran_at >= T.ms 1)

let test_remove_detaches () =
  let loop, m = mk () in
  let g =
    Engine.create_group ~machine:m ~name:"g"
      ~mode:(Engine.Dedicating { cores = 1 })
  in
  let e, feed, processed = queue_engine ~loop ~name:"e0" () in
  Engine.add g e;
  Sim.Loop.run ~until:(T.ms 1) loop;
  Engine.remove g e;
  check_bool "detached" false (Engine.is_attached e);
  feed 1;
  Sim.Loop.run ~until:(T.ms 2) loop;
  check_int "no processing after detach" 0 !processed

(* -- Elements ----------------------------------------------------------- *)

let pkt ?(bytes = 1000) ?(dst = 1) id =
  Memory.Packet.make ~id ~src:0 ~dst ~wire_bytes:bytes Memory.Packet.Empty ()

let test_element_acl () =
  let el = Engine.Element.acl ~name:"acl" ~allow:(fun p -> p.Memory.Packet.dst = 1) in
  let pipe = Engine.Element.Pipeline.of_list [ el ] in
  let kept, _ = Engine.Element.Pipeline.push pipe (pkt ~dst:1 0) in
  let dropped, _ = Engine.Element.Pipeline.push pipe (pkt ~dst:2 1) in
  check_bool "allowed" true (Option.is_some kept);
  check_bool "denied" true (Option.is_none dropped)

let test_element_token_bucket () =
  let loop = Sim.Loop.create () in
  (* 8 Gbps = 1 byte/ns; burst 10 kB. *)
  let el =
    Engine.Element.token_bucket ~name:"tb" ~loop ~rate_gbps:8.0
      ~burst_bytes:10_000
  in
  let pipe = Engine.Element.Pipeline.of_list [ el ] in
  (* Burst: the first 10 packets of 1000B pass, the 11th drops. *)
  let passed = ref 0 in
  for i = 0 to 11 do
    match Engine.Element.Pipeline.push pipe (pkt i) with
    | Some _, _ -> incr passed
    | None, _ -> ()
  done;
  check_int "burst allowed" 10 !passed;
  (* After 5us, 5000 tokens refill: 5 more pass. *)
  ignore
    (Sim.Loop.at loop (T.us 5) (fun () ->
         let extra = ref 0 in
         for i = 20 to 30 do
           match Engine.Element.Pipeline.push pipe (pkt i) with
           | Some _, _ -> incr extra
           | None, _ -> ()
         done;
         check_int "refill allows 5" 5 !extra));
  Sim.Loop.run loop

let test_element_rewrite_and_pipeline_cost () =
  let el =
    Engine.Element.acl ~name:"route" ~allow:(fun p -> p.Memory.Packet.dst = 1)
  in
  let counter = Engine.Element.counter ~name:"cnt" in
  let pipe = Engine.Element.Pipeline.of_list [ counter; el ] in
  (match Engine.Element.Pipeline.push pipe (pkt ~dst:1 0) with
  | Some p, cost ->
      check_int "passed unchanged" 1 p.Memory.Packet.dst;
      check_int "cost accumulated" (T.ns 55) cost
  | None, _ -> Alcotest.fail "expected packet to pass");
  match Engine.Element.Pipeline.push pipe (pkt ~dst:9 1) with
  | None, cost ->
      check_int "a drop pays up to the dropping element" (T.ns 55) cost
  | Some _, _ -> Alcotest.fail "unroutable must drop"

let () =
  Alcotest.run "engine"
    [
      ( "modes",
        [
          Alcotest.test_case "dedicated" `Quick test_dedicated_processes_work;
          Alcotest.test_case "dedicated fair share" `Quick test_dedicated_fair_share;
          Alcotest.test_case "spreading blocks" `Quick test_spreading_blocks_when_idle;
          Alcotest.test_case "spreading 1:1 threads" `Quick test_spreading_one_thread_per_engine;
          Alcotest.test_case "compacting scale out/in" `Quick test_compacting_scales_out_and_back;
        ] );
      ( "control",
        [
          Alcotest.test_case "mailbox on engine thread" `Quick test_mailbox_runs_on_engine_thread;
          Alcotest.test_case "remove detaches" `Quick test_remove_detaches;
        ] );
      ( "elements",
        [
          Alcotest.test_case "acl" `Quick test_element_acl;
          Alcotest.test_case "token bucket" `Quick test_element_token_bucket;
          Alcotest.test_case "rewrite + cost" `Quick test_element_rewrite_and_pipeline_cost;
        ] );
    ]
