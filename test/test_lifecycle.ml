(* Tests for the connection lifecycle: bounded-retry send, graceful
   close, keepalive dead-peer detection, host crash/restart with
   incarnation fencing, deadline-bounded awaits, and one-way (half-open)
   blackouts. *)

module T = Sim.Time
module PE = Pony.Express

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* [Cpu.Thread.sleep] parks until the next wake — the duration timer is
   one waker, but completion/message deliveries also wake the task — so
   tests that need to hold position until an absolute instant must
   re-sleep on early wakes. *)
let sleep_until ctx t =
  while Cpu.Thread.now ctx < t do
    Cpu.Thread.sleep ctx (T.sub t (Cpu.Thread.now ctx))
  done

let mk_cluster ?keepalive ?(hosts = 2) () =
  let loop = Sim.Loop.create ~seed:7 () in
  let fab = Fabric.create ~loop ~config:Fabric.default_config ~hosts in
  let dir = PE.Directory.create () in
  let hs =
    List.init hosts (fun addr ->
        Snap.Host.create ~loop ~fabric:fab ~directory:dir ~addr
          ~mode:(Engine.Dedicating { cores = 2 })
          ?keepalive ())
  in
  (loop, fab, hs)

(* -- Retry policy arithmetic --------------------------------------------- *)

let test_retry_schedule () =
  let p =
    {
      Overload.Retry.max_attempts = 4;
      base_delay = T.us 50;
      multiplier = 2.0;
      max_delay = T.us 120;
      op_timeout = None;
    }
  in
  check_int "attempt 1 has no delay" 0
    (Overload.Retry.delay_before p ~attempt:1);
  check_int "attempt 2 waits base" (T.us 50)
    (Overload.Retry.delay_before p ~attempt:2);
  check_int "attempt 3 doubles" (T.us 100)
    (Overload.Retry.delay_before p ~attempt:3);
  check_int "attempt 4 capped" (T.us 120)
    (Overload.Retry.delay_before p ~attempt:4);
  check_bool "within budget" false
    (Overload.Retry.attempts_exhausted p ~attempt:4);
  check_bool "exhausted past budget" true
    (Overload.Retry.attempts_exhausted p ~attempt:5);
  (* The Pony re-export is the same module (type equality matters for
     callers building policies against either path). *)
  check_int "re-export is the same arithmetic" (T.us 100)
    (PE.Retry.delay_before p ~attempt:3)

(* -- send_with_retry: exhaustion walks the backoff schedule -------------- *)

let test_retry_exhaustion_backoff () =
  (* A 1-byte admission quota rejects every 1000-byte send instantly, so
     the elapsed time of a failed send_with_retry is almost exactly the
     sum of the inter-attempt backoffs. *)
  let loop, _fab, hosts = mk_cluster () in
  let ha = List.hd hosts and hb = List.nth hosts 1 in
  let policy =
    {
      PE.Retry.max_attempts = 3;
      base_delay = T.us 80;
      multiplier = 3.0;
      max_delay = T.ms 1;
      op_timeout = None;
    }
  in
  (* Backoffs: 80us before attempt 2, 240us before attempt 3. *)
  let expected = T.us 320 in
  let status = ref None in
  let elapsed = ref T.zero in
  ignore
    (Snap.Host.spawn_app hb ~name:"b" ~spin:true (fun ctx ->
         ignore (PE.create_client ctx hb.Snap.Host.pony ~name:"b" ())));
  ignore
    (Snap.Host.spawn_app ha ~name:"a" ~spin:true (fun ctx ->
         let c =
           PE.create_client ctx ha.Snap.Host.pony ~name:"a" ~max_bytes:1 ()
         in
         sleep_until ctx (T.us 200);
         let cn = PE.connect_by_name ctx c ~dst_host:1 ~dst_name:"b" in
         let t0 = Cpu.Thread.now ctx in
         (match PE.send_with_retry ctx cn ~policy ~bytes:1000 () with
         | Ok _ -> ()
         | Error comp -> status := Some comp.PE.status);
         elapsed := T.sub (Cpu.Thread.now ctx) t0));
  Sim.Loop.run ~until:(T.ms 5) loop;
  check_bool "exhausted with the final Rejected" true
    (!status = Some Pony.Wire.Rejected);
  check_bool "slept through every backoff" true (!elapsed >= expected);
  check_bool "no extra attempts or waits" true (!elapsed < expected + T.us 200)

(* -- send_with_retry: foreign completions are discarded, not confused ---- *)

let test_retry_foreign_completions () =
  let loop, _fab, hosts = mk_cluster () in
  let ha = List.hd hosts and hb = List.nth hosts 1 in
  let retry_op = ref None in
  let plain_op = ref None in
  let leftover = ref (Some Pony.Wire.Ok) in
  ignore
    (Snap.Host.spawn_app hb ~name:"b" ~spin:true (fun ctx ->
         ignore (PE.create_client ctx hb.Snap.Host.pony ~name:"b" ())));
  ignore
    (Snap.Host.spawn_app ha ~name:"a" ~spin:true (fun ctx ->
         let c = PE.create_client ctx ha.Snap.Host.pony ~name:"a" () in
         sleep_until ctx (T.us 200);
         let cn = PE.connect_by_name ctx c ~dst_host:1 ~dst_name:"b" in
         (* A plain send whose completion lands while the helper runs. *)
         plain_op := Some (PE.send_message ctx cn ~bytes:64 ());
         (match PE.send_with_retry ctx cn ~bytes:64 () with
         | Ok comp -> retry_op := Some comp.PE.comp_op
         | Error _ -> ());
         sleep_until ctx (T.add (Cpu.Thread.now ctx) (T.ms 1));
         leftover :=
           Option.map
             (fun (c : PE.completion) -> c.PE.status)
             (PE.poll_completion ctx c)));
  Sim.Loop.run ~until:(T.ms 5) loop;
  check_bool "helper returned its own op" true
    (Option.is_some !retry_op && !retry_op <> !plain_op);
  check_bool "foreign completion consumed, not replayed" true
    (!leftover = None)

(* -- Graceful close and Peer_dead give-up -------------------------------- *)

let test_close_and_peer_dead () =
  let loop, _fab, hosts = mk_cluster () in
  let ha = List.hd hosts and hb = List.nth hosts 1 in
  let b_state = ref None in
  let b_refused = ref None in
  let a_dead = ref false in
  let a_status = ref None in
  let a_elapsed = ref T.zero in
  ignore
    (Snap.Host.spawn_app hb ~name:"b" ~spin:true (fun ctx ->
         let c = PE.create_client ctx hb.Snap.Host.pony ~name:"b" () in
         let m = PE.await_message ctx c in
         (* Close the server half as soon as the first message lands. *)
         PE.close ctx m.PE.msg_conn;
         sleep_until ctx (T.add (Cpu.Thread.now ctx) (T.us 300));
         b_state := Some (PE.conn_state m.PE.msg_conn);
         (* New sends on the closed half refuse without reaching the
            wire. *)
         ignore (PE.send_message ctx m.PE.msg_conn ~bytes:64 ());
         let comp = PE.await_completion ctx c in
         b_refused := Some comp.PE.status));
  ignore
    (Snap.Host.spawn_app ha ~name:"a" ~spin:true (fun ctx ->
         let c = PE.create_client ctx ha.Snap.Host.pony ~name:"a" () in
         sleep_until ctx (T.us 200);
         let cn = PE.connect_by_name ctx c ~dst_host:1 ~dst_name:"b" in
         (match PE.send_with_retry ctx cn ~bytes:64 () with
         | Ok _ -> ()
         | Error _ -> ());
         (* The peer's reset kills our half. *)
         sleep_until ctx (T.add (Cpu.Thread.now ctx) (T.ms 1));
         a_dead := PE.conn_state cn = PE.Dead;
         (* Peer_dead is not retryable: a patient policy must give up
            immediately instead of burning its backoff schedule. *)
         let policy =
           {
             PE.Retry.max_attempts = 5;
             base_delay = T.us 500;
             multiplier = 2.0;
             max_delay = T.ms 2;
             op_timeout = None;
           }
         in
         let t0 = Cpu.Thread.now ctx in
         (match PE.send_with_retry ctx cn ~policy ~bytes:64 () with
         | Ok _ -> ()
         | Error comp -> a_status := Some comp.PE.status);
         a_elapsed := T.sub (Cpu.Thread.now ctx) t0));
  Sim.Loop.run ~until:(T.ms 10) loop;
  check_bool "server half drained to Closed" true (!b_state = Some PE.Closed);
  check_bool "send on closed conn refuses" true
    (!b_refused = Some Pony.Wire.Rejected);
  check_bool "reset killed the client half" true !a_dead;
  check_bool "Peer_dead reported" true (!a_status = Some Pony.Wire.Peer_dead);
  check_bool "gave up without retrying" true (!a_elapsed < T.us 500);
  check_bool "close counted" true
    (PE.conns_closed hb.Snap.Host.pony >= 1);
  check_bool "reset counted" true
    (PE.conn_resets_sent hb.Snap.Host.pony >= 1);
  check_bool "peer-dead ops counted" true
    (PE.peer_dead_ops ha.Snap.Host.pony >= 1)

(* -- Keepalive dead-peer detection --------------------------------------- *)

let test_keepalive_detection () =
  (* 100us probes, miss budget 2: a silent peer is declared dead after
     300us.  Crash the server at 1ms and measure the declaration. *)
  let keepalive = { PE.ka_interval = T.us 100; ka_miss_budget = 2 } in
  let loop, _fab, hosts = mk_cluster ~keepalive () in
  let ha = List.hd hosts and hb = List.nth hosts 1 in
  let crash_at = T.ms 1 in
  let dead_at = ref None and conn = ref None in
  ignore
    (Snap.Host.spawn_app hb ~name:"b" ~spin:true (fun ctx ->
         let c = PE.create_client ctx hb.Snap.Host.pony ~name:"b" () in
         ignore (PE.await_message ctx c)));
  ignore
    (Snap.Host.spawn_app ha ~name:"a" ~spin:true (fun ctx ->
         let c = PE.create_client ctx ha.Snap.Host.pony ~name:"a" () in
         sleep_until ctx (T.us 200);
         let cn = PE.connect_by_name ctx c ~dst_host:1 ~dst_name:"b" in
         conn := Some cn;
         (match PE.send_with_retry ctx cn ~bytes:64 () with
         | Ok _ -> ()
         | Error _ -> ());
         (* Keepalive watches are quiesce-aware: a proven-alive idle
            conn stops probing.  Touch the conn shortly before the
            crash so the watch is active when the peer goes silent. *)
         sleep_until ctx (T.us 900);
         (match PE.send_with_retry ctx cn ~bytes:64 () with
         | Ok _ -> ()
         | Error _ -> ());
         while !dead_at = None && Cpu.Thread.now ctx < T.ms 4 do
           if PE.conn_state cn = PE.Dead then
             dead_at := Some (Cpu.Thread.now ctx)
           else Cpu.Thread.sleep ctx (T.us 20)
         done));
  ignore (Sim.Loop.at loop crash_at (fun () -> PE.crash_host hb.Snap.Host.pony));
  Sim.Loop.run ~until:(T.ms 5) loop;
  (match !dead_at with
  | None -> Alcotest.fail "silent peer never declared dead"
  | Some t ->
      let detect = T.sub t crash_at in
      (* ka_interval * (miss_budget + 1) of silence, plus probe-timer
         granularity and polling slack. *)
      check_bool "declared within the keepalive bound" true
        (detect <= T.us 600));
  check_bool "probes were sent" true (PE.keepalive_probes ha.Snap.Host.pony > 0);
  check_bool "death counted" true (PE.peer_deaths ha.Snap.Host.pony >= 1);
  check_bool "the conn stays dead" true
    (match !conn with Some cn -> PE.conn_state cn = PE.Dead | None -> false);
  check_bool "host reports not alive" false (PE.host_alive hb.Snap.Host.pony)

(* -- Host crash / restart: incarnation fencing and reconnect ------------- *)

let test_crash_restart_reconnect () =
  let loop, _fab, hosts = mk_cluster () in
  let ha = List.hd hosts and hb = List.nth hosts 1 in
  let crash_at = T.ms 1 and restart_at = T.ms 2 in
  let old_client_alive = ref true in
  let registrations = ref 0 in
  let pre_crash_ok = ref false in
  let post_restart_ok = ref false in
  let reconnected = ref false in
  ignore
    (Snap.Host.spawn_app hb ~name:"srv" ~spin:true (fun ctx ->
         let first = ref None in
         let fresh () =
           incr registrations;
           let c = PE.create_client ctx hb.Snap.Host.pony ~name:"srv" () in
           if !first = None then first := Some c;
           c
         in
         let rec serve c =
           if Cpu.Thread.now ctx >= T.ms 19 then
             old_client_alive := PE.client_alive (Option.get !first)
           else if not (PE.client_alive c) then begin
             while not (PE.host_alive hb.Snap.Host.pony) do
               Cpu.Thread.sleep ctx (T.us 100)
             done;
             serve (fresh ())
           end
           else begin
             (match
                PE.await_message_until ctx c
                  ~deadline:(T.add (Cpu.Thread.now ctx) (T.us 200))
              with
             | Some m -> ignore (PE.send_message ctx m.PE.msg_conn ~bytes:64 ())
             | None -> ());
             serve c
           end
         in
         serve (fresh ())));
  ignore
    (Snap.Host.spawn_app ha ~name:"a" ~spin:true (fun ctx ->
         let c = PE.create_client ctx ha.Snap.Host.pony ~name:"a" () in
         sleep_until ctx (T.us 300);
         let echo cn =
           match PE.send_with_retry ctx cn ~bytes:64 () with
           | Ok _ ->
               Option.is_some
                 (PE.await_message_until ctx c
                    ~deadline:(T.add (Cpu.Thread.now ctx) (T.us 500)))
           | Error _ -> false
         in
         let cn0 =
           Option.get (PE.connect_with_retry ctx c ~dst_host:1 ~dst_name:"srv" ())
         in
         pre_crash_ok := echo cn0;
         (* Ride through the outage: keep trying until an echo crosses
            the restarted server.  The first sends die on the stale conn
            (reset by the new incarnation), forcing a re-dial. *)
         let conn = ref cn0 in
         sleep_until ctx restart_at;
         while (not !post_restart_ok) && Cpu.Thread.now ctx < T.ms 18 do
           if PE.conn_state !conn <> PE.Established then begin
             match
               PE.connect_with_retry ctx c ~dst_host:1 ~dst_name:"srv"
                 ~policy:
                   {
                     PE.Retry.max_attempts = 100;
                     base_delay = T.us 100;
                     multiplier = 1.5;
                     max_delay = T.us 500;
                     op_timeout = None;
                   }
                 ()
             with
             | Some cn ->
                 reconnected := true;
                 conn := cn
             | None -> ()
           end
           else if echo !conn then post_restart_ok := true
           else Cpu.Thread.sleep ctx (T.us 100)
         done));
  ignore (Sim.Loop.at loop crash_at (fun () -> PE.crash_host hb.Snap.Host.pony));
  ignore
    (Sim.Loop.at loop restart_at (fun () -> PE.restart_host hb.Snap.Host.pony));
  Sim.Span.set_capture (Some 4096);
  Sim.Loop.run ~until:(T.ms 20) loop;
  let spans = Sim.Span.events () in
  Sim.Span.set_capture None;
  check_bool "echo worked before the crash" true !pre_crash_ok;
  check_bool "echo worked after the restart" true !post_restart_ok;
  check_bool "client re-dialed" true !reconnected;
  check_int "server re-registered under the same name" 2 !registrations;
  check_int "restart bumped the incarnation" 1
    (PE.incarnation hb.Snap.Host.pony);
  check_bool "pre-crash client did not survive" false !old_client_alive;
  check_bool "peer restart detected" true
    (PE.peer_restarts_detected ha.Snap.Host.pony >= 1);
  check_bool "host back up" true (PE.host_alive hb.Snap.Host.pony);
  (* The lifecycle decisions land in the span capture as instants. *)
  let instants name =
    List.filter_map
      (fun (e : Sim.Span.event) ->
        if e.ev_name = name && e.ev_dur = None then
          Some (e.ev_ts, e.ev_track, e.ev_args)
        else None)
      spans
  in
  let instant =
    Alcotest.(list (triple int string (list (pair string string))))
  in
  Alcotest.check instant "crash instant"
    [ (crash_at, "pony host 1", []) ]
    (instants "host crashed");
  Alcotest.check instant "restart instant"
    [ (restart_at, "pony host 1", [ ("incarnation", "1") ]) ]
    (instants "host restarted");
  check_bool "conn-death instant on the surviving host" true
    (List.exists
       (fun (ts, track, args) ->
         ts > restart_at && track = "pony host 0"
         && List.assoc_opt "reason" args = Some "peer restarted")
       (instants "conn dead"))

(* A conn's key outlives the crash of one end: an item of the pre-crash
   conn still in the fabric when the crashed host has restarted and
   re-dialed must miss the new conn and draw a reset.  Host 0 dials the
   server and sends one message; the fault hook holds that packet for
   3 ms.  Host 1 crashes at 1 ms, restarts at 2 ms, re-registers and
   dials host 0's client back; the late item reaches it after that.
   The crash emptied host 1's conn halves, so the new conn's half took
   the position the pre-crash half held, and the late item's key must
   miss it there.  It must draw a reset and leave the new conn alone:
   the conn stays established, carries exactly its own echoes, and its
   halves' credit invariants (armed by the checker) hold throughout.
   The late item does take a sequence number in the restarted host's
   new flow, so the surviving host's item with that number is later
   dropped as a duplicate; that flow-layer gap is why the test does not
   ask for the whole initial credit back. *)
let test_stale_key_after_restart () =
  Check.Invariant.set_enabled true;
  Check.Invariant.begin_run ();
  Fun.protect
    ~finally:(fun () ->
      Check.Invariant.begin_run ();
      Check.Invariant.set_enabled false)
    (fun () ->
      let loop, fab, hosts = mk_cluster () in
      Check.Invariant.install ~loop ();
      let ha = List.hd hosts and hb = List.nth hosts 1 in
      let late_at = ref T.zero in
      Fabric.set_fault_hook fab (fun pkt ->
          match pkt.Memory.Packet.payload with
          | Pony.Wire.Pony { item = Pony.Wire.Msg_chunk _; _ }
            when pkt.Memory.Packet.src = 0 && !late_at = T.zero ->
              late_at := T.add (Sim.Loop.now loop) (T.ms 3);
              Fabric.Fault_delay (T.ms 3)
          | _ -> Fabric.Fault_pass);
      let n = 8 and bytes = 1 lsl 20 in
      let redial_at = ref T.zero and resets_at_redial = ref 0 in
      let sends_ok = ref 0 and echoes = ref 0 and foreign = ref 0 in
      let new_conn = ref None in
      ignore
        (Snap.Host.spawn_app ha ~name:"a" ~spin:true (fun ctx ->
             let c = PE.create_client ctx ha.Snap.Host.pony ~name:"a" () in
             sleep_until ctx (T.us 300);
             let cn0 = PE.connect_by_name ctx c ~dst_host:1 ~dst_name:"srv" in
             ignore (PE.send_message ctx cn0 ~bytes:64 ());
             while true do
               let m = PE.await_message ctx c in
               ignore (PE.send_message ctx m.PE.msg_conn ~bytes:64 ())
             done));
      ignore
        (Snap.Host.spawn_app hb ~name:"srv" ~spin:true (fun ctx ->
             ignore (PE.create_client ctx hb.Snap.Host.pony ~name:"srv" ());
             sleep_until ctx (T.ms 2);
             while not (PE.host_alive hb.Snap.Host.pony) do
               Cpu.Thread.sleep ctx (T.us 50)
             done;
             let c = PE.create_client ctx hb.Snap.Host.pony ~name:"srv" () in
             let cn =
               Option.get (PE.connect_with_retry ctx c ~dst_host:0 ~dst_name:"a" ())
             in
             new_conn := Some cn;
             redial_at := Cpu.Thread.now ctx;
             resets_at_redial := PE.conn_resets_sent hb.Snap.Host.pony;
             sleep_until ctx (T.ms 4);
             for _ = 1 to n do
               ignore (PE.send_message ctx cn ~bytes ())
             done;
             while Cpu.Thread.now ctx < T.ms 25 do
               (match PE.poll_completion ctx c with
               | Some comp when comp.PE.status = Pony.Wire.Ok -> incr sends_ok
               | Some _ | None -> ());
               match PE.poll_message ctx c with
               | Some m -> if m.PE.msg_conn == cn then incr echoes else incr foreign
               | None -> Cpu.Thread.sleep ctx (T.us 5)
             done));
      ignore (Sim.Loop.at loop (T.ms 1) (fun () -> PE.crash_host hb.Snap.Host.pony));
      ignore (Sim.Loop.at loop (T.ms 2) (fun () -> PE.restart_host hb.Snap.Host.pony));
      Sim.Loop.run ~until:(T.ms 30) loop;
      check_bool "the late item was held past the re-dial" true
        (!redial_at > T.ms 2 && !late_at > !redial_at);
      check_bool "the late item drew a reset" true
        (PE.conn_resets_sent hb.Snap.Host.pony > !resets_at_redial);
      let cn = Option.get !new_conn in
      check_bool "the new conn is still established" true
        (PE.conn_state cn = PE.Established);
      check_int "every send on the new conn completed Ok" n !sends_ok;
      check_int "exactly the echoes arrived on the new conn" n !echoes;
      check_int "no message on any other conn" 0 !foreign;
      Check.Invariant.check_now ())

(* -- Deadline-bounded awaits --------------------------------------------- *)

let test_await_until () =
  let loop, _fab, hosts = mk_cluster () in
  let ha = List.hd hosts and hb = List.nth hosts 1 in
  let idle_comp = ref (Some Pony.Wire.Ok) in
  let idle_msg = ref true in
  let woke_at = ref T.zero in
  let live_comp = ref None in
  ignore
    (Snap.Host.spawn_app hb ~name:"b" ~spin:true (fun ctx ->
         ignore (PE.create_client ctx hb.Snap.Host.pony ~name:"b" ())));
  ignore
    (Snap.Host.spawn_app ha ~name:"a" ~spin:true (fun ctx ->
         let c = PE.create_client ctx ha.Snap.Host.pony ~name:"a" () in
         sleep_until ctx (T.us 200);
         (* Nothing outstanding: both awaits expire at the deadline. *)
         let d1 = T.add (Cpu.Thread.now ctx) (T.us 300) in
         idle_comp :=
           Option.map
             (fun (x : PE.completion) -> x.PE.status)
             (PE.await_completion_until ctx c ~deadline:d1);
         let d2 = T.add (Cpu.Thread.now ctx) (T.us 300) in
         idle_msg := Option.is_some (PE.await_message_until ctx c ~deadline:d2);
         woke_at := Cpu.Thread.now ctx;
         check_bool "slept to the deadline, not past it" true
           (!woke_at >= d2 && !woke_at <= T.add d2 (T.us 50));
         (* With traffic the await returns early with the completion. *)
         let cn = PE.connect_by_name ctx c ~dst_host:1 ~dst_name:"b" in
         ignore (PE.send_message ctx cn ~bytes:64 ());
         live_comp :=
           Option.map
             (fun (x : PE.completion) -> x.PE.status)
             (PE.await_completion_until ctx c
                ~deadline:(T.add (Cpu.Thread.now ctx) (T.ms 2)))));
  Sim.Loop.run ~until:(T.ms 10) loop;
  check_bool "no completion out of thin air" true (!idle_comp = None);
  check_bool "no message out of thin air" false !idle_msg;
  check_bool "real completion beats the deadline" true
    (!live_comp = Some Pony.Wire.Ok)

(* -- One-way (half-open) blackout ---------------------------------------- *)

let test_oneway_blackout () =
  let loop, fab, hosts = mk_cluster () in
  let ha = List.hd hosts and hb = List.nth hosts 1 in
  (* Drop host 0 -> host 1 only, between 1ms and 3ms. *)
  let plan =
    Fault.Plan.make ~seed:3
      [
        Fault.Plan.Link_blackout_oneway
          { src = 0; dst = 1; start = T.ms 1; duration = T.ms 2 };
      ]
  in
  let inj = Fault.Injector.install ~loop ~plan ~fabric:fab ~hosts:[] in
  let pre_window_ok = ref false in
  let b_to_a = ref false in
  let second_arrival = ref None in
  ignore
    (Snap.Host.spawn_app hb ~name:"b" ~spin:true (fun ctx ->
         let c = PE.create_client ctx hb.Snap.Host.pony ~name:"b" () in
         sleep_until ctx (T.us 500);
         let cn = PE.connect_by_name ctx c ~dst_host:0 ~dst_name:"a" in
         (* The pre-window forward message crossed cleanly. *)
         ignore (PE.await_message ctx c);
         pre_window_ok := true;
         (* Into the window: reverse-direction traffic still flows. *)
         sleep_until ctx (T.us 1500);
         ignore (PE.send_message ctx cn ~bytes:64 ());
         (* The message a sends mid-window is held back until the window
            lifts and the flow retransmits it. *)
         ignore (PE.await_message ctx c);
         second_arrival := Some (Cpu.Thread.now ctx)));
  ignore
    (Snap.Host.spawn_app ha ~name:"a" ~spin:true (fun ctx ->
         let c = PE.create_client ctx ha.Snap.Host.pony ~name:"a" () in
         sleep_until ctx (T.us 200);
         let cn = PE.connect_by_name ctx c ~dst_host:1 ~dst_name:"b" in
         (* Both directions healthy before the window. *)
         ignore (PE.send_message ctx cn ~bytes:64 ());
         sleep_until ctx (T.us 1500);
         (* 1 -> 0 passes... *)
         b_to_a :=
           Option.is_some
             (PE.await_message_until ctx c
                ~deadline:(T.add (Cpu.Thread.now ctx) (T.us 400)));
         (* ...while 0 -> 1 is silently dropped until 3ms. *)
         ignore (PE.send_message ctx cn ~bytes:64 ())));
  Sim.Loop.run ~until:(T.ms 8) loop;
  check_bool "forward direction healthy before the window" true !pre_window_ok;
  check_bool "reverse direction crossed the half-open window" true !b_to_a;
  (match !second_arrival with
  | None -> Alcotest.fail "mid-window message never recovered"
  | Some t ->
      check_bool "held back until the window lifted" true (t >= T.ms 3));
  check_bool "forward packets were dropped" true
    (List.assoc "blackout_drops" (Fault.Injector.counters inj) > 0)

let () =
  Alcotest.run "lifecycle"
    [
      ( "retry",
        [
          Alcotest.test_case "backoff schedule arithmetic" `Quick
            test_retry_schedule;
          Alcotest.test_case "exhaustion walks the schedule" `Quick
            test_retry_exhaustion_backoff;
          Alcotest.test_case "foreign completions discarded" `Quick
            test_retry_foreign_completions;
        ] );
      ( "close",
        [
          Alcotest.test_case "graceful close and Peer_dead give-up" `Quick
            test_close_and_peer_dead;
        ] );
      ( "keepalive",
        [
          Alcotest.test_case "silent peer declared within bound" `Quick
            test_keepalive_detection;
        ] );
      ( "crash",
        [
          Alcotest.test_case "restart, incarnation fence, reconnect" `Quick
            test_crash_restart_reconnect;
          Alcotest.test_case "stale key after restart" `Quick
            test_stale_key_after_restart;
        ] );
      ( "await",
        [ Alcotest.test_case "deadline-bounded awaits" `Quick test_await_until ]
      );
      ( "oneway",
        [
          Alcotest.test_case "half-open blackout asymmetry" `Quick
            test_oneway_blackout;
        ] );
    ]
