module Time = Sim.Time
module PE = Pony.Express

(* Peer-failure acceptance: two closed-loop victims (hosts 0 and 1)
   echo against a server on host 2 while the fault plan partitions the
   network and then kills the server host outright.  Host 0 rides out
   rolling symmetric link blackouts; host 1 gets the nastier half-open
   case (its packets toward the server are dropped while the reverse
   direction flows).  Mid-run the server host crashes and restarts with
   a fresh incarnation.

   The claims checked:

   - {e no op hangs}: every submitted op resolves — echo received,
     retries exhausted, or [Peer_dead] — because keepalives bound
     silent peer death and every await carries a deadline;
   - {e bounded detection}: the slowest failed op resolves within the
     window implied by the keepalive config and retry policy;
   - {e reclamation}: after quiesce no op-pool byte on any host is
     still charged to a dead peer's connections
     ([Pool.assert_quiesced] plus the registered peer-reclaim
     invariants);
   - {e reconnect}: victims dial back through [connect_with_retry] and
     finish their op budget against the restarted server (which
     re-registers under the same name with a new incarnation). *)

let server_addr = 2
let server_name = "server"

(* Detection window: 200us * (3 + 1) = 800us of silence. *)
let ka_interval = Time.us 200
let ka_miss_budget = 3

(* Bounded wait for the echo after an [Ok] send. *)
let echo_timeout = Time.us 800

(* Symmetric host 0 <-> server windows (start, duration). *)
let blackouts = [ (Time.ms 2, Time.ms 2); (Time.ms 8, Time.us 1500) ]

(* Half-open window: host 1 -> server packets dropped. *)
let oneway = (Time.ms 5, Time.ms 2)

(* Server host crash instant, and how long the host stays down. *)
let crash_at = Time.ms 12
let restart_after = Time.ms 4
let mode = Engine.Dedicating { cores = 2 }

type config = {
  ops_per_victim : int;
  op_interval : Time.t;
      (** Closed-loop pacing, so the victims stay active across the
          whole fault timeline instead of finishing before it starts. *)
  bytes : int;
  seed : int;
  tie_salt : int;
  stop_at : Time.t;  (** Victims stop submitting here. *)
  run_cap : Time.t;
}

let default_config =
  {
    ops_per_victim = 250;
    op_interval = Time.us 100;
    bytes = 2048;
    seed = 11;
    tie_salt = 0;
    stop_at = Time.ms 30;
    run_cap = Time.ms 60;
  }

type result = {
  ops_attempted : int;
  ops_resolved : int;  (** Send episodes that returned — must equal attempted. *)
  echo_ok : int;
  echo_timeouts : int;
  peer_dead_failures : int;  (** Episodes ending [Error Peer_dead]. *)
  retry_exhausted : int;  (** Episodes out of attempts (blackout, no death). *)
  other_failures : int;
  reconnects : int;  (** Re-dials after the first successful connect. *)
  server_registrations : int;  (** 1 + re-registrations after restart. *)
  victims_finished : int;
  conns_established : int;
  conns_closed : int;
  conn_resets : int;
  peer_deaths : int;
  death_hosts : int;
  peer_dead_ops : int;
  stale_drops : int;
  peer_restarts : int;
  keepalive_probes : int;
  server_incarnation : int;
  max_failed_resolution : Time.t;
      (** Slowest failed send episode, submission to [Error]. *)
  resolution_bound : Time.t;  (** What the config promises (see below). *)
  max_outage : Time.t;
      (** Longest gap between a victim's successive successful echoes —
          the end-to-end blast radius of a fault: ride out the window,
          declare the peer dead, re-dial, succeed again. *)
  outage_bound : Time.t;
  detection_ok : bool;
      (** Failed ops within [resolution_bound] and outages within
          [outage_bound]. *)
  goodput_gbps : float;
  latencies : Stats.Histogram.t;  (** Successful request+echo round trips. *)
  fault_log : Fault.Log.t;
  fault_counters : (string * int) list;
}

(* An op submitted just before its peer dies resolves no later than:
   the keepalive declaration (silence window), plus every retry attempt
   spending its full per-op timeout, plus the backoff between attempts,
   plus loose scheduling slack. *)
let resolution_bound ~(policy : PE.Retry.policy) =
  let detect = ka_interval * (ka_miss_budget + 1) in
  let backoffs = ref 0 in
  for n = 2 to policy.PE.Retry.max_attempts do
    backoffs := !backoffs + PE.Retry.delay_before policy ~attempt:n
  done;
  let timeouts =
    match policy.PE.Retry.op_timeout with
    | Some t -> policy.PE.Retry.max_attempts * t
    | None -> 0
  in
  detect + !backoffs + timeouts + Time.ms 1

(* A victim goes quiet for at most: the longest fault window (no echo
   can cross it), plus declaring the peer dead, plus one echo wait that
   straddled the window's start, plus re-dial backoff and setup. *)
let outage_bound =
  let worst_window =
    List.fold_left
      (fun acc (_, d) -> Time.max acc d)
      restart_after (blackouts @ [ oneway ])
  in
  let detect = ka_interval * (ka_miss_budget + 1) in
  worst_window + detect + echo_timeout + Time.ms 2

let send_policy =
  {
    PE.Retry.max_attempts = 3;
    base_delay = Time.us 50;
    multiplier = 2.0;
    max_delay = Time.us 200;
    op_timeout = Some (Time.us 500);
  }

(* Patient dialer: keeps knocking through the restart window.  Each
   attempt already pays the out-of-band setup latency, so the backoff
   stays modest. *)
let reconnect_policy =
  {
    PE.Retry.max_attempts = 400;
    base_delay = Time.us 50;
    multiplier = 1.5;
    max_delay = Time.us 500;
    op_timeout = None;
  }

let run (cfg : config) : result =
  let keepalive = { PE.ka_interval; ka_miss_budget } in
  let sc =
    Scenario.create ~seed:cfg.seed ~tie_salt:cfg.tie_salt ~hosts:3
      (fun ~loop ~fabric ~directory ~addr ->
        Snap.Host.create ~loop ~fabric ~directory ~addr ~mode ~keepalive ())
  in
  let hosts = Array.to_list sc.hosts in
  let h0 = sc.hosts.(0) and h1 = sc.hosts.(1) and h_srv = sc.hosts.(server_addr) in
  let plan =
    Fault.Plan.make ~seed:cfg.seed
      (List.map
         (fun (start, duration) ->
           Fault.Plan.Link_blackout { a = 0; b = server_addr; start; duration })
         blackouts
      @ [
          (let start, duration = oneway in
           Fault.Plan.Link_blackout_oneway
             { src = 1; dst = server_addr; start; duration });
          Fault.Plan.Host_crash
            { host = server_addr; start = crash_at; restart_after };
        ])
  in
  let inj = Scenario.inject sc plan in
  let attempted = ref 0 in
  let resolved = ref 0 in
  let echo_timeouts = ref 0 in
  let peer_dead_failures = ref 0 in
  let retry_exhausted = ref 0 in
  let other_failures = ref 0 in
  let reconnects = ref 0 in
  let server_registrations = ref 0 in
  let victims_finished = ref 0 in
  let max_failed = ref Time.zero in
  let max_outage = ref Time.zero in
  let echoes = Scenario.trips ~workload:"partition" "workload_op_latency_ns" in
  (* Echo server: bounded awaits so host death is noticed promptly;
     after the crash it parks until the host is back, then re-registers
     under the same name (the directory resolves names against live
     clients only, so the pre-crash registration cannot shadow it). *)
  ignore
    (Snap.Host.spawn_app h_srv ~name:"server" ~spin:true (fun ctx ->
         let fresh () =
           incr server_registrations;
           PE.create_client ctx h_srv.Snap.Host.pony ~name:server_name ()
         in
         let rec serve c =
           let rec drain () =
             match PE.poll_completion ctx c with
             | Some _ -> drain ()
             | None -> ()
           in
           drain ();
           if not (PE.client_alive c) then begin
             while not (PE.host_alive h_srv.Snap.Host.pony) do
               Cpu.Thread.sleep ctx (Time.us 100)
             done;
             serve (fresh ())
           end
           else begin
             (match
                PE.await_message_until ctx c
                  ~deadline:(Time.add (Cpu.Thread.now ctx) (Time.us 200))
              with
             | Some m ->
                 (* The reply can refuse (conn died while the request was
                    in flight); the refusal completion is drained above. *)
                 ignore (PE.send_message ctx m.PE.msg_conn ~bytes:cfg.bytes ())
             | None -> ());
             serve c
           end
         in
         serve (fresh ())));
  (* Closed-loop victims: one per client host.  Every send goes through
     the bounded-retry helper; a [Peer_dead] (or any conn no longer
     Established) drops the conn and the next iteration re-dials. *)
  let victim host vname =
    ignore
      (Snap.Host.spawn_app host ~name:vname ~spin:true (fun ctx ->
           let c = PE.create_client ctx host.Snap.Host.pony ~name:vname () in
           Cpu.Thread.sleep ctx (Time.us 500);
           let conn = ref None in
           let ever_connected = ref false in
           (* Only a [None] triggers a re-dial: the victim keeps using
              its conn until the transport tells it the peer is gone
              ([Peer_dead]), exactly like an application that has no
              side channel to the peer's health. *)
           let ensure_conn () =
             match !conn with
             | Some cn -> Some cn
             | None -> (
                 match
                   PE.connect_with_retry ctx c ~dst_host:server_addr
                     ~dst_name:server_name ~policy:reconnect_policy ()
                 with
                 | Some cn ->
                     if !ever_connected then incr reconnects;
                     ever_connected := true;
                     conn := Some cn;
                     Some cn
                 | None ->
                     conn := None;
                     None)
           in
           let n = ref 0 in
           let last_ok = ref None in
           while !n < cfg.ops_per_victim && Cpu.Thread.now ctx < cfg.stop_at do
             match ensure_conn () with
             | None -> Cpu.Thread.sleep ctx (Time.us 200)
             | Some cn ->
                 incr n;
                 incr attempted;
                 let t0 = Cpu.Thread.now ctx in
                 (match
                    PE.send_with_retry ctx cn ~policy:send_policy
                      ~bytes:cfg.bytes ()
                  with
                 | Ok _ -> (
                     match
                       PE.await_message_until ctx c
                         ~deadline:
                           (Time.add (Cpu.Thread.now ctx) echo_timeout)
                     with
                     | Some _echo ->
                         let now = Cpu.Thread.now ctx in
                         Scenario.trip echoes ctx ~t0;
                         (match !last_ok with
                         | Some prev ->
                             let gap = Time.sub now prev in
                             if gap > !max_outage then max_outage := gap
                         | None -> ());
                         last_ok := Some now
                     | None -> incr echo_timeouts)
                 | Error comp ->
                     let el = Time.sub (Cpu.Thread.now ctx) t0 in
                     if el > !max_failed then max_failed := el;
                     (match comp.PE.status with
                     | Pony.Wire.Peer_dead ->
                         incr peer_dead_failures;
                         conn := None
                     | Pony.Wire.Timed_out | Pony.Wire.Rejected
                     | Pony.Wire.Busy ->
                         incr retry_exhausted;
                         if PE.conn_state cn <> PE.Established then conn := None
                     | _ ->
                         incr other_failures;
                         conn := None));
                 incr resolved;
                 Cpu.Thread.sleep ctx cfg.op_interval
           done;
           (* Graceful teardown of whatever survived. *)
           (match !conn with
           | Some cn when PE.conn_state cn = PE.Established -> PE.close ctx cn
           | _ -> ());
           incr victims_finished))
  in
  victim h0 "victim0";
  victim h1 "victim1";
  Scenario.finish sc ~until:cfg.run_cap;
  let sum f = List.fold_left (fun acc h -> acc + f h.Snap.Host.pony) 0 hosts in
  let bound = resolution_bound ~policy:send_policy in
  {
    ops_attempted = !attempted;
    ops_resolved = !resolved;
    echo_ok = echoes.ok;
    echo_timeouts = !echo_timeouts;
    peer_dead_failures = !peer_dead_failures;
    retry_exhausted = !retry_exhausted;
    other_failures = !other_failures;
    reconnects = !reconnects;
    server_registrations = !server_registrations;
    victims_finished = !victims_finished;
    conns_established = sum PE.conns_established;
    conns_closed = sum PE.conns_closed;
    conn_resets = sum PE.conn_resets_sent;
    peer_deaths = sum PE.peer_deaths;
    death_hosts = sum (fun p -> if PE.peer_deaths p > 0 then 1 else 0);
    peer_dead_ops = sum PE.peer_dead_ops;
    stale_drops = sum PE.stale_drops;
    peer_restarts = sum PE.peer_restarts_detected;
    keepalive_probes = sum PE.keepalive_probes;
    server_incarnation = PE.incarnation h_srv.Snap.Host.pony;
    max_failed_resolution = !max_failed;
    resolution_bound = bound;
    max_outage = !max_outage;
    outage_bound;
    detection_ok = !max_failed <= bound && !max_outage <= outage_bound;
    goodput_gbps = Scenario.echo_gbps echoes ~bytes:cfg.bytes;
    latencies = echoes.latencies;
    fault_log = Fault.Injector.log inj;
    fault_counters = Fault.Injector.counters inj;
  }

(* Semantic counters only: the sweep perturbs same-timestamp event
   ordering, which legitimately shifts ns-scale timings — and with them
   edge-triggered counts like individual keepalive probes, resets
   answered to late retransmits, or stale-stamp drops — while every
   application-visible outcome stays fixed.  The fingerprint sticks to
   the outcomes the workload promises. *)
let fingerprint (r : result) : string =
  let buf = Buffer.create 512 in
  let add name v = Buffer.add_string buf (Printf.sprintf "%s=%d\n" name v) in
  add "ops_attempted" r.ops_attempted;
  add "ops_resolved" r.ops_resolved;
  add "echo_ok" r.echo_ok;
  add "echo_timeouts" r.echo_timeouts;
  add "peer_dead_failures" r.peer_dead_failures;
  add "retry_exhausted" r.retry_exhausted;
  add "other_failures" r.other_failures;
  add "reconnects" r.reconnects;
  add "server_registrations" r.server_registrations;
  add "victims_finished" r.victims_finished;
  add "server_incarnation" r.server_incarnation;
  add "detection_ok" (if r.detection_ok then 1 else 0);
  Digest.to_hex (Digest.string (Buffer.contents buf))
