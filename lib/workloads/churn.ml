module Time = Sim.Time
module Loop = Sim.Loop
module PE = Pony.Express

(* C10M-style connection-scaling workload: one host holds >= 100k live
   Pony Express connections (a full bipartite client mesh between two
   hosts), drives heavy-tailed RPC traffic over all of them in a
   closed loop, then runs connect/disconnect storms that close and
   re-dial a slice of the mesh.

   This is the datapath-scaling acceptance test: per-connection state
   lives in flat generation-tagged arenas, deadline/keepalive timers on
   per-engine timing wheels, and the per-packet send/ack path allocates
   O(1) — none of which can be observed at 2 conns and all of which
   dominate at 100k.  The steady-state window is measured in-workload
   (minor-GC words and modeled engine ns per op between two fixed op
   counts) so ramp-up and teardown do not launder the per-op figures.

   Topology: [clients_per_side] driver clients on host 0 each connect
   to every one of [clients_per_side] sink clients on host 1, so host 0
   carries clients_per_side^2 connection halves (and host 1 the mirror
   halves).  Drivers are staggered at distinct start instants and
   rendezvous on a counter before traffic starts, so the measured
   window sees every connection live and every driver mid-loop. *)

(* Connect/disconnect storms after the window. *)
let storm_rounds = 2

(* Every k-th conn per driver per storm. *)
let storm_close_every = 8

(* Bounded wait for each op's completion. *)
let op_timeout = Time.ms 5
let mode = Engine.Dedicating { cores = 2 }
let op_pool_bytes = 1 lsl 30

type config = {
  clients_per_side : int;
      (** Drivers on host 0 and sinks on host 1; live connections on
          host 0 = clients_per_side^2. *)
  ops_per_driver : int;  (** Closed-loop steady-state ops per driver. *)
  seed : int;
  tie_salt : int;
  stop_at : Time.t;  (** Drivers stop submitting here. *)
  run_cap : Time.t;
}

let default_config =
  {
    (* 320 x 320 = 102_400 live connection halves on host 0. *)
    clients_per_side = 320;
    ops_per_driver = 40;
    seed = 17;
    tie_salt = 0;
    stop_at = Time.ms 60;
    run_cap = Time.ms 120;
  }

type result = {
  n_drivers : int;
  conns_target : int;
  ramp_failures : int;  (** Connects that raised during ramp. *)
  live_at_steady : int;
      (** Established conns on host 0 when the measured window opens. *)
  ops_ok : int;
  ops_failed : int;
  stray_completions : int;
      (** Completions not matching the op awaited (late timeouts, Busy
          follow-ups); consumed and counted, never desync the loop. *)
  steady_ops : int;  (** Ops inside the measured window. *)
  steady_gc_words_per_op : float;
  steady_cpu_ns_per_op : float;  (** Modeled engine batch ns per op. *)
  bytes_completed : int;  (** Payload bytes of [Ok] steady+burst ops. *)
  last_done : Time.t;  (** Virtual completion time of the last Ok op. *)
  closes : int;
  reconnects : int;
  burst_ok : int;  (** Post-reconnect proof ops that completed [Ok]. *)
  burst_failed : int;
  conns_established : int;  (** Halves installed, both hosts. *)
  conns_closed : int;
  conn_resets : int;
  peer_deaths : int;
  latencies : Stats.Histogram.t;
}

(* Deterministic per-driver size stream: 48-bit LCG, heavy-tailed
   90/9/1 over 64 B / 4 KiB / 64 KiB RPCs. *)
let rpc_bytes rnd =
  rnd := ((!rnd * 25214903917) + 11) land 0xFFFF_FFFF_FFFF;
  let r = !rnd lsr 17 in
  match r mod 100 with
  | n when n < 90 -> 64
  | n when n < 99 -> 4096
  | _ -> 65536

let run (cfg : config) : result =
  let sc =
    Scenario.create ~seed:cfg.seed ~tie_salt:cfg.tie_salt ~hosts:2
      (fun ~loop ~fabric ~directory ~addr ->
        Snap.Host.create ~loop ~fabric ~directory ~addr ~mode ~op_pool_bytes ())
  in
  let loop = sc.loop and h_cli = sc.hosts.(0) and h_srv = sc.hosts.(1) in
  let n = cfg.clients_per_side in
  let conns_target = n * n in
  let ramp_failures = ref 0 in
  let ramp_done = ref 0 in
  let ops_ok = ref 0 in
  let ops_failed = ref 0 in
  let strays = ref 0 in
  let steady_total = ref 0 in
  let bytes_completed = ref 0 in
  let last_done = ref Time.zero in
  let closes = ref 0 in
  let reconnects = ref 0 in
  let burst_ok = ref 0 in
  let burst_failed = ref 0 in
  let live_at_steady = ref 0 in
  let snap0 = ref None in
  let snap1 = ref None in
  let lat_hist = Stats.Histogram.create () in
  (* Window bounds in completed-op counts: the op that crosses each
     threshold takes the snapshot, so the window is exact and
     schedule-independent. *)
  let total_steady = n * cfg.ops_per_driver in
  let t0_ops = total_steady / 4 in
  let t1_ops = 3 * total_steady / 4 in
  let conn_tab : PE.conn array array = Array.make n [||] in
  let count_established () =
    Array.fold_left
      (fun acc row ->
        Array.fold_left
          (fun acc c ->
            if PE.conn_state c = PE.Established then acc + 1 else acc)
          acc row)
      0 conn_tab
  in
  let note_steady () =
    incr steady_total;
    if !steady_total = t0_ops then begin
      live_at_steady := count_established ();
      snap0 := Some (Gc.minor_words (), Engine_cost.ns ())
    end
    else if !steady_total = t1_ops then
      snap1 := Some (Gc.minor_words (), Engine_cost.ns ())
  in
  (* Sinks: one client per remote endpoint, parked on await_message so
     delivered payload bytes are consumed (and their pool charges
     released) promptly. *)
  for i = 0 to n - 1 do
    ignore
      (Snap.Host.spawn_app h_srv
         ~name:(Printf.sprintf "sink%d" i)
         (fun ctx ->
           Cpu.Thread.sleep ctx (i * 200);
           let c =
             PE.create_client ctx h_srv.Snap.Host.pony
               ~name:(Printf.sprintf "s%d" i)
               ()
           in
           while true do
             ignore (PE.await_message ctx c)
           done))
  done;
  (* One closed-loop op: send, then consume completions until ours
     arrives (strays are late-timeout or Busy follow-ups for earlier
     ids).  Timeouts leave the op to resolve as a future stray. *)
  let do_op ctx client conn ~bytes =
    let id = PE.send_message ctx conn ~bytes () in
    let deadline = Time.add (Cpu.Thread.now ctx) op_timeout in
    let rec wait () =
      match PE.await_completion_until ctx client ~deadline with
      | None -> false
      | Some c when c.PE.comp_op = id ->
          if c.PE.status = Pony.Wire.Ok then begin
            Stats.Histogram.record lat_hist
              (Time.sub c.PE.completed_at c.PE.issued_at);
            bytes_completed := !bytes_completed + bytes;
            last_done := Loop.now loop;
            true
          end
          else false
      | Some _ ->
          incr strays;
          wait ()
    in
    wait ()
  in
  let driver i ctx =
    (* Distinct start instants: attach order, client ids and engine
       assignment are functions of the config, not of same-time ties. *)
    Cpu.Thread.sleep ctx (Time.add (Time.ms 1) (i * 500));
    let client =
      PE.create_client ctx h_cli.Snap.Host.pony
        ~name:(Printf.sprintf "d%d" i)
        ()
    in
    let rnd = ref ((cfg.seed * 1_000_003) + (i * 7919) + 12345) in
    (* Ramp: dial every sink, target order rotated per driver so the
       connect storm spreads across remote clients. *)
    let conns =
      Array.init n (fun j ->
          let dst = (i + j) mod n in
          PE.connect ctx client ~dst_host:1 ~dst_client:dst)
    in
    conn_tab.(i) <- conns;
    incr ramp_done;
    while !ramp_done < n && Cpu.Thread.now ctx < cfg.stop_at do
      Cpu.Thread.sleep ctx (Time.us 20)
    done;
    (* Steady state: closed-loop heavy-tailed RPCs round-robin over
       this driver's slice of the mesh. *)
    for k = 0 to cfg.ops_per_driver - 1 do
      if Cpu.Thread.now ctx < cfg.stop_at then begin
        let conn = conns.(k mod n) in
        if do_op ctx client conn ~bytes:(rpc_bytes rnd) then incr ops_ok
        else incr ops_failed;
        note_steady ()
      end
      else begin
        incr ops_failed;
        note_steady ()
      end
    done;
    (* Connect/disconnect storms: close every k-th conn (offset walks
       per round), re-dial it, and prove the replacement carries
       traffic with one small op. *)
    for r = 0 to storm_rounds - 1 do
      let sel j = j mod storm_close_every = (r + i) mod storm_close_every in
      for j = 0 to n - 1 do
        if sel j && Cpu.Thread.now ctx < cfg.stop_at then begin
          PE.close ctx conns.(j);
          incr closes
        end
      done;
      Cpu.Thread.sleep ctx (Time.us 50);
      for j = 0 to n - 1 do
        if sel j && Cpu.Thread.now ctx < cfg.stop_at then begin
          conns.(j) <- PE.connect ctx client ~dst_host:1 ~dst_client:((i + j) mod n);
          incr reconnects;
          if do_op ctx client conns.(j) ~bytes:64 then begin
            incr burst_ok;
            bytes_completed := !bytes_completed + 64
          end
          else incr burst_failed
        end
      done
    done
  in
  for i = 0 to n - 1 do
    ignore
      (Snap.Host.spawn_app h_cli
         ~name:(Printf.sprintf "drv%d" i)
         (fun ctx ->
           match driver i ctx with
           | () -> ()
           | exception _ -> incr ramp_failures))
  done;
  Scenario.finish sc ~until:cfg.run_cap;
  let steady_ops = Int.max 1 (t1_ops - t0_ops) in
  let steady_gc, steady_cpu =
    match (!snap0, !snap1) with
    | Some (gc0, c0), Some (gc1, c1) ->
        ( (gc1 -. gc0) /. float_of_int steady_ops,
          float_of_int (c1 - c0) /. float_of_int steady_ops )
    | _ -> (0.0, 0.0)
  in
  {
    n_drivers = n;
    conns_target;
    ramp_failures = !ramp_failures;
    live_at_steady = !live_at_steady;
    ops_ok = !ops_ok;
    ops_failed = !ops_failed;
    stray_completions = !strays;
    steady_ops;
    steady_gc_words_per_op = steady_gc;
    steady_cpu_ns_per_op = steady_cpu;
    bytes_completed = !bytes_completed;
    last_done = !last_done;
    closes = !closes;
    reconnects = !reconnects;
    burst_ok = !burst_ok;
    burst_failed = !burst_failed;
    conns_established =
      PE.conns_established h_cli.Snap.Host.pony
      + PE.conns_established h_srv.Snap.Host.pony;
    conns_closed =
      PE.conns_closed h_cli.Snap.Host.pony
      + PE.conns_closed h_srv.Snap.Host.pony;
    conn_resets =
      PE.conn_resets_sent h_cli.Snap.Host.pony
      + PE.conn_resets_sent h_srv.Snap.Host.pony;
    peer_deaths =
      PE.peer_deaths h_cli.Snap.Host.pony + PE.peer_deaths h_srv.Snap.Host.pony;
    latencies = lat_hist;
  }

let goodput_gbps (r : result) =
  if r.last_done = 0 then 0.0
  else float_of_int (r.bytes_completed * 8) /. float_of_int r.last_done

(* Driver decisions only: per-op ns and GC words are measurements, and
   the transport-reaction counters (resets sent, close-vs-death splits,
   stray completions) depend on whether an in-flight packet lands
   before or after a close's tombstone — a race the sweep's tie-break
   salt legitimately flips.  What the drivers decided, and whether
   every decided op resolved cleanly, must not move. *)
let fingerprint (r : result) : string =
  let buf = Buffer.create 256 in
  let add name v = Buffer.add_string buf (Printf.sprintf "%s=%d\n" name v) in
  add "drivers" r.n_drivers;
  add "conns_target" r.conns_target;
  add "ramp_failures" r.ramp_failures;
  add "live_at_steady" r.live_at_steady;
  add "ops_ok" r.ops_ok;
  add "ops_failed" r.ops_failed;
  add "closes" r.closes;
  add "reconnects" r.reconnects;
  add "burst_ok" r.burst_ok;
  add "burst_failed" r.burst_failed;
  Digest.to_hex (Digest.string (Buffer.contents buf))
