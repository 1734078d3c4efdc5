module Time = Sim.Time
module Loop = Sim.Loop

(* Request and reply size. *)
let op_bytes = 1024

(* Engine scheduling mode for both hosts. *)
let mode = Engine.Dedicating { cores = 1 }

(* Telemetry sampling period for each host's {!Control.Poller} (rx-ring
   depths, per-account CPU). *)
let poll_period = Time.us 100

(* Concurrent closed-loop clients on host 0. *)
let clients = 2

(* Virtual-time budget; generous so recovery can finish. *)
let run_cap = Time.ms 500

type config = {
  ops_per_client : int;
  seed : int;
  tie_salt : int;
  plan : Fault.Plan.t;
}

let default_plan =
  Fault.Plan.make ~seed:11
    [
      (* Bursty loss toward the server across most of the steady state. *)
      Fault.Plan.Burst_loss
        { port = 1; start = Time.ms 1; duration = Time.ms 30; loss_pct = 2.0 };
      (* Corrupted deliveries toward the clients early on. *)
      Fault.Plan.Corrupt
        { port = 0; start = Time.ms 2; duration = Time.ms 10; corrupt_pct = 5.0 };
      (* A reordering window toward the server. *)
      Fault.Plan.Reorder
        {
          port = 1;
          start = Time.ms 3;
          duration = Time.ms 6;
          reorder_pct = 10.0;
          max_delay = Time.us 50;
        };
      (* A 10 ms link flap: nothing gets through in either direction. *)
      Fault.Plan.Link_blackout
        { a = 0; b = 1; start = Time.ms 6; duration = Time.ms 10 };
      (* The server's Pony engine crashes and the control plane reloads
         it. *)
      Fault.Plan.Engine_crash
        { host = 1; engine = 0; start = Time.ms 18; restart_after = Time.ms 3 };
      (* The clients' NIC stops posting receives briefly. *)
      Fault.Plan.Rx_stall
        { host = 0; queue = 0; start = Time.ms 22; duration = Time.ms 2 };
      (* The server machine runs 3x slow for a window. *)
      Fault.Plan.Straggler
        { host = 1; start = Time.ms 24; duration = Time.ms 5; slowdown = 3.0 };
    ]

let default_config =
  { ops_per_client = 1500; seed = 7; tie_salt = 0; plan = default_plan }

type result = {
  ops_expected : int;
  ops_completed : int;
  lost_ops : int;
  latencies : Stats.Histogram.t;
  goodput_gbps : float;
  completion_time : Time.t;
  fault_log : Fault.Log.t;
  fault_counters : (string * int) list;
  retransmits : int;
  corrupt_dropped : int;
  rx_stalled : int;
  port_report : (int * int * int) list;
}

let run (cfg : config) : result =
  (* Fresh invariant scope before any layer registers predicates; both
     calls are no-ops unless checking was enabled (bench --check). *)
  Check.Invariant.begin_run ();
  let loop = Loop.create ~seed:cfg.seed ~tie_salt:cfg.tie_salt () in
  Check.Invariant.install ~loop ();
  let fab = Fabric.create ~loop ~config:Fabric.default_config ~hosts:2 in
  let dir = Pony.Express.Directory.create () in
  let mk addr =
    Snap.Host.create ~loop ~fabric:fab ~directory:dir ~addr ~mode ~poll_period
      ()
  in
  let ha = mk 0 and hb = mk 1 in
  let inj =
    Fault.Injector.install ~loop ~plan:cfg.plan ~fabric:fab
      ~hosts:[ Snap.Host.fault_host ha; Snap.Host.fault_host hb ]
  in
  let hist = Stats.Histogram.create () in
  let reg_hist =
    Stats.Registry.histogram
      ~labels:[ ("workload", "chaos") ]
      "workload_op_latency_ns"
  in
  let completed = ref 0 in
  let last_done = ref Time.zero in
  ignore
    (Snap.Host.spawn_app hb ~name:"server" ~spin:true (fun ctx ->
         let c =
           Pony.Express.create_client ctx hb.Snap.Host.pony ~name:"server" ()
         in
         while true do
           let m = Pony.Express.await_message ctx c in
           ignore
             (Pony.Express.send_message ctx m.Pony.Express.msg_conn
                ~bytes:op_bytes ())
         done));
  for i = 0 to clients - 1 do
    ignore
      (Snap.Host.spawn_app ha
         ~name:(Printf.sprintf "client%d" i)
         ~spin:true
         (fun ctx ->
           let c =
             Pony.Express.create_client ctx ha.Snap.Host.pony
               ~name:(Printf.sprintf "client%d" i)
               ()
           in
           Cpu.Thread.sleep ctx (Time.us 500);
           let conn =
             Pony.Express.connect_by_name ctx c ~dst_host:1 ~dst_name:"server"
           in
           for _ = 1 to cfg.ops_per_client do
             let t0 = Cpu.Thread.now ctx in
             ignore (Pony.Express.send_message ctx conn ~bytes:op_bytes ());
             let _m = Pony.Express.await_message ctx c in
             let lat = Cpu.Thread.now ctx - t0 in
             Stats.Histogram.record hist lat;
             Stats.Histogram.record reg_hist lat;
             incr completed;
             last_done := Loop.now loop
           done))
  done;
  Loop.run ~until:run_cap loop;
  Check.Invariant.quiesce ();
  (* Every op completed (or was recovered after the engine crash): any
     op-pool byte still charged — including by the crashed engine's old
     incarnation — is a leak. *)
  List.iter
    (fun h -> Memory.Pool.assert_quiesced (Pony.Express.op_pool h.Snap.Host.pony))
    [ ha; hb ];
  let expected = clients * cfg.ops_per_client in
  let sum_hosts f = f ha.Snap.Host.pony + f hb.Snap.Host.pony in
  let retransmits =
    sum_hosts (fun p ->
        List.fold_left (fun acc (_, _, r) -> acc + r) 0 (Pony.Express.flow_stats p))
  in
  let goodput_gbps =
    if !last_done = 0 then 0.0
    else
      (* Request + echoed reply both carry [op_bytes] of goodput. *)
      float_of_int (!completed * op_bytes * 2 * 8)
      /. float_of_int !last_done
  in
  {
    ops_expected = expected;
    ops_completed = !completed;
    lost_ops = expected - !completed;
    latencies = hist;
    goodput_gbps;
    completion_time = !last_done;
    fault_log = Fault.Injector.log inj;
    fault_counters = Fault.Injector.counters inj;
    retransmits;
    corrupt_dropped = sum_hosts Pony.Express.corrupt_dropped;
    rx_stalled = Nic.rx_stalled ha.Snap.Host.nic + Nic.rx_stalled hb.Snap.Host.nic;
    port_report =
      List.map
        (fun addr ->
          (addr, Fabric.port_drops fab ~addr, Fabric.port_max_queue_bytes fab ~addr))
        [ 0; 1 ];
  }

(* Byte-identical across same-seed runs: correctness counters plus the
   injected-fault log, folded into one string for the determinism
   sweep.  Packet-id labels are stripped from log details — which of
   two same-timestamp packets draws the lower id is schedule-dependent
   labeling the perturbation sweep deliberately reorders, while drop
   times and counts are not. *)
let strip_pkt_ids detail =
  String.split_on_char ' ' detail
  |> List.filter (fun tok -> not (String.length tok > 4 && String.sub tok 0 4 = "pkt#"))
  |> String.concat " "

let fingerprint (r : result) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "ops %d/%d lost %d retx %d corrupt %d rx_stalled %d\n"
       r.ops_completed r.ops_expected r.lost_ops r.retransmits
       r.corrupt_dropped r.rx_stalled);
  List.iter
    (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "%s=%d\n" name v))
    r.fault_counters;
  List.iter
    (fun (e : Fault.Log.entry) ->
      Buffer.add_string buf
        (Printf.sprintf "%d %s %s\n" e.Fault.Log.at e.Fault.Log.kind
           (strip_pkt_ids e.Fault.Log.detail)))
    (Fault.Log.entries r.fault_log);
  List.iter
    (fun (addr, drops, maxq) ->
      Buffer.add_string buf (Printf.sprintf "port %d %d %d\n" addr drops maxq))
    r.port_report;
  Buffer.contents buf

let goodput_degradation_pct ~baseline ~faulted =
  if baseline.goodput_gbps <= 0.0 then 0.0
  else
    (baseline.goodput_gbps -. faulted.goodput_gbps)
    /. baseline.goodput_gbps *. 100.0
