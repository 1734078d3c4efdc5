module Time = Sim.Time

(* Request and reply size. *)
let op_bytes = 1024

(* Engine scheduling mode for both hosts. *)
let mode = Engine.Dedicating { cores = 1 }

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
  let sc =
    Scenario.create ~seed:cfg.seed ~tie_salt:cfg.tie_salt ~hosts:2
      (fun ~loop ~fabric ~directory ~addr ->
        Snap.Host.create ~loop ~fabric ~directory ~addr ~mode ())
  in
  let ha = sc.hosts.(0) and hb = sc.hosts.(1) in
  let inj = Scenario.inject sc cfg.plan in
  let trips = Scenario.trips ~workload:"chaos" "workload_op_latency_ns" in
  Scenario.echo_server hb ~name:"server" ~exclusive_engine:false;
  for i = 0 to clients - 1 do
    Scenario.echo_client ha trips
      ~name:(Printf.sprintf "client%d" i)
      ~dst_host:1 ~dst_name:"server" ~ops:cfg.ops_per_client ~bytes:op_bytes
      ~think:0
  done;
  (* Every op completed or was recovered after the engine crash, so an
     op-pool byte still charged at the end, including by the crashed
     engine's old incarnation, is a leak. *)
  Scenario.finish sc ~until:run_cap;
  let expected = clients * cfg.ops_per_client in
  let sum_hosts f = f ha.Snap.Host.pony + f hb.Snap.Host.pony in
  let retransmits =
    sum_hosts (fun p ->
        List.fold_left (fun acc (_, _, r) -> acc + r) 0 (Pony.Express.flow_stats p))
  in
  {
    ops_expected = expected;
    ops_completed = trips.ok;
    lost_ops = expected - trips.ok;
    latencies = trips.latencies;
    goodput_gbps = Scenario.echo_gbps trips ~bytes:op_bytes;
    completion_time = trips.last_done;
    fault_log = Fault.Injector.log inj;
    fault_counters = Fault.Injector.counters inj;
    retransmits;
    corrupt_dropped = sum_hosts Pony.Express.corrupt_dropped;
    rx_stalled = Nic.rx_stalled ha.Snap.Host.nic + Nic.rx_stalled hb.Snap.Host.nic;
    port_report =
      List.map
        (fun addr ->
          ( addr,
            Fabric.port_drops sc.fabric ~addr,
            Fabric.port_max_queue_bytes sc.fabric ~addr ))
        [ 0; 1 ];
  }

(* Byte-identical across same-seed runs: correctness counters plus the
   injected-fault log, folded into one string for the determinism
   sweep. *)
let fingerprint (r : result) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "ops %d/%d lost %d retx %d corrupt %d rx_stalled %d\n"
       r.ops_completed r.ops_expected r.lost_ops r.retransmits
       r.corrupt_dropped r.rx_stalled);
  List.iter
    (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "%s=%d\n" name v))
    r.fault_counters;
  Scenario.add_fault_log buf r.fault_log;
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
