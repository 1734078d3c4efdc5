module Time = Sim.Time
module PE = Pony.Express

(* Three hosts so the blast radius is observable: host 0 runs open-loop
   aggressors against a deliberately slow server on host 1, while a
   well-behaved closed-loop victim on host 2 talks to its own echo
   server on host 1 (on an exclusive engine).  The aggressors overrun
   every protection layer in turn — byte/op quotas at admission, the
   op pool, the slow server's incoming queue (Busy NACKs), and the
   pressure state machine (shedding at dequeue) — while the victim's
   goodput and tail latency measure how well the overload is
   contained. *)

let victim_bytes = 4096
let mode = Engine.Dedicating { cores = 2 }
let server_pool_bytes = 32 lsl 20

(* Aggressors' offered load as a multiple of link capacity. *)
let load_factor = 4.0

type config = {
  aggressors : int;
  aggressor_bytes : int;
  aggressor_quota_ops : int;
  aggressor_quota_bytes : int;
  aggressor_deadline : Time.t;  (** Relative deadline on every aggressor op. *)
  victim_ops : int;
  server_service_time : Time.t;  (** Slow server's per-message think time. *)
  seed : int;
  tie_salt : int;
  stop_at : Time.t;  (** Aggressors and victim stop offering load here. *)
  run_cap : Time.t;  (** Hard stop; [run_cap - stop_at] is the drain window. *)
  aggressor_pool_bytes : int;  (** Host 0's op pool (small, to pressure it). *)
}

let default_config =
  {
    aggressors = 4;
    aggressor_bytes = 8192;
    aggressor_quota_ops = 64;
    aggressor_quota_bytes = 256 * 1024;
    aggressor_deadline = Time.ms 2;
    victim_ops = 300;
    server_service_time = Time.us 20;
    seed = 13;
    tie_salt = 0;
    stop_at = Time.ms 30;
    run_cap = Time.ms 90;
    (* Smaller than the sum of aggressor byte quotas, so sustained
       overload saturates the pool and the pressure state machine. *)
    aggressor_pool_bytes = 1 lsl 20;
  }

type result = {
  offered : int;  (** Ops the aggressors submitted. *)
  agg_ok : int;
  agg_rejected : int;  (** Refused by admission or shed at dequeue. *)
  agg_timed_out : int;
  agg_busy : int;  (** NACKed by the slow server's full queue. *)
  quota_rejected : int;
  ops_shed : int;
  ops_expired : int;
  busy_nacks : int;
  rx_pool_drops : int;
  zero_window_probes : int;
  pressure_transitions : int;
  victim_ok : int;
  victim_failed : int;
  victim_goodput_gbps : float;
  victim_latencies : Stats.Histogram.t;
  exhausted_escapes : int;  (** Pool [Exhausted] exceptions that escaped. *)
}

let run (cfg : config) : result =
  let pools = [| cfg.aggressor_pool_bytes; server_pool_bytes; 1 lsl 30 |] in
  let sc =
    Scenario.create ~seed:cfg.seed ~tie_salt:cfg.tie_salt ~hosts:3
      (fun ~loop ~fabric ~directory ~addr ->
        Snap.Host.create ~loop ~fabric ~directory ~addr ~mode
          ~op_pool_bytes:pools.(addr) ())
  in
  let h_agg = sc.hosts.(0) and h_srv = sc.hosts.(1) and h_vic = sc.hosts.(2) in
  let offered = ref 0 in
  let agg_ok = ref 0 in
  let agg_rejected = ref 0 in
  let agg_timed_out = ref 0 in
  let agg_busy = ref 0 in
  let exhausted_escapes = ref 0 in
  let victim =
    Scenario.trips ~workload:"overload" "workload_victim_latency_ns"
  in
  let count_completion (c : PE.completion) =
    match c.PE.status with
    | Pony.Wire.Ok -> incr agg_ok
    | Pony.Wire.Rejected -> incr agg_rejected
    | Pony.Wire.Timed_out -> incr agg_timed_out
    | Pony.Wire.Busy -> incr agg_busy
    | _ -> ()
  in
  (* Slow server (host 1, shared engine 0): never replies, so its
     incoming queue is the choke point. *)
  Scenario.sink h_srv ~name:"slow-server" ~service:cfg.server_service_time;
  (* Victim's echo server (host 1, exclusive engine 1): prompt echoes. *)
  Scenario.echo_server h_srv ~name:"victim-server" ~exclusive_engine:true;
  (* Open-loop aggressors: submit at a fixed interval implied by
     [load_factor] regardless of completions, with quotas and a
     deadline on every op; completions are polled opportunistically and
     tallied by status. *)
  let link_gbps = Nic.link_gbps h_agg.Snap.Host.nic in
  let interval =
    Int.max 1
      (int_of_float
         (float_of_int (cfg.aggressor_bytes * 8 * cfg.aggressors)
         /. (link_gbps *. load_factor)))
  in
  for i = 0 to cfg.aggressors - 1 do
    ignore
      (Snap.Host.spawn_app h_agg
         ~name:(Printf.sprintf "aggressor%d" i)
         ~spin:true
         (fun ctx ->
           let c =
             PE.create_client ctx h_agg.Snap.Host.pony
               ~name:(Printf.sprintf "aggressor%d" i)
               ~max_ops:cfg.aggressor_quota_ops
               ~max_bytes:cfg.aggressor_quota_bytes ()
           in
           Cpu.Thread.sleep ctx (Time.us 500);
           (* By name: both server apps register at the same instant, so
              which one draws client id 0 is a schedule tie the sweep
              deliberately perturbs. *)
           let conn = PE.connect_by_name ctx c ~dst_host:1 ~dst_name:"slow-server" in
           (try
              while Cpu.Thread.now ctx < cfg.stop_at do
                let deadline = Time.add (Cpu.Thread.now ctx) cfg.aggressor_deadline in
                ignore
                  (PE.send_message ctx conn ~deadline ~bytes:cfg.aggressor_bytes ());
                incr offered;
                let rec drain () =
                  match PE.poll_completion ctx c with
                  | Some comp ->
                      count_completion comp;
                      drain ()
                  | None -> ()
                in
                drain ();
                Cpu.Thread.sleep ctx interval
              done
            with Memory.Pool.Exhausted _ -> incr exhausted_escapes);
           (* Keep draining completions through the quiesce window so
              every op's outcome is tallied. *)
           while Cpu.Thread.now ctx < cfg.run_cap - Time.ms 1 do
             (match PE.poll_completion ctx c with
             | Some comp -> count_completion comp
             | None -> ());
             Cpu.Thread.sleep ctx (Time.us 10)
           done))
  done;
  (* Well-behaved victim (host 2): closed-loop request/echo against the
     isolated server, through the bounded-retry helper. *)
  ignore
    (Snap.Host.spawn_app h_vic ~name:"victim" ~spin:true (fun ctx ->
         let c = PE.create_client ctx h_vic.Snap.Host.pony ~name:"victim" () in
         Cpu.Thread.sleep ctx (Time.us 500);
         let conn = PE.connect_by_name ctx c ~dst_host:1 ~dst_name:"victim-server" in
         let n = ref 0 in
         while !n < cfg.victim_ops && Cpu.Thread.now ctx < cfg.stop_at do
           incr n;
           let t0 = Cpu.Thread.now ctx in
           match PE.send_with_retry ctx conn ~bytes:victim_bytes () with
           | Error _ -> victim.failed <- victim.failed + 1
           | Ok _ ->
               let _echo = PE.await_message ctx c in
               Scenario.trip victim ctx ~t0
         done));
  Scenario.finish sc ~until:cfg.run_cap;
  let sum f = f h_agg.Snap.Host.pony + f h_srv.Snap.Host.pony + f h_vic.Snap.Host.pony in
  {
    offered = !offered;
    agg_ok = !agg_ok;
    agg_rejected = !agg_rejected;
    agg_timed_out = !agg_timed_out;
    agg_busy = !agg_busy;
    quota_rejected = sum PE.quota_rejected;
    ops_shed = sum PE.ops_shed;
    ops_expired = sum PE.ops_expired;
    busy_nacks = sum PE.busy_nacks;
    rx_pool_drops = sum PE.rx_pool_drops;
    zero_window_probes = sum PE.zero_window_probes;
    pressure_transitions = sum PE.pressure_transitions;
    victim_ok = victim.ok;
    victim_failed = victim.failed;
    victim_goodput_gbps = Scenario.echo_gbps victim ~bytes:victim_bytes;
    victim_latencies = victim.latencies;
    exhausted_escapes = !exhausted_escapes;
  }

(* Byte-identical across same-seed runs: every counter the run produced,
   folded into one string.  Latency percentiles are deliberately
   excluded: perturbing same-timestamp event ordering (the sweep's
   [tie_salt]) legitimately moves completion times by a few ns while
   every semantic counter stays fixed, and the fingerprint must be a
   function of the seed alone. *)
let fingerprint (r : result) : string =
  let buf = Buffer.create 512 in
  let add name v = Buffer.add_string buf (Printf.sprintf "%s=%d\n" name v) in
  add "offered" r.offered;
  add "agg_ok" r.agg_ok;
  add "agg_rejected" r.agg_rejected;
  add "agg_timed_out" r.agg_timed_out;
  add "agg_busy" r.agg_busy;
  add "quota_rejected" r.quota_rejected;
  add "ops_shed" r.ops_shed;
  add "ops_expired" r.ops_expired;
  add "busy_nacks" r.busy_nacks;
  add "rx_pool_drops" r.rx_pool_drops;
  add "zero_window_probes" r.zero_window_probes;
  add "pressure_transitions" r.pressure_transitions;
  add "victim_ok" r.victim_ok;
  add "victim_failed" r.victim_failed;
  add "exhausted_escapes" r.exhausted_escapes;
  Digest.to_hex (Digest.string (Buffer.contents buf))
