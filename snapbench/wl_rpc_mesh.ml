(* rpc_mesh: small-RPC tail under bulk load (Fig. 6(b)/(c)).

   [hosts] hosts x [jobs] jobs plus one prober per host, every client on
   its own exclusive spreading (MicroQuanta) engine.  Jobs send Poisson
   1 MB RPCs to random jobs on other hosts at [offered_gbps] per host
   (open loop); each host's prober sends 1000 B RPCs at [prober_qps].
   The seed drives every arrival and destination.  Prober latency is
   timed from when each request was due, so generator stalls count.
   Engine scheduling, cpu wakeups, fabric incast and the largest event
   heap are exercised here; its 6,720 flows hold the most state. *)

module Time = Sim.Time
module PE = Pony.Express

type config = { hosts : int; jobs : int; warmup : Time.t; window : Time.t }

let full = { hosts = 8; jobs = 10; warmup = Time.ms 3; window = Time.ms 8 }
let small = { hosts = 3; jobs = 2; warmup = Time.ms 1; window = Time.ms 1 }
let rpc_bytes = 1 lsl 20
let offered_gbps = 48.0
let prober_qps = 10000.0
let request_bytes = 1000
let probe_bytes = 1000
let connect_at = Time.ms 1

(* Each job dials (hosts - 1) * jobs conns, 30 us apiece out of band. *)
let setup_end = Time.ms 4

(* Stream ids tag each message: bit 0 marks responses, bit 1 probes;
   requesters allocate ids in steps of 4. *)
let is_response s = s land 1 = 1
let is_probe s = s land 2 = 2

(* [smoke] picks the small configuration the smoke test runs. *)
let scenario ~smoke ~seed : Harness.scenario =
  let cfg = if smoke then small else full in
  let loop = Sim.Loop.create ~seed () in
  let fabric =
    Fabric.create ~loop
      ~config:{ Fabric.default_config with Fabric.link_gbps = 50.0 }
      ~hosts:cfg.hosts
  in
  let dir = PE.Directory.create () in
  let nic_config = { Nic.default_config with Nic.num_rx_queues = cfg.jobs + 3 } in
  let hosts =
    Array.init cfg.hosts (fun addr ->
        Snap.Host.create ~loop ~fabric ~directory:dir ~addr ~nic_config
          ~mode:(Engine.Spreading { runtime_pct = 1.0 })
          ())
  in
  let w0 = Time.add setup_end cfg.warmup in
  let w1 = Time.add w0 cfg.window in
  let drain_end = Time.add w1 (Time.ms 10) in
  let in_window t = t >= w0 && t < w1 in
  let m = Harness.meter () in
  let conns_made = ref 0 and conns_up = ref false in
  let sent_ok = ref 0 and received = ref 0 in
  let rng = Sim.Loop.rng loop in
  (* Per host, rx+tx payload = offered: each RPC moves request+response
     bytes through two hosts. *)
  let job_gap =
    let bits = float_of_int (8 * (rpc_bytes + request_bytes)) in
    let per_host = offered_gbps /. (2.0 *. bits) *. 1e9 in
    1e9 /. (per_host /. float_of_int cfg.jobs)
  in
  let spawn host_idx job ~probe =
    let host = hosts.(host_idx) in
    let name =
      if probe then Printf.sprintf "prober@%d" host_idx
      else Printf.sprintf "job%d@%d" job host_idx
    in
    let jrng = Sim.Rng.split rng in
    ignore
      (Snap.Host.spawn_app host ~name (fun ctx ->
           let client =
             PE.create_client ctx host.Snap.Host.pony ~name ~exclusive_engine:true ()
           in
           Cpu.Thread.sleep ctx (Time.sub connect_at (Cpu.Thread.now ctx));
           let conns =
             Array.of_list
               (List.concat
                  (List.init cfg.hosts (fun h ->
                       if h = host_idx then []
                       else
                         List.init cfg.jobs (fun j ->
                             let c =
                               PE.connect_by_name ctx client ~dst_host:h
                                 ~dst_name:(Printf.sprintf "job%d@%d" j h)
                             in
                             incr conns_made;
                             c))))
           in
           Cpu.Thread.sleep ctx (Time.sub setup_end (Cpu.Thread.now ctx));
           let mean = if probe then 1e9 /. prober_qps else job_gap in
           let next_due = ref (Cpu.Thread.now ctx) in
           let advance () =
             next_due :=
               Time.add !next_due (int_of_float (Sim.Rng.exponential jrng ~mean))
           in
           advance ();
           let next_stream = ref (if probe then 2 else 0) in
           (* stream id -> (due, sent) of each outstanding request *)
           let outstanding : (int, Time.t * Time.t) Hashtbl.t = Hashtbl.create 64 in
           while Cpu.Thread.now ctx < drain_end do
             let progressed = ref false in
             (match PE.poll_message ctx client with
             | Some msg ->
                 progressed := true;
                 let now = Cpu.Thread.now ctx in
                 received := !received + msg.PE.msg_bytes;
                 if in_window now then m.bytes <- m.bytes + msg.PE.msg_bytes;
                 let s = msg.PE.stream in
                 if is_response s then begin
                   match Hashtbl.find_opt outstanding (s - 1) with
                   | Some (due, sent) ->
                       Hashtbl.remove outstanding (s - 1);
                       m.ok <- m.ok + 1;
                       if in_window now then m.ops <- m.ops + 1;
                       if probe && in_window due then
                         Stats.Histogram.record m.lat (now - due);
                       Harness.op_span loop ~track:name ~due ~sent ~completed:now
                   | None -> ()
                 end
                 else
                   ignore
                     (PE.send_message ctx msg.PE.msg_conn ~stream:(s + 1)
                        ~bytes:(if is_probe s then probe_bytes else rpc_bytes)
                        ())
             | None -> ());
             (match PE.poll_completion ctx client with
             | Some c ->
                 progressed := true;
                 if c.PE.status = Pony.Wire.Ok then sent_ok := !sent_ok + c.PE.bytes
             | None -> ());
             let now = Cpu.Thread.now ctx in
             if now >= !next_due && now < w1 then begin
               progressed := true;
               let conn = conns.(Sim.Rng.int jrng (Array.length conns)) in
               let s = !next_stream in
               next_stream := s + 4;
               Hashtbl.replace outstanding s (!next_due, now);
               if in_window now then Stats.Histogram.record m.late (now - !next_due);
               ignore
                 (PE.send_message ctx conn ~stream:s
                    ~bytes:(if probe then probe_bytes else request_bytes)
                    ());
               m.attempted <- m.attempted + 1;
               advance ()
             end;
             (* Idle until the next request is due (deliveries wake the
                thread early); after the window, nothing more is due. *)
             if not !progressed then begin
               let until = if now >= w1 then drain_end else !next_due in
               Cpu.Thread.sleep ctx
                 (Time.min (Time.us 500) (Time.max (Time.us 1) (Time.sub until now)))
             end
           done))
  in
  for h = 0 to cfg.hosts - 1 do
    for j = 0 to cfg.jobs - 1 do
      spawn h j ~probe:false
    done;
    spawn h cfg.jobs ~probe:true
  done;
  let expected = cfg.hosts * (cfg.jobs + 1) * (cfg.hosts - 1) * cfg.jobs in
  ignore (Sim.Loop.at loop setup_end (fun () -> conns_up := !conns_made = expected));
  {
    Harness.loop;
    fabric;
    hosts = Array.to_list hosts;
    setup_end;
    window = (w0, w1);
    drain_end;
    meter = m;
    checks =
      (fun () ->
        [ ("conns_established", !conns_up); ("payload_delivered", !sent_ok = !received) ]);
  }
