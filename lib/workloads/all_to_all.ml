module Time = Sim.Time
module Loop = Sim.Loop
module PE = Pony.Express

type transport = Tcp | Pony of Engine.mode
type antagonist = No_antagonist | Md5 of int

(* Response size (1 MB in the paper). *)
let rpc_bytes = 1 lsl 20
let request_bytes = 1000
let prober_qps = 2000
let warmup = Time.ms 10

(* Cores per machine under TCP: a Snap.Host's default. *)
let cores = 16
let link_gbps = 50.0
let seed = 11

type config = {
  hosts : int;
  jobs_per_host : int;
  offered_gbps_per_host : float;
  window : Time.t;
  antagonist : antagonist;
}

let default_config =
  {
    hosts = 8;
    jobs_per_host = 4;
    offered_gbps_per_host = 8.0;
    window = Time.ms 30;
    antagonist = No_antagonist;
  }

type result = {
  cpu_cores : float;
  achieved_gbps : float;
  prober : Stats.Histogram.t;
  rpcs : int;
}

let probe_bytes = 1000
let connect_at = Time.ms 3
let traffic_at = Time.ms 6
let antagonist_at = Time.ms 5

(* Per-job Poisson arrival rate for the target per-host load.  Counting
   both directions of each RPC against its two hosts, an RPC moves
   ~rpc_bytes of payload on the requester (rx) and responder (tx), so
   the per-host bidirectional load equals 2 * jobs * lambda * rpc_bytes
   / hosts... each host runs [jobs] requesters; each RPC touches two
   hosts.  lambda chosen so per-host rx+tx = offered. *)
let job_interarrival cfg =
  if cfg.offered_gbps_per_host <= 0.0 then None
  else begin
    let bits_per_rpc = float_of_int (8 * (rpc_bytes + request_bytes)) in
    let per_host_rpc_rate =
      cfg.offered_gbps_per_host /. (2.0 *. bits_per_rpc) *. 1e9
      (* RPCs per second per host, counting rx+tx. *)
    in
    let per_job = per_host_rpc_rate /. float_of_int cfg.jobs_per_host in
    Some (1e9 /. per_job) (* ns mean inter-arrival *)
  end

let spawn_antagonists ~loop machines = function
  | No_antagonist -> ()
  | Md5 threads ->
      ignore
        (Loop.at loop antagonist_at (fun () ->
             List.iter
               (fun m -> ignore (Antagonist.spawn_md5 m ~threads ()))
               machines))

(* Measurement shared by both transports. *)
type meter = {
  hist : Stats.Histogram.t;
  mutable bytes : int;  (* response payload completed in window *)
  mutable n_rpcs : int;
  mutable in_window : bool;
}

let mk_meter () =
  { hist = Stats.Histogram.create (); bytes = 0; n_rpcs = 0; in_window = false }

let finish_measure ~loop ~cfg ~machines ~meter =
  let base = Array.make (List.length machines) 0 in
  ignore
    (Loop.at loop warmup (fun () ->
         meter.in_window <- true;
         List.iteri (fun i m -> base.(i) <- Cpu.Sched.busy_ns m) machines));
  let finish = Time.add warmup cfg.window in
  ignore (Loop.at loop finish (fun () -> meter.in_window <- false));
  Loop.run ~until:(Time.add finish (Time.ms 1)) loop;
  let cores =
    List.mapi
      (fun i m ->
        float_of_int (Cpu.Sched.busy_ns m - base.(i)) /. float_of_int cfg.window)
      machines
  in
  let cpu = List.fold_left ( +. ) 0.0 cores /. float_of_int (List.length cores) in
  {
    cpu_cores = cpu;
    achieved_gbps =
      2.0 *. float_of_int meter.bytes *. 8.0
      /. float_of_int cfg.hosts
      /. float_of_int cfg.window;
    prober = meter.hist;
    rpcs = meter.n_rpcs;
  }

(* -- Pony Express -------------------------------------------------------- *)

(* Stream-id tagging: bit 0 marks responses; bit 1 marks prober
   traffic.  Requesters allocate ids in steps of 4. *)
let is_response stream = stream land 1 = 1
let is_probe stream = stream land 2 = 2

let run_pony mode cfg =
  let loop = Sim.Loop.create ~seed () in
  let fab =
    Fabric.create ~loop
      ~config:{ Fabric.default_config with Fabric.link_gbps }
      ~hosts:cfg.hosts
  in
  let dir = PE.Directory.create () in
  let nic_config =
    { Nic.default_config with Nic.num_rx_queues = cfg.jobs_per_host + 3 }
  in
  let hosts =
    List.init cfg.hosts (fun addr ->
        Snap.Host.create ~loop ~fabric:fab ~directory:dir ~addr ~nic_config
          ~mode ~engines:1 ())
  in
  let machines = List.map (fun h -> h.Snap.Host.machine) hosts in
  spawn_antagonists ~loop machines cfg.antagonist;
  let meter = mk_meter () in
  let stop_at = Time.add warmup cfg.window in
  let rng = Sim.Loop.rng loop in
  (* One thread per job: creates its exclusive-engine client, connects
     to every job on every other host, then serves and issues RPCs. *)
  let spawn_job host_idx job_idx ~probe =
    let host = List.nth hosts host_idx in
    let name =
      if probe then Printf.sprintf "prober@%d" host_idx
      else Printf.sprintf "job%d@%d" job_idx host_idx
    in
    let job_rng = Sim.Rng.split rng in
    ignore
      (Snap.Host.spawn_app host ~name (fun ctx ->
           let client =
             PE.create_client ctx host.Snap.Host.pony ~name
               ~exclusive_engine:true ()
           in
           (* Wait for every host to finish client creation. *)
           let now = Cpu.Thread.now ctx in
           if now < connect_at then Cpu.Thread.sleep ctx (Time.sub connect_at now);
           let conns =
             List.concat
               (List.init cfg.hosts (fun h ->
                    if h = host_idx then []
                    else
                      List.init cfg.jobs_per_host (fun j ->
                          PE.connect ctx client ~dst_host:h ~dst_client:j)))
             |> Array.of_list
           in
           let now = Cpu.Thread.now ctx in
           if now < traffic_at then Cpu.Thread.sleep ctx (Time.sub traffic_at now);
           let mean_gap =
             if probe then Some (1e9 /. float_of_int prober_qps)
             else job_interarrival cfg
           in
           let next_arrival = ref (Cpu.Thread.now ctx) in
           let next_stream = ref (if probe then 2 else 0) in
           let outstanding : (int, Time.t) Hashtbl.t = Hashtbl.create 64 in
           let advance_arrival () =
             match mean_gap with
             | None -> next_arrival := max_int
             | Some mean ->
                 next_arrival :=
                   Time.add !next_arrival
                     (Time.ns
                        (int_of_float (Sim.Rng.exponential job_rng ~mean)))
           in
           advance_arrival ();
           while Cpu.Thread.now ctx < stop_at do
             let progressed = ref false in
             (* Incoming messages: requests to serve, responses to
                complete. *)
             (match PE.poll_message ctx client with
             | Some m ->
                 progressed := true;
                 if is_response m.PE.stream then begin
                   match Hashtbl.find_opt outstanding (m.PE.stream - 1) with
                   | Some t0 ->
                       Hashtbl.remove outstanding (m.PE.stream - 1);
                       if meter.in_window then begin
                         meter.bytes <- meter.bytes + m.PE.msg_bytes;
                         meter.n_rpcs <- meter.n_rpcs + 1;
                         if probe then
                           Stats.Histogram.record meter.hist
                             (Cpu.Thread.now ctx - t0)
                       end
                   | None -> ()
                 end
                 else begin
                   let resp =
                     if is_probe m.PE.stream then probe_bytes else rpc_bytes
                   in
                   ignore
                     (PE.send_message ctx m.PE.msg_conn
                        ~stream:(m.PE.stream + 1) ~bytes:resp ())
                 end
             | None -> ());
             (* Reap send completions. *)
             (match PE.poll_completion ctx client with
             | Some _ -> progressed := true
             | None -> ());
             (* Issue due requests. *)
             if Cpu.Thread.now ctx >= !next_arrival && Array.length conns > 0
             then begin
               progressed := true;
               let conn = conns.(Sim.Rng.int job_rng (Array.length conns)) in
               let stream = !next_stream in
               next_stream := stream + 4;
               Hashtbl.replace outstanding stream (Cpu.Thread.now ctx);
               ignore
                 (PE.send_message ctx conn ~stream ~bytes:request_bytes ());
               advance_arrival ()
             end;
             if not !progressed then begin
               let delay =
                 Time.min (Time.us 500)
                   (Time.max (Time.us 1)
                      (Time.sub !next_arrival (Cpu.Thread.now ctx)))
               in
               Cpu.Thread.sleep ctx delay
             end
           done))
  in
  for h = 0 to cfg.hosts - 1 do
    for j = 0 to cfg.jobs_per_host - 1 do
      spawn_job h j ~probe:false
    done;
    spawn_job h cfg.jobs_per_host ~probe:true
  done;
  finish_measure ~loop ~cfg ~machines ~meter

(* -- Kernel TCP ----------------------------------------------------------- *)

type tcp_sock_state = {
  sock : Kstack.socket;
  mutable acc : int;  (* bytes accumulated toward the next frame *)
  mutable pending_out : int;  (* responses owed but not yet sendable *)
  pending_times : Time.t Queue.t;  (* issue times FIFO (client side) *)
}

let run_tcp cfg =
  let loop = Sim.Loop.create ~seed () in
  let fab =
    Fabric.create ~loop
      ~config:{ Fabric.default_config with Fabric.link_gbps }
      ~hosts:cfg.hosts
  in
  let mk addr =
    let m =
      Cpu.Sched.create_machine ~loop ~name:(Printf.sprintf "m%d" addr) ~cores
    in
    let nic =
      Nic.create ~loop ~machine:m ~fabric:fab ~addr
        { Nic.default_config with Nic.mtu = 4096 }
    in
    let stack =
      Kstack.create ~loop ~machine:m ~nic
        ~softirq_workers:(cfg.jobs_per_host + 1) ()
    in
    (m, stack)
  in
  let pairs = List.init cfg.hosts mk in
  let machines = List.map fst pairs in
  let stacks = Array.of_list (List.map snd pairs) in
  spawn_antagonists ~loop machines cfg.antagonist;
  let meter = mk_meter () in
  let stop_at = Time.add warmup cfg.window in
  let rng = Sim.Loop.rng loop in
  let bulk_port j = 100 + j in
  let probe_port j = 500 + j in
  let spawn_job host_idx job_idx ~probe =
    let m = List.nth machines host_idx in
    let stack = stacks.(host_idx) in
    let job_rng = Sim.Rng.split rng in
    (* Server sockets land here from the listeners. *)
    let bulk_served : tcp_sock_state list ref = ref [] in
    let probe_served : tcp_sock_state list ref = ref [] in
    let mk_state sock =
      { sock; acc = 0; pending_out = 0; pending_times = Queue.create () }
    in
    if not probe then begin
      Kstack.listen stack ~port:(bulk_port job_idx) ~on_accept:(fun sock ->
          bulk_served := mk_state sock :: !bulk_served);
      Kstack.listen stack ~port:(probe_port job_idx) ~on_accept:(fun sock ->
          probe_served := mk_state sock :: !probe_served)
    end;
    let name =
      if probe then Printf.sprintf "prober@%d" host_idx
      else Printf.sprintf "job%d@%d" job_idx host_idx
    in
    ignore
      (Cpu.Thread.spawn m ~name ~account:"app" ~klass:(Cpu.Sched.Cfs { nice = 0 })
         (fun ctx ->
           let now = Cpu.Thread.now ctx in
           if now < connect_at then Cpu.Thread.sleep ctx (Time.sub connect_at now);
           (* Client connections to every job on every other host. *)
           let conns =
             List.concat
               (List.init cfg.hosts (fun h ->
                    if h = host_idx then []
                    else
                      List.init cfg.jobs_per_host (fun j ->
                          let port =
                            if probe then probe_port j else bulk_port j
                          in
                          mk_state (Kstack.connect ctx stack ~dst:h ~port))))
             |> Array.of_list
           in
           let now = Cpu.Thread.now ctx in
           if now < traffic_at then Cpu.Thread.sleep ctx (Time.sub traffic_at now);
           let mean_gap =
             if probe then Some (1e9 /. float_of_int prober_qps)
             else job_interarrival cfg
           in
           let next_arrival = ref (Cpu.Thread.now ctx) in
           let advance_arrival () =
             match mean_gap with
             | None -> next_arrival := max_int
             | Some mean ->
                 next_arrival :=
                   Time.add !next_arrival
                     (Time.ns (int_of_float (Sim.Rng.exponential job_rng ~mean)))
           in
           advance_arrival ();
           let resp_bytes = if probe then probe_bytes else rpc_bytes in
           while Cpu.Thread.now ctx < stop_at do
             let progressed = ref false in
             (* Serve requests on accepted sockets. *)
             let serve out_bytes st =
               let got =
                 if Kstack.readable st.sock then
                   Kstack.try_recv ctx st.sock ~max:(1 lsl 20)
                 else 0
               in
               if got > 0 then progressed := true;
               st.acc <- st.acc + got;
               while st.acc >= request_bytes do
                 st.acc <- st.acc - request_bytes;
                 st.pending_out <- st.pending_out + 1
               done;
               while
                 st.pending_out > 0
                 && Kstack.writable st.sock
                 && Kstack.try_send ctx st.sock ~bytes:out_bytes
               do
                 progressed := true;
                 st.pending_out <- st.pending_out - 1
               done
             in
             List.iter (serve rpc_bytes) !bulk_served;
             List.iter (serve probe_bytes) !probe_served;
             (* Reap responses on client connections. *)
             Array.iter
               (fun st ->
                 let got =
                   if Kstack.readable st.sock then
                     Kstack.try_recv ctx st.sock ~max:(1 lsl 20)
                   else 0
                 in
                 if got > 0 then progressed := true;
                 st.acc <- st.acc + got;
                 while st.acc >= resp_bytes do
                   st.acc <- st.acc - resp_bytes;
                   match Queue.take_opt st.pending_times with
                   | Some t0 ->
                       if meter.in_window then begin
                         meter.bytes <- meter.bytes + resp_bytes;
                         meter.n_rpcs <- meter.n_rpcs + 1;
                         if probe then
                           Stats.Histogram.record meter.hist
                             (Cpu.Thread.now ctx - t0)
                       end
                   | None -> ()
                 done)
               conns;
             (* Issue due requests. *)
             if Cpu.Thread.now ctx >= !next_arrival && Array.length conns > 0
             then begin
               let st = conns.(Sim.Rng.int job_rng (Array.length conns)) in
               if Kstack.try_send ctx st.sock ~bytes:request_bytes then begin
                 progressed := true;
                 Queue.add (Cpu.Thread.now ctx) st.pending_times;
                 advance_arrival ()
               end
             end;
             if not !progressed then begin
               Kstack.arm_activity_wake stack (Cpu.Thread.task ctx);
               let delay =
                 Time.min (Time.us 500)
                   (Time.max (Time.us 1)
                      (Time.sub !next_arrival (Cpu.Thread.now ctx)))
               in
               Cpu.Thread.sleep ctx delay
             end
           done))
  in
  for h = 0 to cfg.hosts - 1 do
    for j = 0 to cfg.jobs_per_host - 1 do
      spawn_job h j ~probe:false
    done;
    spawn_job h cfg.jobs_per_host ~probe:true
  done;
  finish_measure ~loop ~cfg ~machines ~meter

let run transport cfg =
  match transport with
  | Tcp -> run_tcp cfg
  | Pony mode -> run_pony mode cfg
