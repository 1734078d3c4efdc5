module Time = Sim.Time
module Loop = Sim.Loop
module PE = Pony.Express

type result = {
  iops_series : Stats.Series.t;
  peak_iops : float;
  mean_iops : float;
  server_engine_cores : float;
}

(* Bytes fetched per indirection, and the dashboard's sampling interval. *)
let read_bytes = 64
let interval = Time.ms 10
let seed = 5
let duration = Time.ms 100

let run ?(clients = 4) ?(batch = 8) ?(outstanding = 32) () =
  let loop = Sim.Loop.create ~seed () in
  let hosts_n = clients + 1 in
  let fab = Fabric.create ~loop ~config:Fabric.default_config ~hosts:hosts_n in
  let dir = PE.Directory.create () in
  let server_host =
    Snap.Host.create ~loop ~fabric:fab ~directory:dir ~addr:0
      ~mode:(Engine.Dedicating { cores = 1 })
      ()
  in
  let client_hosts =
    List.init clients (fun i ->
        Snap.Host.create ~loop ~fabric:fab ~directory:dir ~addr:(i + 1)
          ~mode:(Engine.Dedicating { cores = 1 })
          ())
  in
  (* The analytics table: an indirection table plus a large data region
     (unbacked: contents are synthetic). *)
  let table =
    Memory.Region.create ~id:1 ~size:(1 lsl 20) ~owner:"analytics" ()
  in
  let data =
    Memory.Region.create ~backed:false ~id:2 ~size:(1 lsl 30) ~owner:"analytics" ()
  in
  (* Fill the table with valid offsets. *)
  let entries = Memory.Region.size table / 8 in
  for i = 0 to entries - 1 do
    Memory.Region.write_int64 table (8 * i)
      (Int64.of_int (i * 977 mod (Memory.Region.size data - read_bytes)))
  done;
  ignore
    (Snap.Host.spawn_app server_host ~name:"analytics-server" (fun ctx ->
         let c =
           PE.create_client ctx server_host.Snap.Host.pony ~name:"analytics" ()
         in
         PE.register_region ctx c table;
         PE.register_region ctx c data;
         Cpu.Thread.sleep ctx (Time.add duration (Time.ms 10))));
  let rng = Sim.Loop.rng loop in
  List.iteri
    (fun i h ->
      let crng = Sim.Rng.split rng in
      ignore
        (Snap.Host.spawn_app h
           ~name:(Printf.sprintf "client%d" i)
           ~spin:true
           (fun ctx ->
             let c =
               PE.create_client ctx h.Snap.Host.pony
                 ~name:(Printf.sprintf "client%d" i)
                 ()
             in
             Cpu.Thread.sleep ctx (Time.ms 1);
             let conn = PE.connect ctx c ~dst_host:0 ~dst_client:0 in
             let issue () =
               let indices =
                 List.init batch (fun _ -> Sim.Rng.int crng entries)
               in
               ignore
                 (PE.indirect_read ctx conn ~table_region:1 ~data_region:2
                    ~indices ~len:read_bytes)
             in
             for _ = 1 to outstanding do
               issue ()
             done;
             while Cpu.Thread.now ctx < duration do
               let _comp = PE.await_completion ctx c in
               issue ()
             done)))
    client_hosts;
  (* Sample served accesses per interval (the production dashboard of
     Figure 8 samples per minute; the shape is rate-vs-time). *)
  let series = Stats.Series.create () in
  let last = ref 0 in
  let engine = PE.engine_handle server_host.Snap.Host.pony 0 in
  let base_busy = ref 0 in
  ignore (Loop.at loop (Time.ms 2) (fun () -> base_busy := Engine.busy_ns engine));
  ignore
    (Loop.every loop interval (fun () ->
         let served = PE.one_sided_served server_host.Snap.Host.pony * batch in
         let rate =
           float_of_int (served - !last)
           /. Time.to_float_sec interval
         in
         last := served;
         Stats.Series.add series (Loop.now loop) rate));
  Loop.run ~until:(Time.add duration (Time.ms 5)) loop;
  let busy = Engine.busy_ns engine - !base_busy in
  let mean =
    let total = PE.one_sided_served server_host.Snap.Host.pony * batch in
    float_of_int total /. Time.to_float_sec duration
  in
  {
    iops_series = series;
    peak_iops = Stats.Series.max_value series;
    mean_iops = mean;
    server_engine_cores =
      float_of_int busy /. float_of_int (Time.sub duration (Time.ms 2));
  }
