module Time = Sim.Time
module Loop = Sim.Loop
module PE = Pony.Express

type result = {
  blackouts : Stats.Histogram.t;
  median : Time.t;
  engines_migrated : int;
  messages_delivered_during : int;
}

(* Log-normal shape of the serialized state sizes; with the 270 MB
   median it pins the paper's 250 ms median blackout and heavy tail. *)
let state_sigma = 0.6
let seed = 23

let run ?(machines = 10) ?(engines_per_machine = 4) ?(state_median_mb = 270.0)
    () =
  if machines < 2 || machines mod 2 <> 0 then
    invalid_arg "Upgrade_fleet.run: machines must be even and >= 2";
  let loop = Sim.Loop.create ~seed () in
  let fab = Fabric.create ~loop ~config:Fabric.default_config ~hosts:machines in
  let dir = PE.Directory.create () in
  let hosts =
    List.init machines (fun addr ->
        Snap.Host.create ~loop ~fabric:fab ~directory:dir ~addr
          ~nic_config:
            { Nic.default_config with Nic.num_rx_queues = engines_per_machine + 1 }
          ~mode:(Engine.Dedicating { cores = 2 })
          ~engines:engines_per_machine ())
  in
  let delivered_during = ref 0 in
  let upgrading = ref 0 in
  (* Light ping-pong traffic between machine pairs throughout. *)
  List.iteri
    (fun i h ->
      if i mod 2 = 0 then begin
        let peer = i + 1 in
        ignore
          (Snap.Host.spawn_app (List.nth hosts peer) ~name:"echo" (fun ctx ->
               let c =
                 PE.create_client ctx (List.nth hosts peer).Snap.Host.pony
                   ~name:"echo" ()
               in
               while true do
                 let m = PE.await_message ctx c in
                 ignore (PE.send_message ctx m.PE.msg_conn ~bytes:256 ())
               done));
        ignore
          (Snap.Host.spawn_app h ~name:"pinger" (fun ctx ->
               let c = PE.create_client ctx h.Snap.Host.pony ~name:"pinger" () in
               Cpu.Thread.sleep ctx (Time.ms 2);
               let conn = PE.connect ctx c ~dst_host:peer ~dst_client:0 in
               while true do
                 ignore (PE.send_message ctx conn ~bytes:256 ());
                 let rec await () =
                   match PE.poll_message ctx c with
                   | Some _ -> if !upgrading > 0 then incr delivered_during
                   | None ->
                       Cpu.Thread.wait ctx;
                       await ()
                 in
                 await ();
                 Cpu.Thread.sleep ctx (Time.ms 1)
               done))
      end)
    hosts;
  let hist = Stats.Histogram.create () in
  let migrated = ref 0 in
  let rng = Sim.Loop.rng loop in
  let mu = log (state_median_mb *. 1e6) in
  (* Per-machine upgrade: a new release instance gets its own engine
     group; engines migrate one at a time. *)
  let launch_upgrade h =
    let machine = h.Snap.Host.machine in
    let new_group =
      Engine.create_group ~machine ~name:"snap-v2"
        ~mode:(Engine.Dedicating { cores = 2 })
    in
    incr upgrading;
    Upgrade.upgrade ~loop
      ~old_group:h.Snap.Host.group ~new_group
      ~extra_state_bytes:(fun _ ->
        int_of_float (Sim.Rng.lognormal rng ~mu ~sigma:state_sigma))
      ~on_done:(fun reports ->
        decr upgrading;
        List.iter
          (fun (r : Upgrade.report) ->
            incr migrated;
            Stats.Histogram.record hist r.Upgrade.blackout)
          reports)
      ()
  in
  (* Stagger machine upgrades across the cell. *)
  List.iteri
    (fun i h ->
      ignore (Loop.at loop (Time.ms (10 + (i * 5))) (fun () -> launch_upgrade h)))
    hosts;
  Loop.run ~until:(Time.sec 10) loop;
  {
    blackouts = hist;
    median = Stats.Histogram.percentile hist 50.;
    engines_migrated = !migrated;
    messages_delivered_during = !delivered_during;
  }
