(* Transparent upgrade under live traffic (§4): a client ping-pongs
   messages while the server host migrates its engines to a "new
   release".  Connections survive; the transport absorbs the blackout as
   if it were congestion loss.

   Run with: dune exec examples/live_upgrade.exe *)

module T = Sim.Time
module PE = Pony.Express

let () =
  let loop = Sim.Loop.create ~seed:3 () in
  let fabric = Fabric.create ~loop ~config:Fabric.default_config ~hosts:2 in
  let directory = PE.Directory.create () in
  let host addr =
    Snap.Host.create ~loop ~fabric ~directory ~addr
      ~mode:(Engine.Dedicating { cores = 1 })
      ()
  in
  let a = host 0 and b = host 1 in

  ignore
    (Snap.Host.spawn_app b ~name:"echo" (fun ctx ->
         let c = PE.create_client ctx b.Snap.Host.pony ~name:"echo" () in
         while true do
           let m = PE.await_message ctx c in
           ignore (PE.send_message ctx m.PE.msg_conn ~bytes:1024 ())
         done));

  let completed = ref 0 in
  let worst_gap = ref 0 in
  ignore
    (Snap.Host.spawn_app a ~name:"pinger" (fun ctx ->
         let c = PE.create_client ctx a.Snap.Host.pony ~name:"pinger" () in
         Cpu.Thread.sleep ctx (T.us 300);
         let conn = PE.connect ctx c ~dst_host:1 ~dst_client:0 in
         let last = ref (Cpu.Thread.now ctx) in
         while true do
           ignore (PE.send_message ctx conn ~bytes:1024 ());
           let _reply = PE.await_message ctx c in
           incr completed;
           let now = Cpu.Thread.now ctx in
           worst_gap := max !worst_gap (now - !last);
           last := now;
           Cpu.Thread.sleep ctx (T.us 200)
         done));

  (* At t = 20 ms, upgrade the server's Snap to a new release: a second
     engine group (new instance) takes over engine by engine. *)
  ignore
    (Sim.Loop.at loop (T.ms 20) (fun () ->
         Printf.printf "[%5.1fms] starting transparent upgrade of host 1\n"
           (T.to_float_ms (Sim.Loop.now loop));
         let machine = b.Snap.Host.machine in
         let new_group =
           Engine.create_group ~machine ~name:"snap-v2"
             ~mode:(Engine.Dedicating { cores = 1 })
         in
         Upgrade.upgrade ~loop
           ~old_group:b.Snap.Host.group ~new_group
           ~extra_state_bytes:(fun _ -> 200_000_000)
           ~on_done:(fun reports ->
             List.iter
               (fun (r : Upgrade.report) ->
                 Printf.printf
                   "[%5.1fms] engine %-12s migrated: %d MB state, brownout \
                    %.0f ms, blackout %.0f ms\n"
                   (T.to_float_ms (Sim.Loop.now loop))
                   r.Upgrade.engine_name
                   (r.Upgrade.state_bytes / 1_000_000)
                   (T.to_float_ms r.Upgrade.brownout)
                   (T.to_float_ms r.Upgrade.blackout))
               reports)
           ()));

  Sim.Loop.run ~until:(T.ms 600) loop;
  Printf.printf
    "RPCs completed: %d; worst inter-reply gap: %.0f ms (the blackout, \
     absorbed by retransmission; the connection never dropped)\n"
    !completed
    (T.to_float_ms !worst_gap)
