module Time = Sim.Time
module Loop = Sim.Loop

type result = {
  gbps : float;
  sender_cpu : float;
  receiver_cpu : float;
  cpu : float;
  streams : int;
}

let write_chunk = 65536
let outstanding_limit = 32

(* Connection setup and ramp-up, excluded from the measured window. *)
let warmup = Time.ms 10
let seed = 1

let measure ~loop ~window ~machines ~delivered =
  let base_busy = Array.make (List.length machines) 0 in
  let base_bytes = ref 0 in
  ignore
    (Loop.at loop warmup (fun () ->
         List.iteri (fun i m -> base_busy.(i) <- Cpu.Sched.busy_ns m) machines;
         base_bytes := delivered ()));
  let finish = Time.add warmup window in
  Loop.run ~until:finish loop;
  let bytes = delivered () - !base_bytes in
  let cores =
    List.mapi
      (fun i m ->
        float_of_int (Cpu.Sched.busy_ns m - base_busy.(i))
        /. float_of_int window)
      machines
  in
  (float_of_int bytes *. 8.0 /. float_of_int window, cores)

let run_tcp ?(streams = 1) ?(mtu = 4096) ?(window = Time.ms 40) () =
  let loop = Sim.Loop.create ~seed () in
  let fab = Fabric.create ~loop ~config:Fabric.default_config ~hosts:2 in
  let mk addr =
    let m =
      Cpu.Sched.create_machine ~loop ~name:(Printf.sprintf "m%d" addr) ~cores:16
    in
    let nic =
      Nic.create ~loop ~machine:m ~fabric:fab ~addr
        { Nic.default_config with Nic.mtu }
    in
    let stack = Kstack.create ~loop ~machine:m ~nic () in
    (m, stack)
  in
  let ms, sa = mk 0 and mr, sb = mk 1 in
  let delivered = ref 0 in
  Kstack.listen sb ~port:80 ~on_accept:(fun sock ->
      ignore
        (Cpu.Thread.spawn mr ~name:"rx" ~account:"app"
           ~klass:(Cpu.Sched.Cfs { nice = 0 }) (fun ctx ->
             while true do
               delivered := !delivered + Kstack.recv ctx sock ~max:(1 lsl 20)
             done)));
  for i = 0 to streams - 1 do
    ignore
      (Cpu.Thread.spawn ms
         ~name:(Printf.sprintf "tx%d" i)
         ~account:"app"
         ~klass:(Cpu.Sched.Cfs { nice = 0 })
         (fun ctx ->
           let sock = Kstack.connect ctx sa ~dst:1 ~port:80 in
           while true do
             Kstack.send ctx sock ~bytes:write_chunk
           done))
  done;
  let gbps, cores =
    measure ~loop ~window ~machines:[ ms; mr ] ~delivered:(fun () ->
        !delivered)
  in
  match cores with
  | [ s; r ] ->
      { gbps; sender_cpu = s; receiver_cpu = r; cpu = (s +. r) /. 2.0; streams }
  | _ -> assert false

let run_pony ?(streams = 1) ?(mtu = 4096) ?(use_copy_engine = false)
    ?(window = Time.ms 40) () =
  let loop = Sim.Loop.create ~seed () in
  let fab = Fabric.create ~loop ~config:Fabric.default_config ~hosts:2 in
  let dir = Pony.Express.Directory.create () in
  let mk addr =
    Snap.Host.create ~loop ~fabric:fab ~directory:dir ~addr
      ~nic_config:{ Nic.default_config with Nic.mtu }
      ~mode:(Engine.Dedicating { cores = 1 })
      ~use_copy_engine ()
  in
  let ha = mk 0 and hb = mk 1 in
  let delivered = ref 0 in
  ignore
    (Snap.Host.spawn_app hb ~name:"rx" (fun ctx ->
         let c = Pony.Express.create_client ctx hb.Snap.Host.pony ~name:"rx" () in
         while true do
           let m = Pony.Express.await_message ctx c in
           delivered := !delivered + m.Pony.Express.msg_bytes
         done));
  ignore
    (Snap.Host.spawn_app ha ~name:"tx" (fun ctx ->
         let c = Pony.Express.create_client ctx ha.Snap.Host.pony ~name:"tx" () in
         Cpu.Thread.sleep ctx (Time.us 500);
         let conns =
           Array.init streams (fun _ ->
               Pony.Express.connect ctx c ~dst_host:1 ~dst_client:0)
         in
         let outstanding = ref 0 in
         let i = ref 0 in
         while true do
           ignore
             (Pony.Express.send_message ctx conns.(!i mod streams)
                ~bytes:write_chunk ());
           incr i;
           incr outstanding;
           while
             !outstanding > outstanding_limit
             &&
             match Pony.Express.poll_completion ctx c with
             | Some _ ->
                 decr outstanding;
                 true
             | None -> false
           do
             ()
           done;
           if !outstanding > outstanding_limit then begin
             match Pony.Express.poll_completion ctx c with
             | Some _ -> decr outstanding
             | None -> Cpu.Thread.wait ctx
           end
         done));
  let machines = [ ha.Snap.Host.machine; hb.Snap.Host.machine ] in
  let gbps, cores =
    measure ~loop ~window ~machines ~delivered:(fun () -> !delivered)
  in
  match cores with
  | [ s; r ] ->
      { gbps; sender_cpu = s; receiver_cpu = r; cpu = (s +. r) /. 2.0; streams }
  | _ -> assert false
