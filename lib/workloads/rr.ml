module Time = Sim.Time
module Loop = Sim.Loop

type system =
  | Tcp_rr of { busy_poll : bool }
  | Pony_rr of { app_spin : bool }
  | Pony_one_sided

type prober_system = Prober_tcp | Prober_pony of Engine.mode
type interference = Idle | Mmap_antagonist of int

let op_bytes = 64

(* Round trips averaged per Figure 6(a) point. *)
let iters = 200

(* Figure 7's probers issue one RPC per millisecond. *)
let probe_period = Time.ms 1
let seed = 7

(* -- Figure 6(a): closed-loop ping-pong -------------------------------- *)

let tcp_rtt ~busy_poll =
  let loop = Sim.Loop.create ~seed () in
  let fab = Fabric.create ~loop ~config:Fabric.default_config ~hosts:2 in
  let mk addr =
    let m =
      Cpu.Sched.create_machine ~loop ~name:(Printf.sprintf "m%d" addr) ~cores:8
    in
    let nic = Nic.create ~loop ~machine:m ~fabric:fab ~addr Nic.default_config in
    (m, Kstack.create ~loop ~machine:m ~nic ~busy_poll ())
  in
  let ma, sa = mk 0 and mb, sb = mk 1 in
  let sum = ref 0 and n = ref 0 in
  Kstack.listen sb ~port:80 ~on_accept:(fun sock ->
      ignore
        (Cpu.Thread.spawn mb ~name:"server" ~account:"app"
           ~klass:(Cpu.Sched.Cfs { nice = 0 })
           ~idle:(if busy_poll then Cpu.Sched.Spin else Cpu.Sched.Block)
           (fun ctx ->
             for _ = 1 to iters do
               let got = Kstack.recv ctx sock ~max:4096 in
               Kstack.send ctx sock ~bytes:got
             done)));
  ignore
    (Cpu.Thread.spawn ma ~name:"client" ~account:"app"
       ~klass:(Cpu.Sched.Cfs { nice = 0 })
       ~idle:(if busy_poll then Cpu.Sched.Spin else Cpu.Sched.Block)
       (fun ctx ->
         let sock = Kstack.connect ctx sa ~dst:1 ~port:80 in
         for _ = 1 to iters do
           let t0 = Cpu.Thread.now ctx in
           Kstack.send ctx sock ~bytes:op_bytes;
           let rec drain got =
             if got < op_bytes then drain (got + Kstack.recv ctx sock ~max:4096)
           in
           drain 0;
           sum := !sum + (Cpu.Thread.now ctx - t0);
           incr n
         done));
  Loop.run ~until:(Time.sec 2) loop;
  if !n = 0 then 0 else !sum / !n

let mk_pony_pair ?(cores = 16) ~loop ~mode ~use_copy_engine () =
  let fab = Fabric.create ~loop ~config:Fabric.default_config ~hosts:2 in
  let dir = Pony.Express.Directory.create () in
  let mk addr =
    Snap.Host.create ~loop ~fabric:fab ~directory:dir ~addr ~cores ~mode
      ~use_copy_engine ()
  in
  (mk 0, mk 1)

let pony_two_sided_rtt ~app_spin =
  let loop = Sim.Loop.create ~seed () in
  let ha, hb = mk_pony_pair ~loop ~mode:(Engine.Dedicating { cores = 1 }) ~use_copy_engine:false () in
  let sum = ref 0 and n = ref 0 in
  ignore
    (Snap.Host.spawn_app hb ~name:"server" ~spin:app_spin (fun ctx ->
         let c = Pony.Express.create_client ctx hb.Snap.Host.pony ~name:"server" () in
         for _ = 1 to iters do
           let m = Pony.Express.await_message ctx c in
           ignore (Pony.Express.send_message ctx m.Pony.Express.msg_conn ~bytes:op_bytes ())
         done));
  ignore
    (Snap.Host.spawn_app ha ~name:"client" ~spin:app_spin (fun ctx ->
         let c = Pony.Express.create_client ctx ha.Snap.Host.pony ~name:"client" () in
         Cpu.Thread.sleep ctx (Time.us 500);
         let conn = Pony.Express.connect ctx c ~dst_host:1 ~dst_client:0 in
         for _ = 1 to iters do
           let t0 = Cpu.Thread.now ctx in
           ignore (Pony.Express.send_message ctx conn ~bytes:op_bytes ());
           let _m = Pony.Express.await_message ctx c in
           sum := !sum + (Cpu.Thread.now ctx - t0);
           incr n
         done));
  Loop.run ~until:(Time.sec 2) loop;
  if !n = 0 then 0 else !sum / !n

let pony_one_sided_rtt () =
  let loop = Sim.Loop.create ~seed () in
  let ha, hb = mk_pony_pair ~loop ~mode:(Engine.Dedicating { cores = 1 }) ~use_copy_engine:false () in
  let region = Memory.Region.create ~id:1 ~size:65536 ~owner:"server" () in
  let sum = ref 0 and n = ref 0 in
  ignore
    (Snap.Host.spawn_app hb ~name:"server" (fun ctx ->
         let c = Pony.Express.create_client ctx hb.Snap.Host.pony ~name:"server" () in
         Pony.Express.register_region ctx c region;
         (* One-sided: no further application involvement (§3.2). *)
         Cpu.Thread.sleep ctx (Time.sec 3)));
  ignore
    (Snap.Host.spawn_app ha ~name:"client" ~spin:true (fun ctx ->
         let c = Pony.Express.create_client ctx ha.Snap.Host.pony ~name:"client" () in
         Cpu.Thread.sleep ctx (Time.us 500);
         let conn = Pony.Express.connect ctx c ~dst_host:1 ~dst_client:0 in
         for _ = 1 to iters do
           let t0 = Cpu.Thread.now ctx in
           ignore (Pony.Express.one_sided_read ctx conn ~region:1 ~off:0 ~len:op_bytes);
           let _comp = Pony.Express.await_completion ctx c in
           sum := !sum + (Cpu.Thread.now ctx - t0);
           incr n
         done));
  Loop.run ~until:(Time.sec 2) loop;
  if !n = 0 then 0 else !sum / !n

let mean_rtt system =
  match system with
  | Tcp_rr { busy_poll } -> tcp_rtt ~busy_poll
  | Pony_rr { app_spin } -> pony_two_sided_rtt ~app_spin
  | Pony_one_sided -> pony_one_sided_rtt ()

(* -- Figures 7(a)/(b): open-loop low-QPS prober -------------------------- *)

(* Antagonists start after the benchmark clients are set up, so control
   RPCs and connection setup are not starved. *)
let add_interference ~loop machines interference =
  match interference with
  | Idle -> ()
  | Mmap_antagonist threads ->
      ignore
        (Loop.at loop (Time.ms 5) (fun () ->
             List.iter
               (fun m -> ignore (Antagonist.spawn_mmap m ~threads ()))
               machines))

let prober_tcp ~duration ~interference =
  let loop = Sim.Loop.create ~seed () in
  let fab = Fabric.create ~loop ~config:Fabric.default_config ~hosts:2 in
  let mk addr =
    let m =
      Cpu.Sched.create_machine ~loop ~name:(Printf.sprintf "m%d" addr) ~cores:8
    in
    let nic = Nic.create ~loop ~machine:m ~fabric:fab ~addr Nic.default_config in
    (m, Kstack.create ~loop ~machine:m ~nic ())
  in
  let ma, sa = mk 0 and mb, sb = mk 1 in
  add_interference ~loop [ ma; mb ] interference;
  let hist = Stats.Histogram.create () in
  Kstack.listen sb ~port:80 ~on_accept:(fun sock ->
      ignore
        (Cpu.Thread.spawn mb ~name:"server" ~account:"app"
           ~klass:(Cpu.Sched.Cfs { nice = 0 }) ~idle:Cpu.Sched.Spin (fun ctx ->
             while true do
               let got = Kstack.recv ctx sock ~max:4096 in
               Kstack.send ctx sock ~bytes:got
             done)));
  ignore
    (Cpu.Thread.spawn ma ~name:"prober" ~account:"app"
       ~klass:(Cpu.Sched.Cfs { nice = 0 }) ~idle:Cpu.Sched.Spin (fun ctx ->
         let sock = Kstack.connect ctx sa ~dst:1 ~port:80 in
         while Cpu.Thread.now ctx < duration do
           let t0 = Cpu.Thread.now ctx in
           Kstack.send ctx sock ~bytes:op_bytes;
           let rec drain got =
             if got < op_bytes then drain (got + Kstack.recv ctx sock ~max:4096)
           in
           drain 0;
           Stats.Histogram.record hist (Cpu.Thread.now ctx - t0);
           let elapsed = Cpu.Thread.now ctx - t0 in
           if elapsed < probe_period then Cpu.Thread.sleep ctx (probe_period - elapsed)
         done));
  Loop.run ~until:(Time.add duration (Time.ms 50)) loop;
  hist

let prober_pony ~duration ~interference ~mode =
  let loop = Sim.Loop.create ~seed () in
  let ha, hb = mk_pony_pair ~cores:8 ~loop ~mode ~use_copy_engine:false () in
  add_interference ~loop [ ha.Snap.Host.machine; hb.Snap.Host.machine ] interference;
  let hist = Stats.Histogram.create () in
  ignore
    (Snap.Host.spawn_app hb ~name:"server" ~spin:true (fun ctx ->
         let c = Pony.Express.create_client ctx hb.Snap.Host.pony ~name:"server" () in
         while true do
           let m = Pony.Express.await_message ctx c in
           ignore
             (Pony.Express.send_message ctx m.Pony.Express.msg_conn ~bytes:op_bytes ())
         done));
  ignore
    (Snap.Host.spawn_app ha ~name:"prober" ~spin:true (fun ctx ->
         let c = Pony.Express.create_client ctx ha.Snap.Host.pony ~name:"prober" () in
         Cpu.Thread.sleep ctx (Time.ms 2);
         let conn = Pony.Express.connect ctx c ~dst_host:1 ~dst_client:0 in
         while Cpu.Thread.now ctx < duration do
           let t0 = Cpu.Thread.now ctx in
           ignore (Pony.Express.send_message ctx conn ~bytes:op_bytes ());
           let rec await () =
             match Pony.Express.poll_message ctx c with
             | Some _ -> ()
             | None ->
                 Cpu.Thread.wait ctx;
                 await ()
           in
           await ();
           Stats.Histogram.record hist (Cpu.Thread.now ctx - t0);
           let elapsed = Cpu.Thread.now ctx - t0 in
           if elapsed < probe_period then Cpu.Thread.sleep ctx (probe_period - elapsed)
         done));
  Loop.run ~until:(Time.add duration (Time.ms 50)) loop;
  hist

let prober ?(duration = Time.sec 2) ~interference system =
  match system with
  | Prober_tcp -> prober_tcp ~duration ~interference
  | Prober_pony mode -> prober_pony ~duration ~interference ~mode
