(* stream: the engine-bound per-packet path (Table 1's 5000-MTU rows).

   Two hosts, one dedicated spinning Pony engine each.  One sender app
   keeps at most [outstanding] unacknowledged 64 KiB messages in flight
   over [n_conns] conns, one to each receiver app, which acknowledges every
   message with 64 B (closed loop; a send completes as soon as credit
   allows, so completions alone would not bound the queue).  Latency is
   send to delivery.  All conns share the single engine-pair flow, so
   conn count, wakeups and the event heap stay tiny and per-packet work
   in pony.flow, nic and fabric sets goodput.  The seed picks the conn of
   every send. *)

module Time = Sim.Time
module PE = Pony.Express

type config = { warmup : Time.t; window : Time.t }

let full = { warmup = Time.ms 10; window = Time.ms 100 }
let small = { warmup = Time.ms 1; window = Time.ms 1 }
let n_conns = 16
let msg_bytes = 65536
let outstanding = 32
let setup_end = Time.ms 1
let ack_bytes = 64

(* [smoke] picks the small configuration the smoke test runs. *)
let scenario ~smoke ~seed : Harness.scenario =
  let cfg = if smoke then small else full in
  let loop = Sim.Loop.create ~seed () in
  let fabric = Fabric.create ~loop ~config:Fabric.default_config ~hosts:2 in
  let dir = PE.Directory.create () in
  let mk addr =
    Snap.Host.create ~loop ~fabric ~directory:dir ~addr
      ~nic_config:{ Nic.default_config with Nic.mtu = 5000 }
      ~mode:(Engine.Dedicating { cores = 1 })
      ()
  in
  let h_tx = mk 0 and h_rx = mk 1 in
  let w0 = Time.add setup_end cfg.warmup in
  let w1 = Time.add w0 cfg.window in
  let in_window t = t >= w0 && t < w1 in
  let rng = Sim.Rng.split (Sim.Loop.rng loop) in
  let m = Harness.meter () in
  let delivered = ref 0 and sent = ref 0 and connected = ref 0 in
  let conns_up = ref false in
  (* op id -> send time, read by the receivers to time delivery *)
  let sent_at : (int, Time.t) Hashtbl.t = Hashtbl.create 64 in
  let rec reap ctx c = if PE.poll_completion ctx c <> None then reap ctx c in
  let send ctx conn ~bytes =
    sent := !sent + bytes;
    PE.send_message ctx conn ~bytes ()
  in
  (* One receiver client per conn (a second conn between the same client
     pair would supersede the first); each delivery is acknowledged with
     a 64 B message. *)
  for i = 0 to n_conns - 1 do
    let name = Printf.sprintf "rx%d" i in
    ignore
      (Snap.Host.spawn_app h_rx ~name (fun ctx ->
           let c = PE.create_client ctx h_rx.Snap.Host.pony ~name () in
           while true do
             let msg = PE.await_message ctx c in
             let now = Cpu.Thread.now ctx in
             let t0 = Hashtbl.find sent_at msg.PE.msg_op in
             Hashtbl.remove sent_at msg.PE.msg_op;
             delivered := !delivered + msg.PE.msg_bytes;
             m.ok <- m.ok + 1;
             if in_window now then begin
               m.ops <- m.ops + 1;
               m.bytes <- m.bytes + msg.PE.msg_bytes;
               Stats.Histogram.record m.lat (now - t0)
             end;
             Harness.op_span loop ~track:name ~due:t0 ~sent:t0 ~completed:now;
             ignore (send ctx msg.PE.msg_conn ~bytes:ack_bytes);
             reap ctx c
           done))
  done;
  ignore
    (Snap.Host.spawn_app h_tx ~name:"tx" (fun ctx ->
         let c = PE.create_client ctx h_tx.Snap.Host.pony ~name:"tx" () in
         Cpu.Thread.sleep ctx (Time.us 100);
         let conns =
           Array.init n_conns (fun i ->
               let conn =
                 PE.connect_by_name ctx c ~dst_host:1 ~dst_name:(Printf.sprintf "rx%d" i)
               in
               incr connected;
               conn)
         in
         Cpu.Thread.sleep ctx (Time.sub setup_end (Cpu.Thread.now ctx));
         let unacked = ref 0 in
         let ack () =
           delivered := !delivered + (PE.await_message ctx c).PE.msg_bytes;
           decr unacked;
           reap ctx c
         in
         while Cpu.Thread.now ctx < w1 do
           while !unacked < outstanding do
             let conn = conns.(Sim.Rng.int rng n_conns) in
             let id = send ctx conn ~bytes:msg_bytes in
             Hashtbl.replace sent_at id (Cpu.Thread.now ctx);
             m.attempted <- m.attempted + 1;
             incr unacked
           done;
           ack ()
         done;
         while !unacked > 0 do
           ack ()
         done));
  ignore (Sim.Loop.at loop setup_end (fun () -> conns_up := !connected = n_conns));
  {
    Harness.loop;
    fabric;
    hosts = [ h_tx; h_rx ];
    setup_end;
    window = (w0, w1);
    drain_end = Time.add w1 (Time.ms 2);
    meter = m;
    checks =
      (fun () ->
        [ ("conns_established", !conns_up); ("payload_delivered", !delivered = !sent) ]);
  }
