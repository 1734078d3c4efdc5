(* tenants: the guest edge under a noisy neighbour.

   [tenants] guest tenants share one host's guest mux.  Even-numbered
   tenants are victims running closed-loop [victim_bytes] echoes through
   their virtio-style rings against an isolated echo server; odd ones are
   aggressors posting [aggressor_bytes] at twice their token-bucket quota
   (open loop, one post per [aggressor_interval]) to a sink that never
   replies.  Only this workload runs guest rings, the mux and overload
   admission.  The seed staggers each aggressor's first post. *)

module Time = Sim.Time
module PE = Pony.Express
module Ring = Guest.Ring
module Tenant = Guest.Tenant

type config = {
  tenants : int;
  warmup : Time.t;
  window : Time.t;
}

let full = { tenants = 256; warmup = Time.ms 5; window = Time.ms 10 }
let small = { tenants = 8; warmup = Time.us 200; window = Time.ms 1 }
let victim_bytes = 1024
let aggressor_bytes = 4096
let aggressor_interval = Time.us 100
let aggressor_quota = 5_000.
let ring_slots = 32
let buf_bytes = 4096

(* Guests poll their used rings at a fixed cadence: deterministic
   and immune to lost wakeups. *)
let poll_step = Time.us 2

(* [smoke] picks the small configuration the smoke test runs. *)
let scenario ~smoke ~seed : Harness.scenario =
  let cfg = if smoke then small else full in
  let loop = Sim.Loop.create ~seed () in
  let fabric = Fabric.create ~loop ~config:Fabric.default_config ~hosts:2 in
  let dir = PE.Directory.create () in
  let mk addr ~engines =
    Snap.Host.create ~loop ~fabric ~directory:dir ~addr ~engines ~op_pool_bytes:(256 lsl 20) ()
  in
  (* The mux opens one Pony client per tenant, assigned to the guest
     host's engines round-robin in attach order: with two engines, victims
     and aggressors ride separate flows and meet only in the one mux
     engine, where Timely's swings on a shared flow cannot set the tail. *)
  let h_guest = mk 0 ~engines:2 and h_srv = mk 1 ~engines:1 in
  ignore
    (Snap.Host.enable_guests ~engines:1 ~mode:(Engine.Spreading { runtime_pct = 0.9 }) h_guest);
  (* Tenants attach 500 ns apart from 600 us; attach is a control-plane
     exchange plus a Pony connect. *)
  let setup_end = Time.add (Time.ms 1) (cfg.tenants * Time.ns 500) in
  let w0 = Time.add setup_end cfg.warmup in
  let w1 = Time.add w0 cfg.window in
  let drain_end = Time.add w1 (Time.ms 10) in
  let in_window t = t >= w0 && t < w1 in
  let m = Harness.meter () in
  let rng = Sim.Loop.rng loop in
  let attached = ref 0 and all_attached = ref false in
  let echo_sent = ref 0 and echo_received = ref 0 in
  let agg_tenants = ref [] in
  ignore
    (Snap.Host.spawn_app h_srv ~name:"backend-v" ~spin:true (fun ctx ->
         let c = PE.create_client ctx h_srv.Snap.Host.pony ~name:"backend-v" ~exclusive_engine:true () in
         while true do
           let msg = PE.await_message ctx c in
           ignore (PE.send_message ctx msg.PE.msg_conn ~bytes:msg.PE.msg_bytes ())
         done));
  ignore
    (Snap.Host.spawn_app h_srv ~name:"backend-a" ~spin:true (fun ctx ->
         let c = PE.create_client ctx h_srv.Snap.Host.pony ~name:"backend-a" () in
         while true do
           ignore (PE.await_message ctx c);
           Cpu.Thread.compute ctx (Time.us 1)
         done));
  let rec poll ctx ~deadline f =
    match f () with
    | Some _ as r -> r
    | None when Cpu.Thread.now ctx >= deadline -> None
    | None ->
        Cpu.Thread.sleep ctx poll_step;
        poll ctx ~deadline f
  in
  let attach ctx i ~dst ?rate () =
    Cpu.Thread.sleep ctx (Time.add (Time.us 600) (i * 500));
    let tn =
      Snap.Host.attach_tenant ctx h_guest ~name:(Printf.sprintf "t%d" i) ~dst_host:1
        ~dst_name:dst ~ring_slots ~buf_bytes ?rate_ops_per_sec:rate ~burst_ops:4 ()
    in
    incr attached;
    tn
  in
  (* One outstanding echo: the tx used entry reports the send, the rx
     used entry carries the echo back. *)
  let victim i ctx =
    let tn = attach ctx i ~dst:"backend-v" () in
    for s = 0 to Ring.capacity tn.Tenant.rx - 1 do
      ignore
        (Ring.post tn.Tenant.rx ~now:(Cpu.Thread.now ctx) ~id:s
           ~off:(Tenant.rx_buf_off tn s) ~len:buf_bytes)
    done;
    Cpu.Thread.sleep ctx (Time.sub setup_end (Cpu.Thread.now ctx));
    let id = ref 0 in
    while Cpu.Thread.now ctx < w1 do
      incr id;
      m.attempted <- m.attempted + 1;
      let t0 = Cpu.Thread.now ctx in
      let posted =
        Ring.post tn.Tenant.tx ~now:t0 ~id:!id
          ~off:(Tenant.tx_buf_off tn !id) ~len:victim_bytes
      in
      let deadline = Time.add t0 (Time.ms 4) in
      let sent =
        posted
        && poll ctx ~deadline (fun () ->
               match Ring.pop_used tn.Tenant.tx with
               | Some u when u.Ring.u_id = !id && u.Ring.u_status = Ring.Complete -> Some ()
               | Some _ | None -> None)
           <> None
      in
      if sent then begin
        echo_sent := !echo_sent + victim_bytes;
        match poll ctx ~deadline:(Time.add deadline (Time.ms 6)) (fun () -> Ring.pop_used tn.Tenant.rx) with
        | Some ru ->
            ignore
              (Ring.post tn.Tenant.rx ~now:(Cpu.Thread.now ctx) ~id:ru.Ring.u_id
                 ~off:(Tenant.rx_buf_off tn ru.Ring.u_id) ~len:buf_bytes);
            let now = Cpu.Thread.now ctx in
            echo_received := !echo_received + ru.Ring.u_len;
            m.ok <- m.ok + 1;
            if in_window now then begin
              m.ops <- m.ops + 1;
              m.bytes <- m.bytes + ru.Ring.u_len;
              Stats.Histogram.record m.lat (now - t0)
            end;
            Harness.op_span loop ~track:tn.Tenant.tname ~due:t0 ~sent:t0 ~completed:now
        | None -> ()
      end
    done;
    Snap.Host.detach_tenant h_guest tn
  in
  let aggressor i ctx =
    let tn = attach ctx i ~dst:"backend-a" ~rate:aggressor_quota () in
    agg_tenants := tn :: !agg_tenants;
    let arng = Sim.Rng.split rng in
    let first = Time.add setup_end (Sim.Rng.int arng aggressor_interval) in
    Cpu.Thread.sleep ctx (Time.sub first (Cpu.Thread.now ctx));
    let due = ref first and posted = ref 0 in
    while !due < w1 do
      let rec reap () = match Ring.pop_used tn.Tenant.tx with Some _ -> reap () | None -> () in
      reap ();
      let now = Cpu.Thread.now ctx in
      if in_window now then Stats.Histogram.record m.late (now - !due);
      if Ring.post tn.Tenant.tx ~now ~id:!posted ~off:(Tenant.tx_buf_off tn !posted) ~len:aggressor_bytes
      then incr posted;
      due := Time.add !due aggressor_interval;
      Cpu.Thread.sleep ctx (Time.max 0 (Time.sub !due (Cpu.Thread.now ctx)))
    done;
    while Ring.in_flight tn.Tenant.tx > 0 || Ring.backlog tn.Tenant.tx > 0 do
      ignore (Ring.pop_used tn.Tenant.tx);
      Cpu.Thread.sleep ctx (Time.us 10)
    done;
    Snap.Host.detach_tenant h_guest tn
  in
  for i = 0 to cfg.tenants - 1 do
    let guest = if i mod 2 = 1 then aggressor else victim in
    ignore (Snap.Host.spawn_app h_guest ~name:(Printf.sprintf "guest%d" i) (guest i))
  done;
  ignore (Sim.Loop.at loop setup_end (fun () -> all_attached := !attached = cfg.tenants));
  {
    Harness.loop;
    fabric;
    hosts = [ h_guest; h_srv ];
    setup_end;
    window = (w0, w1);
    drain_end;
    meter = m;
    checks =
      (fun () ->
        let detached =
          List.for_all
            (fun tn -> Tenant.state tn = Tenant.Detached)
            (Harness.tenants [ h_guest ])
        in
        let agg_failed = List.fold_left (fun a tn -> a + Tenant.tx_failed tn) 0 !agg_tenants in
        [
          ("tenants_attached", !all_attached);
          ("tenants_detached", detached);
          ("aggressor_ops_ok", agg_failed = 0);
          ("payload_delivered", !echo_sent = !echo_received);
        ]);
  }
