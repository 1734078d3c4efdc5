(* conn_churn: connection state at scale (the 102,400-conn datapath).

   [n] requester clients on host 0 each dial every one of [n] sink clients
   on host 1, so host 0 holds n^2 live conns; the ramp is the set-up.
   Requesters then run closed-loop heavy-tailed RPCs (64 B / 4 KiB / 64 KiB
   requests, 90/9/1; 64 B replies) with exponential think times,
   round-robin over their conns, and after the window run [storms]
   connect/disconnect storms that close and re-dial every
   [close_every]-th conn and prove each replacement with one 64 B RPC.
   This is pony.express conn state, timing wheels, arenas and
   lifecycle; per-packet bulk work is small. *)

module Time = Sim.Time
module PE = Pony.Express

type config = { n : int; close_every : int; warmup : Time.t; window : Time.t }

let full = { n = 320; close_every = 32; warmup = Time.ms 2; window = Time.ms 20 }
let small = { n = 16; close_every = 8; warmup = Time.us 200; window = Time.ms 2 }
let storms = 2

(* Mean exponential think time between a requester's RPCs. *)
let think = Time.ms 2
let op_timeout = Time.ms 5
let reply_bytes = 64

(* Request sizes come from a 100-card deck with exactly 90/9/1 cards of
   64 B / 4 KiB / 64 KiB, shuffled by the seed; requester i deals from
   offset 7i.  The rare 64 KiB requests carry most of the bytes; dealing
   them evenly narrows goodput's spread across seeds (about 7% -> 6%). *)
let deck rng =
  let d = Array.init 100 (fun i -> if i < 90 then 64 else if i < 99 then 4096 else 65536) in
  Sim.Rng.shuffle rng d;
  d

(* [smoke] picks the small configuration the smoke test runs. *)
let scenario ~smoke ~seed : Harness.scenario =
  let cfg = if smoke then small else full in
  let n = cfg.n in
  let loop = Sim.Loop.create ~seed () in
  let fabric = Fabric.create ~loop ~config:Fabric.default_config ~hosts:2 in
  let dir = PE.Directory.create () in
  let mk addr = Snap.Host.create ~loop ~fabric ~directory:dir ~addr () in
  let h_cli = mk 0 and h_srv = mk 1 in
  (* Requesters start 500 ns apart from 1 ms and dial n sinks one after
     another, about 53 us per dial; a storm's re-dial plus proof RPC
     takes up to 1 ms while every requester storms at once. *)
  let setup_end = Time.add (Time.ms 2) (n * Time.us 60) in
  let w0 = Time.add setup_end cfg.warmup in
  let w1 = Time.add w0 cfg.window in
  let drain_end =
    Time.add w1 (Time.add (Time.ms 10) (storms * (n / cfg.close_every) * Time.ms 1))
  in
  let in_window t = t >= w0 && t < w1 in
  let m = Harness.meter () in
  let delivered = ref 0 and sent = ref 0 in
  let live_at_setup = ref 0 and finished = ref 0 in
  let conn_tab : PE.conn array array = Array.make n [||] in
  let rng = Sim.Loop.rng loop in
  let sizes = deck rng in
  let send ctx conn ~stream ~bytes =
    sent := !sent + bytes;
    ignore (PE.send_message ctx conn ~stream ~bytes ())
  in
  let rec reap ctx c = if PE.poll_completion ctx c <> None then reap ctx c in
  (* Sinks answer every request with 64 B on the request's stream. *)
  for i = 0 to n - 1 do
    ignore
      (Snap.Host.spawn_app h_srv ~name:(Printf.sprintf "sink%d" i) (fun ctx ->
           Cpu.Thread.sleep ctx (i * 200);
           let c = PE.create_client ctx h_srv.Snap.Host.pony ~name:(Printf.sprintf "s%d" i) () in
           while true do
             let msg = PE.await_message ctx c in
             delivered := !delivered + msg.PE.msg_bytes;
             send ctx msg.PE.msg_conn ~stream:msg.PE.stream ~bytes:reply_bytes;
             reap ctx c
           done))
  done;
  (* One closed-loop RPC, tagged with one of eight streams so the reply
     of an earlier, timed-out RPC is not taken for this one's. *)
  let do_op ctx client conn ~stream ~bytes =
    m.attempted <- m.attempted + 1;
    let t0 = Cpu.Thread.now ctx in
    send ctx conn ~stream ~bytes;
    let deadline = Time.add t0 op_timeout in
    let rec wait () =
      match PE.await_message_until ctx client ~deadline with
      | Some r ->
          delivered := !delivered + r.PE.msg_bytes;
          if r.PE.stream <> stream then wait ()
          else begin
            let t = Cpu.Thread.now ctx in
            m.ok <- m.ok + 1;
            if in_window t then begin
              m.ops <- m.ops + 1;
              m.bytes <- m.bytes + bytes;
              Stats.Histogram.record m.lat (t - t0)
            end;
            Harness.op_span loop ~track:"conn_churn" ~due:t0 ~sent:t0 ~completed:t
          end
      | None -> ()
    in
    wait ();
    reap ctx client
  in
  let requester i ctx =
    let drng = Sim.Rng.split rng in
    Cpu.Thread.sleep ctx (Time.add (Time.ms 1) (i * 500));
    let client = PE.create_client ctx h_cli.Snap.Host.pony ~name:(Printf.sprintf "d%d" i) () in
    let dial j = PE.connect ctx client ~dst_host:1 ~dst_client:((i + j) mod n) in
    let conns = Array.init n dial in
    conn_tab.(i) <- conns;
    Cpu.Thread.sleep ctx (Time.sub setup_end (Cpu.Thread.now ctx));
    let k = ref 0 in
    while Cpu.Thread.now ctx < w1 do
      Cpu.Thread.sleep ctx
        (int_of_float (Sim.Rng.exponential drng ~mean:(float_of_int think)));
      do_op ctx client conns.(!k mod n) ~stream:(!k land 7) ~bytes:sizes.(((7 * i) + !k) mod 100);
      incr k
    done;
    for r = 0 to storms - 1 do
      let sel j = j mod cfg.close_every = (r + i) mod cfg.close_every in
      for j = 0 to n - 1 do
        if sel j then PE.close ctx conns.(j)
      done;
      Cpu.Thread.sleep ctx (Time.us 50);
      for j = 0 to n - 1 do
        if sel j then begin
          conns.(j) <- dial j;
          do_op ctx client conns.(j) ~stream:0 ~bytes:64
        end
      done
    done;
    incr finished
  in
  for i = 0 to n - 1 do
    ignore (Snap.Host.spawn_app h_cli ~name:(Printf.sprintf "req%d" i) (requester i))
  done;
  ignore
    (Sim.Loop.at loop setup_end (fun () ->
         live_at_setup :=
           Array.fold_left
             (fun acc row ->
               Array.fold_left
                 (fun acc c -> if PE.conn_state c = PE.Established then acc + 1 else acc)
                 acc row)
             0 conn_tab));
  {
    Harness.loop;
    fabric;
    hosts = [ h_cli; h_srv ];
    setup_end;
    window = (w0, w1);
    drain_end;
    meter = m;
    checks =
      (fun () ->
        [
          ("conns_established", !live_at_setup = n * n);
          ("requesters_finished", !finished = n);
          ("payload_delivered", !delivered = !sent);
        ]);
  }
