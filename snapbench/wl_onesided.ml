(* onesided: the batched indirect read service of Fig. 8.

   [n_clients] client hosts each keep [outstanding] indirect reads in
   flight (closed loop), each resolving [batch] - 2 to [batch] indices of
   [read_bytes] (count and indices drawn from the seed) against one
   server whose single dedicated engine core executes them; no server
   app runs.  Varying the batch keeps the server's FIFO from giving
   every read the same latency.  These are the smallest packets,
   so per-op cost dominates.  The data region is backed, so every read's
   first value is checked against the table it was resolved through. *)

module Time = Sim.Time
module PE = Pony.Express

type config = { warmup : Time.t; window : Time.t }

let full = { warmup = Time.ms 2; window = Time.ms 100 }
let small = { warmup = Time.us 200; window = Time.us 500 }
let n_clients = 4
let outstanding = 32
let batch = 8
let read_bytes = 64
let setup_end = Time.ms 1
let table_bytes = 1 lsl 20
let data_bytes = 1 lsl 20

(* [smoke] picks the small configuration the smoke test runs. *)
let scenario ~smoke ~seed : Harness.scenario =
  let cfg = if smoke then small else full in
  let loop = Sim.Loop.create ~seed () in
  let fabric = Fabric.create ~loop ~config:Fabric.default_config ~hosts:(n_clients + 1) in
  let dir = PE.Directory.create () in
  let mk addr =
    Snap.Host.create ~loop ~fabric ~directory:dir ~addr
      ~mode:(Engine.Dedicating { cores = 1 })
      ()
  in
  let server = mk 0 in
  let clients = List.init n_clients (fun i -> mk (i + 1)) in
  let rng = Sim.Loop.rng loop in
  (* The table maps each index to a seed-chosen 8-aligned data offset;
     data words are distinct, so a wrong indirection reads a wrong value. *)
  let table = Memory.Region.create ~backed:true ~id:1 ~size:table_bytes ~owner:"svc" () in
  let data = Memory.Region.create ~backed:true ~id:2 ~size:data_bytes ~owner:"svc" () in
  let entries = table_bytes / 8 in
  let words = (data_bytes - read_bytes) / 8 in
  let trng = Sim.Rng.split rng in
  for i = 0 to entries - 1 do
    Memory.Region.write_int64 table (8 * i) (Int64.of_int (8 * Sim.Rng.int trng words))
  done;
  for w = 0 to (data_bytes / 8) - 1 do
    Memory.Region.write_int64 data (8 * w) (Int64.of_int ((w * 2654435761) land 0xFFFF_FFFF))
  done;
  let expected idx = Memory.Region.read_int64 data (Int64.to_int (Memory.Region.read_int64 table (8 * idx))) in
  ignore
    (Snap.Host.spawn_app server ~name:"svc" (fun ctx ->
         let c = PE.create_client ctx server.Snap.Host.pony ~name:"svc" () in
         PE.register_region ctx c table;
         PE.register_region ctx c data));
  let w0 = Time.add setup_end cfg.warmup in
  let w1 = Time.add w0 cfg.window in
  let in_window t = t >= w0 && t < w1 in
  let m = Harness.meter () in
  let connected = ref 0 and conns_up = ref false in
  let wrong_values = ref 0 in
  let bytes_returned = ref 0 and bytes_requested = ref 0 in
  List.iteri
    (fun i h ->
      let crng = Sim.Rng.split rng in
      let name = Printf.sprintf "client%d" i in
      ignore
        (Snap.Host.spawn_app h ~name ~spin:true (fun ctx ->
             let c = PE.create_client ctx h.Snap.Host.pony ~name () in
             Cpu.Thread.sleep ctx (Time.us 100);
             let conn = PE.connect_by_name ctx c ~dst_host:0 ~dst_name:"svc" in
             incr connected;
             Cpu.Thread.sleep ctx (Time.sub setup_end (Cpu.Thread.now ctx));
             (* op id -> first index of its batch *)
             let first : (int, int) Hashtbl.t = Hashtbl.create 64 in
             let send () =
               let k = batch - Sim.Rng.int crng 3 in
               let indices = List.init k (fun _ -> Sim.Rng.int crng entries) in
               let id =
                 PE.indirect_read ctx conn ~table_region:1 ~data_region:2 ~indices
                   ~len:read_bytes
               in
               Hashtbl.replace first id (List.hd indices);
               bytes_requested := !bytes_requested + (k * read_bytes);
               m.attempted <- m.attempted + 1
             in
             let complete (comp : PE.completion) =
               let idx = Hashtbl.find first comp.PE.comp_op in
               Hashtbl.remove first comp.PE.comp_op;
               if comp.PE.status = Pony.Wire.Ok then begin
                 if comp.PE.value <> Some (expected idx) then incr wrong_values
                 else begin
                   m.ok <- m.ok + 1;
                   bytes_returned := !bytes_returned + comp.PE.bytes;
                   let t = comp.PE.completed_at in
                   if in_window t then begin
                     m.ops <- m.ops + 1;
                     m.bytes <- m.bytes + comp.PE.bytes;
                     Stats.Histogram.record m.lat (t - comp.PE.issued_at)
                   end;
                   Harness.op_span loop ~track:name ~due:comp.PE.issued_at
                     ~sent:comp.PE.issued_at ~completed:t
                 end
               end
             in
             for _ = 1 to outstanding do
               send ()
             done;
             while Cpu.Thread.now ctx < w1 do
               complete (PE.await_completion ctx c);
               send ()
             done;
             while Hashtbl.length first > 0 do
               complete (PE.await_completion ctx c)
             done)))
    clients;
  ignore (Sim.Loop.at loop setup_end (fun () -> conns_up := !connected = n_clients));
  {
    Harness.loop;
    fabric;
    hosts = server :: clients;
    setup_end;
    window = (w0, w1);
    drain_end = Time.add w1 (Time.ms 1);
    meter = m;
    checks =
      (fun () ->
        [
          ("conns_established", !conns_up);
          ("read_values_match_table", !wrong_values = 0);
          ("payload_delivered", !bytes_returned = !bytes_requested);
        ]);
  }
