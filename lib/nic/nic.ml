module Time = Sim.Time
module Loop = Sim.Loop
module Packet = Memory.Packet

(* Wire to rx-ring visibility (DMA, PCIe). *)
let rx_latency = Time.us 1

(* Descriptor post to wire start. *)
let tx_latency = Time.us 1

let rx_ring_slots = 4096
let tx_ring_slots = 1024

type config = { mtu : int; num_rx_queues : int }

let default_config = { mtu = 5000; num_rx_queues = 8 }

type rx_notify =
  | No_notify
  | Kick of Cpu.Sched.task
  | Interrupt of (unit -> unit)
  | Soft of (unit -> unit)

type rx_queue = {
  ring : Packet.t Squeue.Spsc.t;
  mutable notify : rx_notify;
  mutable irq_armed : bool;
  mutable pending_while_disarmed : bool;
  mutable stalled_until : Time.t;
}

(* Every per-packet delay is a handler event.  Packets in the DMA
   latencies (many pending at once) are parked in [parked] and the event
   carries the handle; the one packet being serialized sits in
   [tx_wire], since at most one serialization is pending. *)
type t = {
  lp : Loop.t;
  machine : Cpu.Sched.machine;
  fabric : Fabric.t;
  nic_addr : Packet.addr;
  cfg : config;
  rx_queues : rx_queue array;
  mutable steer : Packet.t -> int;
  (* Transmit ring: packets waiting for the wire. *)
  tx_ring : Packet.t Queue.t;
  mutable tx_in_flight : int;  (* posted but not yet on the wire *)
  mutable tx_busy : bool;
  mutable tx_wire : Packet.t;  (* being serialized, or [Packet.none] *)
  mutable tx_drain_hook : unit -> unit;
  parked : Packet.t Memory.Arena.t;
  on_rx : Loop.handler;  (* arg: parked handle *)
  on_tx_post : Loop.handler;  (* arg: parked handle *)
  on_tx_wire : Loop.handler;  (* arg unused *)
  mutable n_tx : int;
  mutable n_rx_dropped : int;
  mutable n_rx_stalled : int;
}

let gbps t = (Fabric.config t.fabric).Fabric.link_gbps

let wire_time t bytes =
  int_of_float (Float.round (float_of_int bytes *. 8.0 /. gbps t))

let notify_rx t q =
  match q.notify with
  | No_notify -> ()
  | Kick task -> Cpu.Sched.kick task
  | Interrupt handler ->
      if q.irq_armed then begin
        q.irq_armed <- false;
        Cpu.Sched.interrupt t.machine
          ~cost:Sim.Costs.default.interrupt_cpu handler
      end
      else q.pending_while_disarmed <- true
  | Soft f -> f ()

let rx_post t q (pkt : Packet.t) =
  if Squeue.Spsc.push q.ring ~now:(Loop.now t.lp) pkt then notify_rx t q
  else t.n_rx_dropped <- t.n_rx_dropped + 1

let receive t (pkt : Packet.t) =
  ignore
    (Loop.after_h t.lp rx_latency t.on_rx (Memory.Arena.alloc t.parked pkt))

let rx_arrive t h =
  match Memory.Arena.take t.parked h with
  | None -> ()
  | Some pkt ->
      let qi = t.steer pkt in
      let qi = if qi < 0 || qi >= t.cfg.num_rx_queues then 0 else qi in
      let q = t.rx_queues.(qi) in
      if Loop.now t.lp < q.stalled_until then begin
        (* Queue stalled (fault injection): the DMA write is held back
           until the stall lifts; arrival order within the queue is
           preserved by the loop's FIFO tie-break. *)
        t.n_rx_stalled <- t.n_rx_stalled + 1;
        ignore (Loop.at t.lp q.stalled_until (fun () -> rx_post t q pkt))
      end
      else rx_post t q pkt

(* Serialize queued packets onto the wire one at a time at link rate. *)
let tx_drain t =
  if Queue.is_empty t.tx_ring then t.tx_busy <- false
  else begin
    let pkt = Queue.take t.tx_ring in
    t.tx_busy <- true;
    t.tx_wire <- pkt;
    ignore (Loop.after_h t.lp (wire_time t pkt.Packet.wire_bytes) t.on_tx_wire 0)
  end

let tx_on_wire t (_ : int) =
  let pkt = t.tx_wire in
  t.tx_wire <- Packet.none;
  pkt.Packet.sent_at <- Loop.now t.lp;
  t.tx_in_flight <- t.tx_in_flight - 1;
  t.n_tx <- t.n_tx + 1;
  Fabric.send t.fabric pkt;
  t.tx_drain_hook ();
  tx_drain t

let tx_posted t h =
  match Memory.Arena.take t.parked h with
  | None -> ()
  | Some pkt ->
      Queue.add pkt t.tx_ring;
      if not t.tx_busy then tx_drain t

let create ~loop ~machine ~fabric ~addr (config : config) =
  if config.num_rx_queues <= 0 then invalid_arg "Nic.create: num_rx_queues";
  let self = ref None in
  let on f =
    Loop.handler loop (fun a -> match !self with Some t -> f t a | None -> ())
  in
  let t =
    {
      lp = loop;
      machine;
      fabric;
      nic_addr = addr;
      cfg = config;
      rx_queues =
        Array.init config.num_rx_queues (fun _ ->
            {
              ring = Squeue.Spsc.create ~capacity:rx_ring_slots ();
              notify = No_notify;
              irq_armed = true;
              pending_while_disarmed = false;
              stalled_until = 0;
            });
      steer = (fun pkt -> pkt.Packet.flow_hash mod config.num_rx_queues);
      tx_ring = Queue.create ();
      tx_in_flight = 0;
      tx_busy = false;
      tx_wire = Packet.none;
      tx_drain_hook = (fun () -> ());
      parked = Memory.Arena.create ();
      on_rx = on rx_arrive;
      on_tx_post = on tx_posted;
      on_tx_wire = on tx_on_wire;
      n_tx = 0;
      n_rx_dropped = 0;
      n_rx_stalled = 0;
    }
  in
  self := Some t;
  Fabric.attach fabric ~addr ~rx:(receive t);
  t

let addr t = t.nic_addr
let mtu t = t.cfg.mtu
let config t = t.cfg

let set_rx_notify t ~queue notify =
  let q = t.rx_queues.(queue) in
  q.notify <- notify

let rearm_rx_interrupt t ~queue =
  let q = t.rx_queues.(queue) in
  q.irq_armed <- true;
  if q.pending_while_disarmed && not (Squeue.Spsc.is_empty q.ring) then begin
    q.pending_while_disarmed <- false;
    notify_rx t q
  end
  else q.pending_while_disarmed <- false

let rx_ring t ~queue = t.rx_queues.(queue).ring

let install_steering t steer = t.steer <- steer

let stall_rx t ~queue ~until =
  if queue < 0 || queue >= t.cfg.num_rx_queues then
    invalid_arg "Nic.stall_rx: bad queue";
  let q = t.rx_queues.(queue) in
  q.stalled_until <- Time.max q.stalled_until until

let tx_slots_free t = tx_ring_slots - t.tx_in_flight

let try_transmit t pkt =
  if pkt.Packet.wire_bytes > t.cfg.mtu then
    invalid_arg "Nic.try_transmit: packet exceeds MTU";
  if t.tx_in_flight >= tx_ring_slots then false
  else begin
    t.tx_in_flight <- t.tx_in_flight + 1;
    ignore
      (Loop.after_h t.lp tx_latency t.on_tx_post
         (Memory.Arena.alloc t.parked pkt));
    true
  end

let set_tx_drain_hook t hook = t.tx_drain_hook <- hook
let link_gbps t = gbps t
let tx_count t = t.n_tx
let rx_dropped t = t.n_rx_dropped
let rx_stalled t = t.n_rx_stalled

module Copy_engine = struct
  type job = { bytes : int; on_complete : unit -> unit }

  (* 30 GB/s. *)
  let bandwidth_gbps = 240.0

  type ce = {
    ce_lp : Loop.t;
    jobs : job Queue.t;
    mutable busy : bool;
  }

  let create ~loop () = { ce_lp = loop; jobs = Queue.create (); busy = false }

  let rec drain t =
    match Queue.take_opt t.jobs with
    | None -> t.busy <- false
    | Some job ->
        t.busy <- true;
        let dur =
          int_of_float
            (Float.round (float_of_int job.bytes *. 8.0 /. bandwidth_gbps))
        in
        ignore
          (Loop.after t.ce_lp dur (fun () ->
               job.on_complete ();
               drain t))

  let submit t ~bytes ~on_complete =
    if bytes < 0 then invalid_arg "Copy_engine.submit";
    Queue.add { bytes; on_complete } t.jobs;
    if not t.busy then drain t
end
