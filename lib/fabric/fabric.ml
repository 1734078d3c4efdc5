module Time = Sim.Time
module Loop = Sim.Loop
module Packet = Memory.Packet

(* One-way host-to-switch propagation. *)
let propagation = Time.ns 500

(* Forwarding latency per packet. *)
let switch_latency = Time.ns 300

(* Uplink to egress enqueue. *)
let transit = Time.add propagation switch_latency

(* Number of strict-priority classes (0 = highest). *)
let qos_classes = 4

type config = {
  link_gbps : float;
  egress_buffer_bytes : int;
}

let default_config =
  {
    link_gbps = 100.0;
    egress_buffer_bytes = 1024 * 1024;
  }

type fault_action =
  | Fault_pass
  | Fault_drop
  | Fault_corrupt
  | Fault_delay of Time.t

type port = {
  p_addr : Packet.addr;
  class_queues : Packet.t Queue.t array;
  class_bytes : int array;
  mutable draining : bool;
  mutable on_wire : Packet.t;  (* being serialized, or [Packet.none] *)
  mutable p_drops : int;
  mutable p_max_bytes : int;
}

(* Every per-packet delay is a handler event.  Packets in transit and
   propagation (many pending at once) are parked in [parked] and the
   event carries the handle; a port serializes one packet at a time, so
   that one sits in the port's [on_wire] and the event names the
   port. *)
type t = {
  lp : Loop.t;
  cfg : config;
  ports : port array;
  rx_handlers : (Packet.t -> unit) option array;
  parked : Packet.t Memory.Arena.t;
  on_transit : Loop.handler;  (* arg: parked handle *)
  on_serialized : Loop.handler;  (* arg: port address *)
  on_propagated : Loop.handler;  (* arg: parked handle *)
  mutable n_dropped : int;
  mutable fault_hook : Packet.t -> fault_action;
}

let config t = t.cfg

let attach t ~addr ~rx =
  if addr < 0 || addr >= Array.length t.rx_handlers then
    invalid_arg "Fabric.attach: bad addr";
  match t.rx_handlers.(addr) with
  | Some _ -> invalid_arg "Fabric.attach: already attached"
  | None -> t.rx_handlers.(addr) <- Some rx

let set_fault_hook t hook = t.fault_hook <- hook

let wire_time cfg bytes =
  int_of_float (Float.round (float_of_int bytes *. 8.0 /. cfg.link_gbps))

let deliver t (pkt : Packet.t) =
  match t.rx_handlers.(pkt.Packet.dst) with
  | Some rx -> rx pkt
  | None ->
      t.n_dropped <- t.n_dropped + 1;
      let port = t.ports.(pkt.Packet.dst) in
      port.p_drops <- port.p_drops + 1

(* Strict-priority drain of one egress port: serialize the head packet of
   the highest non-empty class, then propagate it to the host. *)
let drain_port t port =
  let cls = ref 0 in
  while !cls < qos_classes && Queue.is_empty port.class_queues.(!cls) do
    incr cls
  done;
  let cls = !cls in
  if cls = qos_classes then port.draining <- false
  else begin
    port.draining <- true;
    let pkt = Queue.take port.class_queues.(cls) in
    port.class_bytes.(cls) <- port.class_bytes.(cls) - pkt.Packet.wire_bytes;
    port.on_wire <- pkt;
    ignore
      (Loop.after_h t.lp (wire_time t.cfg pkt.Packet.wire_bytes)
         t.on_serialized port.p_addr)
  end

let serialized t addr =
  let port = t.ports.(addr) in
  let pkt = port.on_wire in
  port.on_wire <- Packet.none;
  ignore
    (Loop.after_h t.lp propagation t.on_propagated
       (Memory.Arena.alloc t.parked pkt));
  drain_port t port

let propagated t h =
  match Memory.Arena.take t.parked h with
  | Some pkt -> deliver t pkt
  | None -> ()

let rec enqueue_egress t (pkt : Packet.t) =
  let port = t.ports.(pkt.Packet.dst) in
  match t.fault_hook pkt with
  | Fault_drop -> port.p_drops <- port.p_drops + 1
  | Fault_delay d ->
      ignore (Loop.after t.lp d (fun () -> enqueue_port t port pkt))
  | Fault_corrupt ->
      pkt.Packet.corrupted <- true;
      enqueue_port t port pkt
  | Fault_pass -> enqueue_port t port pkt

and enqueue_port t port (pkt : Packet.t) =
  let cls =
    let c = pkt.Packet.qos in
    if c < 0 then 0 else if c >= qos_classes then qos_classes - 1 else c
  in
  if port.class_bytes.(cls) + pkt.Packet.wire_bytes > t.cfg.egress_buffer_bytes
  then begin
    t.n_dropped <- t.n_dropped + 1;
    port.p_drops <- port.p_drops + 1
  end
  else begin
    Queue.add pkt port.class_queues.(cls);
    port.class_bytes.(cls) <- port.class_bytes.(cls) + pkt.Packet.wire_bytes;
    let depth = Array.fold_left ( + ) 0 port.class_bytes in
    if depth > port.p_max_bytes then port.p_max_bytes <- depth;
    if not port.draining then drain_port t port
  end

let send t (pkt : Packet.t) =
  if pkt.Packet.dst < 0 || pkt.Packet.dst >= Array.length t.ports then
    invalid_arg "Fabric.send: bad dst";
  ignore
    (Loop.after_h t.lp transit t.on_transit (Memory.Arena.alloc t.parked pkt))

let transited t h =
  match Memory.Arena.take t.parked h with
  | Some pkt -> enqueue_egress t pkt
  | None -> ()

let create ~loop ~config ~hosts =
  if hosts <= 0 then invalid_arg "Fabric.create: hosts";
  let self = ref None in
  let on f =
    Loop.handler loop (fun a -> match !self with Some t -> f t a | None -> ())
  in
  let t =
    {
      lp = loop;
      cfg = config;
      ports =
        Array.init hosts (fun p_addr ->
            {
              p_addr;
              class_queues = Array.init qos_classes (fun _ -> Queue.create ());
              class_bytes = Array.make qos_classes 0;
              draining = false;
              on_wire = Packet.none;
              p_drops = 0;
              p_max_bytes = 0;
            });
      rx_handlers = Array.make hosts None;
      parked = Memory.Arena.create ();
      on_transit = on transited;
      on_serialized = on serialized;
      on_propagated = on propagated;
      n_dropped = 0;
      fault_hook = (fun _ -> Fault_pass);
    }
  in
  self := Some t;
  t

let dropped t = t.n_dropped

let port_drops t ~addr = t.ports.(addr).p_drops
let port_max_queue_bytes t ~addr = t.ports.(addr).p_max_bytes
