module Time = Sim.Time
module Loop = Sim.Loop
module Packet = Memory.Packet

let batch = 16
let per_packet_cost = Time.ns 150

type Packet.payload += Vnet of { src_vip : int; dst_vip : int }

type guest = {
  vip : int;
  tx : Packet.t Squeue.Spsc.t;
  rx : Packet.t Squeue.Spsc.t;
  c_drops : Stats.Counter.t;  (* full-ring losses, either direction *)
}

type t = {
  lp : Loop.t;
  nic : Nic.t;
  rxq : int;
  eng : Engine.t;
  routes : (int, Packet.addr) Hashtbl.t;
  guests : (int, guest) Hashtbl.t;
  mutable guest_list : guest list;
  gen : Packet.Id_gen.t;
  (* This instance's counters; the registry names the latest vswitch on
     a host address. *)
  c_forwarded : Stats.Counter.t;
  c_unroutable : Stats.Counter.t;
  c_to_guests : Stats.Counter.t;
}

let host_labels t = [ ("host", string_of_int (Nic.addr t.nic)) ]

let run t () =
  let cost = ref Time.zero in
  let work = ref 0 in
  (* Guest -> NIC: rewrite virtual destination to physical host. *)
  List.iter
    (fun g ->
      let n = ref 0 in
      let go = ref true in
      while !go && !n < batch do
        match Squeue.Spsc.pop g.tx with
        | Some pkt -> (
            incr n;
            incr work;
            cost := Time.add !cost per_packet_cost;
            match pkt.Packet.payload with
            | Vnet { dst_vip; _ } -> (
                match Hashtbl.find_opt t.routes dst_vip with
                | Some host ->
                    let phys = { pkt with Packet.dst = host } in
                    if Nic.try_transmit t.nic phys then
                      Stats.Counter.incr t.c_forwarded
                    else Stats.Counter.incr t.c_unroutable
                | None -> Stats.Counter.incr t.c_unroutable)
            | _ -> Stats.Counter.incr t.c_unroutable)
        | None -> go := false
      done)
    t.guest_list;
  (* NIC -> guest: demultiplex on destination VIP. *)
  let ring = Nic.rx_ring t.nic ~queue:t.rxq in
  let n = ref 0 in
  let go = ref true in
  while !go && !n < batch do
    match Squeue.Spsc.pop ring with
    | Some pkt -> (
        incr n;
        incr work;
        cost := Time.add !cost per_packet_cost;
        match pkt.Packet.payload with
        | Vnet { dst_vip; _ } -> (
            match Hashtbl.find_opt t.guests dst_vip with
            | Some g ->
                if Squeue.Spsc.push g.rx ~now:(Loop.now t.lp) pkt then
                  Stats.Counter.incr t.c_to_guests
                else
                  (* Guest's receive ring is full: the packet is lost at
                     the port, exactly the drop the per-port counter is
                     for. *)
                  Stats.Counter.incr g.c_drops
            | None -> Stats.Counter.incr t.c_unroutable)
        | _ -> ())
    | None -> go := false
  done;
  if !work = 0 then Engine.no_work else Engine.worked !cost

let create ~loop ~nic ~group ~rx_queue () =
  let t_ref = ref None in
  let eng =
    Engine.create ~name:"vswitch"
      ~run:(fun () ->
        match !t_ref with Some t -> run t () | None -> Engine.no_work)
      ~queue_delay:(fun now ->
        match !t_ref with
        | Some t ->
            let ring_age =
              Squeue.Spsc.oldest_age (Nic.rx_ring t.nic ~queue:t.rxq) ~now
            in
            List.fold_left
              (fun acc g -> Time.max acc (Squeue.Spsc.oldest_age g.tx ~now))
              ring_age t.guest_list
        | None -> 0)
      ()
  in
  let labels = [ ("host", string_of_int (Nic.addr nic)) ] in
  let t =
    {
      lp = loop;
      nic;
      rxq = rx_queue;
      eng;
      routes = Hashtbl.create 16;
      guests = Hashtbl.create 16;
      guest_list = [];
      gen = Packet.Id_gen.create ();
      c_forwarded = Stats.Registry.counter ~labels "vswitch_forwarded";
      c_unroutable = Stats.Registry.counter ~labels "vswitch_unroutable";
      c_to_guests = Stats.Registry.counter ~labels "vswitch_to_guests";
    }
  in
  t_ref := Some t;
  Engine.add group eng;
  (* Wake the engine when guest-bound traffic lands on its ring. *)
  Nic.set_rx_notify nic ~queue:rx_queue (Nic.Soft (fun () -> Engine.notify eng));
  t

let add_guest t ~vip =
  let labels = host_labels t @ [ ("port", string_of_int vip) ] in
  let g =
    {
      vip;
      tx = Squeue.Spsc.create ~capacity:1024 ();
      rx = Squeue.Spsc.create ~capacity:1024 ();
      c_drops = Stats.Registry.counter ~labels "vswitch_port_drops";
    }
  in
  ignore
    (Stats.Registry.gauge_fn ~labels "vswitch_port_depth" (fun () ->
         float_of_int (Squeue.Spsc.length g.tx + Squeue.Spsc.length g.rx)));
  Hashtbl.replace t.guests vip g;
  t.guest_list <- t.guest_list @ [ g ];
  g

let add_route t ~vip ~host = Hashtbl.replace t.routes vip host

let guest_transmit t g ~dst_vip ~bytes =
  let pkt =
    Packet.make
      ~id:(Packet.Id_gen.next t.gen)
      ~src:(Nic.addr t.nic) ~dst:0 ~flow_hash:(g.vip * 1021)
      ~qos:3
      ~wire_bytes:(Int.min (Nic.mtu t.nic) (bytes + 60))
      ~payload_bytes:bytes
      (Vnet { src_vip = g.vip; dst_vip })
      ()
  in
  let ok = Squeue.Spsc.push g.tx ~now:(Loop.now t.lp) pkt in
  if ok then Engine.notify t.eng else Stats.Counter.incr g.c_drops;
  ok

let forwarded t = Stats.Counter.value t.c_forwarded
let unroutable t = Stats.Counter.value t.c_unroutable
