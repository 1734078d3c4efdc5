type addr = int
type payload = ..
type payload += Empty

type t = {
  id : int;
  src : addr;
  dst : addr;
  flow_hash : int;
  qos : int;
  wire_bytes : int;
  payload_bytes : int;
  payload : payload;
  mutable sent_at : Sim.Time.t;
  mutable corrupted : bool;
}

let make ~id ~src ~dst ?(flow_hash = 0) ?(qos = 0) ~wire_bytes ?(payload_bytes = 0)
    payload () =
  if wire_bytes <= 0 then invalid_arg "Packet.make: wire_bytes";
  {
    id;
    src;
    dst;
    flow_hash;
    qos;
    wire_bytes;
    payload_bytes;
    payload;
    sent_at = 0;
    corrupted = false;
  }

let none =
  {
    id = -1;
    src = -1;
    dst = -1;
    flow_hash = 0;
    qos = 0;
    wire_bytes = 0;
    payload_bytes = 0;
    payload = Empty;
    sent_at = 0;
    corrupted = false;
  }

module Id_gen = struct
  type packet = t
  type t = { mutable next_id : int }

  let create () = { next_id = 0 }

  let next t =
    let id = t.next_id in
    t.next_id <- id + 1;
    id
end
