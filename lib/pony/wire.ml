type flow_key = {
  src_host : Memory.Packet.addr;
  src_engine : int;
  dst_host : Memory.Packet.addr;
  dst_engine : int;
}

let reverse k =
  {
    src_host = k.dst_host;
    src_engine = k.dst_engine;
    dst_host = k.src_host;
    dst_engine = k.src_engine;
  }

type conn_key = {
  initiator_host : Memory.Packet.addr;
  initiator_client : int;
  target_host : Memory.Packet.addr;
  target_client : int;
  session : int;
}

type one_sided =
  | Read of { region : int; off : int; len : int }
  | Write of { region : int; off : int; len : int }
  | Indirect_read of {
      table_region : int;
      data_region : int;
      indices : int list;
      len : int;
    }
  | Scan_read of {
      region : int;
      scan_limit : int;
      needle : int64;
      len : int;
    }

type status =
  | Ok
  | Bad_region
  | Bad_range
  | No_match
  | Not_permitted
  | Rejected
  | Timed_out
  | Busy
  | Peer_dead

let status_to_string = function
  | Ok -> "ok"
  | Bad_region -> "bad_region"
  | Bad_range -> "bad_range"
  | No_match -> "no_match"
  | Not_permitted -> "not_permitted"
  | Rejected -> "rejected"
  | Timed_out -> "timed_out"
  | Busy -> "busy"
  | Peer_dead -> "peer_dead"

type item =
  | Msg_chunk of {
      conn : conn_key;
      op_id : int;
      stream : int;
      offset : int;
      len : int;
      total : int;
    }
  | One_sided_req of { conn : conn_key; op_id : int; op : one_sided }
  | One_sided_resp of {
      conn : conn_key;
      op_id : int;
      status : status;
      chunk_offset : int;
      chunk_len : int;
      total : int;
      value : int64 option;
    }
  | Credit_grant of { conn : conn_key; bytes : int }
  | Busy_nack of { conn : conn_key; op_id : int; bytes : int }
  | Conn_reset of { conn : conn_key }
  | Keepalive of { conn : conn_key }
  | Keepalive_ack of { conn : conn_key }
  | Bare_ack

type Memory.Packet.payload +=
  | Pony of {
      flow : flow_key;
      seq : int;
      ack : int;
      wnd : int;
      ts : Sim.Time.t;
      ts_echo : Sim.Time.t;
      version : int;
      inc : int;
      item : item;
    }

(* Ethernet(14) + IP(20) + Pony flow header(24). *)
let header_bytes = 58
let current_version = 7
let supported_versions = [ 5; 6; 7 ]

let negotiate a b =
  let common = List.filter (fun v -> List.mem v b) a in
  match List.sort compare common with
  | [] -> None
  | l -> Some (List.nth l (List.length l - 1))

(* Attribution key of the op an item belongs to, from the point of view
   of a packet leaving [src_host].  Requests travel origin -> peer, so
   the sender is the op's origin; responses and NACKs travel back, so
   the origin is the destination.  Items without an op (credit, resets,
   keepalives, bare acks) have no key. *)
let op_key_of_item ~src_host item =
  let key conn op_id ~origin_is_src =
    let src_is_init = conn.initiator_host = src_host in
    let origin_is_init = if origin_is_src then src_is_init else not src_is_init in
    if origin_is_init then
      Some
        {
          Sim.Optrace.k_origin = conn.initiator_host;
          k_origin_client = conn.initiator_client;
          k_peer = conn.target_host;
          k_session = conn.session;
          k_origin_init = true;
          k_op = op_id;
        }
    else
      Some
        {
          Sim.Optrace.k_origin = conn.target_host;
          k_origin_client = conn.target_client;
          k_peer = conn.initiator_host;
          k_session = conn.session;
          k_origin_init = false;
          k_op = op_id;
        }
  in
  match item with
  | Msg_chunk { conn; op_id; _ } -> key conn op_id ~origin_is_src:true
  | One_sided_req { conn; op_id; _ } -> key conn op_id ~origin_is_src:true
  | One_sided_resp { conn; op_id; _ } -> key conn op_id ~origin_is_src:false
  | Busy_nack { conn; op_id; _ } -> key conn op_id ~origin_is_src:false
  | Credit_grant _ | Conn_reset _ | Keepalive _ | Keepalive_ack _ | Bare_ack ->
      None

let item_wire_bytes = function
  | Msg_chunk _ -> 24
  | One_sided_req { op; _ } -> (
      16
      +
      match op with
      | Read _ | Write _ -> 16
      | Indirect_read { indices; _ } -> 8 + (8 * List.length indices)
      | Scan_read _ -> 24)
  | One_sided_resp _ -> 24
  | Credit_grant _ -> 12
  | Busy_nack _ -> 12
  | Conn_reset _ -> 8
  | Keepalive _ -> 8
  | Keepalive_ack _ -> 8
  | Bare_ack -> 0
