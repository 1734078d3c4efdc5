(** Pony Express wire protocol (§3.1).

    The transport splits into two layers: a lower layer of reliable
    {e flows} between a pair of engines, and an upper layer of
    application-level operations multiplexed onto flows by a flow
    mapper.  This module defines the on-wire representation shared by
    both: flow addressing, packet items, and protocol versioning. *)

(** A flow connects one engine on one host to one engine on another. *)
type flow_key = {
  src_host : Memory.Packet.addr;
  src_engine : int;
  dst_host : Memory.Packet.addr;
  dst_engine : int;
}

val reverse : flow_key -> flow_key

(** An application-level connection between two clients, carried by a
    flow.  [session] is a per-instance id chosen at connect time (both
    halves share it via the out-of-band setup): a re-dial between the
    same client pair gets a fresh session, so items still in flight
    from a dead predecessor can never alias the successor — they miss
    the connection table and draw a reset instead. *)
type conn_key = {
  initiator_host : Memory.Packet.addr;
  initiator_client : int;
  target_host : Memory.Packet.addr;
  target_client : int;
  session : int;
}

(** One-sided operation request bodies (§3.2).  These execute entirely
    within the remote engine against client-registered regions. *)
type one_sided =
  | Read of { region : int; off : int; len : int }
  | Write of { region : int; off : int; len : int }
  | Indirect_read of {
      table_region : int;
      data_region : int;
      indices : int list;
      len : int;
    }
      (** Consults an application-filled indirection table (of 8-byte
          offsets) in [table_region]; fetches [len] bytes at each
          resolved offset.  Batching several indices in one request is
          the "batched indirect read" that Figure 8's analytics service
          uses. *)
  | Scan_read of {
      region : int;
      scan_limit : int;  (** Bytes of the region to scan. *)
      needle : int64;
      len : int;
    }  (** Scan-and-read: match an 8-byte needle in a small
          application-shared region, then fetch [len] bytes at the
          offset stored next to the match. *)

type status =
  | Ok
  | Bad_region
  | Bad_range
  | No_match
  | Not_permitted
  | Rejected
      (** Refused by admission control before reaching an engine: the
          client is over its op/byte quota, rate limit, or the op pool
          is exhausted.  Overload answers with a status, never an
          exception into the hot path. *)
  | Timed_out
      (** The op's deadline expired before the engine started it; shed
          at dequeue. *)
  | Busy
      (** NACKed by the destination: the target client's incoming
          queue was full.  The transport returned the op's flow-control
          credit; retry after backoff. *)
  | Peer_dead
      (** The connection's remote endpoint is gone: declared dead by
          the keepalive miss budget, torn down by a [Conn_reset], or
          lost to a host crash.  Every op stranded on such a
          connection completes with this status — no op ever hangs
          forever on a dead peer. *)

val status_to_string : status -> string

(** Payload items carried by flow packets. *)
type item =
  | Msg_chunk of {
      conn : conn_key;
      op_id : int;
      stream : int;
      offset : int;
      len : int;
      total : int;
    }  (** A piece of a two-sided message on a stream (§3.3). *)
  | One_sided_req of { conn : conn_key; op_id : int; op : one_sided }
  | One_sided_resp of {
      conn : conn_key;
      op_id : int;
      status : status;
      chunk_offset : int;
      chunk_len : int;
      total : int;
      value : int64 option;
          (** First 8 bytes of the read result, for correctness checks
              against backed regions. *)
    }
  | Credit_grant of { conn : conn_key; bytes : int }
      (** Receiver-driven flow control replenishment (§3.3). *)
  | Busy_nack of { conn : conn_key; op_id : int; bytes : int }
      (** Fast-path NACK: the destination client's incoming queue was
          full, so the message was shed at delivery.  Returns the op's
          [bytes] of connection credit and completes the op with
          {!Busy} at the initiator. *)
  | Conn_reset of { conn : conn_key }
      (** The sender no longer has (or wants) this connection: sent on
          explicit close and in reply to traffic for an unknown or dead
          connection.  The receiver transitions its half to [Dead] and
          fails stranded ops with {!Peer_dead}. *)
  | Keepalive of { conn : conn_key }
      (** Liveness probe sent on an idle connection; the peer answers
          with {!Keepalive_ack}.  Any traffic for the connection counts
          as life — probes only fill silence. *)
  | Keepalive_ack of { conn : conn_key }  (** Answer to {!Keepalive}. *)
  | Bare_ack  (** No upper-layer payload; acks/timestamps only. *)

type Memory.Packet.payload +=
  | Pony of {
      flow : flow_key;
      seq : int;  (** Packet sequence number within the flow. *)
      ack : int;  (** Cumulative ack of the reverse direction. *)
      wnd : int;
          (** Advertised receive window, in packets: how much new
              flight the receiving engine invites, derived from its
              rx-ring and op-pool occupancy.  Rides in a reserved field
              of the existing 24-byte flow header, so [header_bytes] is
              unchanged.  Senders cap their flight at the latest value;
              zero quenches the flow until reopened (or probed). *)
      ts : Sim.Time.t;  (** Sender timestamp (for Timely RTT). *)
      ts_echo : Sim.Time.t;  (** Echoed timestamp of the acked packet. *)
      version : int;  (** Wire protocol version (§3.1). *)
      inc : int;
          (** Sender host incarnation.  Bumped when the host restarts
              after a crash; receivers drop packets stamped with a
              stale incarnation (no resurrecting pre-crash flows) and
              treat a newer one as proof the peer restarted. *)
      item : item;
    }

val header_bytes : int
(** Ethernet + IP + Pony flow header. *)

val current_version : int

val supported_versions : int list
(** Versions this release can speak; the out-of-band negotiation picks
    the least common denominator (§3.1). *)

val negotiate : int list -> int list -> int option
(** Highest version present in both lists. *)

val item_wire_bytes : item -> int
(** Extra header bytes the item contributes beyond payload. *)

val op_key_of_item :
  src_host:Memory.Packet.addr -> item -> Sim.Optrace.key option
(** Latency-attribution key of the op the item belongs to, given the
    host the packet leaves from.  Requests ([Msg_chunk],
    [One_sided_req]) originate at the sender; responses
    ([One_sided_resp], [Busy_nack]) at the destination.  [None] for
    items with no op (credit, resets, keepalives, bare acks). *)
