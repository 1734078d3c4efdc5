(** Pony Express: Snap's reliable transport and communications stack
    (§3).

    One [Pony.t] per host owns that host's Pony engines, loaded into a
    caller-supplied engine group (so any of the three scheduling modes
    applies).  Applications attach as {e clients}: the control plane
    authenticates them and bootstraps shared-memory command/completion
    queues; operations are asynchronous commands, completions are polled
    or awaited.  Two-sided messaging and one-sided operations (read,
    write, indirect read, scan-and-read) are implemented over reliable
    {!Flow}s with Timely congestion control and a flow mapper that
    multiplexes application connections onto engine-pair flows.

    Connection setup uses the out-of-band channel the paper describes
    for version negotiation (§3.1); here it is modeled as a
    control-plane exchange with a fixed latency rather than simulated
    packets. *)

type t
type client
type conn

(** Connection lifecycle (§4.3): [Established] carries traffic;
    [Draining] is a close in progress (credit-waiting ops still drain,
    new sends refuse); [Dead] means the peer was declared gone
    (keepalive miss budget, [Conn_reset], peer restart or host crash)
    and every stranded op has completed [Peer_dead]; [Closed] is a
    completed local close.  Dead/Closed conns remain as tombstones so
    late packets answer with a reset instead of resurrecting state. *)
type conn_state = Established | Draining | Dead | Closed

(** Opt-in dead-peer detection: a conn silent for [ka_interval] is
    probed; the peer is declared dead after [ka_interval *
    (ka_miss_budget + 1)] of silence.  Off by default — a keepalive
    timer keeps an otherwise idle host from quiescing, so only
    workloads that expect peer failure arm it. *)
type keepalive = { ka_interval : Sim.Time.t; ka_miss_budget : int }

(** The bounded-retry backoff policy {!send_with_retry} and
    {!connect_with_retry} consume, re-exported so callers can build
    policies without a direct dependency on the overload library. *)
module Retry = Overload.Retry

(** Cluster-wide name service standing in for the out-of-band (TCP)
    setup channel. *)
module Directory : sig
  type dir

  val create : unit -> dir
end

val create :
  directory:Directory.dir ->
  control:Control.t ->
  machine:Cpu.Sched.machine ->
  nic:Nic.t ->
  group:Engine.group ->
  ?engines:int ->
  ?use_copy_engine:bool ->
  ?wire_versions:int list ->
  ?op_pool_bytes:int ->
  ?keepalive:keepalive ->
  unit ->
  t
(** Instantiate the Pony module on a host with [engines] (default 1)
    pre-loaded shared engines added to [group].  The module takes over
    NIC steering and receive notifications for its packets.
    [use_copy_engine] (default false) offloads receive-side payload
    copies to the I/OAT model (§3.4).  [wire_versions] is the set of
    wire-protocol versions this release speaks; flows to peers negotiate
    the least common denominator, modeling mixed-release fleets during
    the weekly rollout (§3.1).  [op_pool_bytes] (default 1 GiB) sizes
    the host's op-memory pool: admission charges, receive-side
    reassembly state and packet ingest all draw from it, so overload
    surfaces as [Rejected] completions and counted drops instead of
    unbounded memory growth (§2.5, §3.3).  [keepalive] (default off)
    arms per-connection dead-peer detection.  Requires
    [engines <= num NIC rx queues]. *)

(** {1 Host failure (crash / restart)} *)

val crash_host : t -> unit
(** Whole-host failure (the [Fault.Plan.Host_crash] hook): every engine
    detaches, all transport and client state — connections, flows,
    reassembly, in-flight ops, admission and pool charges — is
    destroyed, packets in the NIC rings are lost, and parked
    application threads are woken so they can observe
    [client_alive = false].  Idempotent while down. *)

val restart_host : t -> unit
(** Bring a crashed host back with a {e fresh incarnation number}:
    engines re-attach and packets stamped with the old incarnation are
    rejected by peers ([peer_stale_drops]) rather than resurrecting
    pre-crash flows.  Clients and connections do not survive — the
    application re-creates clients and reconnects. *)

val incarnation : t -> int
val host_alive : t -> bool

val machine : t -> Cpu.Sched.machine
val addr : t -> Memory.Packet.addr
val num_engines : t -> int
val engine_handle : t -> int -> Engine.t
(** The engine-framework handle of the i-th engine (for upgrades,
    steering, telemetry). *)

(** {1 Clients (the Pony Express client library API)} *)

val create_client :
  Cpu.Thread.ctx ->
  t ->
  name:string ->
  ?exclusive_engine:bool ->
  ?max_ops:int ->
  ?max_bytes:int ->
  unit ->
  client
(** Attach an application: authenticates with the control plane and
    sets up command/completion queues over shared memory.  With
    [exclusive_engine] (default false) a fresh engine is instantiated
    for this client and added to the group — stronger isolation at
    higher cost (§3.1); otherwise a pre-loaded shared engine is
    assigned round-robin.

    The remaining parameters configure this client's admission quotas
    (see {!Overload.Admission}): at most [max_ops] outstanding ops
    (default 65536), at most [max_bytes] outstanding payload bytes
    charged against the host op pool (default: the whole pool), and no
    submission-rate limit.  The permissive defaults
    keep well-behaved applications unthrottled; servers hosting
    untrusted clients set real quotas. *)

val client_alive : client -> bool
(** False once the owning host has crashed: the client's queues and
    charges are gone, and every operation on it refuses with
    [Rejected].  A restart does not resurrect clients — re-create
    them. *)

val register_region :
  Cpu.Thread.ctx -> client -> Memory.Region.t -> unit
(** Share a memory region with Snap (and register it for zero-copy and
    for one-sided remote access), via the control plane. *)

val connect :
  Cpu.Thread.ctx -> client -> dst_host:Memory.Packet.addr -> dst_client:int -> conn
(** Open an application-level connection to a remote client.  The flow
    mapper attaches it to the engine-pair flow, creating the flow (and
    negotiating the wire version) if it is the first connection between
    the two engines.  Earlier conns between the same client pair stay
    live, as sibling sockets do. *)

val connect_by_name :
  Cpu.Thread.ctx -> client -> dst_host:Memory.Packet.addr -> dst_name:string -> conn
(** [connect], resolving the destination by client name.  Client ids are
    handed out in creation order, so two apps spawned at the same instant
    race for them and an id-addressed connect can reach the wrong client
    under a perturbed schedule (the determinism sweep caught exactly
    this).  Raises if the name is absent or ambiguous on [dst_host]. *)

val connect_with_retry :
  Cpu.Thread.ctx ->
  client ->
  dst_host:Memory.Packet.addr ->
  dst_name:string ->
  ?policy:Overload.Retry.policy ->
  unit ->
  conn option
(** Auto-reconnect: retries {!connect_by_name} with the policy's
    backoff schedule while the peer host is down or the named service
    has not yet re-registered.  [None] once attempts run out.  Because
    connections carry session incarnations, a conn obtained here can
    never be confused with a pre-crash one. *)

val conn_state : conn -> conn_state

val close : Cpu.Thread.ctx -> conn -> unit
(** Graceful close: the conn refuses new sends immediately
    ([Draining]), already-queued ops still drain, then the peer is told
    ([Conn_reset]) and the conn tombstones as [Closed].  No-op on a
    conn already draining, dead or closed. *)

(** {1 Asynchronous operations} *)

val send_message :
  Cpu.Thread.ctx -> conn -> ?stream:int -> ?deadline:Sim.Time.t -> bytes:int -> unit -> int
(** Two-sided message (§3.3).  Returns the operation id; a completion
    arrives once the transport has taken responsibility.  Messages on
    different streams do not head-of-line block each other.

    Overload semantics: if admission control refuses the op, a
    [Rejected] completion is delivered immediately (the op never
    reaches an engine).  With [~deadline] (absolute virtual time), an
    op the engine has not started by then completes [Timed_out] and is
    shed at dequeue.  If the destination client's incoming queue is
    full, the receiver NACKs: the op's credit returns and a second,
    [Busy], completion follows the [Ok] one. *)

val one_sided_read :
  Cpu.Thread.ctx -> conn -> region:int -> off:int -> len:int -> int

val one_sided_write :
  Cpu.Thread.ctx -> conn -> region:int -> off:int -> len:int -> int

val indirect_read :
  Cpu.Thread.ctx ->
  conn ->
  table_region:int ->
  data_region:int ->
  indices:int list ->
  len:int ->
  int
(** The custom batched indirect read of §3.2: one network operation
    resolves up to eight indirections remotely. *)

val scan_read :
  Cpu.Thread.ctx ->
  conn ->
  region:int ->
  scan_limit:int ->
  needle:int64 ->
  len:int ->
  int

(** {1 Completions and incoming messages} *)

type completion = {
  comp_op : int;
  status : Wire.status;
  bytes : int;  (** Payload bytes moved (reads: bytes returned). *)
  value : int64 option;
      (** First 8 bytes of one-sided read results (for correctness
          checks against backed regions). *)
  issued_at : Sim.Time.t;
  completed_at : Sim.Time.t;
}

type incoming = {
  msg_conn : conn;  (** Local handle; usable to reply. *)
  msg_op : int;
  stream : int;
  msg_bytes : int;
}

val poll_completion : Cpu.Thread.ctx -> client -> completion option
val await_completion : Cpu.Thread.ctx -> client -> completion
(** Parks (or spin-polls, per the calling task's idle policy) until a
    completion arrives. *)

val poll_message : Cpu.Thread.ctx -> client -> incoming option
val await_message : Cpu.Thread.ctx -> client -> incoming

val await_completion_until :
  Cpu.Thread.ctx -> client -> deadline:Sim.Time.t -> completion option
(** {!await_completion} bounded by an absolute deadline: [None] if no
    completion arrived by then.  The caller's op may still complete
    later — poll again or keep a higher-level timeout. *)

val await_message_until :
  Cpu.Thread.ctx -> client -> deadline:Sim.Time.t -> incoming option
(** {!await_message} bounded by an absolute deadline. *)

(** {1 Engine-side (vhost backend) interface}

    For in-Snap consumers that drive a client from an engine pass (the
    guest mux) rather than from an application thread: no thread ctx,
    no blocking, no client-side admission — the backend owns accounting
    and must respect {!conn_cmd_free} before posting. *)

val set_delivery_hook : client -> (unit -> unit) -> unit
(** Invoked on every completion or message pushed to this client
    (typically [Engine.notify] on the backend's engine). *)

val conn_cmd_free : conn -> int
(** Free slots in the client's command queue. *)

val engine_post_send : conn -> now:Sim.Time.t -> bytes:int -> unit -> int
(** Post a two-sided send on stream 0, with no deadline, from engine
    context, bypassing client admission (the caller has already charged
    its own accounting).
    Returns the op id.  Raises [Invalid_argument] if the command queue
    is full. *)

val engine_poll_completion : client -> completion option
val engine_poll_message : client -> incoming option

val engine_queues_empty : client -> bool
(** Neither a completion nor a message is waiting to be polled. *)

val send_with_retry :
  Cpu.Thread.ctx ->
  conn ->
  ?policy:Overload.Retry.policy ->
  bytes:int ->
  unit ->
  (completion, completion) result
(** Closed-loop send with bounded retries: attempts up to
    [policy.max_attempts] sends, each carrying a deadline of
    [policy.op_timeout], backing off exponentially between attempts and
    retrying on [Rejected], [Timed_out] and [Busy].  [Ok c] on success;
    [Error last] with the final completion when attempts run out (or on
    a non-retryable status — notably [Peer_dead], which retrying on the
    same conn could never cure; reconnect instead).  The helper
    consumes this client's completion queue while it runs, so it is
    intended for callers with no other outstanding ops. *)

(** {1 Telemetry} *)

val flow_stats : t -> (Wire.flow_key * int * int) list
(** Per-flow (key, delivered, retransmits). *)

val corrupt_dropped : t -> int
(** Packets this host discarded because the end-to-end integrity check
    failed (injected corruption); each is recovered by retransmission. *)

val flow_resyncs : t -> int
(** Engine-restart resynchronizations performed: each counts one epoch
    bump after which at least one in-flight packet was requeued for
    immediate retransmission (§4.3 crash recovery / upgrade rollback). *)

val flow_versions : t -> (Wire.flow_key * int) list
(** The negotiated wire-protocol version of each flow. *)

val one_sided_served : t -> int
(** One-sided requests this host's engines executed. *)

(** {1 Overload telemetry} *)

val op_pool : t -> Memory.Pool.t
(** The host's op-memory pool; workloads call
    [Memory.Pool.assert_quiesced] on it after quiescing to prove no op
    bytes leaked. *)

val quota_rejected : t -> int
(** Ops refused by admission control across this host's clients. *)

val ops_shed : t -> int
(** Ops dropped at dequeue under Saturated pressure. *)

val ops_expired : t -> int
(** Ops whose deadline passed before the engine started them. *)

val busy_nacks : t -> int
(** Messages shed at delivery because the destination client's
    incoming queue was full (each one NACKed back to the sender). *)

val rx_pool_drops : t -> int
(** Received packets shed at ingest because the op pool could not
    cover their payload. *)

val zero_window_probes : t -> int
(** Window-reopen probes sent by this host's flows (see
    {!Flow.zero_window_probes}). *)

val pressure_transitions : t -> int
(** Pressure level changes across this host's engines since creation. *)

(** {1 Connection lifecycle telemetry (§4.3)} *)

val conns_established : t -> int
(** Connection halves installed on this host. *)

val conns_closed : t -> int
(** Graceful closes completed locally. *)

val conn_resets_sent : t -> int
(** [Conn_reset] items sent (close notifications plus answers to
    traffic for unknown or dead conns). *)

val peer_deaths : t -> int
(** Connection halves declared dead (keepalive miss budget, reset from
    the peer, or peer restart). *)

val peer_dead_ops : t -> int
(** Ops failed with [Peer_dead] — stranded at death or refused on a
    dead conn. *)

val stale_drops : t -> int
(** Packets dropped for carrying a pre-restart incarnation stamp. *)

val peer_restarts_detected : t -> int
(** Times a newer peer incarnation forced teardown of held state. *)

val keepalive_probes : t -> int
(** Keepalive probes enqueued by this host's engines. *)

