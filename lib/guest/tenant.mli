(** A guest tenant: identity, shared-memory rings, and its own
    accounting handle.

    Tenants are the isolation unit of multi-tenant guest networking:
    each carries a {!Memory.Region} that bounds its buffers, a tx/rx
    {!Ring} pair over that region, and an {!Overload.Admission} handle
    whose owner string doubles as the tenant's pool-accounting name —
    every op byte the backend admits on the tenant's behalf is charged
    to the host op pool under that owner, so cross-tenant leakage is
    checkable and detach can reclaim in bulk with
    {!Memory.Pool.release_owner} (generation-tagged: frees of stale
    charges become no-ops).

    The region is unbacked and holds no bytes: rings validate
    descriptors against its size, nothing reads or writes a guest
    buffer, and the mux charges the rx copy per byte without touching
    one. *)

type state = Attached | Detaching | Detached

type health = Healthy | Suspect | Quarantined
(** Misbehavior escalation ladder, modeled on the watchdog's engine
    quarantine: trust-boundary violations accumulate per tenant; past
    one threshold the mux throttles the tenant (Suspect), past a second
    it force-detaches and stops serving it (Quarantined). *)

val health_to_string : health -> string

(** One scored trust-boundary violation.  The first four mirror
    {!Ring.fault_reason}; the last two are mux-level observations. *)
type violation =
  | Bad_range
  | Empty_slot
  | Rollback
  | Overcommit
  | Dup_id  (** A descriptor id aliasing one still in flight. *)
  | Spurious_kick  (** A kick with an empty (or rolled-back) backlog. *)

val violation_to_string : violation -> string
val all_violations : violation list
val of_ring_fault : Ring.fault_reason -> violation

type t = {
  tname : string;
  tid : int;
  owner : string;  (** Pool/admission accounting name, ["tenant:<name>@<host>"]. *)
  region : Memory.Region.t;
  tx : Ring.t;
  rx : Ring.t;
  adm : Overload.Admission.t;
  pool : Memory.Pool.t;
  buf_bytes : int;
  mutable state : state;
  mutable health : health;
  mutable quarantined_at : Sim.Time.t option;
  viols : Stats.Counter.t option array;
      (** Per-reason [guest_violations], made at each reason's first
          violation. *)
  (* This tenant's own registry counters. *)
  c_tx_done : Stats.Counter.t;
  c_tx_rejected : Stats.Counter.t;
  c_tx_failed : Stats.Counter.t;
  c_tx_cancelled : Stats.Counter.t;
  c_rx_delivered : Stats.Counter.t;
  c_rx_drops : Stats.Counter.t;
  c_reclaimed : Stats.Counter.t;
}

val create :
  pool:Memory.Pool.t ->
  host_addr:int ->
  name:string ->
  id:int ->
  ?ring_slots:int ->
  ?buf_bytes:int ->
  ?rate_ops_per_sec:float ->
  ?burst_ops:int ->
  unit ->
  t
(** Build a tenant with [ring_slots] (default 64) descriptors per ring
    over a fresh unbacked region of [2 * ring_slots * buf_bytes]
    (default 4096) bytes: the first half bounds tx buffers, the second
    rx buffers.
    The rate parameters configure the tenant's admission handle (see
    {!Overload.Admission.create}). *)

val tx_buf_off : t -> int -> int
(** Region offset of the i-th tx buffer (i taken modulo the ring size). *)

val rx_buf_off : t -> int -> int

val state : t -> state
val outstanding_ops : t -> int
val outstanding_bytes : t -> int
val pool_usage : t -> int
(** Bytes currently charged to this tenant's owner in the host pool. *)

(** {1 Per-instance counters} (maintained by the mux) *)

val tx_completed : t -> int
val tx_rejected : t -> int
val tx_failed : t -> int
(** Timed out, Busy-failed, or errored. *)

val tx_cancelled : t -> int
val rx_delivered : t -> int
val rx_drops : t -> int
val reclaimed_bytes : t -> int

val note_tx : t -> Ring.status -> unit
val note_rx : t -> int -> unit
val note_rx_drop : t -> unit
val note_reclaimed : t -> int -> unit

(** {1 Misbehavior scoring} (maintained by the mux) *)

val health : t -> health
val quarantined_at : t -> Sim.Time.t option
val violations : t -> int
(** Total violations scored against this tenant instance. *)

val violations_by : t -> violation -> int

val note_violation : t -> violation -> int
(** Score one violation (also bumping the [guest_violations] registry
    counter, labeled by tenant and reason) and return the new total —
    the mux compares it against its escalation thresholds. *)
