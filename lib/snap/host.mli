(** Per-host Snap assembly.

    Bundles everything a Snap host runs — the simulated machine, NIC,
    control plane, an engine group with a chosen scheduling mode, and
    the Pony Express module — so examples and benchmarks build clusters
    in a few lines.  Additional engines (shapers, virtual switches) can
    be loaded into the same group. *)

type t = {
  loop : Sim.Loop.t;
  machine : Cpu.Sched.machine;
  nic : Nic.t;
  control : Control.t;
  group : Engine.group;
  pony : Pony.Express.t;
  mutable mux : Guest.Mux.t option;  (** Guest backend, once enabled. *)
}

val create :
  loop:Sim.Loop.t ->
  fabric:Fabric.t ->
  directory:Pony.Express.Directory.dir ->
  addr:Memory.Packet.addr ->
  ?cores:int ->
  ?nic_config:Nic.config ->
  ?mode:Engine.mode ->
  ?engines:int ->
  ?use_copy_engine:bool ->
  ?wire_versions:int list ->
  ?op_pool_bytes:int ->
  ?keepalive:Pony.Express.keepalive ->
  unit ->
  t
(** Defaults: 16 cores, default NIC, dedicating 2 cores, 1 Pony
    engine.  [op_pool_bytes] sizes Pony's op-memory pool (see
    {!Pony.Express.create}); overload workloads shrink it to force
    admission pressure.  [keepalive] arms Pony's per-connection
    dead-peer detection (off by default). *)

val fault_host : t -> Fault.Injector.host
(** Registration record for {!Fault.Injector.install}, with whole-host
    crash/restart hooks wired to {!Pony.Express.crash_host} /
    {!Pony.Express.restart_host} so plans may include
    [Fault.Plan.Host_crash] events targeting this host, and the
    byzantine-guest hook wired to {!Byzantine.launch} (resolving the
    plan's tenant name against the mux) so plans may include
    [Fault.Plan.Guest_byzantine] events. *)

val spawn_app :
  t ->
  name:string ->
  ?spin:bool ->
  (Cpu.Thread.ctx -> unit) ->
  Cpu.Sched.task
(** Launch an application thread on this host, CFS nice 0; [spin]
    selects spin-polling waits for the lowest latency. *)

(** {1 Guest networking} *)

val enable_guests :
  ?engines:int ->
  ?mode:Engine.mode ->
  ?suspect_after:int ->
  ?quarantine_after:int ->
  t ->
  Guest.Mux.t
(** Instantiate the guest backend (idempotent: later calls return the
    existing mux and ignore the parameters).  Defaults to one mux
    engine scheduled [Spreading {runtime_pct = 90}], in its own group so
    guest engines upgrade independently of the Pony group.
    [suspect_after]/[quarantine_after] set the misbehavior-escalation
    thresholds (see {!Guest.Mux.create}). *)

val guest_mux : t -> Guest.Mux.t option

val attach_tenant :
  Cpu.Thread.ctx ->
  t ->
  name:string ->
  dst_host:Memory.Packet.addr ->
  dst_name:string ->
  ?ring_slots:int ->
  ?buf_bytes:int ->
  ?rate_ops_per_sec:float ->
  ?burst_ops:int ->
  unit ->
  Guest.Tenant.t
(** Attach a guest tenant whose tx traffic the mux forwards to client
    [dst_name] on [dst_host] (see {!Guest.Mux.attach}).  Enables the
    guest backend with defaults if it is not up yet. *)

val detach_tenant : ?force:bool -> t -> Guest.Tenant.t -> unit
(** See {!Guest.Mux.detach}.  Generation-tagged reclaim guarantees the
    tenant's pool bytes return even if completions are abandoned. *)

