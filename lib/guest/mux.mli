(** The vhost-style guest backend: engines that drain many tenants'
    tx rings into Pony Express and deliver completions and received
    messages back through the rx rings.

    The mux owns its own engine group (so upgrades can target guest
    engines independently of the Pony engines) and assigns tenants to
    its engines round-robin.  An engine pass serves the tenants that
    have work, in attach order, and skips the rest: each gets a bounded
    batch of Pony completions (release the tenant's admission charge,
    publish the tx used entry), incoming messages (fill a posted rx
    buffer, or count an rx-ring drop), and tx descriptors (admit
    against the {e tenant's} quota — [Rejected] completes immediately
    on the ring; admitted descriptors become engine-side Pony sends).
    A tenant is marked as having work by a Pony delivery, a kick on
    either ring, or a graceful detach, and stays marked while work is
    left after its batch.  With checking enabled, the [guest.mux.busy]
    invariant asserts no tenant with work goes unmarked.  Ring
    backpressure is structural: descriptors stay in the ring while the
    Pony command queue is full.

    {b Trust boundary.}  Every drain consumes through
    {!Ring.take_checked}: malformed descriptors complete [Failed],
    corrupt-ring verdicts stop the pass, and no guest input can raise
    into the engine loop.  Each verdict scores a violation against the
    tenant ({!Tenant.note_violation}), driving a watchdog-style
    escalation — past [suspect_after] total violations the tenant's tx
    drain is throttled to a quarter batch (4 descriptors) per pass, past
    [quarantine_after] it is {e quarantined}: in-flight ops abandoned,
    pool charges bulk-reclaimed through the generation-tagged
    {!Memory.Pool.release_owner}, rings cancelled and never served
    again, kick notifier left unarmed so kick storms stop waking the
    engine.  The [guest.quarantine] invariant asserts both directions:
    over-threshold tenants are quarantined (the
    ["skip_tenant_quarantine"] sabotage breaks exactly this), and
    quarantined tenants make no further ring progress and hold no pool
    bytes.

    Ring contents and in-flight state live in the bindings, outside any
    engine incarnation, so a transparent upgrade of the mux group
    preserves them and tenants observe only the blackout window.

    Detach: a graceful detach cancels queued descriptors and lets
    in-flight ops drain, then reclaims; a forced detach abandons
    in-flight ops and reclaims immediately.  Both funnel through
    {!Memory.Pool.release_owner}, whose generation bump turns any
    straggler release into a no-op. *)

type t

val create :
  loop:Sim.Loop.t ->
  pony:Pony.Express.t ->
  ?engines:int ->
  mode:Engine.mode ->
  ?suspect_after:int ->
  ?quarantine_after:int ->
  unit ->
  t
(** Build the backend over [pony]'s host, with [engines] (default 1)
    mux engines in a fresh group named ["guest<addr>"] scheduled per
    [mode].  [suspect_after] (default 3) and [quarantine_after]
    (default 12) are the violation-count escalation thresholds; when
    checking is enabled the [guest.quarantine] containment and
    [guest.mux.busy] membership invariants are registered here. *)

val attach :
  Cpu.Thread.ctx ->
  t ->
  name:string ->
  dst_host:int ->
  dst_name:string ->
  ?ring_slots:int ->
  ?buf_bytes:int ->
  ?rate_ops_per_sec:float ->
  ?burst_ops:int ->
  unit ->
  Tenant.t
(** Attach a tenant: builds its rings and admission handle
    ({!Tenant.create}), opens the backend's Pony client and connection
    to [dst_name] on [dst_host], binds the tenant to a mux engine, and
    registers the tenant-isolation invariants (host-side ring-index
    safety and monotonicity; pool-charge/admission agreement, which a
    cross-tenant byte leak breaks on both tenants; full reclaim at
    detach-quiesce) when checking is enabled. *)

val detach : ?force:bool -> t -> Tenant.t -> unit
(** Begin detach.  Graceful (default): queued descriptors complete
    [Cancelled], in-flight ops drain normally, and the binding
    finalizes on its engine once empty.  [force]: in-flight ops are
    abandoned and the tenant's pool charges are bulk-reclaimed
    immediately. *)

val group : t -> Engine.group
val engines : t -> Engine.t list

val resyncs : t -> int
(** Engine-epoch changes the mux observed (upgrades, restarts). *)

val tenants : t -> Tenant.t list
(** In attach order. *)

(** {1 Misbehavior escalation} (per-instance counts) *)

val suspects : t -> int
(** Tenants escalated to Suspect ([tenant_quarantine_suspects]). *)

val unmatched_completions : t -> int
(** Pony completions with no in-flight entry (Busy-NACK seconds, or
    stragglers of abandoned ops) — [guest_unmatched_completions]. *)
