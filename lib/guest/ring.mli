(** Virtio-net-style descriptor ring over a shared {!Memory.Region}.

    A guest and the vhost backend ({!Mux}) communicate through a pair
    of these rings (tx and rx).  Following virtio, the ring keeps three
    free-running monotonic indices — [avail] (descriptors the guest has
    posted), [taken] (descriptors the backend has consumed) and [used]
    (completions the backend has published) — plus a fourth, [reaped],
    for the used entries the guest has collected.  Indices only grow;
    slot positions are the index modulo the ring size, and the single
    fullness condition [avail - reaped <= capacity] bounds both
    descriptor-slot and used-slot reuse.

    {b Trust boundary.}  Everything the guest writes is
    attacker-controlled: [avail], [reaped], and every descriptor field
    may hold garbage.  The cooperative {!post}/{!pop_used} API models a
    well-behaved driver; the [_raw] surface models a byzantine one.
    The backend therefore never trusts the guest side — it consumes
    through {!take_checked}, which validates at the host boundary and
    returns a typed verdict instead of raising.  Host-owned indices
    ([taken], [used]) are the only state the backend's safety rests on.

    Completions may be published out of order (they carry the
    descriptor id, like virtio's used ring), but never outnumber the
    descriptors taken.  Posting signals the {e kick} notifier (guest ->
    backend), which follows virtio's eventfd shape and coalesces while
    unarmed.  The guest reaps completions by polling {!pop_used}. *)

type status =
  | Complete
  | Rejected  (** Refused by the tenant's admission quota. *)
  | Timed_out
  | Busy
  | Cancelled  (** Unprocessed at detach. *)
  | Failed

type desc = {
  d_id : int;  (** Guest-chosen label, echoed in the used entry. *)
  d_off : int;  (** Buffer offset inside the shared region. *)
  d_len : int;
  posted_at : Sim.Time.t;
}

type used = { u_id : int; u_len : int; u_status : status }

type fault_reason =
  | Bad_range  (** Descriptor buffer outside the shared region. *)
  | Empty_slot  (** avail covers a slot no descriptor was written to. *)
  | Rollback  (** The guest's avail index regressed. *)
  | Overcommit  (** Posted past capacity without reaping. *)

type take_verdict =
  | Take_empty  (** Nothing posted; not a fault. *)
  | Take_ok of desc
  | Take_bad of fault_reason * desc
      (** Consumed; the host should publish a counted [Failed]
          completion so a buggy guest still sees its op resolve. *)
  | Take_drop of fault_reason
      (** Consumed, but there is no descriptor to complete. *)
  | Take_stop of fault_reason
      (** The ring itself is corrupt; no progress was made and the
          drain pass should stop. *)

type t

val create :
  ?name:string -> region:Memory.Region.t -> slots:int -> unit -> t
(** A ring of [slots] descriptors whose buffers must lie inside
    [region].  Raises [Invalid_argument] if [slots <= 0]. *)

val capacity : t -> int

(** {1 Guest side} *)

val post :
  t -> now:Sim.Time.t -> id:int -> off:int -> len:int -> bool
(** Publish a descriptor and signal the kick notifier; [false] (and a
    counted failure) when the ring is full or the buffer falls outside
    the region (counted separately in {!post_bad_range}) — a
    guest-driver bug is non-fatal to the guest's own thread. *)

val pop_used : t -> used option
(** Reap the oldest unreaped used entry. *)

(** {1 Byzantine guest surface}

    What a hostile driver does to shared memory: no bounds check, no
    fullness check, arbitrary index stores, kicks with nothing behind
    them.  None of these raise and none are validated — the host's
    {!take_checked} is where every consequence is caught. *)

val post_raw : t -> now:Sim.Time.t -> id:int -> off:int -> len:int -> unit
(** Overwrite the slot at [avail mod capacity] with an arbitrary
    descriptor, advance [avail], kick.  Ignores fullness and bounds. *)

val set_avail_raw : t -> int -> unit
(** Store an arbitrary value (rollback or runahead) into [avail] and
    kick. *)

val kick_raw : t -> unit
(** Signal the kick notifier without posting anything. *)

(** {1 Backend side} *)

val take_checked : t -> take_verdict
(** Consume one descriptor, validating at the trust boundary: detects
    avail rollback (edge-triggered against the largest avail ever
    observed), overcommit ([taken - reaped >= capacity], which would
    overwrite unreaped used entries), never-written slots, and
    out-of-region buffers.  Never raises. *)

val complete : t -> id:int -> len:int -> status:status -> unit
(** Publish a used entry (any order w.r.t. takes).  Raises
    [Invalid_argument] if it would outnumber the taken descriptors —
    host-side API misuse, not guest input. *)

(** {1 Occupancy and indices} *)

val occupancy : t -> int
(** Live descriptors: posted and not yet reaped ([avail - reaped]).
    May be negative or beyond capacity under a hostile guest. *)

val backlog : t -> int
(** Posted and not yet taken ([avail - taken]) — the backend's queue
    depth, which engine scheduling reads as load. *)

val take_pending : t -> bool
(** [avail] differs from [taken] or from the largest avail the host has
    observed: {!take_checked} would consume, fault or re-score a
    rollback instead of answering a side-effect-free [Take_empty].  A
    rolled-back ring stays pending until a [take_checked] resync brings
    the shadow down to [avail]. *)

val in_flight : t -> int
(** Taken and not yet completed ([taken - used]). *)

val avail_idx : t -> int
val taken_idx : t -> int
val used_idx : t -> int

val post_failures : t -> int
(** Checked posts refused because the ring was full. *)

val post_bad_range : t -> int
(** Checked posts refused because the buffer was out of range: this
    ring's [ring_post_bad_range] registry counter. *)

val oldest_pending_age : t -> now:Sim.Time.t -> Sim.Time.t
(** Age of the oldest descriptor the backend has not taken (0 when the
    backlog is empty); the mux engine's queueing-delay signal. *)

(** {1 Notifications} *)

val arm_kick : t -> (unit -> unit) -> unit

(** {1 Checking} *)

val monitor : t -> unit -> string option
(** A stateful predicate for {!Check.Invariant}.  Each call checks host
    safety — [0 <= used <= taken], and [taken] never beyond any avail
    value the guest ever published, which hold whatever the guest does —
    and requires the host-owned indices to have grown monotonically
    since the previous call.  Deliberately silent about guest-owned
    indices, which a hostile driver may move arbitrarily.  A [Some] is a
    backend bug. *)
