(** Declarative fault plans.

    A plan is a seed plus a list of timed events; the {!Injector} replays
    it on the sim loop.  All times are absolute virtual time.  Hosts and
    egress ports are fabric addresses; [port n] faults affect traffic
    *toward* host [n] at the switch's egress, where drop-tail loss also
    lives. *)

type event =
  | Link_blackout of {
      a : int;
      b : int;
      start : Sim.Time.t;
      duration : Sim.Time.t;
    }
      (** All packets between hosts [a] and [b] (both directions) are
          dropped during the window: a link flap. *)
  | Link_blackout_oneway of {
      src : int;
      dst : int;
      start : Sim.Time.t;
      duration : Sim.Time.t;
    }
      (** Asymmetric (half-open) partition: packets from [src] to [dst]
          are dropped during the window, while the reverse direction
          still flows — so [src] hears [dst] but [dst] never hears
          [src].  The nastier real-world case: one side sees a healthy
          peer while the other declares it dead. *)
  | Burst_loss of {
      port : int;
      start : Sim.Time.t;
      duration : Sim.Time.t;
      loss_pct : float;
    }  (** Random loss at the given rate on one egress port. *)
  | Reorder of {
      port : int;
      start : Sim.Time.t;
      duration : Sim.Time.t;
      reorder_pct : float;
      max_delay : Sim.Time.t;
    }
      (** A fraction of packets is held for a random extra delay up to
          [max_delay] before egress queueing, jumping the queue order. *)
  | Corrupt of {
      port : int;
      start : Sim.Time.t;
      duration : Sim.Time.t;
      corrupt_pct : float;
    }
      (** A fraction of packets is delivered with a poisoned payload; the
          transport's end-to-end check must drop and retransmit. *)
  | Rx_stall of {
      host : int;
      queue : int;
      start : Sim.Time.t;
      duration : Sim.Time.t;
    }
      (** The host NIC's rx queue stops posting packets for the window
          (PCIe hiccup, host memory pressure); arrivals are deferred, not
          lost. *)
  | Engine_crash of {
      host : int;
      engine : int;
      start : Sim.Time.t;
      restart_after : Sim.Time.t;
    }
      (** The engine detaches from its group at [start]; the control
          plane reloads it [restart_after] later (plus one RPC round
          trip).  Queued inputs survive.  If the engine is already
          detached at [start] (mid-blackout of an upgrade transaction),
          the in-flight instance is marked failed instead — the owner
          observes this at commit and rolls back. *)
  | Straggler of {
      host : int;
      start : Sim.Time.t;
      duration : Sim.Time.t;
      slowdown : float;
    }
      (** Every per-core cost on the host is inflated by [slowdown]
          (>= 1.0) during the window. *)
  | Engine_wedge of { host : int; engine : int; start : Sim.Time.t }
      (** The engine's thread starts spinning at [start] without
          servicing its mailbox or run function — a silent failure the
          control plane can only detect by missed heartbeats
          ({!Control.Watchdog}).  Cleared when the engine is reloaded. *)
  | Host_crash of { host : int; start : Sim.Time.t; restart_after : Sim.Time.t }
      (** The whole host dies at [start]: every engine detaches, all
          transport and client state (connections, flows, in-flight
          ops, pool charges) is destroyed, and in-flight packets to and
          from the host are lost.  [restart_after] later the host comes
          back with a {e fresh incarnation number}; peers reject
          packets stamped with the old incarnation, so pre-crash flows
          cannot be resurrected.  Requires crash/restart hooks on the
          registered host (see {!Injector.host}). *)
  | Guest_byzantine of {
      host : int;
      tenant : string;  (** The tenant name used at attach. *)
      start : Sim.Time.t;
      duration : Sim.Time.t;
      behaviors : byzantine list;
    }
      (** The named guest tenant's driver turns hostile for the window,
          abusing its shared-memory rings through the unchecked
          [Guest.Ring] raw surface.  The host must validate at its own
          boundary: malformed descriptors complete [Failed], corrupt
          rings stop draining, violations accumulate until the tenant
          is quarantined.  Requires the byzantine hook on the
          registered host (see {!Injector.host}). *)

(** One hostile behavior; a byzantine guest runs any mix. *)
and byzantine =
  | Bad_desc_range
      (** Descriptors with garbage id/off/len outside the region. *)
  | Desc_id_alias
      (** Pairs of descriptors sharing an id, aliasing one in flight. *)
  | Avail_rollback  (** The avail index moves backwards. *)
  | Avail_runahead
      (** The avail index jumps past capacity over unwritten slots. *)
  | Reap_withhold
      (** Valid descriptors posted forever, used entries never reaped:
          overcommits the ring until the host refuses to take. *)
  | Kick_storm of { hz : float }
      (** Doorbell interrupts at [hz] with nothing posted. *)

val byzantine_to_string : byzantine -> string

type t

val make : ?seed:int -> event list -> t
(** Validates every event: a negative start time or target, a
    non-positive duration, a rate outside [\[0, 100\]] or a slowdown
    below 1 raises [Invalid_argument] with a message naming the field.
    [seed] (default 42) drives all per-packet randomness. *)

val empty : t
val seed : t -> int
val events : t -> event list
