(** Replays a {!Plan} deterministically on the sim loop.

    Window open/close transitions are scheduled as loop events at install
    time; packet-level decisions draw from the injector's private RNG
    (seeded from the plan) in deterministic simulation order, so two runs
    of the same seeded plan inject byte-identical fault sequences.  Every
    transition and packet effect is appended to a {!Log}; window
    transitions are also emitted as {!Sim.Span} instants on the
    ["fault"] track. *)

type host = {
  h_addr : int;
  h_nic : Nic.t;
  h_machine : Cpu.Sched.machine;
  h_control : Control.t;
  h_group : Engine.group;
  h_engines : Engine.t list;
      (** Indexed by [Plan.Engine_crash.engine] /
          [Plan.Engine_wedge.engine]. *)
  h_crash : (unit -> unit) option;
      (** Kill the whole host: detach engines, destroy transport and
          client state, release pool charges.  Required (with
          [h_restart]) for [Plan.Host_crash] to target this host; the
          fault layer cannot depend on the transport, so the host
          supplies the closure ({!Snap.Host.fault_host} wires both). *)
  h_restart : (unit -> unit) option;
      (** Bring the host back with a fresh incarnation number. *)
  h_byzantine :
    (tenant:string ->
    rng:Sim.Rng.t ->
    behaviors:Plan.byzantine list ->
    until:Sim.Time.t ->
    bool)
    option;
      (** Launch a hostile guest driver against the named tenant's
          rings until [until], drawing randomness from [rng] (a stream
          split off the injector's, one per attack).  [false] means the
          tenant is unknown and the attack is skipped.  Required for
          [Plan.Guest_byzantine] to target this host;
          {!Snap.Host.fault_host} wires it to [Snap.Byzantine]. *)
}

type t

val install :
  loop:Sim.Loop.t -> plan:Plan.t -> fabric:Fabric.t -> hosts:host list -> t
(** Schedules every plan event and claims the fabric's fault hook.  Call
    before running the loop.  Hosts only need to cover the addresses the
    plan targets with host-level faults. *)

val log : t -> Log.t

val counters : t -> (string * int) list
(** Per-fault-kind injection counts, e.g. [("loss_drops", 17)]. *)
