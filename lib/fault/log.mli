(** Queryable record of every injected fault.

    The injector appends one entry per plan-event transition and per
    packet-level effect, in virtual-time order.  Because entries are
    plain data, two runs of the same seeded plan can be compared for
    byte-identical fault sequences — the determinism check the chaos
    workload relies on. *)

type entry = { at : Sim.Time.t; kind : string; detail : string }

type t

val create : unit -> t
val record : t -> at:Sim.Time.t -> kind:string -> detail:string -> unit
val entries : t -> entry list
(** Oldest first.  Entries are plain data, so [=] compares two logs. *)
