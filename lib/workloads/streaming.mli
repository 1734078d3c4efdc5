(** Table 1 workload: single-application-thread bulk streaming between
    two machines on the same ToR switch.

    The TCP variant mirrors Neper: one sending and one receiving
    application, [streams] simultaneous connections, 64 kB writes.  The
    Snap/Pony variant uses the asynchronous message API with a bounded
    number of outstanding sends, a dedicated spinning engine, and
    optionally the I/OAT copy engine for receive-side copies. *)

type result = {
  gbps : float;  (** Application payload goodput. *)
  sender_cpu : float;  (** Busy cores on the sending machine. *)
  receiver_cpu : float;
  cpu : float;  (** Mean of the two (the "CPU/sec" Table 1 reports). *)
  streams : int;
}

val run_tcp :
  ?streams:int ->
  ?mtu:int ->
  ?window:Sim.Time.t ->
  unit ->
  result
(** Defaults: 1 stream, 4096 B MTU (the kernel's "large MTU" setting in
    §5.2), 40 ms measurement.  Both variants measure after a 10 ms
    warmup. *)

val run_pony :
  ?streams:int ->
  ?mtu:int ->
  ?use_copy_engine:bool ->
  ?window:Sim.Time.t ->
  unit ->
  result
(** Defaults: 1 stream, 4096 B MTU, no copy engine.  Table 1's third
    and fourth rows set [mtu] to 5000 and [use_copy_engine]. *)
