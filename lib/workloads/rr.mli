(** Request-response latency workloads.

    Figure 6(a): closed-loop ping-pong of small messages between two
    machines under the same ToR, comparing kernel TCP (blocking and
    busy-polling), Snap/Pony two-sided (application blocking or
    spin-polling the completion queue), and Snap/Pony one-sided reads.

    Figures 7(a) and 7(b): an open-loop prober issuing one small RPC per
    millisecond, exposing system-level wakeup effects — C-state exit
    latency on idle machines, and non-preemptible kernel sections under
    an mmap antagonist — across TCP and the Snap engine scheduling
    modes. *)

(** The systems Figure 6(a) compares. *)
type system =
  | Tcp_rr of { busy_poll : bool }
  | Pony_rr of { app_spin : bool }
  | Pony_one_sided  (** Client always spins (§5.1's one-sided line). *)

val mean_rtt : system -> Sim.Time.t
(** Closed-loop mean round-trip time of a 64-byte operation, over 200
    round trips. *)

(** The systems Figures 7(a)/(b) compare. *)
type prober_system =
  | Prober_tcp
  | Prober_pony of Engine.mode

type interference = Idle | Mmap_antagonist of int

val prober :
  ?duration:Sim.Time.t ->
  interference:interference ->
  prober_system ->
  Stats.Histogram.t
(** Open-loop prober at 1000 RPCs per second with a spin-polling
    application thread, so the distribution isolates transport wakeup
    behaviour.  [interference] selects an otherwise idle machine
    (C-states bite, Figure 7(a)) or mmap antagonist threads on every
    host (non-preemptible sections bite, Figure 7(b)). *)
