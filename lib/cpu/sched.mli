(** Simulated multi-core machine and CPU scheduler.

    This models what the paper gets from real hosts: hyperthread contexts
    ("cores"), the Linux CFS scheduling class, Google's MicroQuanta
    real-time class (§2.4.1), dedicated/pinned cores, C-states, and
    non-preemptible kernel sections.  Time costs come from the
    {!Sim.Costs} table.

    Execution model: a {!task} owns a [step] function.  The scheduler
    dispatches the task on a core and calls [step] repeatedly; each call
    performs a bounded chunk of simulated work and reports its CPU cost.
    Between chunks the scheduler may preempt, throttle, or migrate the
    task.  When a task reports it is idle it either blocks (releasing the
    core) or spins (holding the core busy without events until new work
    is {!kick}ed in) according to its idle policy. *)

type machine
type task

type step_result = private int
(** What one [step] call did, packed into an immediate so that a step
    allocates nothing.  Only the four values below build one. *)

val ran : Sim.Time.t -> step_result
(** Performed work costing this much CPU time. *)

val ran_nonpreemptible : Sim.Time.t -> step_result
(** As {!ran}, but the core cannot be preempted for the duration
    (kernel section, cf. Figure 7(b)). *)

val idle : step_result
(** No work available right now. *)

val finished : step_result
(** The task is done and will never run again. *)

(** Behaviour when [step] reports {!idle}. *)
type idle_policy =
  | Spin  (** Busy-poll: hold the core (its time counts as busy). *)
  | Block  (** Release the core and wait for {!wake}. *)

(** Scheduling class. *)
type klass =
  | Pinned of int
      (** Dedicated hyperthread (§2.4 "dedicating cores"); the argument
          is a core id obtained from {!reserve_core}. *)
  | Micro_quanta of { runtime_pct : float }
      (** Google's real-time class: priority over CFS with a bandwidth
          bound of [runtime_pct] of each period. *)
  | Cfs of { nice : int }  (** Default Linux class; nice in [-20, 19]. *)

(** {1 Machines} *)

val create_machine : loop:Sim.Loop.t -> name:string -> cores:int -> machine

val machine_name : machine -> string
val num_cores : machine -> int
val loop : machine -> Sim.Loop.t

val set_cost_scale : machine -> float -> unit
(** Inflate every subsequent task-step cost on this machine by the given
    factor (>= 1.0).  Fault injection uses this to model straggler hosts
    (thermal throttling, noisy neighbours); 1.0 restores normal speed. *)

val reserve_core : machine -> int
(** Take a core out of the floating pool for a [Pinned] task.  Raises
    [Failure] if none remain. *)

val busy_ns : machine -> int
(** Total CPU time consumed on the machine so far (all cores, including
    spin-polling time), in nanoseconds. *)

val account_busy_ns : machine -> string -> int
(** CPU time charged to the given accounting container (§2.5). *)

val interrupt : machine -> cost:Sim.Time.t -> (unit -> unit) -> unit
(** [interrupt m ~cost f] delivers an interrupt to a core chosen
    round-robin, as with RSS interrupt spreading: after the delivery
    latency (plus C-state exit if the core sleeps), [f] runs in
    interrupt context and [cost] is charged to the core (stealing time
    from whatever task occupies it), under the "softirq" account.  The
    delivery is a handler event of the machine, so raising an interrupt
    allocates nothing of its own. *)

(** {1 Tasks} *)

val spawn :
  machine ->
  name:string ->
  account:string ->
  klass:klass ->
  idle:idle_policy ->
  step:(unit -> step_result) ->
  task
(** Create a task.  It does not run until {!start}. *)

val start : task -> unit
(** Make the task runnable for the first time. *)

val wake : task -> unit
(** Move a blocked task to a core (or the run queue).  Dispatch latency
    depends on the class, machine load, and target-core C-state.  Waking
    a task that is not blocked is a no-op. *)

val kick : task -> unit
(** Cheap notification that new work exists: resumes a spinning task
    after the poll-discovery delay; equivalent to {!wake} for a blocked
    task; no-op otherwise.  This is what queue producers call. *)

val wake_after : task -> Sim.Time.t -> unit
(** [wake_after t d] calls {!wake} on [t] after [d].  The wake is a
    handler event of the machine keyed by the task, so arming one
    allocates nothing; it cannot be cancelled. *)

val task_core : task -> int option
(** Core the task currently occupies (running or spinning), if any. *)

val softirq_charge : machine -> Sim.Time.t -> unit
(** Charge CPU time to the "softirq" account, stealing the time from a
    busy core if one is running (the accounting pathology of kernel
    networking that §2.5 describes).  Used by the kernel-stack model for
    receive-path protocol processing. *)

val set_idle_policy : task -> idle_policy -> unit
(** Change what happens the next time the task reports {!idle}.  Used by
    the compacting engine scheduler to let drained threads block instead
    of spinning. *)

val retire_spin : task -> unit
(** Transition a currently spinning task to blocked, folding its
    spin time into its busy accounting and releasing the core.  No-op
    for tasks that are not spinning. *)
