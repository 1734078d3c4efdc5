(** Direct-style simulated threads.

    Application code (benchmark clients, antagonists, control-plane
    agents) is easier to write as straight-line code than as an explicit
    step state machine.  [Thread] wraps a {!Sched.task} around an OCaml
    effects-based coroutine: the body performs {!compute}, {!wait} and
    {!sleep} operations and the scheduler interleaves it with everything
    else on the machine.  Each of them records its step result in the
    ctx and performs one constant effect, so a switch allocates only
    the parked continuation. *)

type ctx
(** Handle passed to the thread body. *)

val spawn :
  Sched.machine ->
  name:string ->
  account:string ->
  klass:Sched.klass ->
  ?idle:Sched.idle_policy ->
  (ctx -> unit) ->
  Sched.task
(** Create and start a thread running the body.  [idle] (default
    [Block]) governs {!wait}: blocking wait versus spin-polling wait. *)

val task : ctx -> Sched.task
val now : ctx -> Sim.Time.t

val compute : ctx -> Sim.Time.t -> unit
(** Consume CPU time. *)

val compute_nonpreemptible : ctx -> Sim.Time.t -> unit
(** Consume CPU time during which the core cannot be preempted (models
    time inside a non-preemptible kernel region). *)

val syscall : ctx -> Sim.Time.t -> unit
(** Consume ring-switch cost plus the given in-kernel work. *)

val wait : ctx -> unit
(** Park until another component wakes or kicks this thread's task.  With
    idle policy [Spin] the core is held (spin-polling) while parked. *)

val sleep : ctx -> Sim.Time.t -> unit
(** [sleep ctx d] parks the thread and arms a {!Sched.wake_after} of
    [d].  It returns at the task's first wake, which can come before
    [d] has passed: any {!Sched.wake} or {!Sched.kick} of the task ends
    the sleep, and Pony kicks a client's app task on every completion
    and message it delivers.  An early wake does not cancel the timer;
    it still fires at [d] and wakes the task again, cutting short
    whatever wait or sleep the task is in by then.  A caller that needs
    an absolute instant [t] loops on {!now}:
    [while now ctx < t do sleep ctx (Sim.Time.sub t (now ctx)) done]. *)
