(** Background antagonists used by the evaluation (§5.2, §5.3).

    - MD5 antagonists "continually wake threads to perform MD5
      computations", pressuring caches and the scheduler (Figure 6(d)).
    - The mmap antagonist "spawns threads to repeatedly mmap() and
      munmap() 50 MB buffers", exercising a Linux pathology where
      certain kernel regions cannot be preempted by any userspace
      process (Figure 7(b)). *)

val spawn_md5 :
  Cpu.Sched.machine -> ?threads:int -> unit -> Cpu.Sched.task list
(** CPU-bound compute threads (default 4) under CFS at nice 5 —
    "reduced priority relative to the load-generating network
    application jobs". *)

val spawn_mmap :
  Cpu.Sched.machine -> ?threads:int -> unit -> Cpu.Sched.task list
(** Threads (default 2) that alternate 2 ms non-preemptible kernel
    sections — roughly the cost of mapping and unmapping a 50 MB
    buffer — with short preemptible gaps. *)
