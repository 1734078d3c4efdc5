(** Calibrated CPU cost table.

    Every simulated software action charges virtual CPU time according to
    this table.  The constants are calibrated so that the end-to-end
    benchmarks land near the absolute numbers reported in the paper
    (Table 1 and Figures 6-9); each field's documentation names the paper
    observation that pins it down. *)

type t = {
  (* -- Scheduling / kernel interaction ------------------------------- *)
  context_switch : Time.t;
      (** Direct cost of a thread context switch, charged to the core.
          Pins the TCP stream-scaling degradation in Table 1. *)
  syscall : Time.t;
      (** Ring-switch plus entry bookkeeping for one system call
          (post-Meltdown KPTI world, cf. section 2). *)
  interrupt_delivery : Time.t;
      (** NIC interrupt to handler-start latency on an awake core.
          Component of the TCP 23us RTT in Figure 6(a). *)
  interrupt_cpu : Time.t;
      (** CPU consumed per interrupt (entry, IPI, exit) — far less than
          the delivery latency.  Drives the "time spent in interrupt
          and system contexts" that makes the spreading scheduler less
          CPU-efficient (§5.2). *)
  wakeup_cfs : Time.t;
      (** Dispatch latency for a thread woken under CFS on an idle,
          awake core.  Load-dependent extra delay is added by the
          scheduler model itself. *)
  wakeup_microquanta : Time.t;
      (** Dispatch latency under the MicroQuanta class (section 2.4.1):
          priority preemption, per-CPU high-resolution timers. *)
  cstate_exit : Time.t;
      (** Deep C-state exit latency.  Drives Figure 7(a). *)
  cstate_idle_threshold : Time.t;
      (** Idle duration after which a core drops into a deep C-state. *)
  thread_notify : Time.t;
      (** Writing an eventfd-like notification (engine -> app or
          app -> engine), charged to the notifier. *)

  (* -- Kernel TCP stack (the baseline comparator) --------------------- *)
  tcp_tx_per_packet : Time.t;
      (** Kernel transmit-path work per segment (qdisc, IP, driver). *)
  tcp_rx_per_packet : Time.t;
      (** Softirq receive-path work per segment (driver, IP, TCP). *)
  tcp_per_syscall : Time.t;
      (** Socket send/recv call body on top of the generic [syscall]. *)
  tcp_copy_per_byte_ns : float;
      (** Copy-in on tx plus copy-out on rx, ns per byte per copy.
          Together with the per-packet costs this pins Table 1's
          22 Gbps at 1.17 cores. *)
  tcp_locality_factor : float;
      (** Per-packet cost multiplier slope with the natural log of the
          number of simultaneously active streams; pins the 22 -> 12.4
          Gbps collapse at 200 streams in Table 1. *)

  (* -- Snap / Pony Express ------------------------------------------- *)
  engine_poll_empty : Time.t;
      (** One empty engine poll iteration (checking NIC rings, command
          queues, timers with nothing to do). *)
  pony_tx_per_packet : Time.t;
      (** Engine transmit work per packet: op state machine advance,
          flow bookkeeping, descriptor post.  Pins Table 1's 67.5 Gbps
          single-core at 5000B MTU. *)
  pony_rx_per_packet : Time.t;
      (** Engine receive work per packet: reliability layer, reorder,
          op demux. *)
  pony_per_op : Time.t;
      (** Command-queue parse plus completion-queue write per
          application-level operation. *)
  pony_one_sided_exec : Time.t;
      (** Executing a one-sided read/write against registered memory. *)
  pony_indirection_lookup : Time.t;
      (** One indirection-table lookup of the custom indirect-read op
          (section 3.2). *)
  snap_copy_per_byte_ns : float;
      (** CPU copy between bounce buffers and app memory when the copy
          engine is not used (section 6.2); rx path only, tx is
          zero-copy.  Difference against [copy_engine_per_packet] pins
          Table 1's 67.5 -> 82.2 Gbps I/OAT row. *)
  copy_engine_per_packet : Time.t;
      (** CPU cost to program one I/OAT copy descriptor; the bytes then
          move without consuming CPU. *)
  batch_amortization : float;
      (** Fraction of per-packet cost saved per additional packet in a
          processing batch, saturating at [batch_max_saving]. *)
  batch_max_saving : float;
      (** Cap on the batching discount (fraction of per-packet cost). *)

  (* -- Client library -------------------------------------------------- *)
  client_command_post : Time.t;
      (** Application cost to write one command into the shared-memory
          command queue. *)
  client_completion_poll : Time.t;
      (** Application cost to reap one completion. *)

  (* -- Upgrade (section 4) --------------------------------------------- *)
  serialize_bytes_per_ns : float;
      (** Engine state serialization/deserialization throughput,
          bytes per nanosecond.  Pins the Figure 9 median of 250 ms. *)
  nic_filter_update : Time.t;
      (** Detaching or attaching a NIC receive filter during engine
          migration. *)
}

val default : t
(** The calibrated table.  See field docs for what each value pins. *)
