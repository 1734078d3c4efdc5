(** Baseline kernel TCP/IP stack model.

    The paper's comparator is the Linux kernel TCP stack (§5: "kernel
    TCP/IP implementations remain the only widely-deployed and
    production-hardened alternative").  This module implements a
    simplified but real TCP: three-way handshake, cumulative ACKs,
    slow-start and AIMD congestion control, fast retransmit on duplicate
    ACKs, retransmission timeouts, receiver flow control, and in-order
    delivery with out-of-order buffering.

    The *cost* model reproduces where kernel networking spends CPU:
    socket system calls and copy-in in the sender's thread, softirq
    protocol processing in interrupt context (stealing time from whatever
    runs, §2.5), copy-out in the receiver's thread, interrupt-driven
    wakeups through CFS, and cache-locality degradation as the number of
    simultaneously active streams grows (Table 1's 22 -> 12.4 Gbps
    collapse at 200 streams).  A busy-polling mode models Linux's
    SO_BUSY_POLL (Figure 6(a)'s "TCP busy-poll" line). *)

type t
type socket

val create :
  loop:Sim.Loop.t ->
  machine:Cpu.Sched.machine ->
  nic:Nic.t ->
  ?busy_poll:bool ->
  ?softirq_workers:int ->
  unit ->
  t
(** One stack per host; it takes ownership of all the NIC's receive
    queues and its transmit-drain hook.  [busy_poll] (default false)
    makes receiving threads poll the NIC from their own context instead
    of sleeping on interrupts.  [softirq_workers] (default 1) is the
    number of cores receive processing may spread over: kernel RFS keeps
    transport processing local to the application's core (§3), so this
    should be the number of independent application jobs. *)

val listen : t -> port:int -> on_accept:(socket -> unit) -> unit
(** Register a passive listener.  [on_accept] runs when a connection
    completes; it typically spawns a handler thread. *)

val connect :
  Cpu.Thread.ctx -> t -> dst:Memory.Packet.addr -> port:int -> socket
(** Active open; blocks the calling thread for the handshake RTT. *)

val send : Cpu.Thread.ctx -> socket -> bytes:int -> unit
(** Stream [bytes] out.  Charges syscall and copy-in costs; blocks while
    the socket send buffer is full (the transport drains it under
    congestion control). *)

val recv : Cpu.Thread.ctx -> socket -> max:int -> int
(** Take up to [max] in-order bytes; blocks until at least one byte is
    available.  Charges syscall and copy-out costs. *)

val try_send : Cpu.Thread.ctx -> socket -> bytes:int -> bool
(** Non-blocking send: [false] (after the syscall cost) when the send
    buffer cannot take the write. *)

val try_recv : Cpu.Thread.ctx -> socket -> max:int -> int
(** Non-blocking receive: 0 when no in-order data is buffered. *)

val arm_activity_wake : t -> Cpu.Sched.task -> unit
(** One-shot: wake the given task on the next activity edge (any socket
    becoming readable/writable).  Lets an application thread sleep with
    a timeout yet react promptly to network progress. *)

val readable : socket -> bool
(** In-order data is buffered (what an epoll readiness event reports);
    free of charge, unlike a speculative {!try_recv}. *)

val writable : socket -> bool
(** The send buffer has room. *)
