(** Per-op latency attribution records.

    Where {!Span} captures free-form events, Optrace follows a single
    Pony Express op through its whole cross-host lifecycle — submitted,
    admission-charged, command-queue dequeued, credit-granted, first
    transmission, receiver reassembly, delivery, completion — and
    charges the virtual time between consecutive stamps to the stage
    being entered.  Because every stamp advances one cursor, the stage
    durations of a completed op telescope to exactly its end-to-end
    latency; the conservation check below turns that into an enforceable
    invariant (and a skipped charge — the sabotage lever — breaks it).

    Capture is off by default and guarded by one mutable bool, like
    {!Span}.  In-flight records live in a bounded table (oldest evicted
    first); completed records land in a bounded drop-oldest ring.
    Everything is driven by the sim clock, so same-seed runs produce
    byte-identical capture. *)

type key = {
  k_origin : int;  (** host address of the submitting side *)
  k_origin_client : int;
  k_peer : int;  (** host address of the remote side *)
  k_session : int;  (** conn session — disambiguates reconnects *)
  k_origin_init : bool;
      (** the origin is the conn's initiator side; disambiguates the two
          directions of one conn, whose sessions coincide *)
  k_op : int;
}

type stage =
  | Submitted
  | Admitted
  | Dequeued
  | Credit
  | First_tx
  | Rx_first
  | Rx_done
  | Delivered
  | Completed

type stall = Retx | Rto | Zero_window

type record = {
  r_key : key;
  r_kind : string;
  r_bytes : int;
  r_start : Time.t;
  mutable r_end : Time.t;  (** [-1] while in flight *)
  mutable r_status : string;
  durs : int array;  (** per-stage charged ns, indexed by {!stage_index} *)
  stamps : Time.t array;  (** absolute stamp times; [-1] = never stamped *)
  mutable r_last : Time.t;  (** charge cursor: time of the last stamp *)
  mutable r_retx : int;
  mutable r_rto : int;
  mutable r_zw : int;
  r_seq : int;  (** global start order, for deterministic tie-breaks *)
}

val n_stages : int
val stage_index : stage -> int
val stage_name : stage -> string
val stage_of_index : int -> stage

val set_capture : int option -> unit
(** [set_capture (Some n)] starts capturing: at most [n] in-flight
    records and [n] completed records are retained (oldest dropped
    first).  [set_capture None] stops and drops everything.
    @raise Invalid_argument on a non-positive size. *)

val enabled : unit -> bool
(** Cheap guard for instrumentation sites. *)

val start : Loop.t -> key -> kind:string -> bytes:int -> unit
(** Open a record at [Loop.now]; stamps [Submitted].  No-op while
    capture is off or if the key is already in flight. *)

val stamp : Loop.t -> ?charge:bool -> key -> stage -> unit
(** Stamp a stage transition: charges [now - r_last] to [stage] and
    advances the cursor.  Idempotent — a second stamp of the same stage
    is ignored entirely.  [~charge:false] advances the cursor {e
    without} charging, deliberately losing time from the attribution
    (the sabotage lever for the conservation invariant).  No-op for
    unknown keys. *)

val stall : key -> stall -> unit
(** Count a stall (retransmission, RTO, zero-window probe) against an
    in-flight op.  Stalls are counters, not stages: the time they cover
    is still charged to whichever stage the op is traversing. *)

val finish : Loop.t -> key -> host:int -> status:string -> unit
(** Close a record: stamps [Completed], sets the end time and status,
    and moves it to the completed ring.  [host] is where the op
    finished (delivery host for messages, origin for everything else)
    and anchors the receiving end of the {!Span} flow arrow.  No-op for
    unknown keys. *)

val in_flight : unit -> int
val completed : unit -> record list
(** Completed records still in the ring, oldest first. *)

val dropped : unit -> int
(** Completed records evicted from the ring, plus in-flight records
    evicted from the table, since capture started (or {!clear}). *)

val iter_in_flight : (record -> unit) -> unit
(** Iterate in-flight records in start order (deterministic). *)

val clear : unit -> unit
(** Drop all records and the drop count, keeping capture active. *)

val conservation_error : unit -> string option
(** The first completed op whose stage durations failed to sum to its
    end-to-end latency, if any.  Checked eagerly at {!finish}; the
    sticky error makes a cheap {!Check.Invariant} predicate. *)

val set_stage_sink : (int -> int -> unit) option -> unit
(** Install a callback receiving [(stage_index, duration_ns)] for every
    charged stamp.  [Sim] cannot depend on [Stats], so the histogram
    recording lives behind this hook; [Pony.Express] installs it. *)

val slow_ops_json : ?k:int -> unit -> string
(** The [k] (default 32) slowest completed ops as one JSON document:
    end-to-end latency, status, stall counts, and the full absolute
    stage timeline per op.  Deterministic: sorted by latency then
    start order. *)
