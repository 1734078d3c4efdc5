(** Virtual-time span tracing.

    The simulator's one event trace: subsystems record named events —
    engine batch executions, Pony flow transmissions, upgrade phases,
    fault injections, host and watchdog lifecycle decisions — stamped
    with the virtual clock, grouped onto named tracks, and exportable as
    Chrome trace-event JSON (loadable in [chrome://tracing] or
    ui.perfetto.dev).

    Capture is global and off by default; when off, {!emit} is a single
    load-and-branch, so instrumented hot paths cost nothing measurable.
    Callers that build argument strings should guard the whole block
    with {!enabled}.  The ring is bounded and drops oldest-first;
    {!dropped} reports the overflow so exports are never silently
    truncated.  Events carry only simulation state, so same-seed runs
    produce byte-identical traces. *)

type event = {
  ev_name : string;
  ev_cat : string;
  ev_ts : Time.t;
  ev_dur : Time.t option;  (** [None] is an instant event *)
  ev_track : string;
  ev_args : (string * string) list;
  ev_flow : (int * bool) option;
      (** flow-event binding [(id, is_start)]; rendered as Chrome
          [ph:"s"] / [ph:"f"] so the two ends draw as one arrow *)
}

val set_capture : int option -> unit
(** [set_capture (Some n)] starts capturing into a fresh ring holding
    the most recent [n] events; [set_capture None] stops capturing and
    drops the ring.  @raise Invalid_argument on a non-positive size. *)

val enabled : unit -> bool
(** Cheap guard for instrumentation sites. *)

val emit :
  Loop.t ->
  ?cat:string ->
  ?track:string ->
  ?args:(string * string) list ->
  ?start:Time.t ->
  ?dur:Time.t ->
  string ->
  unit
(** [emit loop name] records an event at [Loop.now loop] on [track]
    (default ["main"], rendered as a thread lane).  With [dur] it
    becomes a span of that length; [start] overrides the begin
    timestamp, for spans measured only once they finish.  No-op while
    capture is off. *)

val emit_flow :
  Loop.t -> ?cat:string -> ?track:string -> id:int -> first:bool -> string -> unit
(** [emit_flow loop ~id ~first name] records one end of a flow arrow:
    [first = true] opens it, [first = false] closes it (bound to the
    enclosing slice's end).  The two ends must share [name], [cat], and
    [id] for viewers to connect them.  No-op while capture is off. *)

val events : unit -> event list
(** Captured events, oldest first; empty while capture is off. *)

val dropped : unit -> int
(** Events evicted from the ring since capture started. *)

val to_chrome_json : unit -> string
(** The capture as one Chrome trace-event JSON document: a
    [thread_name] metadata record per track, then every event in
    capture order ([ph:"X"] spans or [ph:"i"] instants, timestamps in
    microseconds), plus the drop count under [otherData]. *)
