(** Engine mailbox: the depth-1 control-to-engine channel of §2.3.

    Control-plane components post short sections of work that the engine
    executes synchronously on its own thread, lock-free and non-blocking
    for the engine.  The queue has depth one: a second post while an item
    is pending fails, and callers retry (the control plane is not
    latency-sensitive). *)

type t

val create : unit -> t

val post : t -> (unit -> unit) -> bool
(** [post t work] succeeds iff the mailbox is empty. *)

val service : t -> bool
(** Called by the engine on its thread each iteration: runs the pending
    work item if any.  Returns whether work was executed. *)

val posted : t -> int
(** Total successfully posted items. *)

val serviced : t -> int
