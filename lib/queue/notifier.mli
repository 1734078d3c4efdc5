(** Eventfd-like edge-triggered notification.

    Engines occasionally communicate with outputs via interrupt delivery
    by writing to an eventfd-like construct (§2.2).  A notifier carries a
    callback armed by the consumer; [signal] fires it once and disarms,
    so redundant signals while the consumer is already awake are
    coalesced, as with a real eventfd. *)

type t

val create : unit -> t

val arm : t -> (unit -> unit) -> unit
(** Install the wake callback.  If a signal was latched while unarmed,
    the callback fires immediately. *)

val signal : t -> unit
(** Fire the armed callback (disarming it), or latch the signal if no
    callback is armed. *)

