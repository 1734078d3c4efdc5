(** Shared memory regions.

    Applications share memory with Snap by passing tmpfs-backed file
    descriptors over a Unix domain socket (§3.1); here a region is an
    object handed across the simulated control channel.  Regions up to
    16 MiB carry real backing bytes by default, so the regions that
    functional tests read check one-sided operations for value
    correctness.  Larger regions, and those built with [~backed:false],
    are unbacked: writes are dropped and reads return deterministic
    synthetic bytes derived from the offset.  A guest tenant's buffer
    region is built unbacked, because only its size is ever read. *)

type t

type id = int

val create :
  ?backed:bool -> id:id -> size:int -> owner:string -> unit -> t
(** [create ~backed ~id ~size ~owner ()] makes a region.  [backed]
    defaults to [size <= 16 MiB].  [owner] names the region's user at
    the call site; the region does not keep it. *)

val id : t -> id
val size : t -> int
val is_backed : t -> bool

val read_int64 : t -> int -> int64
(** Read 8 bytes little-endian at the given offset. *)

val write_int64 : t -> int -> int64 -> unit
(** Writes are ignored on unbacked regions (the bytes are synthetic). *)
