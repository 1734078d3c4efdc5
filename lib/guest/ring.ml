module Time = Sim.Time

type status = Complete | Rejected | Timed_out | Busy | Cancelled | Failed

type desc = { d_id : int; d_off : int; d_len : int; posted_at : Time.t }
type used = { u_id : int; u_len : int; u_status : status }

type fault_reason = Bad_range | Empty_slot | Rollback | Overcommit

type take_verdict =
  | Take_empty
  | Take_ok of desc
  | Take_bad of fault_reason * desc
  | Take_drop of fault_reason
  | Take_stop of fault_reason

type t = {
  rname : string;
  reg : Memory.Region.t;
  cap : int;
  descs : desc option array;
  useds : used option array;
  (* Free-running indices: slot = index mod cap.  [avail - reaped <=
     cap] is the single fullness condition; it bounds reuse of both
     arrays because taken and used are sandwiched between them.
     Ownership matters for trust: [avail] and [reaped] belong to the
     guest and may hold anything a hostile driver writes; [taken] and
     [used] belong to the host and are the only indices the backend's
     safety rests on. *)
  mutable avail : int;
  mutable taken : int;
  mutable used : int;
  mutable reaped : int;
  (* Host-side shadow of the largest avail value ever observed, the
     rollback detector: a guest may only grow its index. *)
  mutable max_avail : int;
  mutable post_fail : int;
  c_post_bad : Stats.Counter.t;
  kick : Squeue.Notifier.t;
}

let create ?(name = "ring") ~region ~slots () =
  if slots <= 0 then invalid_arg "Guest.Ring.create: slots";
  {
    rname = name;
    reg = region;
    cap = slots;
    descs = Array.make slots None;
    useds = Array.make slots None;
    avail = 0;
    taken = 0;
    used = 0;
    reaped = 0;
    max_avail = 0;
    post_fail = 0;
    c_post_bad =
      Stats.Registry.counter ~labels:[ ("ring", name) ] "ring_post_bad_range";
    kick = Squeue.Notifier.create ();
  }

let capacity t = t.cap
let occupancy t = t.avail - t.reaped
let backlog t = t.avail - t.taken
let in_flight t = t.taken - t.used
let take_pending t = t.avail <> t.taken || t.avail <> t.max_avail
let avail_idx t = t.avail
let taken_idx t = t.taken
let used_idx t = t.used
let post_failures t = t.post_fail
let post_bad_range t = Stats.Counter.value t.c_post_bad

(* Raw indices may be negative after hostile writes; slots must not be. *)
let slot t i = ((i mod t.cap) + t.cap) mod t.cap

let in_region t ~off ~len =
  off >= 0 && len >= 0 && off + len <= Memory.Region.size t.reg

let post t ~now ~id ~off ~len =
  if not (in_region t ~off ~len) then begin
    (* A buggy (non-hostile) guest driver: counted, non-fatal.  The
       descriptor never reaches the ring, so the host side needs no
       defense against it here. *)
    Stats.Counter.incr t.c_post_bad;
    false
  end
  else if occupancy t >= t.cap then begin
    t.post_fail <- t.post_fail + 1;
    false
  end
  else begin
    t.descs.(slot t t.avail) <-
      Some { d_id = id; d_off = off; d_len = len; posted_at = now };
    t.avail <- t.avail + 1;
    Squeue.Notifier.signal t.kick;
    true
  end

(* {1 Byzantine guest surface}

   What a hostile driver actually does to shared memory: no bounds
   check, no fullness check, arbitrary index writes, kicks with nothing
   behind them.  Safety lives entirely on the host's take side. *)

let post_raw t ~now ~id ~off ~len =
  t.descs.(slot t t.avail) <-
    Some { d_id = id; d_off = off; d_len = len; posted_at = now };
  t.avail <- t.avail + 1;
  Squeue.Notifier.signal t.kick

let set_avail_raw t v =
  t.avail <- v;
  Squeue.Notifier.signal t.kick

let kick_raw t = Squeue.Notifier.signal t.kick

let take_checked t =
  if t.avail > t.max_avail then t.max_avail <- t.avail;
  if t.avail < t.max_avail then begin
    (* The guest's index regressed.  Re-sync the shadow so one verdict
       covers the whole regression — but never below [taken]: the host
       really consumed that many entries, and the shadow is the host's
       record of it ([check_host] asserts taken <= max_avail). *)
    t.max_avail <- Int.max t.avail t.taken;
    Take_stop Rollback
  end
  else if t.taken >= t.avail then Take_empty
  else if t.taken - t.reaped >= t.cap then begin
    (* The guest posted past capacity without reaping.  Taking further
       would eventually publish a used entry on top of one the guest has
       not collected; refuse until the guest reaps (it never does — the
       mux scores the violation and escalates). *)
    Take_stop Overcommit
  end
  else begin
    let s = slot t t.taken in
    t.taken <- t.taken + 1;
    match t.descs.(s) with
    | None ->
        (* avail covers a slot no descriptor was ever written to (index
           runahead): consumed as a drop, nothing to complete. *)
        Take_drop Empty_slot
    | Some d ->
        if not (in_region t ~off:d.d_off ~len:d.d_len) then
          Take_bad (Bad_range, d)
        else Take_ok d
  end

let complete t ~id ~len ~status =
  if t.used >= t.taken then
    invalid_arg
      (Printf.sprintf "Guest.Ring.complete(%s): more completions than takes"
         t.rname);
  t.useds.(slot t t.used) <- Some { u_id = id; u_len = len; u_status = status };
  t.used <- t.used + 1

let pop_used t =
  if t.reaped >= t.used then None
  else begin
    let u = t.useds.(slot t t.reaped) in
    t.reaped <- t.reaped + 1;
    u
  end

let oldest_pending_age t ~now =
  if t.taken >= t.avail then 0
  else
    match t.descs.(slot t t.taken) with
    | Some d -> Time.sub now d.posted_at
    | None -> 0

let arm_kick t cb = Squeue.Notifier.arm t.kick cb

let check_host t =
  let fail fmt = Printf.ksprintf (fun s -> Some (t.rname ^ ": " ^ s)) fmt in
  if t.taken < 0 || t.used < 0 then
    fail "host index negative (taken %d, used %d)" t.taken t.used
  else if t.used > t.taken then
    fail "used %d ahead of taken %d" t.used t.taken
  else if t.taken > t.max_avail then
    fail "taken %d beyond any observed avail %d" t.taken t.max_avail
  else None

let monitor t =
  (* Only host-owned indices are asserted: [avail] and [reaped] belong
     to the guest and may legitimately do anything under a byzantine
     driver — their abuse is scored by the mux, not treated as a host
     invariant violation. *)
  let last = ref (0, 0) in
  fun () ->
    match check_host t with
    | Some _ as e -> e
    | None ->
        let lt, lu = !last in
        let r =
          if t.taken < lt || t.used < lu then
            Some
              (Printf.sprintf
                 "%s: host index regressed (taken %d<%d or used %d<%d)" t.rname
                 t.taken lt t.used lu)
          else None
        in
        last := (t.taken, t.used);
        r
