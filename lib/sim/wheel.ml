(* Hierarchical timing wheel, ticked from the Loop.

   Six levels of 256 slots each; level [l] buckets timers by bits
   [8l, 8l+8) of their absolute due tick.  A timer lives at the lowest
   level whose next-higher page matches the wheel's current base, so
   arming and cancelling are O(1) and a timer cascades down at most
   [levels - 1] times before firing.

   The wheel is tickless: it keeps exactly one pending Loop event — at
   the earliest tick that could fire or cascade something — and none at
   all when no live timers are armed, so an idle wheel never keeps the
   loop from quiescing.  A tick is one nanosecond, so firing times are
   exact (never quantized), and same-instant timers fire in the same
   salted tie-break order as [Heap]: FIFO under salt 0, a SplitMix64
   shuffle of sequence numbers otherwise.  Cancellation is lazy — a
   dead timer stays in its slot until the wheel next visits it, which
   costs at most one spurious wake-up. *)

let levels = 6
let slot_bits = 8
let slot_count = 1 lsl slot_bits
let slot_mask = slot_count - 1

type timer = {
  w_wheel : t;
  w_due : Time.t;
  mutable w_tick : int;
  w_seq : int;
  mutable w_live : bool;
  mutable w_fn : unit -> unit;
}

and t = {
  loop : Loop.t;
  salt : int;
  slots : timer list array array;
  (* Entries (live or cancelled) per level; lets the reschedule scan
     skip empty levels. *)
  occ : int array;
  mutable base : int;
  mutable next_seq : int;
  mutable n_live : int;
  mutable wake : Loop.handle option;
  mutable wake_tick : int;
}

let nothing () = ()

let create ~loop () =
  {
    loop;
    salt = Loop.tie_salt loop;
    slots = Array.init levels (fun _ -> Array.make slot_count []);
    occ = Array.make levels 0;
    base = 0;
    next_seq = 0;
    n_live = 0;
    wake = None;
    wake_tick = 0;
  }

let is_armed w = w.w_live

(* The heap's own tie rank, so wheel ties replay identically under a
   given salt. *)
let fire_order t a b =
  if a.w_due <> b.w_due then compare a.w_due b.w_due
  else
    let ra = Heap.tie_rank ~salt:t.salt a.w_seq
    and rb = Heap.tie_rank ~salt:t.salt b.w_seq in
    if ra <> rb then compare ra rb else compare a.w_seq b.w_seq

(* Lowest level whose enclosing page already matches the base; the
   timer cascades down one or more levels each time the base enters its
   page. *)
let level_of t dtick =
  let rec find l =
    if l >= levels - 1 then levels - 1
    else if
      dtick lsr (slot_bits * (l + 1)) = t.base lsr (slot_bits * (l + 1))
    then l
    else find (l + 1)
  in
  find 0

let insert t w =
  let l = level_of t w.w_tick in
  let s = (w.w_tick lsr (slot_bits * l)) land slot_mask in
  t.slots.(l).(s) <- w :: t.slots.(l).(s);
  t.occ.(l) <- t.occ.(l) + 1

(* Earliest tick at which any slot could fire or cascade: for level 0
   that is the slot's own tick, for higher levels the moment the base
   enters the slot's page. *)
let next_interesting t =
  let best = ref max_int in
  if t.occ.(0) > 0 then begin
    let page = (t.base lsr slot_bits) lsl slot_bits in
    let s = ref ((t.base land slot_mask) + 1) in
    let found = ref false in
    while (not !found) && !s < slot_count do
      if t.slots.(0).(!s) <> [] then begin
        best := page lor !s;
        found := true
      end;
      incr s
    done
  end;
  for l = 1 to levels - 1 do
    if t.occ.(l) > 0 then begin
      let shift = slot_bits * l in
      let cur = (t.base lsr shift) land slot_mask in
      let pagebase = t.base lsr (shift + slot_bits) in
      for s = 0 to slot_count - 1 do
        if t.slots.(l).(s) <> [] then begin
          let occurs =
            if s > cur then ((pagebase lsl slot_bits) lor s) lsl shift
            else (((pagebase + 1) lsl slot_bits) lor s) lsl shift
          in
          if occurs < !best then best := occurs
        end
      done
    end
  done;
  if !best = max_int then None else Some !best

let rec set_wake t tk =
  match t.wake with
  | Some h when Loop.is_pending t.loop h && t.wake_tick <= tk -> ()
  | prev ->
      (match prev with Some h -> Loop.cancel t.loop h | None -> ());
      t.wake_tick <- tk;
      t.wake <- Some (Loop.at t.loop tk (fun () -> advance t tk))

and advance t tk =
  t.wake <- None;
  t.base <- tk;
  (* Cascade the slot the base just entered at every level, top down;
     re-inserted timers land strictly lower (or fire below). *)
  for l = levels - 1 downto 1 do
    if t.occ.(l) > 0 then begin
      let s = (tk lsr (slot_bits * l)) land slot_mask in
      let entries = t.slots.(l).(s) in
      if entries <> [] then begin
        t.slots.(l).(s) <- [];
        List.iter
          (fun w ->
            t.occ.(l) <- t.occ.(l) - 1;
            if w.w_live then insert t w)
          entries
      end
    end
  done;
  (* Fire the due slot in salted tie-break order. *)
  let s0 = tk land slot_mask in
  let entries = t.slots.(0).(s0) in
  if entries <> [] then begin
    t.slots.(0).(s0) <- [];
    t.occ.(0) <- t.occ.(0) - List.length entries;
    let due = List.filter (fun w -> w.w_live) entries in
    let due = List.sort (fire_order t) due in
    List.iter
      (fun w ->
        (* Re-check: an earlier timer in this batch may have cancelled
           this one. *)
        if w.w_live then begin
          w.w_live <- false;
          t.n_live <- t.n_live - 1;
          let fn = w.w_fn in
          w.w_fn <- nothing;
          fn ()
        end)
      due
  end;
  if t.n_live > 0 then
    match next_interesting t with
    | Some tk' -> set_wake t tk'
    | None -> ()

let arm t ~at fn =
  let due_tick = Int.max at (t.base + 1) in
  let w =
    {
      w_wheel = t;
      w_due = at;
      w_tick = due_tick;
      w_seq = t.next_seq;
      w_live = true;
      w_fn = fn;
    }
  in
  t.next_seq <- t.next_seq + 1;
  t.n_live <- t.n_live + 1;
  insert t w;
  set_wake t due_tick;
  w

let cancel w =
  if w.w_live then begin
    w.w_live <- false;
    w.w_fn <- nothing;
    w.w_wheel.n_live <- w.w_wheel.n_live - 1
  end
