(* Pending events live in a slot table: [fns] holds a closure event's
   closure, [hids] and [args] a handler event's handler id and int
   argument, [gens] each slot's generation, and [free] a stack of vacant
   slots.  The heap orders slot ids, so scheduling and firing a handler
   event allocate nothing, and a closure event allocates only the
   caller's closure.  A handle packs (generation, slot) into an
   immediate int; the generation is bumped whenever a slot is taken, so
   a handle outliving its event never matches the slot's next occupant.

   [hids.(s)] says what slot [s] holds: [vacant], [closure_event], or a
   handler id.  [cancel] marks it vacant but leaves it owned by its heap
   entry, which still holds the slot id; the slot returns to the free
   stack when that entry pops.  [every] keeps one extra slot, never in
   the heap, as its cancellation switch. *)

type handle = int
type handler = int

let slot_bits = 30
let slot_mask = (1 lsl slot_bits) - 1
let gen_mask = max_int lsr slot_bits

(* No slot reaches [slot_mask] (see [grow]), so this never matches. *)
let none = -1

let vacant = -2
let closure_event = -1
let nothing () = ()
let no_handler (_ : int) = ()

type t = {
  mutable clock : Time.t;
  events : Heap.t;
  root_rng : Rng.t;
  mutable fns : (unit -> unit) array;
  mutable hids : int array;
  mutable args : int array;
  mutable gens : int array;
  mutable free : int array;
  mutable n_free : int;
  mutable n_slots : int;  (* slots [0, n_slots) have been taken at least once *)
  mutable handlers : (int -> unit) array;
  mutable n_handlers : int;
}

let initial_slots = 64

let create ?(seed = 42) ?(tie_salt = 0) () =
  {
    clock = Time.zero;
    events = Heap.create ~salt:tie_salt ();
    root_rng = Rng.create ~seed;
    fns = Array.make initial_slots nothing;
    hids = Array.make initial_slots vacant;
    args = Array.make initial_slots 0;
    gens = Array.make initial_slots 0;
    free = Array.make initial_slots 0;
    n_free = 0;
    n_slots = 0;
    handlers = Array.make 8 no_handler;
    n_handlers = 0;
  }

let now t = t.clock
let rng t = t.root_rng
let tie_salt t = Heap.salt t.events
let validate_heap t = Heap.validate t.events

let grow t =
  let cap = Array.length t.fns in
  if 2 * cap > slot_mask then failwith "Loop: too many pending events";
  let extend a fill =
    let fresh = Array.make (2 * cap) fill in
    Array.blit a 0 fresh 0 cap;
    fresh
  in
  t.fns <- extend t.fns nothing;
  t.hids <- extend t.hids vacant;
  t.args <- extend t.args 0;
  t.gens <- extend t.gens 0;
  t.free <- extend t.free 0

let take_slot t =
  let s =
    if t.n_free > 0 then begin
      t.n_free <- t.n_free - 1;
      t.free.(t.n_free)
    end
    else begin
      if t.n_slots = Array.length t.fns then grow t;
      let s = t.n_slots in
      t.n_slots <- s + 1;
      s
    end
  in
  t.gens.(s) <- (t.gens.(s) + 1) land gen_mask;
  s

let handle_of t s = (t.gens.(s) lsl slot_bits) lor s

let take_closure_slot t fn =
  let s = take_slot t in
  t.fns.(s) <- fn;
  t.hids.(s) <- closure_event;
  s

let release_slot t s =
  t.free.(t.n_free) <- s;
  t.n_free <- t.n_free + 1

let is_pending t h =
  let s = h land slot_mask in
  s < t.n_slots && t.gens.(s) = h lsr slot_bits && t.hids.(s) <> vacant

let cancel t h =
  if is_pending t h then begin
    let s = h land slot_mask in
    if t.hids.(s) = closure_event then t.fns.(s) <- nothing;
    t.hids.(s) <- vacant
  end

let clamp t when_ = if when_ < t.clock then t.clock else when_

let at t when_ fn =
  let when_ = clamp t when_ in
  let s = take_closure_slot t fn in
  Heap.add t.events ~key:when_ s;
  handle_of t s

let after t d fn = at t (Time.add t.clock d) fn

let handler t f =
  let id = t.n_handlers in
  if id = Array.length t.handlers then begin
    let fresh = Array.make (2 * id) no_handler in
    Array.blit t.handlers 0 fresh 0 id;
    t.handlers <- fresh
  end;
  t.handlers.(id) <- f;
  t.n_handlers <- id + 1;
  id

let at_h t when_ h arg =
  let when_ = clamp t when_ in
  let s = take_slot t in
  t.hids.(s) <- h;
  t.args.(s) <- arg;
  Heap.add t.events ~key:when_ s;
  handle_of t s

let after_h t d h arg = at_h t (Time.add t.clock d) h arg

let every t period fn =
  let control = take_closure_slot t fn in
  let first = Time.add t.clock period in
  let control_h = handle_of t control in
  let rec tick () =
    if is_pending t control_h then begin
      fn ();
      ignore (at t (Time.add t.clock period) tick)
    end
    else release_slot t control
  in
  ignore (at t first tick);
  control_h

let step t =
  if Heap.is_empty t.events then false
  else begin
    let key = Heap.top_key t.events in
    let s = Heap.pop_exn t.events in
    if key > t.clock then t.clock <- key;
    let hid = t.hids.(s) in
    t.hids.(s) <- vacant;
    if hid = closure_event then begin
      let fn = t.fns.(s) in
      t.fns.(s) <- nothing;
      release_slot t s;
      fn ()
    end
    else begin
      let arg = t.args.(s) in
      release_slot t s;
      if hid <> vacant then t.handlers.(hid) arg
    end;
    true
  end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some limit ->
      while
        (not (Heap.is_empty t.events)) && Heap.top_key t.events <= limit
      do
        ignore (step t)
      done;
      if limit > t.clock then t.clock <- limit

let pending_events t = Heap.length t.events
