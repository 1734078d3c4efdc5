(* Pending closures live in a slot table: [fns] holds each slot's
   closure, [gens] its generation, and [free] a stack of vacant slots.
   The heap orders slot ids, so scheduling and firing an event allocate
   nothing beyond the caller's closure.  A handle packs (generation,
   slot) into an immediate int; the generation is bumped whenever a
   slot is taken, so a handle outliving its event never matches the
   slot's next occupant.

   A slot is pending while it holds a closure other than [nothing].
   [cancel] empties it but leaves it owned by its heap entry, which
   still holds the slot id; the slot returns to the free stack when
   that entry pops.  [every] keeps one extra slot, never in the heap,
   as its cancellation switch. *)

type handle = int

let slot_bits = 30
let slot_mask = (1 lsl slot_bits) - 1
let gen_mask = max_int lsr slot_bits

let nothing () = ()

type t = {
  mutable clock : Time.t;
  events : Heap.t;
  root_rng : Rng.t;
  mutable fns : (unit -> unit) array;
  mutable gens : int array;
  mutable free : int array;
  mutable n_free : int;
  mutable n_slots : int;  (* slots [0, n_slots) have been taken at least once *)
}

let initial_slots = 64

let create ?(seed = 42) ?(tie_salt = 0) () =
  {
    clock = Time.zero;
    events = Heap.create ~salt:tie_salt ();
    root_rng = Rng.create ~seed;
    fns = Array.make initial_slots nothing;
    gens = Array.make initial_slots 0;
    free = Array.make initial_slots 0;
    n_free = 0;
    n_slots = 0;
  }

let now t = t.clock
let rng t = t.root_rng
let tie_salt t = Heap.salt t.events
let validate_heap t = Heap.validate t.events

let grow t =
  let cap = Array.length t.fns in
  if 2 * cap > slot_mask + 1 then failwith "Loop: too many pending events";
  let extend a fill =
    let fresh = Array.make (2 * cap) fill in
    Array.blit a 0 fresh 0 cap;
    fresh
  in
  t.fns <- extend t.fns nothing;
  t.gens <- extend t.gens 0;
  t.free <- extend t.free 0

let take_slot t fn =
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
  let gen = (t.gens.(s) + 1) land gen_mask in
  t.gens.(s) <- gen;
  t.fns.(s) <- fn;
  (gen lsl slot_bits) lor s

let release_slot t s =
  t.free.(t.n_free) <- s;
  t.n_free <- t.n_free + 1

let is_pending t h =
  let s = h land slot_mask in
  s < t.n_slots && t.gens.(s) = h lsr slot_bits && t.fns.(s) != nothing

let cancel t h = if is_pending t h then t.fns.(h land slot_mask) <- nothing

let at t when_ fn =
  let when_ = if when_ < t.clock then t.clock else when_ in
  let h = take_slot t fn in
  Heap.add t.events ~key:when_ (h land slot_mask);
  h

let after t d fn = at t (Time.add t.clock d) fn

let every t period fn =
  let control = take_slot t fn in
  let first = Time.add t.clock period in
  let rec tick () =
    if is_pending t control then begin
      fn ();
      ignore (at t (Time.add t.clock period) tick)
    end
    else release_slot t (control land slot_mask)
  in
  ignore (at t first tick);
  control

let step t =
  if Heap.is_empty t.events then false
  else begin
    let key = Heap.top_key t.events in
    let s = Heap.pop_exn t.events in
    if key > t.clock then t.clock <- key;
    let fn = t.fns.(s) in
    t.fns.(s) <- nothing;
    release_slot t s;
    fn ();
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
