(* Int-indexed flat arena with generation-tagged handles.

   Mirrors the [Pool.release_owner] generation idiom at object
   granularity: every slot carries a generation counter, bumped on
   free, and a handle minted under an older generation simply misses —
   [get] returns [None], [free] returns [false].  Stale access is a
   checked no-op, never a use-after-free.

   A handle packs (generation, index) into an immediate int, so
   minting, storing and comparing one allocates nothing. *)

type handle = int

let idx_bits = 30
let idx_mask = (1 lsl idx_bits) - 1
let gen_mask = max_int lsr idx_bits

type 'a t = {
  mutable data : 'a option array;
  mutable gens : int array;
  (* LIFO free list of slot indices; [free_top] entries are valid. *)
  mutable free_slots : int array;
  mutable free_top : int;
  mutable high : int;  (* slots [0, high) have been minted at least once *)
}

let handle_of t i = (t.gens.(i) lsl idx_bits) lor i

let initial = 64

let create () =
  {
    data = Array.make initial None;
    gens = Array.make initial 0;
    free_slots = Array.make initial 0;
    free_top = 0;
    high = 0;
  }

let grow t =
  let cap = Array.length t.data in
  let cap' = cap * 2 in
  let data' = Array.make cap' None in
  Array.blit t.data 0 data' 0 cap;
  t.data <- data';
  let gens' = Array.make cap' 0 in
  Array.blit t.gens 0 gens' 0 cap;
  t.gens <- gens';
  let free' = Array.make cap' 0 in
  Array.blit t.free_slots 0 free' 0 t.free_top;
  t.free_slots <- free'

let alloc t v =
  let idx =
    if t.free_top > 0 then begin
      t.free_top <- t.free_top - 1;
      t.free_slots.(t.free_top)
    end
    else begin
      if t.high = Array.length t.data then begin
        if t.high > idx_mask then failwith "Arena: too many slots";
        grow t
      end;
      let i = t.high in
      t.high <- t.high + 1;
      i
    end
  in
  t.data.(idx) <- Some v;
  handle_of t idx

let is_live t h =
  let i = h land idx_mask in
  h >= 0 && i < t.high
  && t.gens.(i) = h lsr idx_bits
  && match t.data.(i) with Some _ -> true | None -> false

let get t h = if is_live t h then t.data.(h land idx_mask) else None

(* Vacate live slot [i]: bump the generation so handles minted for its
   previous occupant miss forever. *)
let release t i =
  t.data.(i) <- None;
  t.gens.(i) <- (t.gens.(i) + 1) land gen_mask;
  t.free_slots.(t.free_top) <- i;
  t.free_top <- t.free_top + 1

let free t h =
  if not (is_live t h) then false
  else begin
    release t (h land idx_mask);
    true
  end

let take t h =
  if not (is_live t h) then None
  else begin
    let i = h land idx_mask in
    let v = t.data.(i) in
    release t i;
    v
  end
