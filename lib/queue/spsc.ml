(* Slots are two parallel arrays: [items] keeps the option [push]
   built, so [pop] returns it without allocating, and [times] the
   enqueue times.  Both start empty and double on demand up to [cap], so
   a mostly idle ring costs a few words rather than [cap] slots. *)

type 'a t = {
  cap : int;
  mutable items : 'a option array;
  mutable times : int array;
  mutable head : int;  (* next pop position *)
  mutable size : int;
}

let create ~capacity () =
  if capacity <= 0 then invalid_arg "Spsc.create: capacity";
  {
    cap = capacity;
    items = [||];
    times = [||];
    head = 0;
    size = 0;
  }

let capacity t = t.cap
let length t = t.size
let is_empty t = t.size = 0

(* Room for one more: grow, unwrapping the ring to start at 0. *)
let grow t =
  let n = Array.length t.items in
  let n' = Int.min t.cap (Int.max 8 (2 * n)) in
  let items = Array.make n' None and times = Array.make n' 0 in
  for i = 0 to t.size - 1 do
    let j = t.head + i in
    let j = if j >= n then j - n else j in
    items.(i) <- t.items.(j);
    times.(i) <- t.times.(j)
  done;
  t.items <- items;
  t.times <- times;
  t.head <- 0

let push t ~now v =
  if t.size = t.cap then false
  else begin
    if t.size = Array.length t.items then grow t;
    let n = Array.length t.items in
    let tail = t.head + t.size in
    let tail = if tail >= n then tail - n else tail in
    t.items.(tail) <- Some v;
    t.times.(tail) <- now;
    t.size <- t.size + 1;
    true
  end

let pop t =
  if t.size = 0 then None
  else begin
    let slot = t.items.(t.head) in
    t.items.(t.head) <- None;
    let next = t.head + 1 in
    t.head <- (if next = Array.length t.items then 0 else next);
    t.size <- t.size - 1;
    slot
  end

let oldest_age t ~now =
  if t.size = 0 then 0 else Sim.Time.sub now t.times.(t.head)
