type 'a slot = { value : 'a; enqueued_at : Sim.Time.t }

type 'a t = {
  ring_name : string;
  cap : int;
  mutable slots : 'a slot option array;
  mutable head : int;  (* next pop position *)
  mutable size : int;
  mutable n_pushed : int;
  mutable n_dropped : int;
}

let create ?(name = "") ~capacity () =
  if capacity <= 0 then invalid_arg "Spsc.create: capacity";
  {
    ring_name = name;
    cap = capacity;
    slots = Array.make capacity None;
    head = 0;
    size = 0;
    n_pushed = 0;
    n_dropped = 0;
  }

let name t = t.ring_name
let capacity t = t.cap
let length t = t.size
let is_empty t = t.size = 0
let is_full t = t.size = t.cap

let push t ~now v =
  if t.size = t.cap then begin
    t.n_dropped <- t.n_dropped + 1;
    false
  end
  else begin
    let tail = (t.head + t.size) mod t.cap in
    t.slots.(tail) <- Some { value = v; enqueued_at = now };
    t.size <- t.size + 1;
    t.n_pushed <- t.n_pushed + 1;
    true
  end

let pop t =
  if t.size = 0 then None
  else begin
    let slot = t.slots.(t.head) in
    t.slots.(t.head) <- None;
    t.head <- (t.head + 1) mod t.cap;
    t.size <- t.size - 1;
    match slot with
    | Some s -> Some s.value
    | None -> assert false
  end

let oldest_age t ~now =
  if t.size = 0 then 0
  else
    match t.slots.(t.head) with
    | Some s -> Sim.Time.sub now s.enqueued_at
    | None -> assert false

let pushed t = t.n_pushed
let dropped t = t.n_dropped

let drain t f =
  let n = ref 0 in
  let rec go () =
    match pop t with
    | Some v ->
        f v;
        incr n;
        go ()
    | None -> ()
  in
  go ();
  !n
