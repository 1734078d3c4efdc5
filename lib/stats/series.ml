type t = {
  mutable times : Sim.Time.t array;
  mutable values : float array;
  mutable n : int;
}

let create () = { times = Array.make 64 0; values = Array.make 64 0.0; n = 0 }

let add t time v =
  if t.n = Array.length t.times then begin
    let cap = 2 * t.n in
    let times = Array.make cap 0 and values = Array.make cap 0.0 in
    Array.blit t.times 0 times 0 t.n;
    Array.blit t.values 0 values 0 t.n;
    t.times <- times;
    t.values <- values
  end;
  t.times.(t.n) <- time;
  t.values.(t.n) <- v;
  t.n <- t.n + 1

let max_value t =
  let best = ref 0.0 in
  for i = 0 to t.n - 1 do
    if t.values.(i) > !best then best := t.values.(i)
  done;
  !best

let iter t f =
  for i = 0 to t.n - 1 do
    f t.times.(i) t.values.(i)
  done
