type t = { mutable v : float; mutable sampler : (unit -> float) option }

let create () = { v = 0.0; sampler = None }
let set t x = t.v <- x
let add t x = t.v <- t.v +. x

let set_sampler t f = t.sampler <- Some f

let value t = match t.sampler with Some f -> f () | None -> t.v
