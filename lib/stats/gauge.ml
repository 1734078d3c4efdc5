type t = { mutable sampler : unit -> float }

let create f = { sampler = f }
let set_sampler t f = t.sampler <- f
let value t = t.sampler ()
