type t = { mutable n : int }

let create () = { n = 0 }
let incr ?(by = 1) t = t.n <- t.n + by
let value t = t.n
