type t = int

let zero = 0
let ns n = n
let us n = n * 1_000
let ms n = n * 1_000_000
let sec n = n * 1_000_000_000
let to_float_us t = float_of_int t /. 1_000.
let to_float_ms t = float_of_int t /. 1_000_000.
let to_float_sec t = float_of_int t /. 1e9
let add = ( + )
let sub = ( - )
let max = Int.max
let min = Int.min
let scale t f = int_of_float (Float.round (float_of_int t *. f))

let pp fmt t =
  let abs = Stdlib.abs t in
  if abs < 1_000 then Format.fprintf fmt "%dns" t
  else if abs < 1_000_000 then Format.fprintf fmt "%.1fus" (to_float_us t)
  else if abs < 1_000_000_000 then Format.fprintf fmt "%.1fms" (to_float_ms t)
  else Format.fprintf fmt "%.2fs" (to_float_sec t)
