type t = {
  g_name : string;
  mutable v : float;
  mutable sampler : (unit -> float) option;
}

let create ~name = { g_name = name; v = 0.0; sampler = None }
let name t = t.g_name
let set t x = t.v <- x
let add t x = t.v <- t.v +. x

let set_sampler t f = t.sampler <- Some f

let value t = match t.sampler with Some f -> f () | None -> t.v

let reset t =
  t.v <- 0.0;
  t.sampler <- None

let pp fmt t = Format.fprintf fmt "%s=%g" t.g_name (value t)
