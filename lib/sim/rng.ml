type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ~seed = { state = mix (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let s = bits64 t in
  { state = mix s }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Drop two bits so the result fits OCaml's 62-bit positive range;
     modulo bias is negligible against simulation-sized bounds. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod bound

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  (* 53 random bits scaled to [0, 1). *)
  v /. 9007199254740992.0 *. bound

let exponential t ~mean =
  let u = float t 1.0 in
  (* Guard against log 0. *)
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u

let gaussian t ~mean ~std =
  (* Box-Muller. *)
  let u1 = Stdlib.max (float t 1.0) 1e-12 in
  let u2 = float t 1.0 in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mean +. (std *. z)

let lognormal t ~mu ~sigma = exp (gaussian t ~mean:mu ~std:sigma)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
