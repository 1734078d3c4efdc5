(* [counts] covers bucket indices [0, Array.length counts) and grows on
   demand up to [max_index]: buckets past the end hold zero, so every
   walk over [counts] reads the same as over a full-size array.  Most
   histograms see a narrow value range, and per-engine ones exist by
   the hundred. *)
type t = {
  mutable counts : int array;
  mutable total : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
}

(* Each power-of-two range splits into [2^sub_bits] linear buckets. *)
let sub_bits = 5

(* Values up to 2^62 land below this index. *)
let max_index = ((63 - sub_bits) * (1 lsl sub_bits)) + (1 lsl (sub_bits + 1))

let create () =
  { counts = [||]; total = 0; sum = 0; min_v = max_int; max_v = 0 }

(* Make bucket [idx] addressable: at least double, never past
   [max_index]. *)
let grow t idx =
  let n = Array.length t.counts in
  if idx >= n then begin
    let fresh =
      Array.make (Int.min max_index (Int.max (idx + 1) (2 * n))) 0
    in
    Array.blit t.counts 0 fresh 0 n;
    t.counts <- fresh
  end

let msb_position v =
  (* Position of the most significant set bit; v > 0. *)
  let rec go v acc = if v = 1 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let index_of v =
  if v < 1 lsl (sub_bits + 1) then v
  else
    let m = msb_position v in
    let shift = m - sub_bits in
    (shift lsl sub_bits) + (v lsr shift)

(* Inverse of [index_of]: midpoint of the bucket. *)
let value_of idx =
  if idx < 1 lsl (sub_bits + 1) then idx
  else
    let shift = (idx lsr sub_bits) - 1 in
    let sub = idx land ((1 lsl sub_bits) - 1) lor (1 lsl sub_bits) in
    let low = sub lsl shift in
    low + (1 lsl (shift - 1))

let record t v =
  let v = if v < 0 then 0 else v in
  let idx = index_of v in
  if idx >= Array.length t.counts then grow t idx;
  t.counts.(idx) <- t.counts.(idx) + 1;
  t.total <- t.total + 1;
  t.sum <- t.sum + v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.total
let min_value t = if t.total = 0 then 0 else t.min_v
let max_value t = t.max_v
let sum t = t.sum
let mean t = if t.total = 0 then 0.0 else float_of_int t.sum /. float_of_int t.total

let percentile t p =
  if t.total = 0 then 0
  else begin
    let q = Float.min 1.0 (Float.max 0.0 (p /. 100.)) in
    let target = int_of_float (Float.round (q *. float_of_int t.total)) in
    let target = if target < 1 then 1 else target in
    let acc = ref 0 and result = ref t.max_v and found = ref false in
    let i = ref 0 in
    let n = Array.length t.counts in
    while (not !found) && !i < n do
      acc := !acc + t.counts.(!i);
      if !acc >= target then begin
        result := value_of !i;
        found := true
      end;
      incr i
    done;
    (* Clamp into the observed range: bucket midpoints can stick out. *)
    Int.min (Int.max !result t.min_v) t.max_v
  end

(* Bucket bounds: [low, low + width).  Derived the same way as
   [value_of]'s midpoint. *)
let bucket_bounds idx =
  if idx < 1 lsl (sub_bits + 1) then (float_of_int idx, 1.0)
  else
    let shift = (idx lsr sub_bits) - 1 in
    let sub = idx land ((1 lsl sub_bits) - 1) lor (1 lsl sub_bits) in
    (float_of_int (sub lsl shift), float_of_int (1 lsl shift))

let quantile_interp t q =
  if t.total = 0 then 0.0
  else begin
    let q = Float.min 1.0 (Float.max 0.0 q) in
    (* Rank in [0, total - 1], continuous: linear interpolation within
       the bucket the rank lands in, like a sorted-array quantile with
       each bucket's mass spread evenly over its value range. *)
    let rank = q *. float_of_int (t.total - 1) in
    let acc = ref 0 and result = ref (float_of_int t.max_v) in
    let found = ref false in
    let i = ref 0 in
    let n = Array.length t.counts in
    while (not !found) && !i < n do
      let c = t.counts.(!i) in
      if c > 0 && rank < float_of_int (!acc + c) then begin
        let low, width = bucket_bounds !i in
        (* Clamped: in the bucket's top half-slot the midpoint offset
           would carry the value past the bucket's end, above a larger
           rank's value in the next bucket. *)
        let frac =
          Float.min 1.0 ((rank -. float_of_int !acc +. 0.5) /. float_of_int c)
        in
        result := low +. (frac *. width);
        found := true
      end;
      acc := !acc + c;
      incr i
    done;
    Float.min (Float.max !result (float_of_int (min_value t))) (float_of_int t.max_v)
  end

let merge_into ~src ~dst =
  grow dst (Array.length src.counts - 1);
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  dst.total <- dst.total + src.total;
  dst.sum <- dst.sum + src.sum;
  if src.total > 0 then begin
    if src.min_v < dst.min_v then dst.min_v <- src.min_v;
    if src.max_v > dst.max_v then dst.max_v <- src.max_v
  end

let clear t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.total <- 0;
  t.sum <- 0;
  t.min_v <- max_int;
  t.max_v <- 0

let pp_summary fmt t =
  if t.total = 0 then Format.fprintf fmt "(empty)"
  else
    Format.fprintf fmt
      "n=%d mean=%a p50=%a p90=%a p99=%a p99.9=%a max=%a" t.total Sim.Time.pp
      (int_of_float (mean t))
      Sim.Time.pp (percentile t 50.) Sim.Time.pp (percentile t 90.) Sim.Time.pp
      (percentile t 99.) Sim.Time.pp (percentile t 99.9) Sim.Time.pp t.max_v
