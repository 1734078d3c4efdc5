module Time = Sim.Time

(* The controller's constants, the same for every flow. *)
let t_low = Time.us 15
let t_high = Time.us 50
let min_rate_gbps = 0.05
let additive_gbps = 0.5  (* additive increment per update *)
let beta = 0.8  (* multiplicative decrease factor *)

(* Consecutive negative gradients before hyperactive increase. *)
let hai_threshold = 5

(* EWMA weight for the RTT-difference filter (Timely's alpha). *)
let alpha = 0.46

(* The per-flow floats, in an all-float record so a store does not
   box. *)
type state = {
  max_rate_gbps : float;
  mutable rate : float;  (* Gbps *)
  mutable prev_rtt : float;  (* ns *)
  mutable rtt_diff : float;  (* EWMA of RTT differences, ns *)
}

type t = {
  st : state;
  mutable neg_gradient_count : int;
  mutable min_rtt_seen : Time.t;
}

let create ~max_rate_gbps () =
  {
    (* Start at half line rate: new flows probe upward quickly. *)
    st =
      { max_rate_gbps; rate = max_rate_gbps /. 2.0; prev_rtt = 0.0; rtt_diff = 0.0 };
    neg_gradient_count = 0;
    min_rtt_seen = 0;
  }

(* [Float.max] and [Float.min] without their NaN handling (no value
   here is NaN), inlined so no float is boxed. *)
let[@inline] fmax (a : float) b = if b > a then b else a
let[@inline] fmin (a : float) b = if b < a then b else a

(* Store [r] clamped to [min_rate_gbps, max_rate_gbps]: [fmin hi (fmax
   lo r)] spelled out, so every branch stores an unboxed float. *)
let[@inline] set_rate t r =
  let st = t.st in
  let hi = st.max_rate_gbps in
  st.rate <-
    (if r > min_rate_gbps then if r < hi then r else hi
     else if min_rate_gbps < hi then min_rate_gbps
     else hi)

let on_rtt_sample t rtt =
  if t.min_rtt_seen = 0 || rtt < t.min_rtt_seen then t.min_rtt_seen <- rtt;
  let st = t.st in
  let rtt_f = float_of_int rtt in
  if st.prev_rtt = 0.0 then st.prev_rtt <- rtt_f
  else begin
    let new_diff = rtt_f -. st.prev_rtt in
    st.prev_rtt <- rtt_f;
    st.rtt_diff <- ((1.0 -. alpha) *. st.rtt_diff) +. (alpha *. new_diff);
    let min_rtt = fmax 1.0 (float_of_int t.min_rtt_seen) in
    let gradient = st.rtt_diff /. min_rtt in
    if rtt < t_low then begin
      t.neg_gradient_count <- 0;
      set_rate t (st.rate +. additive_gbps)
    end
    else if rtt > t_high then begin
      t.neg_gradient_count <- 0;
      let over = float_of_int t_high /. rtt_f in
      set_rate t (st.rate *. (1.0 -. (beta *. (1.0 -. over))))
    end
    else if gradient <= 0.0 then begin
      t.neg_gradient_count <- t.neg_gradient_count + 1;
      let n = if t.neg_gradient_count >= hai_threshold then 5.0 else 1.0 in
      set_rate t (st.rate +. (n *. additive_gbps))
    end
    else begin
      t.neg_gradient_count <- 0;
      set_rate t (st.rate *. (1.0 -. (beta *. fmin 1.0 gradient)))
    end
  end

let on_loss t =
  t.neg_gradient_count <- 0;
  set_rate t (t.st.rate *. 0.5)

let pacing_gap t bytes =
  let rate = t.st.rate /. 8.0 in
  int_of_float (Float.round (float_of_int bytes /. fmax 1e-6 rate))
