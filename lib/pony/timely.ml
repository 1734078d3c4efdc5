module Time = Sim.Time

type params = {
  t_low : Time.t;
  t_high : Time.t;
  min_rate_gbps : float;
  max_rate_gbps : float;
  additive_gbps : float;  (* additive increment per update *)
  beta : float;  (* multiplicative decrease factor *)
  hai_threshold : int;
      (* consecutive negative gradients before hyperactive increase *)
}

let default_params ~max_rate_gbps =
  {
    t_low = Time.us 15;
    t_high = Time.us 50;
    min_rate_gbps = 0.05;
    max_rate_gbps;
    additive_gbps = 0.5;
    beta = 0.8;
    hai_threshold = 5;
  }

(* The per-sample floats, in an all-float record so a store does not
   box. *)
type state = {
  mutable rate : float;  (* Gbps *)
  mutable prev_rtt : float;  (* ns *)
  mutable rtt_diff : float;  (* EWMA of RTT differences, ns *)
}

type t = {
  p : params;
  st : state;
  mutable neg_gradient_count : int;
  mutable min_rtt_seen : Time.t;
}

(* EWMA weight for the RTT-difference filter (Timely's alpha). *)
let alpha = 0.46

let create ~max_rate_gbps () =
  let p = default_params ~max_rate_gbps in
  {
    p;
    (* Start at half line rate: new flows probe upward quickly. *)
    st = { rate = p.max_rate_gbps /. 2.0; prev_rtt = 0.0; rtt_diff = 0.0 };
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
  let p = t.p in
  t.st.rate <-
    (if r > p.min_rate_gbps then
       if r < p.max_rate_gbps then r else p.max_rate_gbps
     else if p.min_rate_gbps < p.max_rate_gbps then p.min_rate_gbps
     else p.max_rate_gbps)

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
    if rtt < t.p.t_low then begin
      t.neg_gradient_count <- 0;
      set_rate t (st.rate +. t.p.additive_gbps)
    end
    else if rtt > t.p.t_high then begin
      t.neg_gradient_count <- 0;
      let over = float_of_int t.p.t_high /. rtt_f in
      set_rate t (st.rate *. (1.0 -. (t.p.beta *. (1.0 -. over))))
    end
    else if gradient <= 0.0 then begin
      t.neg_gradient_count <- t.neg_gradient_count + 1;
      let n = if t.neg_gradient_count >= t.p.hai_threshold then 5.0 else 1.0 in
      set_rate t (st.rate +. (n *. t.p.additive_gbps))
    end
    else begin
      t.neg_gradient_count <- 0;
      set_rate t (st.rate *. (1.0 -. (t.p.beta *. fmin 1.0 gradient)))
    end
  end

let on_loss t =
  t.neg_gradient_count <- 0;
  set_rate t (t.st.rate *. 0.5)

let pacing_gap t bytes =
  let rate = t.st.rate /. 8.0 in
  int_of_float (Float.round (float_of_int bytes /. fmax 1e-6 rate))
