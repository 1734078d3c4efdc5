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

type t = {
  p : params;
  mutable rate : float;  (* Gbps *)
  mutable prev_rtt : float;  (* ns *)
  mutable rtt_diff : float;  (* EWMA of RTT differences, ns *)
  mutable neg_gradient_count : int;
  mutable min_rtt_seen : Time.t;
  mutable n_samples : int;
}

(* EWMA weight for the RTT-difference filter (Timely's alpha). *)
let alpha = 0.46

let create ~max_rate_gbps () =
  let p = default_params ~max_rate_gbps in
  {
    p;
    (* Start at half line rate: new flows probe upward quickly. *)
    rate = p.max_rate_gbps /. 2.0;
    prev_rtt = 0.0;
    rtt_diff = 0.0;
    neg_gradient_count = 0;
    min_rtt_seen = 0;
    n_samples = 0;
  }

let clamp t r = Float.min t.p.max_rate_gbps (Float.max t.p.min_rate_gbps r)

let on_rtt_sample t rtt =
  t.n_samples <- t.n_samples + 1;
  if t.min_rtt_seen = 0 || rtt < t.min_rtt_seen then t.min_rtt_seen <- rtt;
  let rtt_f = float_of_int rtt in
  if t.prev_rtt = 0.0 then t.prev_rtt <- rtt_f
  else begin
    let new_diff = rtt_f -. t.prev_rtt in
    t.prev_rtt <- rtt_f;
    t.rtt_diff <- ((1.0 -. alpha) *. t.rtt_diff) +. (alpha *. new_diff);
    let min_rtt = Float.max 1.0 (float_of_int t.min_rtt_seen) in
    let gradient = t.rtt_diff /. min_rtt in
    if rtt < t.p.t_low then begin
      t.neg_gradient_count <- 0;
      t.rate <- clamp t (t.rate +. t.p.additive_gbps)
    end
    else if rtt > t.p.t_high then begin
      t.neg_gradient_count <- 0;
      let over = float_of_int t.p.t_high /. rtt_f in
      t.rate <- clamp t (t.rate *. (1.0 -. (t.p.beta *. (1.0 -. over))))
    end
    else if gradient <= 0.0 then begin
      t.neg_gradient_count <- t.neg_gradient_count + 1;
      let n = if t.neg_gradient_count >= t.p.hai_threshold then 5.0 else 1.0 in
      t.rate <- clamp t (t.rate +. (n *. t.p.additive_gbps))
    end
    else begin
      t.neg_gradient_count <- 0;
      t.rate <- clamp t (t.rate *. (1.0 -. (t.p.beta *. Float.min 1.0 gradient)))
    end
  end

let on_loss t =
  t.neg_gradient_count <- 0;
  t.rate <- clamp t (t.rate *. 0.5)

let rate_gbps t = t.rate
let rate_bytes_per_ns t = t.rate /. 8.0
let min_rtt t = t.min_rtt_seen
let samples t = t.n_samples
