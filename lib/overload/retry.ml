type policy = {
  max_attempts : int;
  base_delay : Sim.Time.t;
  multiplier : float;
  max_delay : Sim.Time.t;
  op_timeout : Sim.Time.t option;
}

let default_policy =
  {
    max_attempts = 4;
    base_delay = Sim.Time.us 50;
    multiplier = 2.0;
    max_delay = Sim.Time.ms 1;
    op_timeout = Some (Sim.Time.ms 5);
  }

let delay_before p ~attempt =
  if attempt <= 1 then 0
  else begin
    (* Clamp in float space: for large attempt counts the exponential
       exceeds [max_int] and [int_of_float] on such a float is
       unspecified (observed going negative).  The exponent itself is
       capped so pathological attempt values cannot even overflow the
       float range into [infinity *. 0.0 = nan] territory. *)
    let exponent = float_of_int (Int.min (attempt - 2) 1024) in
    let scaled = float_of_int p.base_delay *. (p.multiplier ** exponent) in
    if Float.is_nan scaled then p.max_delay
    else if scaled >= float_of_int p.max_delay then p.max_delay
    else Sim.Time.max 0 (int_of_float scaled)
  end

let attempts_exhausted p ~attempt = attempt > p.max_attempts
