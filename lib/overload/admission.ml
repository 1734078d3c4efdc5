type reject_reason = Over_op_quota | Over_byte_quota | Pool_exhausted | Rate_limited

type verdict = Admitted of Memory.Pool.alloc option | Rejected of reject_reason

type t = {
  (* The client's pool account, resolved once: admitting an op hashes
     nothing. *)
  acct : Memory.Pool.account;
  owner : string;
  max_ops : int;
  max_bytes : int;
  (* Token bucket over op submissions; [None] disables rate limiting. *)
  rate : float option;  (* tokens (ops) per ns *)
  burst : float;
  mutable tokens : float;
  mutable last_refill : Sim.Time.t;
  mutable out_ops : int;
  mutable out_bytes : int;
  c_admitted : Stats.Counter.t;
  c_rejected : Stats.Counter.t;
}

let create ~pool ~owner ?(max_ops = 256) ?(max_bytes = 4 lsl 20)
    ?rate_ops_per_sec ?(burst_ops = 32) () =
  if max_ops <= 0 then invalid_arg "Admission.create: max_ops";
  if max_bytes <= 0 then invalid_arg "Admission.create: max_bytes";
  (match rate_ops_per_sec with
  | Some r when r <= 0.0 -> invalid_arg "Admission.create: rate_ops_per_sec"
  | _ -> ());
  if burst_ops <= 0 then invalid_arg "Admission.create: burst_ops";
  let labels = [ ("client", owner) ] in
  {
    acct = Memory.Pool.account pool ~owner;
    owner;
    max_ops;
    max_bytes;
    rate = Option.map (fun r -> r /. 1e9) rate_ops_per_sec;
    burst = float_of_int burst_ops;
    tokens = float_of_int burst_ops;
    last_refill = 0;
    out_ops = 0;
    out_bytes = 0;
    c_admitted = Stats.Registry.counter ~labels "overload_ops_admitted";
    c_rejected = Stats.Registry.counter ~labels "overload_ops_rejected";
  }

let refill t ~now =
  match t.rate with
  | None -> ()
  | Some per_ns ->
      let dt = Sim.Time.sub now t.last_refill in
      if dt > 0 then begin
        t.last_refill <- now;
        t.tokens <- Float.min t.burst (t.tokens +. (float_of_int dt *. per_ns))
      end

let reject t reason =
  Stats.Counter.incr t.c_rejected;
  Rejected reason

let admit t ~now ~bytes =
  if bytes < 0 then invalid_arg "Admission.admit: bytes";
  refill t ~now;
  if t.out_ops >= t.max_ops then reject t Over_op_quota
  else if t.out_bytes + bytes > t.max_bytes then reject t Over_byte_quota
  else if t.rate <> None && t.tokens < 1.0 then reject t Rate_limited
  else begin
    let charge =
      if bytes = 0 then Some None
      else
        match Memory.Pool.try_alloc_from t.acct ~bytes with
        | Some a -> Some (Some a)
        | None -> None
    in
    match charge with
    | None -> reject t Pool_exhausted
    | Some c ->
        if t.rate <> None then t.tokens <- t.tokens -. 1.0;
        t.out_ops <- t.out_ops + 1;
        t.out_bytes <- t.out_bytes + bytes;
        Stats.Counter.incr t.c_admitted;
        Admitted c
  end

let release t charge =
  if t.out_ops <= 0 then invalid_arg "Admission.release: nothing outstanding";
  t.out_ops <- t.out_ops - 1;
  (match charge with
  | Some (a : Memory.Pool.alloc) ->
      t.out_bytes <- t.out_bytes - a.Memory.Pool.bytes;
      if a.Memory.Pool.live then Memory.Pool.free a
  | None -> ());
  if t.out_ops = 0 && t.out_bytes <> 0 then
    (* Charges and slots must drain together; a mismatch here is an
       accounting bug, catch it at the source. *)
    invalid_arg
      (Printf.sprintf "Admission.release: %s byte accounting skew (%d)"
         t.owner t.out_bytes)

let op_quota t = t.max_ops
let byte_quota t = t.max_bytes
let outstanding_ops t = t.out_ops
let outstanding_bytes t = t.out_bytes
let rejected t = Stats.Counter.value t.c_rejected
