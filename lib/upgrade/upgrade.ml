module Time = Sim.Time
module Loop = Sim.Loop

type phase =
  | Prepare
  | Brownout
  | Blackout
  | Commit
  | Rollback of string
  | Retry of int
  | Give_up of string

let phase_to_string = function
  | Prepare -> "prepare"
  | Brownout -> "brownout"
  | Blackout -> "blackout"
  | Commit -> "commit"
  | Rollback r -> "rollback:" ^ r
  | Retry n -> Printf.sprintf "retry:%d" n
  | Give_up r -> "give-up:" ^ r

type outcome = Committed | Gave_up of string

type report = {
  engine_name : string;
  state_bytes : int;
  brownout_scheduled : Time.t;
  brownout : Time.t;  (* measured: blackout start - attempt start *)
  blackout : Time.t;  (* measured on the final attempt *)
  started_at : Time.t;
  finished_at : Time.t;
  attempts : int;
  rollbacks : int;
  outcome : outcome;
}

(* Spacing between consecutive engine migrations. *)
let gap = Time.ms 1

type config = {
  blackout_slo : Time.t option;
  max_attempts : int;
  retry_backoff : Time.t;
}

let default_config =
  {
    blackout_slo = None;
    max_attempts = 3;
    retry_backoff = Time.ms 5;
  }

let serialize_time bytes =
  int_of_float
    (Float.round
       (float_of_int bytes /. Sim.Costs.default.serialize_bytes_per_ns))

let blackout_of ~state_bytes =
  (* Detach filters + serialize + attach filters + deserialize. *)
  (2 * Sim.Costs.default.nic_filter_update) + (2 * serialize_time state_bytes)

(* The brownout transfers control-plane connections and pre-builds the
   new engine's structures in the background; its duration scales with
   the same state but at a fraction of the cost because it does not
   quiesce anything. *)
let brownout_of ~state_bytes =
  Time.max (Time.ms 1) (serialize_time (state_bytes / 4))

let upgrade ~loop ~old_group ~new_group
    ?(extra_state_bytes = fun _ -> 0) ?(config = default_config)
    ?(on_transition = fun ~engine:_ _ -> ()) ~on_done () =
  if config.max_attempts <= 0 then invalid_arg "Upgrade.upgrade: max_attempts";
  let queue = Queue.create () in
  List.iter (fun e -> Queue.add e queue) (Engine.engines old_group);
  let reports = ref [] in
  let rec next () =
    match Queue.take_opt queue with
    | None -> on_done (List.rev !reports)
    | Some e -> migrate e
  and migrate e =
    let name = Engine.name e in
    let started_at = Loop.now loop in
    let rollbacks = ref 0 in
    let track = "upgrade/" ^ name in
    let transition ph =
      if Sim.Span.enabled () then
        Sim.Span.emit loop ~cat:"upgrade" ~track (phase_to_string ph);
      on_transition ~engine:name ph
    in
    (* Retroactive window spans: measured only once the phase ends, so
       they are emitted with an explicit start timestamp. *)
    let window_span ~start ~dur what =
      if Sim.Span.enabled () && dur > 0 then
        Sim.Span.emit loop ~cat:"upgrade" ~track ~start ~dur what
    in
    let finish ~state_bytes ~brownout_scheduled ~brownout ~blackout ~attempts
        ~outcome =
      reports :=
        {
          engine_name = name;
          state_bytes;
          brownout_scheduled;
          brownout;
          blackout;
          started_at;
          finished_at = Loop.now loop;
          attempts;
          rollbacks = !rollbacks;
          outcome;
        }
        :: !reports;
      ignore (Loop.after loop gap next)
    in
    let rec attempt n =
      let attempt_start = Loop.now loop in
      let state_bytes = Engine.state_bytes e + extra_state_bytes e in
      let brownout_scheduled = brownout_of ~state_bytes in
      (* Abort the transaction: restore the old instance (state intact)
         and either retry after a backed-off delay or give up, leaving
         the engine in the old group.  [readd] is false when the
         transaction never took ownership (crash recovery may hold a
         pending reload we must not race). *)
      let abort ?(readd = true) ~brownout ~blackout reason =
        transition (Rollback reason);
        incr rollbacks;
        Engine.set_migrating e false;
        Engine.clear_failed e;
        if readd && not (Engine.is_attached e) then begin
          Engine.add old_group e;
          Engine.notify e
        end;
        if n >= config.max_attempts then begin
          transition (Give_up reason);
          finish ~state_bytes ~brownout_scheduled ~brownout ~blackout
            ~attempts:n ~outcome:(Gave_up reason)
        end
        else begin
          transition (Retry (n + 1));
          let backoff =
            Time.scale config.retry_backoff (2.0 ** float_of_int (n - 1))
          in
          ignore (Loop.after loop backoff (fun () -> attempt (n + 1)))
        end
      in
      transition Prepare;
      if not (Engine.is_attached e) then
        (* Engine is down (crashed, or crash recovery in flight): we
           cannot brown it out.  Leave it to its recovery and retry. *)
        abort ~readd:false ~brownout:0 ~blackout:0 "not-attached"
      else begin
        (* Brownout: background transfer; the engine keeps running. *)
        transition Brownout;
        ignore
          (Loop.after loop brownout_scheduled (fun () ->
               let black_start = Loop.now loop in
               let brownout = Time.sub black_start attempt_start in
               window_span ~start:attempt_start ~dur:brownout
                 "brownout_window";
               if not (Engine.is_attached e) then
                 (* Lost the engine during brownout (crash): nothing was
                    quiesced yet, so simply retry once it is back. *)
                 abort ~readd:false ~brownout ~blackout:0
                   "engine-lost-in-brownout"
               else begin
                 (* Blackout: the transaction takes ownership.  Cease
                    processing, detach filters, serialize. *)
                 Engine.set_migrating e true;
                 Engine.remove old_group e;
                 transition Blackout;
                 let blackout = blackout_of ~state_bytes in
                 let over_slo =
                   match config.blackout_slo with
                   | Some slo -> blackout > slo
                   | None -> false
                 in
                 if over_slo then
                   (* The serialize/deserialize would exceed the
                      per-engine blackout SLO: abort at the deadline and
                      resume the old instance rather than finish late. *)
                   let slo = Option.get config.blackout_slo in
                   ignore
                     (Loop.after loop slo (fun () ->
                          window_span ~start:black_start ~dur:slo
                            "blackout_window";
                          abort ~brownout ~blackout:slo
                            "blackout-slo-exceeded"))
                 else
                   ignore
                     (Loop.after loop blackout (fun () ->
                          Engine.set_migrating e false;
                          let measured =
                            Time.sub (Loop.now loop) black_start
                          in
                          window_span ~start:black_start ~dur:measured
                            "blackout_window";
                          if Engine.is_failed e then
                            (* A fault landed on the detached instance
                               mid-blackout: its serialized state is
                               suspect, so restore the old instance. *)
                            abort ~brownout ~blackout:measured
                              "fault-during-blackout"
                          else if Engine.is_attached e then
                            (* Someone (crash recovery racing us)
                               reattached the engine mid-blackout; it is
                               already serving, so do not move it. *)
                            abort ~brownout ~blackout:measured
                              "concurrent-recovery"
                          else begin
                            Engine.add new_group e;
                            Engine.notify e;
                            transition Commit;
                            finish ~state_bytes ~brownout_scheduled
                              ~brownout ~blackout:measured ~attempts:n
                              ~outcome:Committed
                          end))
               end))
      end
    in
    attempt 1
  in
  next ()
