module Time = Sim.Time

type _ Effect.t +=
  | Compute : Time.t -> unit Effect.t
  | Compute_np : Time.t -> unit Effect.t
  | Wait : unit Effect.t
  | Sleep : Time.t -> unit Effect.t

type ctx = {
  mutable tsk : Sched.task option;
  m : Sched.machine;
  (* Continuation to run on the next [step] call, set each time the body
     performs an effect. *)
  mutable resume : (unit -> unit) option;
  (* Step result produced by the last segment of the body. *)
  mutable outcome : Sched.step_result;
}

let task ctx = match ctx.tsk with Some t -> t | None -> assert false
let machine ctx = ctx.m
let now ctx = Sim.Loop.now (Sched.loop ctx.m)

let compute _ctx cost = Effect.perform (Compute cost)
let compute_nonpreemptible _ctx cost = Effect.perform (Compute_np cost)
let wait _ctx = Effect.perform Wait
let sleep _ctx d = Effect.perform (Sleep d)

let syscall ctx cost = compute ctx (Time.add Sim.Costs.default.syscall cost)

let step ctx () =
  match ctx.resume with
  | None -> Sched.Finished
  | Some f ->
      ctx.resume <- None;
      ctx.outcome <- Sched.Finished;
      f ();
      ctx.outcome

let spawn m ~name ~account ~klass ?(idle = Sched.Block) body =
  let ctx = { tsk = None; m; resume = None; outcome = Sched.Finished } in
  let handler : (unit, unit) Effect.Deep.handler =
    {
      retc = (fun () -> ctx.outcome <- Sched.Finished);
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Compute cost ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  ctx.outcome <- Sched.Ran cost;
                  ctx.resume <- Some (fun () -> Effect.Deep.continue k ()))
          | Compute_np cost ->
              Some
                (fun k ->
                  ctx.outcome <- Sched.Ran_nonpreemptible cost;
                  ctx.resume <- Some (fun () -> Effect.Deep.continue k ()))
          | Wait ->
              Some
                (fun k ->
                  ctx.outcome <- Sched.Idle;
                  ctx.resume <- Some (fun () -> Effect.Deep.continue k ()))
          | Sleep d ->
              Some
                (fun k ->
                  ctx.outcome <- Sched.Idle;
                  ctx.resume <- Some (fun () -> Effect.Deep.continue k ());
                  ignore
                    (Sim.Loop.after (Sched.loop m) d (fun () ->
                         Sched.wake (task ctx))))
          | _ -> None);
    }
  in
  ctx.resume <- Some (fun () -> Effect.Deep.match_with body ctx handler);
  let t = Sched.spawn m ~name ~account ~klass ~idle ~step:(step ctx) in
  ctx.tsk <- Some t;
  Sched.start t;
  t
