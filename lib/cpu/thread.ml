module Time = Sim.Time

(* The one effect a thread performs: hand the core back to [step].  What
   the segment did is written into the ctx first, so the effect is a
   constant and a switch allocates only the continuation and its
   [Some]. *)
type _ Effect.t += Yield : unit Effect.t

type ctx = {
  mutable tsk : Sched.task option;
  m : Sched.machine;
  (* The parked body, resumed by the next [step] call. *)
  mutable k : (unit, unit) Effect.Deep.continuation option;
  (* Step result of the segment the body is running. *)
  mutable outcome : Sched.step_result;
}

let task ctx = match ctx.tsk with Some t -> t | None -> assert false
let now ctx = Sim.Loop.now (Sched.loop ctx.m)

let yield ctx outcome =
  ctx.outcome <- outcome;
  Effect.perform Yield

let compute ctx cost = yield ctx (Sched.ran cost)
let compute_nonpreemptible ctx cost = yield ctx (Sched.ran_nonpreemptible cost)
let wait ctx = yield ctx Sched.idle

let sleep ctx d =
  Sched.wake_after (task ctx) d;
  yield ctx Sched.idle

let syscall ctx cost = compute ctx (Time.add Sim.Costs.default.syscall cost)

let step ctx () =
  match ctx.k with
  | None -> Sched.finished
  | Some k ->
      ctx.k <- None;
      (* Left as it is when the body returns. *)
      ctx.outcome <- Sched.finished;
      Effect.Deep.continue k ();
      if ctx.outcome = Sched.finished && Option.is_some ctx.k then
        invalid_arg "Thread: yielded through another thread's ctx";
      ctx.outcome

let spawn m ~name ~account ~klass ?(idle = Sched.Block) body =
  let ctx = { tsk = None; m; k = None; outcome = Sched.finished } in
  let park = Some (fun k -> ctx.k <- Some k) in
  let handler : (unit, unit) Effect.Deep.handler =
    {
      retc = ignore;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield -> (park : ((a, unit) Effect.Deep.continuation -> unit) option)
          | _ -> None);
    }
  in
  (* Start the body parked before its first line, so every step resumes
     a continuation. *)
  Effect.Deep.match_with
    (fun ctx ->
      Effect.perform Yield;
      body ctx)
    ctx handler;
  let t = Sched.spawn m ~name ~account ~klass ~idle ~step:(step ctx) in
  ctx.tsk <- Some t;
  Sched.start t;
  t
