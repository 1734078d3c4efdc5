module Time = Sim.Time
module Loop = Sim.Loop
module Sched = Cpu.Sched

(* A batch's cost, or [no_work]: an immediate, so a step allocates
   nothing. *)
type outcome = int

let no_work = -1

let worked cost =
  if cost < 0 then invalid_arg "Engine.worked: negative cost" else cost

(* Cost of servicing one posted mailbox item on the engine thread. *)
let mailbox_service_cost = Time.ns 250

(* Rebalancer period for the compacting scheduler: "the speed of
   rebalancing is constrained by the latency in polling for queueing
   delays" (§2.4). *)
let rebalance_period = Time.us 25

(* CPU a wedged engine burns per quantum: stuck in a loop, making no
   progress and never servicing its mailbox. *)
let wedge_spin_cost = Time.us 1

type t = {
  e_name : string;
  run_fn : unit -> outcome;
  qdelay : Time.t -> Time.t;
  state_size : unit -> int;
  mb : Squeue.Mailbox.t;
  mutable n_steps : int;
  mutable work_ns : int;
  mutable owner : cthread option;
  mutable e_epoch : int;  (* bumped on every (re)attach *)
  mutable wedged : bool;
  mutable fail_flag : bool;  (* fault landed on a detached instance *)
  mutable migrating : bool;  (* under an upgrade transaction's blackout *)
  mutable home : group option;  (* group the engine last belonged to *)
  h_delay : Stats.Histogram.t;  (* queueing delay observed at batch start *)
  h_cost : Stats.Histogram.t;  (* per-batch execution cost *)
}

and cthread = {
  tid : int;
  task : Sched.task;
  grp : group;
  mutable owned : t list;
}

and mode =
  | Dedicating of { cores : int }
  | Spreading of { runtime_pct : float }
  | Spreading_class of Sched.klass
  | Compacting of { slo : Time.t; max_threads : int }

and group = {
  g_name : string;
  g_mode : mode;
  m : Sched.machine;
  lp : Loop.t;
  mutable threads : cthread list;  (* ascending tid *)
  mutable all : t list;
  mutable next_tid : int;
  mutable rr : int;
}

let create ~name ~run ?(queue_delay = fun _ -> 0)
    ?(state_bytes = fun () -> 0) () =
  {
    e_name = name;
    run_fn = run;
    qdelay = queue_delay;
    state_size = state_bytes;
    mb = Squeue.Mailbox.create ();
    n_steps = 0;
    work_ns = 0;
    owner = None;
    e_epoch = 0;
    wedged = false;
    fail_flag = false;
    migrating = false;
    home = None;
    h_delay =
      Stats.Registry.histogram
        ~labels:[ ("engine", name) ]
        "engine_sched_delay_ns";
    h_cost =
      Stats.Registry.histogram
        ~labels:[ ("engine", name) ]
        "engine_batch_cost_ns";
  }

let name e = e.e_name
let mailbox e = e.mb
let state_bytes e = e.state_size ()
let steps e = e.n_steps
let busy_ns e = e.work_ns
let is_attached e = Option.is_some e.owner
let epoch e = e.e_epoch
let is_wedged e = e.wedged
let set_wedged e b = e.wedged <- b
let is_failed e = e.fail_flag
let mark_failed e = e.fail_flag <- true
let clear_failed e = e.fail_flag <- false
let is_migrating e = e.migrating
let set_migrating e b = e.migrating <- b
let home e = e.home

let notify e =
  match e.owner with Some ct -> Sched.kick ct.task | None -> ()

(* One engine batch as a span, built only while capture is on; the
   track identifies the lane (group/thread) the batch ran on. *)
let batch_span ct e ~now ~outcome ~dur =
  Sim.Span.emit ct.grp.lp ~cat:"engine"
    ~track:(Printf.sprintf "%s/t%d" ct.grp.g_name ct.tid)
    ~args:
      (("account", "snap") :: ("outcome", outcome)
      ::
      (match Sched.task_core ct.task with
      | Some cid -> [ ("core", string_of_int cid) ]
      | None -> []))
    ~start:now ~dur e.e_name

(* One engine's share of a quantum: the CPU it spent. *)
let step_engine ct now e =
  if e.wedged then begin
    (* A wedged engine spins without servicing its mailbox or making
       progress: the silent failure mode the watchdog's heartbeats exist
       to detect. *)
    if Sim.Span.enabled () then
      batch_span ct e ~now ~outcome:"wedged" ~dur:wedge_spin_cost;
    wedge_spin_cost
  end
  else begin
    if Check.Invariant.enabled () && e.migrating && e.owner = None then
      (* An upgrade transaction owns a migrating engine (blackout) and
         detached it; a scheduler thread still stepping it means a stale
         owned-list reference survived the detach.  (A migrating engine
         that crash recovery re-attached is legal — the upgrade aborts
         that race at commit.) *)
      raise
        (Check.Invariant.Violation
           (Printf.sprintf "engine %s stepped while migrating detached"
              e.e_name));
    let mailbox = if Squeue.Mailbox.service e.mb then mailbox_service_cost else 0 in
    let c = e.run_fn () in
    if c = no_work then mailbox
    else begin
      e.n_steps <- e.n_steps + 1;
      e.work_ns <- e.work_ns + c;
      Stats.Histogram.record e.h_delay (e.qdelay now);
      Stats.Histogram.record e.h_cost c;
      if Sim.Span.enabled () then batch_span ct e ~now ~outcome:"worked" ~dur:c;
      mailbox + c
    end
  end

let rec step_engines ct now cost = function
  | [] -> cost
  | e :: rest -> step_engines ct now (cost + step_engine ct now e) rest

(* One scheduling quantum of a thread: service mailboxes, then give each
   owned engine one bounded batch. *)
let thread_step ct () =
  let cost = step_engines ct (Loop.now ct.grp.lp) 0 ct.owned in
  if cost > 0 then Sched.ran cost else Sched.idle

let spawn_thread g ~klass ~idle =
  let tid = g.next_tid in
  g.next_tid <- tid + 1;
  (* The task's step closure needs the thread record; tie the knot with
     a forward reference. *)
  let ct_ref = ref None in
  let step () =
    match !ct_ref with Some ct -> thread_step ct () | None -> Sched.idle
  in
  let task =
    Sched.spawn g.m
      ~name:(Printf.sprintf "%s/t%d" g.g_name tid)
      ~account:"snap" ~klass ~idle ~step
  in
  let ct = { tid; task; grp = g; owned = [] } in
  ct_ref := Some ct;
  g.threads <- g.threads @ [ ct ];
  ct

let group_mode g = g.g_mode
let engines g = g.all

(* -- Compacting rebalancer --------------------------------------------- *)

let thread_delay now ct =
  List.fold_left (fun acc e -> Time.max acc (e.qdelay now)) 0 ct.owned

let move_engine e ~src ~dst =
  src.owned <- List.filter (fun x -> not (x == e)) src.owned;
  dst.owned <- dst.owned @ [ e ];
  e.owner <- Some dst

let activate ct =
  Sched.set_idle_policy ct.task Sched.Spin;
  Sched.kick ct.task

let deactivate ct =
  (* Thread 0 always keeps one spinning core in its most compacted state
     (§5.3: the compacting scheduler's least-loaded state spin-polls on
     a single core). *)
  if ct.tid <> 0 then begin
    Sched.set_idle_policy ct.task Sched.Block;
    Sched.retire_spin ct.task
  end

let rebalance g () =
  let now = Loop.now g.lp in
  match g.g_mode with
  | Dedicating _ | Spreading _ | Spreading_class _ -> ()
  | Compacting { slo; max_threads = _ } -> (
      let active = List.filter (fun ct -> ct.owned <> []) g.threads in
      let inactive = List.filter (fun ct -> ct.owned = []) g.threads in
      (* Scale out: worst thread above the SLO sheds its most delayed
         engine to an idle thread. *)
      let worst =
        List.fold_left
          (fun best ct ->
            match best with
            | None -> Some (ct, thread_delay now ct)
            | Some (_, d) ->
                let d' = thread_delay now ct in
                if d' > d then Some (ct, d') else best)
          None active
      in
      match worst with
      | Some (ct, d) when d > slo && List.length ct.owned > 1 -> (
          match inactive with
          | it :: _ -> (
              let victim =
                List.fold_left
                  (fun best e ->
                    match best with
                    | None -> Some e
                    | Some b -> if e.qdelay now > b.qdelay now then Some e else best)
                  None ct.owned
              in
              match victim with
              | Some e ->
                  move_engine e ~src:ct ~dst:it;
                  activate it
              | None -> ())
          | [] -> ())
      | Some _ | None -> (
          (* Compact: when everything is comfortably below the SLO and
             more than one thread is active, merge the least loaded
             thread into the busiest remaining one. *)
          match active with
          | _ :: _ :: _
            when List.for_all
                   (fun ct -> thread_delay now ct < Time.scale slo 0.125)
                   active -> (
              let sorted =
                List.sort
                  (fun a b -> compare (thread_delay now a) (thread_delay now b))
                  active
              in
              match sorted with
              | donor :: rest -> (
                  match List.rev rest with
                  | receiver :: _ ->
                      List.iter
                        (fun e -> move_engine e ~src:donor ~dst:receiver)
                        donor.owned;
                      deactivate donor;
                      Sched.kick receiver.task
                  | [] -> ())
              | [] -> ())
          | _ -> ()))

let create_group ~machine ~name ~mode =
  let g =
    {
      g_name = name;
      g_mode = mode;
      m = machine;
      lp = Sched.loop machine;
      threads = [];
      all = [];
      next_tid = 0;
      rr = 0;
    }
  in
  (match mode with
  | Dedicating { cores } ->
      if cores <= 0 then invalid_arg "Engine.create_group: cores";
      for _ = 1 to cores do
        let core = Sched.reserve_core machine in
        let ct = spawn_thread g ~klass:(Sched.Pinned core) ~idle:Sched.Spin in
        Sched.start ct.task
      done
  | Spreading { runtime_pct } ->
      if runtime_pct <= 0.0 || runtime_pct > 1.0 then
        invalid_arg "Engine.create_group: runtime_pct"
  | Spreading_class _ -> ()
  | Compacting { slo; max_threads } ->
      if max_threads <= 0 then invalid_arg "Engine.create_group: max_threads";
      if slo <= 0 then invalid_arg "Engine.create_group: slo";
      for i = 0 to max_threads - 1 do
        let ct =
          spawn_thread g
            ~klass:(Sched.Micro_quanta { runtime_pct = 1.0 })
            ~idle:(if i = 0 then Sched.Spin else Sched.Block)
        in
        Sched.start ct.task
      done;
      ignore (Loop.every g.lp rebalance_period (rebalance g)));
  g

let add g e =
  if Option.is_some e.owner then invalid_arg "Engine.add: already attached";
  (* (Re)loading an engine instantiates it afresh: the epoch bump lets
     transports detect the restart and resynchronize, and any stuck
     computation of the previous instance is discarded.  Queued ring and
     mailbox inputs survive (§4.3). *)
  e.e_epoch <- e.e_epoch + 1;
  e.wedged <- false;
  e.home <- Some g;
  g.all <- g.all @ [ e ];
  match g.g_mode with
  | Dedicating { cores } ->
      let ct = List.nth g.threads (g.rr mod cores) in
      g.rr <- g.rr + 1;
      ct.owned <- ct.owned @ [ e ];
      e.owner <- Some ct;
      Sched.kick ct.task
  | Spreading { runtime_pct } ->
      let ct =
        spawn_thread g ~klass:(Sched.Micro_quanta { runtime_pct })
          ~idle:Sched.Block
      in
      ct.owned <- [ e ];
      e.owner <- Some ct;
      Sched.start ct.task
  | Spreading_class klass ->
      let ct = spawn_thread g ~klass ~idle:Sched.Block in
      ct.owned <- [ e ];
      e.owner <- Some ct;
      Sched.start ct.task
  | Compacting _ -> (
      (* Join the busiest active thread; the rebalancer spreads from
         there if needed. *)
      let active = List.filter (fun ct -> ct.owned <> []) g.threads in
      match active with
      | ct :: _ ->
          ct.owned <- ct.owned @ [ e ];
          e.owner <- Some ct;
          Sched.kick ct.task
      | [] -> (
          match g.threads with
          | ct :: _ ->
              ct.owned <- [ e ];
              e.owner <- Some ct;
              activate ct
          | [] -> assert false))

let remove g e =
  (match e.owner with
  | Some ct ->
      ct.owned <- List.filter (fun x -> not (x == e)) ct.owned;
      e.owner <- None;
      if ct.owned = [] then begin
        match g.g_mode with
        | Compacting _ -> deactivate ct
        | Dedicating _ | Spreading _ | Spreading_class _ -> ()
      end
  | None -> ());
  g.all <- List.filter (fun x -> not (x == e)) g.all

module Element = struct
  module Packet = Memory.Packet

  type action = Pass of Packet.t | Drop | Consume

  type t = { el_name : string; cost : Time.t; process : Packet.t -> action }

  let make ~name ~cost process = { el_name = name; cost; process }

  let name t = t.el_name

  let counter ~name = make ~name ~cost:(Time.ns 15) (fun p -> Pass p)

  let acl ~name ~allow =
    make ~name ~cost:(Time.ns 40) (fun p -> if allow p then Pass p else Drop)

  let token_bucket ~name ~loop ~rate_gbps ~burst_bytes =
    if rate_gbps <= 0.0 || burst_bytes <= 0 then
      invalid_arg "Element.token_bucket";
    (* Tokens are bytes; refill lazily from the virtual clock. *)
    let tokens = ref (float_of_int burst_bytes) in
    let last = ref (Sim.Loop.now loop) in
    let refill () =
      let now = Sim.Loop.now loop in
      let dt = float_of_int (Time.sub now !last) in
      last := now;
      tokens :=
        Float.min
          (float_of_int burst_bytes)
          (!tokens +. (dt *. rate_gbps /. 8.0))
    in
    make ~name ~cost:(Time.ns 50) (fun p ->
        refill ();
        let need = float_of_int p.Packet.wire_bytes in
        if !tokens >= need then begin
          tokens := !tokens -. need;
          Pass p
        end
        else Drop)

  module Pipeline = struct
    type element = t
    type nonrec t = { stages : element list }

    let of_list stages = { stages }

    let push t pkt =
      let rec go stages pkt cost =
        match stages with
        | [] -> (Some pkt, cost)
        | el :: rest -> (
            let cost = Time.add cost el.cost in
            match el.process pkt with
            | Pass pkt -> go rest pkt cost
            | Drop | Consume -> (None, cost))
      in
      go t.stages pkt Time.zero
  end
end
