module Time = Sim.Time
module Loop = Sim.Loop

let costs = Sim.Costs.default

(* A step result packs its cost above a two-bit tag, so a step returns
   an immediate and allocates nothing. *)
type step_result = int

let tag_bits = 2
let tag_mask = (1 lsl tag_bits) - 1
let tag_ran_nonpreemptible = 1
let idle = 2
let finished = 3
let ran cost = cost lsl tag_bits
let ran_nonpreemptible cost = (cost lsl tag_bits) lor tag_ran_nonpreemptible

type idle_policy = Spin | Block

(* A float alone in a record is stored flat, so updating it allocates
   nothing; a mutable float field of a mixed record boxes every store. *)
type fcell = { mutable f : float }

type klass =
  | Pinned of int
  | Micro_quanta of { runtime_pct : float }
  | Cfs of { nice : int }

(* Scheduler parameters.  CFS re-evaluates at millisecond granularity (the
   kernel's scheduling granularity); MicroQuanta slices at tens of
   microseconds (section 2.4.1: "scalable time slicing at microsecond
   granularity"). *)
let cfs_slice = Time.ms 1
let mq_quantum = Time.us 50
let mq_period = Time.ms 1
let spin_discovery = Time.ns 60
let wake_vruntime_bonus = 3.0e6 (* ns: CFS wakeup placement credit *)

(* CFS wakeup preemption honors the scheduler's minimum granularity: a
   running fair task keeps the CPU for at least this long even when a
   higher-weight fair task wakes.  Real-time (MicroQuanta) wakeups are
   not subject to it — that asymmetry is Figure 6(d). *)
let cfs_min_granularity = Time.us 750

type task_state =
  | Created
  | Ready
  | Running of int  (* core id *)
  | Spinning of int  (* core id *)
  | Blocked
  | Throttled
  | Done

type task = {
  t_name : string;
  tid : int;  (* index into the machine's task table *)
  account : string;
  (* The account's counter, resolved on the first charge, so an account
     nothing charged has no table entry. *)
  mutable acct : int ref option;
  klass : klass;
  vr_scale : float;  (* vruntime ns per CPU ns: 1024 / weight, 0 if not fair *)
  mutable idle : idle_policy;
  step : unit -> step_result;
  m : machine;
  mutable state : task_state;
  mutable gen : int;  (* invalidates stale step events *)
  mutable spin_start : Time.t;
  vruntime : fcell;
  mutable slice_used : int;
  mutable mq_consumed : int;
  mutable mq_period_start : Time.t;
  mutable preempt_rt : bool;  (* an RT task wants this core *)
  mutable preempt_fair : bool;  (* a fair task wants this core *)
  mutable wake_pending : bool;
}

and core = {
  cid : int;
  (* [Running cid] and [Spinning cid], built once: a task enters one of
     them on nearly every step. *)
  st_running : task_state;
  st_spinning : task_state;
  mutable current : task option;
  mutable reserved : bool;
  mutable idle_since : Time.t;
  mutable steal : int;  (* interrupt time to inject before the next step *)
  mutable nonpreempt_until : Time.t;
  mutable core_busy : int;  (* task + softirq ns attributed to this core *)
  mutable switches : int;  (* dispatches onto this core *)
  (* A fair task woken onto this busy core (wake affinity): it runs when
     this core yields, rather than migrating instantly to whichever core
     frees first — load balancing is much slower than wakeups. *)
  mutable waiter : task option;
}

and machine = {
  lp : Loop.t;
  m_name : string;
  (* The step event of every task: the argument packs (generation, task
     id, core id), see [pack_step]. *)
  on_step : Loop.handler;
  cores_arr : core array;
  mq_ready : task Queue.t;
  cfs_ready : Sim.Heap.t;  (* task ids keyed by vruntime *)
  mutable tasks : task array;  (* by [tid]; ids are never reused *)
  mutable n_tasks : int;
  (* Every sleeping thread's wake: the argument is the task id. *)
  on_wake : Loop.handler;
  (* Every interrupt's delivery: the argument is its slot in [irqs]. *)
  on_irq : Loop.handler;
  irqs : irq_slots;
  account_tbl : (string, int ref) Hashtbl.t;
  (* The "softirq" counter, resolved on its first charge as a task
     resolves [acct]. *)
  mutable softirq : int ref option;
  vr_clock : fcell;
  mutable rr_interrupt : int;
  mutable total_busy : int;
  mutable m_cost_scale : float;
}

(* Interrupts awaiting delivery: slot [s] holds the target core id,
   the cost and the handler of one, and [free] stacks the vacant slots.
   The arrays grow on demand; a slot drops its handler when it fires. *)
and irq_slots = {
  mutable core_of : int array;
  mutable cost_of : int array;
  mutable fn_of : (unit -> unit) array;
  mutable free : int array;
  mutable n_free : int;
  mutable n_slots : int;  (* slots [0, n_slots) have been taken *)
}

(* Per-core utilization and context-switch gauges.  Pull-model: the
   registry samples live core state at snapshot time, and re-creating a
   machine under the same name re-points the gauges at the new cores
   (last registration wins). *)
let register_core_gauges m =
  Array.iter
    (fun core ->
      let labels =
        [ ("machine", m.m_name); ("core", string_of_int core.cid) ]
      in
      ignore
        (Stats.Registry.gauge_fn ~labels "cpu_core_utilization" (fun () ->
             let now = Loop.now m.lp in
             if now <= 0 then 0.0
             else float_of_int core.core_busy /. float_of_int now));
      ignore
        (Stats.Registry.gauge_fn ~labels "cpu_core_context_switches"
           (fun () -> float_of_int core.switches)))
    m.cores_arr

let machine_name m = m.m_name
let num_cores m = Array.length m.cores_arr

let set_cost_scale m scale =
  if scale < 1.0 then invalid_arg "Sched.set_cost_scale";
  m.m_cost_scale <- scale


let scale_cost m c =
  if m.m_cost_scale = 1.0 then c
  else int_of_float (Float.round (float_of_int c *. m.m_cost_scale))
let loop m = m.lp

let reserve_core m =
  let rec find i =
    if i >= Array.length m.cores_arr then failwith "Sched.reserve_core: none left"
    else if m.cores_arr.(i).reserved then find (i + 1)
    else begin
      m.cores_arr.(i).reserved <- true;
      i
    end
  in
  (* Reserve from the top so core 0 stays available for floating work. *)
  let rec find_top i =
    if i < 0 then find 0
    else if m.cores_arr.(i).reserved then find_top (i - 1)
    else begin
      m.cores_arr.(i).reserved <- true;
      i
    end
  in
  find_top (Array.length m.cores_arr - 1)

(* -- Accounting ------------------------------------------------------- *)

let account_ref m account =
  match Hashtbl.find_opt m.account_tbl account with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add m.account_tbl account r;
      r

let softirq_add m cost =
  m.total_busy <- m.total_busy + cost;
  let r =
    match m.softirq with
    | Some r -> r
    | None ->
        let r = account_ref m "softirq" in
        m.softirq <- Some r;
        r
  in
  r := !r + cost

let charge task cost =
  (match task.state with
  | Running cid | Spinning cid ->
      let core = task.m.cores_arr.(cid) in
      core.core_busy <- core.core_busy + cost
  | Created | Ready | Blocked | Throttled | Done -> ());
  let m = task.m in
  m.total_busy <- m.total_busy + cost;
  let r =
    match task.acct with
    | Some r -> r
    | None ->
        let r = account_ref m task.account in
        task.acct <- Some r;
        r
  in
  r := !r + cost

(* Spin time is CPU time: a spinning task holds its core busy.  The
   interval is folded in when the spin ends; live queries add the
   in-progress interval. *)
let live_spin_ns task =
  match task.state with
  | Spinning _ -> Time.sub (Loop.now task.m.lp) task.spin_start
  | Created | Ready | Running _ | Blocked | Throttled | Done -> 0


let machine_live_spin m =
  Array.fold_left
    (fun acc core ->
      match core.current with Some t -> acc + live_spin_ns t | None -> acc)
    0 m.cores_arr

let busy_ns m = m.total_busy + machine_live_spin m

let account_busy_ns m account =
  let base =
    match Hashtbl.find_opt m.account_tbl account with Some r -> !r | None -> 0
  in
  let spin =
    Array.fold_left
      (fun acc core ->
        match core.current with
        | Some t when String.equal t.account account -> acc + live_spin_ns t
        | Some _ | None -> acc)
      0 m.cores_arr
  in
  base + spin

(* -- CFS weights ------------------------------------------------------ *)

let cfs_weight nice = 1024.0 /. (1.25 ** float_of_int nice)

let vruntime_scale = function
  | Cfs { nice } -> 1024.0 /. cfs_weight nice
  | Pinned _ | Micro_quanta _ -> 0.0

(* -- Core / dispatch machinery ---------------------------------------- *)

let core_asleep m core =
  core.current = None
  && Time.sub (Loop.now m.lp) core.idle_since >= costs.cstate_idle_threshold

let is_mq task =
  match task.klass with
  | Micro_quanta _ -> true
  | Pinned _ | Cfs _ -> false

let bump_gen task = task.gen <- task.gen + 1

(* A step event's argument: the task's generation at scheduling time,
   its id and its core, so one handler per machine serves every task.
   The generation keeps its low 31 bits; a stale event would need 2^31
   bumps of its task while pending to alias. *)
let core_bits = 10
let tid_bits = 22
let gen_shift = core_bits + tid_bits
let gen_mask = (1 lsl 31) - 1

let pack_step ~gen ~tid ~cid =
  ((gen land gen_mask) lsl gen_shift) lor (tid lsl core_bits) lor cid

let rec schedule_step m core task ~delay =
  bump_gen task;
  ignore
    (Loop.after_h m.lp delay m.on_step
       (pack_step ~gen:task.gen ~tid:task.tid ~cid:core.cid))

and dispatch m core task ~delay =
  core.current <- Some task;
  core.switches <- core.switches + 1;
  task.state <- core.st_running;
  task.slice_used <- 0;
  task.preempt_rt <- false;
  task.preempt_fair <- false;
  task.wake_pending <- false;
  m.vr_clock.f <- Float.max m.vr_clock.f task.vruntime.f;
  schedule_step m core task ~delay

(* Pick the next task for a newly free core: its affine waiter first,
   then the real-time queue, then fair tasks by vruntime. *)
and pick_next m core =
  core.current <- None;
  core.idle_since <- Loop.now m.lp;
  if not core.reserved then begin
    let waiter =
      match core.waiter with
      | Some t when t.state = Ready ->
          core.waiter <- None;
          Some t
      | Some _ ->
          core.waiter <- None;
          None
      | None -> None
    in
    match waiter with
    | Some task -> dispatch m core task ~delay:costs.context_switch
    | None -> (
        match next_ready m with
        | Some task -> dispatch m core task ~delay:costs.context_switch
        | None -> ())
  end

(* MicroQuanta has strict priority over CFS.  Neither walk is a local
   closure, which would be allocated on every call. *)
and next_ready m =
  match Queue.take_opt m.mq_ready with
  | Some t when t.state = Ready -> Some t
  | Some _ -> next_ready m
  | None -> next_ready_cfs m

and next_ready_cfs m =
  if Sim.Heap.is_empty m.cfs_ready then None
  else
    let t = m.tasks.(Sim.Heap.pop_exn m.cfs_ready) in
    if t.state = Ready then Some t else next_ready_cfs m

(* The first floating core with nothing on it, from index [i]; -1 if
   none. *)
and free_core m i =
  if i >= Array.length m.cores_arr then -1
  else
    let c = m.cores_arr.(i) in
    if (not c.reserved) && c.current = None then i else free_core m (i + 1)

and enqueue_ready m task =
  task.state <- Ready;
  bump_gen task;
  (match task.klass with
  | Micro_quanta _ | Pinned _ -> Queue.add task m.mq_ready
  | Cfs _ -> Sim.Heap.add m.cfs_ready ~key:(int_of_float task.vruntime.f) task.tid);
  (* If a core is idle, take it immediately. *)
  let cid = free_core m 0 in
  if cid >= 0 then
    match next_ready m with
    | Some t ->
        let c = m.cores_arr.(cid) in
        let delay =
          Time.add costs.context_switch
            (if core_asleep m c then costs.cstate_exit else Time.zero)
        in
        dispatch m c t ~delay
    | None -> ()

and should_resched m task =
  if task.preempt_rt then true
  else if task.preempt_fair && task.slice_used >= cfs_min_granularity then true
  else
    match task.klass with
    | Pinned _ -> false
    | Micro_quanta _ ->
        task.slice_used >= mq_quantum && not (Queue.is_empty m.mq_ready)
    | Cfs _ ->
        (not (Queue.is_empty m.mq_ready))
        || (task.slice_used >= cfs_slice && not (Sim.Heap.is_empty m.cfs_ready))

and mq_budget _m task =
  match task.klass with
  | Micro_quanta { runtime_pct } ->
      int_of_float (runtime_pct *. float_of_int mq_period)
  | Pinned _ | Cfs _ -> max_int

and core_runs core task =
  match core.current with Some t -> t == task | None -> false

and step_fired m a =
  let task = m.tasks.((a lsr core_bits) land ((1 lsl tid_bits) - 1)) in
  let core = m.cores_arr.(a land ((1 lsl core_bits) - 1)) in
  step_event m core task (a lsr gen_shift)

and step_event m core task gen =
  if task.gen land gen_mask = gen && core_runs core task then
    if core.steal > 0 then begin
      (* Interrupt context stole time from this core; the task's step is
         pushed back by the stolen amount. *)
      let stolen = core.steal in
      core.steal <- 0;
      schedule_step m core task ~delay:stolen
    end
    else if should_resched m task then begin
      charge task costs.context_switch;
      enqueue_ready m task;
      pick_next m core
    end
    else begin
      let r = task.step () in
      if r = idle then begin
        if task.wake_pending then begin
          (* A wake raced with this step; poll once more rather than
             losing it. *)
          task.wake_pending <- false;
          schedule_step m core task ~delay:spin_discovery
        end
        else
          match task.idle with
          | Spin ->
              task.state <- core.st_spinning;
              bump_gen task;
              task.spin_start <- Loop.now m.lp
          | Block ->
              task.state <- Blocked;
              bump_gen task;
              pick_next m core
      end
      else if r = finished then begin
        task.state <- Done;
        bump_gen task;
        pick_next m core
      end
      else
        after_run m core task
          (scale_cost m (r asr tag_bits))
          ~nonpreempt:(r land tag_mask = tag_ran_nonpreemptible)
    end

and after_run m core task cost ~nonpreempt =
  charge task cost;
  task.slice_used <- task.slice_used + cost;
  task.vruntime.f <- task.vruntime.f +. (float_of_int cost *. task.vr_scale);
  if nonpreempt then core.nonpreempt_until <- Time.add (Loop.now m.lp) cost;
  (* MicroQuanta bandwidth control. *)
  let now = Loop.now m.lp in
  if is_mq task then begin
    if Time.sub now task.mq_period_start >= mq_period then begin
      task.mq_period_start <- now;
      task.mq_consumed <- 0
    end;
    task.mq_consumed <- task.mq_consumed + cost
  end;
  if is_mq task && task.mq_consumed > mq_budget m task then begin
    (* Throttled until the period boundary. *)
    task.state <- Throttled;
    bump_gen task;
    let resume_at = Time.add task.mq_period_start mq_period in
    ignore
      (Loop.at m.lp resume_at (fun () ->
           if task.state = Throttled then begin
             task.mq_period_start <- Loop.now m.lp;
             task.mq_consumed <- 0;
             enqueue_ready m task
           end));
    pick_next m core
  end
  else schedule_step m core task ~delay:cost

(* -- Task lifecycle ---------------------------------------------------- *)

let spawn m ~name ~account ~klass ~idle ~step =
  (match klass with
  | Pinned c ->
      if c < 0 || c >= Array.length m.cores_arr then
        invalid_arg "Sched.spawn: bad pinned core"
      else if not m.cores_arr.(c).reserved then
        invalid_arg "Sched.spawn: pinned core not reserved"
  | Micro_quanta { runtime_pct } ->
      if runtime_pct <= 0.0 || runtime_pct > 1.0 then
        invalid_arg "Sched.spawn: runtime_pct"
  | Cfs { nice } ->
      if nice < -20 || nice > 19 then invalid_arg "Sched.spawn: nice");
  let task =
    {
      t_name = name;
      tid = m.n_tasks;
      account;
      acct = None;
      klass;
      vr_scale = vruntime_scale klass;
      idle;
      step;
      m;
      state = Created;
      gen = 0;
      spin_start = Time.zero;
      vruntime = { f = 0.0 };
      slice_used = 0;
      mq_consumed = 0;
      mq_period_start = Time.zero;
      preempt_rt = false;
      preempt_fair = false;
      wake_pending = false;
    }
  in
  if m.n_tasks >= 1 lsl tid_bits then invalid_arg "Sched.spawn: too many tasks";
  if m.n_tasks = Array.length m.tasks then begin
    let fresh = Array.make (Int.max 8 (2 * m.n_tasks)) task in
    Array.blit m.tasks 0 fresh 0 m.n_tasks;
    m.tasks <- fresh
  end;
  m.tasks.(m.n_tasks) <- task;
  m.n_tasks <- m.n_tasks + 1;
  task

let class_wake_latency task =
  match task.klass with
  | Pinned _ | Micro_quanta _ -> costs.wakeup_microquanta
  | Cfs _ -> costs.wakeup_cfs

(* Choose a preemption victim for a woken task that found no idle core.
   Like the kernel's wake placement, the target core is picked without
   regard to whether it is currently in a non-preemptible section — that
   blindness is exactly the pathology Figure 7(b) demonstrates.  The
   choice is uniform over eligible cores, from the machine's own RNG
   stream. *)
let preemptible_by woken core =
  (not core.reserved)
  &&
  match core.current with
  | None -> false
  | Some cur -> (
      match (woken.klass, cur.klass) with
      | (Micro_quanta _ | Pinned _), Cfs _ -> true
      | Cfs { nice = wn }, Cfs { nice = cn } when wn < cn -> true
      | (Pinned _ | Micro_quanta _ | Cfs _), _ -> false)

let find_victim m woken =
  let cores = m.cores_arr in
  let n = ref 0 in
  for i = 0 to Array.length cores - 1 do
    if preemptible_by woken cores.(i) then incr n
  done;
  if !n = 0 then None
  else begin
    (* The k-th eligible core in index order. *)
    let k = ref (Sim.Rng.int (Loop.rng m.lp) !n) in
    let i = ref 0 in
    while not (preemptible_by woken cores.(!i)) || !k > 0 do
      if preemptible_by woken cores.(!i) then decr k;
      incr i
    done;
    Some cores.(!i)
  end

let is_spinning_state t =
  match t.state with
  | Spinning _ -> true
  | Created | Ready | Running _ | Blocked | Throttled | Done -> false

let wake task =
  let m = task.m in
  match task.state with
  | Blocked | Created ->
      (* CFS wakeup placement credit keeps long sleepers competitive. *)
      (match task.klass with
      | Cfs _ ->
          task.vruntime.f <-
            Float.max task.vruntime.f (m.vr_clock.f -. wake_vruntime_bonus)
      | Pinned _ | Micro_quanta _ -> ());
      (match task.klass with
      | Pinned cid ->
          let core = m.cores_arr.(cid) in
          (match core.current with
          | Some other ->
              invalid_arg
                (Printf.sprintf "Sched.wake: pinned core %d busy with %s" cid
                   other.t_name)
          | None ->
              let delay =
                Time.add (class_wake_latency task)
                  (if core_asleep m core then costs.cstate_exit else Time.zero)
              in
              dispatch m core task ~delay)
      | Micro_quanta _ | Cfs _ -> (
          (* Prefer an awake idle core, then a sleeping idle core, then
             preempt, then queue; the first of each in index order. *)
          let cores = m.cores_arr in
          let awake = ref (-1) and asleep = ref (-1) in
          let i = ref 0 in
          while !awake < 0 && !i < Array.length cores do
            let c = cores.(!i) in
            if (not c.reserved) && Option.is_none c.current then
              if not (core_asleep m c) then awake := !i
              else if !asleep < 0 then asleep := !i;
            incr i
          done;
          if !awake >= 0 then
            dispatch m cores.(!awake) task ~delay:(class_wake_latency task)
          else if !asleep >= 0 then
            let delay =
              Time.add (class_wake_latency task) costs.cstate_exit
            in
            dispatch m cores.(!asleep) task ~delay
          else (
            match find_victim m task with
            | Some core -> (
                match core.current with
                | Some victim when is_spinning_state victim ->
                    (* A spinning victim has no pending step event, so
                       preempt it synchronously. *)
                    let spin = Time.sub (Loop.now m.lp) victim.spin_start in
                    charge victim spin;
                    charge victim costs.context_switch;
                    enqueue_ready m victim;
                    core.current <- None;
                    dispatch m core task
                      ~delay:
                        (Time.add (class_wake_latency task)
                           costs.context_switch)
                | Some victim -> (
                    match task.klass with
                    | Micro_quanta _ | Pinned _ ->
                        victim.preempt_rt <- true;
                        enqueue_ready m task
                    | Cfs _ ->
                        victim.preempt_fair <- true;
                        if core.waiter = None then begin
                          (* Wake affinity: wait on this core. *)
                          task.state <- Ready;
                          bump_gen task;
                          core.waiter <- Some task
                        end
                        else enqueue_ready m task)
                | None -> enqueue_ready m task)
            | None -> enqueue_ready m task)))
  | Spinning cid ->
      (* Treat like a kick: work has arrived for a spin-polling task. *)
      let spin = Time.sub (Loop.now m.lp) task.spin_start in
      charge task spin;
      let core = m.cores_arr.(cid) in
      task.state <- core.st_running;
      schedule_step m core task ~delay:spin_discovery
  | Ready | Running _ | Throttled -> task.wake_pending <- true
  | Done -> ()

let start task = wake task

let kick task = wake task

let wake_after task d = ignore (Loop.after_h task.m.lp d task.m.on_wake task.tid)

let no_irq () = ()

(* The slot is vacated before the handler runs, so a handler that
   raises the next interrupt reuses it. *)
let irq_fired m s =
  let q = m.irqs in
  let core = m.cores_arr.(q.core_of.(s)) and cost = q.cost_of.(s) in
  let f = q.fn_of.(s) in
  q.fn_of.(s) <- no_irq;
  q.free.(q.n_free) <- s;
  q.n_free <- q.n_free + 1;
  softirq_add m cost;
  core.core_busy <- core.core_busy + cost;
  (match core.current with
  | Some _ -> core.steal <- core.steal + cost
  | None -> core.idle_since <- Loop.now m.lp);
  f ()

let create_machine ~loop ~name ~cores =
  if cores <= 0 || cores >= 1 lsl core_bits then
    invalid_arg "Sched.create_machine";
  let self = ref None in
  let on_step =
    Loop.handler loop (fun a ->
        match !self with Some m -> step_fired m a | None -> ())
  in
  let on_wake =
    Loop.handler loop (fun tid ->
        match !self with Some m -> wake m.tasks.(tid) | None -> ())
  in
  let on_irq =
    Loop.handler loop (fun s ->
        match !self with Some m -> irq_fired m s | None -> ())
  in
  let m =
  {
    lp = loop;
    m_name = name;
    on_step;
    on_wake;
    on_irq;
    irqs =
      {
        core_of = [||];
        cost_of = [||];
        fn_of = [||];
        free = [||];
        n_free = 0;
        n_slots = 0;
      };
    cores_arr =
      Array.init cores (fun cid ->
          {
            cid;
            st_running = Running cid;
            st_spinning = Spinning cid;
            current = None;
            reserved = false;
            idle_since = Time.zero;
            steal = 0;
            nonpreempt_until = Time.zero;
            core_busy = 0;
            switches = 0;
            waiter = None;
          });
    mq_ready = Queue.create ();
    cfs_ready = Sim.Heap.create ();
    tasks = [||];
    n_tasks = 0;
    account_tbl = Hashtbl.create 16;
    softirq = None;
    vr_clock = { f = 0.0 };
    rr_interrupt = 0;
    total_busy = 0;
    m_cost_scale = 1.0;
  }
  in
  self := Some m;
  register_core_gauges m;
  m

let task_core t =
  match t.state with
  | Running cid | Spinning cid -> Some cid
  | Created | Ready | Blocked | Throttled | Done -> None

(* -- Interrupts -------------------------------------------------------- *)

(* The next core round-robin over non-reserved cores, like RSS
   spreading; the cursor's core when every core is reserved. *)
let rr_core m =
  let n = Array.length m.cores_arr in
  let c = ref (m.rr_interrupt mod n) and tries = ref 0 in
  while !tries < n && m.cores_arr.(!c).reserved do
    incr tries;
    c := (!c + 1) mod n
  done;
  m.rr_interrupt <- m.rr_interrupt + 1;
  !c

let take_irq_slot q =
  if q.n_free > 0 then begin
    q.n_free <- q.n_free - 1;
    q.free.(q.n_free)
  end
  else begin
    if q.n_slots = Array.length q.fn_of then begin
      let cap = Int.max 8 (2 * q.n_slots) in
      let extend a fill =
        let fresh = Array.make cap fill in
        Array.blit a 0 fresh 0 q.n_slots;
        fresh
      in
      q.core_of <- extend q.core_of 0;
      q.cost_of <- extend q.cost_of 0;
      q.fn_of <- extend q.fn_of no_irq;
      q.free <- extend q.free 0
    end;
    let s = q.n_slots in
    q.n_slots <- s + 1;
    s
  end

let interrupt m ~cost f =
  let cid = rr_core m in
  let core = m.cores_arr.(cid) in
  let delay =
    Time.add costs.interrupt_delivery
      (if core_asleep m core then costs.cstate_exit else Time.zero)
  in
  let q = m.irqs in
  let s = take_irq_slot q in
  q.core_of.(s) <- cid;
  q.cost_of.(s) <- cost;
  q.fn_of.(s) <- f;
  ignore (Loop.after_h m.lp delay m.on_irq s)

let softirq_charge m cost =
  if cost > 0 then begin
    softirq_add m cost;
    let core = m.cores_arr.(rr_core m) in
    core.core_busy <- core.core_busy + cost;
    match core.current with
    | Some _ -> core.steal <- core.steal + cost
    | None -> core.idle_since <- Loop.now m.lp
  end

let set_idle_policy task policy = task.idle <- policy

let retire_spin task =
  match task.state with
  | Spinning cid ->
      let m = task.m in
      let spin = Time.sub (Loop.now m.lp) task.spin_start in
      charge task spin;
      task.state <- Blocked;
      bump_gen task;
      let core = m.cores_arr.(cid) in
      core.current <- None;
      core.idle_since <- Loop.now m.lp;
      if not core.reserved then begin
        match next_ready m with
        | Some t -> dispatch m core t ~delay:costs.context_switch
        | None -> ()
      end
  | Created | Ready | Running _ | Blocked | Throttled | Done -> ()
