module Time = Sim.Time
module Loop = Sim.Loop

type message = ..
type message += Error_no_service of string

(* One domain-socket RPC round trip: two ring switches plus wakeups on
   both sides; tens of microseconds, well off the fast path. *)
let rpc_round_trip = Time.us 25

type t = {
  lp : Loop.t;
  ctl_name : string;
  services : (string, message -> message) Hashtbl.t;
}

let create ~loop ~name =
  {
    lp = loop;
    ctl_name = name;
    services = Hashtbl.create 8;
  }

let register_service t ~service handler =
  Hashtbl.replace t.services service handler

let call ctx t ~service msg =
  Cpu.Thread.syscall ctx Sim.Costs.default.syscall;
  Cpu.Thread.sleep ctx rpc_round_trip;
  match Hashtbl.find_opt t.services service with
  | Some handler -> handler msg
  | None -> Error_no_service service

let authenticate ctx =
  Cpu.Thread.syscall ctx Sim.Costs.default.syscall;
  Cpu.Thread.sleep ctx rpc_round_trip

let recover_engine t ~group engine ~after ~on_recovered =
  (* Crash recovery is a control-plane action: detection plus a restart
     RPC round trip, then the engine is reloaded into its group with its
     queues intact (same mechanism as a transparent upgrade, §4.3). *)
  let delay = Time.add after rpc_round_trip in
  ignore
    (Loop.after t.lp delay (fun () ->
         if not (Engine.is_attached engine) then begin
           Engine.add group engine;
           Engine.notify engine;
           on_recovered ()
         end))

(* -- Watchdog: engine health monitoring (§4.3) -------------------------- *)

module Watchdog = struct
  type control = t

  type state = Healthy | Suspect | Restarting | Quarantined

  type entry = {
    w_eng : Engine.t;
    w_group : Engine.group;  (* fallback when the engine has no home *)
    mutable st : state;
    mutable last_beat : Time.t;
    mutable probe_outstanding : bool;
    mutable probe_seq : int;
    mutable missed : int;
    mutable consec_failures : int;
    mutable healthy_since : Time.t;
        (* Start of the current healthy stretch; [max_int] while the
           engine is declared dead.  The consecutive-failure count only
           resets after a full stability window of health, so an engine
           that answers one heartbeat between flaps still escalates. *)
  }

  type t = {
    wd_ctl : control;
    wd_lp : Loop.t;
    mutable entries : entry list;
    mutable timer : Loop.handle option;
    (* This watchdog's counters; the registry entries ("wd_*", labeled
       by control name) name the latest watchdog's. *)
    wcnt : (string * Stats.Counter.t) list;
    detect_hist : Stats.Histogram.t;
  }

  let component = "watchdog"

  (* Base delay before a restart, doubled per consecutive failure. *)
  let restart_backoff = Time.us 200

  (* Heartbeat interval. *)
  let period = Time.us 100

  (* Consecutive unanswered probes that declare an engine dead. *)
  let miss_threshold = 3

  (* How long a restarted engine must stay responsive before its
     consecutive-failure count resets. *)
  let stable_window = Time.scale period (float_of_int (2 * miss_threshold))

  (* Failed restarts before an engine is quarantined. *)
  let max_restart_attempts = 3

  let counter_names =
    [ "wd_heartbeats"; "wd_detections"; "wd_restarts"; "wd_quarantines" ]

  let wbump t key =
    match List.assoc_opt key t.wcnt with
    | Some c -> Stats.Counter.incr c
    | None -> invalid_arg ("Watchdog: unknown counter " ^ key)

  (* A health decision as a Span instant.  Callers guard it with
     [Sim.Span.enabled], so the argument strings are built only under
     capture. *)
  let instant t ~args name =
    Sim.Span.emit t.wd_lp ~cat:component
      ~track:(component ^ " " ^ t.wd_ctl.ctl_name)
      ~args name

  let create ~control () =
    {
      wd_ctl = control;
      wd_lp = control.lp;
      entries = [];
      timer = None;
      wcnt =
        (let labels = [ ("control", control.ctl_name) ] in
         List.map
           (fun n -> (n, Stats.Registry.counter ~labels n))
           counter_names);
      detect_hist =
        Stats.Registry.histogram
          ~labels:[ ("control", control.ctl_name) ]
          "wd_detection_latency_ns";
    }

  let find_entry t e = List.find_opt (fun en -> en.w_eng == e) t.entries

  let watch t ~group e =
    match find_entry t e with
    | Some _ -> ()
    | None ->
        t.entries <-
          t.entries
          @ [
              {
                w_eng = e;
                w_group = group;
                st = Healthy;
                last_beat = Loop.now t.wd_lp;
                probe_outstanding = false;
                probe_seq = 0;
                missed = 0;
                consec_failures = 0;
                healthy_since = Loop.now t.wd_lp;
              };
            ]

  let watch_group t g =
    List.iter (fun e -> watch t ~group:g e) (Engine.engines g)

  let restore_group en =
    match Engine.home en.w_eng with Some g -> g | None -> en.w_group

  let heal en ~now =
    en.st <- Healthy;
    en.probe_outstanding <- false;
    en.missed <- 0;
    en.last_beat <- now;
    if en.healthy_since = max_int then en.healthy_since <- now

  let detect t en ~now =
    en.healthy_since <- max_int;
    wbump t "wd_detections";
    let latency = Time.max 0 (Time.sub now en.last_beat) in
    Stats.Histogram.record t.detect_hist latency;
    en.consec_failures <- en.consec_failures + 1;
    if Sim.Span.enabled () then
      instant t "detected unresponsive engine"
        ~args:
          [
            ("engine", Engine.name en.w_eng);
            ("miss", string_of_int en.missed);
            ("failure", string_of_int en.consec_failures);
          ];
    if en.consec_failures > max_restart_attempts then begin
      (* Escalate: repeated restarts did not stick.  Quarantine the
         engine (degraded state, operator intervention required) instead
         of flapping forever. *)
      en.st <- Quarantined;
      wbump t "wd_quarantines";
      if Engine.is_attached en.w_eng then
        Engine.remove (restore_group en) en.w_eng;
      if Sim.Span.enabled () then
        instant t "quarantined engine"
          ~args:
            [
              ("engine", Engine.name en.w_eng);
              ("failed_restarts", string_of_int (en.consec_failures - 1));
            ]
    end
    else begin
      en.st <- Restarting;
      let group = restore_group en in
      (* A wedged instance is still attached: kill it first so the
         reload instantiates fresh run state (mailbox and rings
         survive). *)
      if Engine.is_attached en.w_eng then Engine.remove group en.w_eng;
      (* Exponential backoff between restart attempts. *)
      let backoff =
        Time.scale restart_backoff
          (2.0 ** float_of_int (en.consec_failures - 1))
      in
      recover_engine t.wd_ctl ~group en.w_eng ~after:backoff
        ~on_recovered:(fun () ->
          wbump t "wd_restarts";
          heal en ~now:(Loop.now t.wd_lp);
          if Sim.Span.enabled () then
            instant t "restarted engine"
              ~args:
                [
                  ("engine", Engine.name en.w_eng);
                  ("attempt", string_of_int en.consec_failures);
                ])
    end

  let miss t en ~now =
    en.missed <- en.missed + 1;
    if en.st = Healthy then en.st <- Suspect;
    if en.missed >= miss_threshold then detect t en ~now

  let probe t en ~now =
    en.probe_seq <- en.probe_seq + 1;
    let seq = en.probe_seq in
    let posted =
      Squeue.Mailbox.post (Engine.mailbox en.w_eng) (fun () ->
          (* Runs on the engine's own thread: proof of liveness.  The
             sequence check discards stale probes left in the surviving
             mailbox across a restart: only the current outstanding
             probe counts, so "the restart stuck" is proven by answering
             a fresh heartbeat, not by draining the backlog. *)
          if seq = en.probe_seq && en.st <> Quarantined then begin
            heal en ~now:(Loop.now t.wd_lp);
            wbump t "wd_heartbeats"
          end)
    in
    if posted then begin
      en.probe_outstanding <- true;
      Engine.notify en.w_eng
    end
    else
      (* The depth-1 mailbox has been occupied for a full period: the
         engine is not draining it, which is itself a missed
         heartbeat. *)
      miss t en ~now

  let tick t () =
    let now = Loop.now t.wd_lp in
    List.iter
      (fun en ->
        match en.st with
        | Quarantined -> ()
        | Restarting ->
            (* Recovery in flight.  If someone else (e.g. crash
               recovery) reattached the engine meanwhile, our pending
               reload is a no-op and the engine is healthy again. *)
            if Engine.is_attached en.w_eng && not (Engine.is_wedged en.w_eng)
            then heal en ~now
        | Healthy | Suspect ->
            (* A full stability window of health forgives past failures;
               until then, a flapping engine keeps escalating toward
               quarantine even though each restart briefly sticks. *)
            if
              en.consec_failures > 0
              && en.missed = 0
              && en.healthy_since <> max_int
              && Time.sub now en.healthy_since >= stable_window
            then en.consec_failures <- 0;
            if Engine.is_migrating en.w_eng then begin
              (* An upgrade transaction owns the engine: excused from
                 heartbeat deadlines until it commits or rolls back. *)
              en.probe_outstanding <- false;
              en.missed <- 0;
              en.last_beat <- now
            end
            else if en.probe_outstanding then miss t en ~now
            else probe t en ~now)
      t.entries

  let start t =
    match t.timer with
    | Some _ -> ()
    | None -> t.timer <- Some (Loop.every t.wd_lp period (tick t))

  let counters t =
    List.map (fun (n, c) -> (n, Stats.Counter.value c)) t.wcnt
end
