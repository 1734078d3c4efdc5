module Time = Sim.Time
module Loop = Sim.Loop
module PE = Pony.Express

(* Concurrent closed-loop clients on host 0. *)
let clients = 2

(* Request and reply size. *)
let op_bytes = 1024

(* Per-op think time, so traffic spans the upgrade window. *)
let think = Time.us 50

(* Scheduling mode for old and new groups. *)
let mode = Engine.Dedicating { cores = 1 }

(* Synthetic serialized state per engine (sets the blackout). *)
let state_bytes = 4_000_000

(* Staggered fleet rollout: (host addr, upgrade start). *)
let upgrade_at = [ (1, Time.ms 10); (0, Time.ms 40) ]

(* The fault plan, crafted to hit the windows that matter. *)
let plan =
  Fault.Plan.make ~seed:13
    [
      (* A link flap exactly across the server upgrade's brownout. *)
      Fault.Plan.Link_blackout
        { a = 0; b = 1; start = Time.ms 10; duration = Time.ms 2 };
      (* The server engine "crashes" mid-blackout: it is detached, so
         the crash lands on the in-flight instance and must abort the
         transaction at commit. *)
      Fault.Plan.Engine_crash
        { host = 1; engine = 0; start = Time.ms 15; restart_after = Time.ms 3 };
      (* Long after the client host committed onto the new release, its
         engine wedges; the watchdog must restart it into the engine's
         new home group. *)
      Fault.Plan.Engine_wedge { host = 0; engine = 0; start = Time.ms 60 };
    ]

(* Virtual-time budget; generous so retries can finish. *)
let run_cap = Time.ms 500

type config = {
  ops_per_client : int;
  seed : int;
  tie_salt : int;
}

let default_config =
  {
    ops_per_client = 1200;
    seed = 7;
    tie_salt = 0;
  }

type result = {
  ops_expected : int;
  ops_completed : int;
  lost_ops : int;
  latencies : Stats.Histogram.t;
  goodput_gbps : float;
  reports : (int * Upgrade.report list) list;
  committed : int;
  rollbacks : int;
  give_ups : int;
  max_blackout : Time.t;
  transition_log : Fault.Log.t;
  fault_log : Fault.Log.t;
  fault_counters : (string * int) list;
  watchdog_counters : (string * int) list;
  watchdog_restarts : int;
  flow_resyncs : int;
  groups_consistent : bool;
}

let run (cfg : config) : result =
  let sc =
    Scenario.create ~seed:cfg.seed ~tie_salt:cfg.tie_salt ~hosts:2
      (fun ~loop ~fabric ~directory ~addr ->
        Snap.Host.create ~loop ~fabric ~directory ~addr ~mode ())
  in
  let loop = sc.loop and ha = sc.hosts.(0) and hb = sc.hosts.(1) in
  let inj = Scenario.inject sc plan in
  (* Watchdogs: one per host, monitoring the Pony engines.  They must
     coexist with the upgrade (migrating engines are excused) and catch
     the injected wedge. *)
  let watchdogs =
    List.map
      (fun h ->
        let wd = Control.Watchdog.create ~control:h.Snap.Host.control () in
        Control.Watchdog.watch_group wd h.Snap.Host.group;
        Control.Watchdog.start wd;
        wd)
      [ ha; hb ]
  in
  (* Staggered fleet upgrade: each host's engines migrate into a fresh
     new-release group, as transactions that roll back under faults. *)
  let transition_log = Fault.Log.create () in
  let reports = ref [] in
  let new_groups = ref [] in
  List.iter
    (fun (addr, at) ->
      let h = sc.hosts.(addr) in
      ignore
        (Loop.at loop at (fun () ->
             let machine = h.Snap.Host.machine in
             let ng =
               Engine.create_group ~machine
                 ~name:(Printf.sprintf "snap-v2-h%d" addr)
                 ~mode
             in
             new_groups := ng :: !new_groups;
             Upgrade.upgrade ~loop ~old_group:h.Snap.Host.group ~new_group:ng
               ~extra_state_bytes:(fun _ -> state_bytes)
               ~on_transition:(fun ~engine ph ->
                 Fault.Log.record transition_log ~at:(Loop.now loop)
                   ~kind:"upgrade"
                   ~detail:
                     (Printf.sprintf "host %d %s %s" addr engine
                        (Upgrade.phase_to_string ph)))
               ~on_done:(fun rs -> reports := (addr, rs) :: !reports)
               ())))
    upgrade_at;
  (* Closed-loop RR traffic underneath it all. *)
  let trips =
    Scenario.trips ~workload:"chaos_upgrade" "workload_op_latency_ns"
  in
  Scenario.echo_server hb ~name:"server" ~exclusive_engine:false;
  for i = 0 to clients - 1 do
    Scenario.echo_client ha trips
      ~name:(Printf.sprintf "client%d" i)
      ~dst_host:1 ~dst_name:"server" ~ops:cfg.ops_per_client ~bytes:op_bytes
      ~think
  done;
  (* Upgrades restart engines mid-flight; restarted incarnations must
     reconcile the old ones' op-pool charges or this raises. *)
  Scenario.finish sc ~until:run_cap;
  let expected = clients * cfg.ops_per_client in
  let all_reports = List.concat_map snd !reports in
  let committed =
    List.length
      (List.filter (fun r -> r.Upgrade.outcome = Upgrade.Committed) all_reports)
  in
  let give_ups = List.length all_reports - committed in
  let rollbacks =
    List.fold_left (fun acc r -> acc + r.Upgrade.rollbacks) 0 all_reports
  in
  let max_blackout =
    List.fold_left (fun acc r -> Time.max acc r.Upgrade.blackout) 0 all_reports
  in
  let sum_counters lists =
    match lists with
    | [] -> []
    | first :: rest ->
        List.fold_left
          (List.map2 (fun (n, a) (n', b) ->
               assert (n = n');
               (n, a + b)))
          first rest
  in
  let watchdog_counters =
    sum_counters (List.map Control.Watchdog.counters watchdogs)
  in
  let watchdog_restarts =
    try List.assoc "wd_restarts" watchdog_counters with Not_found -> 0
  in
  (* Invariant: after a partial or contested fleet upgrade, every engine
     is attached and belongs to exactly one group. *)
  let engines =
    List.concat_map
      (fun h ->
        List.init
          (PE.num_engines h.Snap.Host.pony)
          (PE.engine_handle h.Snap.Host.pony))
      [ ha; hb ]
  in
  let groups = [ ha.Snap.Host.group; hb.Snap.Host.group ] @ !new_groups in
  let groups_consistent =
    List.for_all
      (fun e ->
        let memberships =
          List.length
            (List.filter (fun g -> List.memq e (Engine.engines g)) groups)
        in
        memberships = 1 && Engine.is_attached e)
      engines
  in
  {
    ops_expected = expected;
    ops_completed = trips.ok;
    lost_ops = expected - trips.ok;
    latencies = trips.latencies;
    goodput_gbps = Scenario.echo_gbps trips ~bytes:op_bytes;
    reports = List.rev !reports;
    committed;
    rollbacks;
    give_ups;
    max_blackout;
    transition_log;
    fault_log = Fault.Injector.log inj;
    fault_counters = Fault.Injector.counters inj;
    watchdog_counters;
    watchdog_restarts;
    flow_resyncs =
      PE.flow_resyncs ha.Snap.Host.pony + PE.flow_resyncs hb.Snap.Host.pony;
    groups_consistent;
  }

(* Byte-identical across same-seed runs: the determinism check folds the
   fault log, the upgrade transition log, and every report into one
   string. *)
let fingerprint (r : result) : string =
  let buf = Buffer.create 4096 in
  let add_log name l =
    Buffer.add_string buf name;
    Buffer.add_char buf '\n';
    Scenario.add_fault_log buf l
  in
  add_log "faults" r.fault_log;
  add_log "transitions" r.transition_log;
  Buffer.add_string buf "reports\n";
  List.iter
    (fun (addr, rs) ->
      List.iter
        (fun (u : Upgrade.report) ->
          Buffer.add_string buf
            (Printf.sprintf "host %d %s bytes %d bs %d b %d bl %d s %d f %d a %d rb %d %s\n"
               addr u.Upgrade.engine_name u.Upgrade.state_bytes
               u.Upgrade.brownout_scheduled u.Upgrade.brownout
               u.Upgrade.blackout u.Upgrade.started_at u.Upgrade.finished_at
               u.Upgrade.attempts u.Upgrade.rollbacks
               (match u.Upgrade.outcome with
               | Upgrade.Committed -> "committed"
               | Upgrade.Gave_up reason -> "gave-up:" ^ reason)))
        rs)
    r.reports;
  Buffer.add_string buf
    (Printf.sprintf "ops %d/%d resyncs %d\n" r.ops_completed r.ops_expected
       r.flow_resyncs);
  Buffer.contents buf
