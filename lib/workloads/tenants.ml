module Time = Sim.Time
module Loop = Sim.Loop
module PE = Pony.Express
module Ring = Guest.Ring
module Tenant = Guest.Tenant
module Mux = Guest.Mux

(* Hundreds of guest tenants share one host's guest backend: every
   even-indexed tenant is a well-behaved closed-loop victim echoing
   against an isolated server, every odd-indexed one an open-loop
   aggressor flooding a shared sink faster than its token-bucket quota
   allows.  Containment is per-tenant admission at the mux: aggressor
   descriptors complete [Rejected] on their own rings while victim
   goodput rides through.  Mid-run the guest engine group upgrades
   (rings and in-flight state survive the blackout) and a cohort of
   aggressors is force-detached (generation-tagged bulk reclaim).  At
   quiesce every tenant must be detached with zero op-pool bytes and
   zero in-flight ops — the per-tenant isolation invariants enforce it
   when checking is on, and [Scenario.finish] asserts every op pool
   drained always. *)

(* Every k-th tenant is an aggressor. *)
let aggressor_every = 2
let victim_bytes = 1024
let aggressor_bytes = 4096
let aggressor_interval = Time.us 40

(* The containment quota: posts above this rate are [Rejected] on the
   aggressor's own ring.  Half the offered rate: steady-state, every
   other aggressor post bounces off the token bucket. *)
let aggressor_rate_ops_per_sec = 12_500.
let aggressor_burst_ops = 4
let ring_slots = 32
let buf_bytes = 4096
let mux_engines = 2
let mux_mode = Engine.Spreading { runtime_pct = 0.9 }

(* Scheduling mode of the Pony groups. *)
let mode = Engine.Dedicating { cores = 2 }
let upgrade_state_bytes = 200_000

(* Every j-th aggressor is force-detached. *)
let force_detach_every = 4

(* Generous: containment must come from per-tenant quotas, not from the
   shared pool running dry. *)
let op_pool_bytes = 256 lsl 20

type config = {
  tenants : int;
  victim_ops : int;  (** Closed-loop echoes per victim. *)
  aggressor_ops : int;  (** Open-loop posts per aggressor. *)
  upgrade_at : Time.t option;
      (** Transparent upgrade of the guest engine group. *)
  force_detach_at : Time.t option;
  seed : int;
  tie_salt : int;
  stop_at : Time.t;
  run_cap : Time.t;
}

let default_config =
  {
    tenants = 256;
    victim_ops = 20;
    aggressor_ops = 60;
    upgrade_at = Some (Time.ms 3);
    force_detach_at = Some (Time.ms 4);
    seed = 21;
    tie_salt = 0;
    stop_at = Time.ms 12;
    run_cap = Time.ms 30;
  }

type result = {
  n_tenants : int;
  n_victims : int;
  n_aggressors : int;
  victim_ok : int;
  victim_failed : int;
  victim_retries : int;
  victim_goodput_gbps : float;
  victim_latencies : Stats.Histogram.t;
  agg_completed : int;
  agg_rejected : int;  (** Aggressor descs refused by tenant quotas. *)
  agg_failed : int;
  agg_cancelled : int;
  rx_delivered : int;
  rx_drops : int;
  tx_post_failures : int;  (** Guest-side posts bounced off full rings. *)
  detached : int;  (** Tenants fully detached at quiesce. *)
  force_detached : int;
  reclaimed_bytes : int;  (** Bytes returned by bulk owner reclaim. *)
  mux_resyncs : int;  (** Engine-epoch changes the mux rode through. *)
  upgrade_committed : int;
  upgrade_rollbacks : int;
  max_blackout : Time.t;
}

let run (cfg : config) : result =
  let sc =
    Scenario.create ~seed:cfg.seed ~tie_salt:cfg.tie_salt ~hosts:2
      (fun ~loop ~fabric ~directory ~addr ->
        Snap.Host.create ~loop ~fabric ~directory ~addr ~mode ~op_pool_bytes ())
  in
  let loop = sc.loop and h_guest = sc.hosts.(0) and h_srv = sc.hosts.(1) in
  ignore (Snap.Host.enable_guests ~engines:mux_engines ~mode:mux_mode h_guest);
  let is_aggressor i = i mod aggressor_every = aggressor_every - 1 in
  let n_aggressors =
    let n = ref 0 in
    for i = 0 to cfg.tenants - 1 do
      if is_aggressor i then incr n
    done;
    !n
  in
  let n_victims = cfg.tenants - n_aggressors in
  let victim = Scenario.trips ~workload:"tenants" "workload_victim_latency_ns" in
  let force_detached = ref 0 in
  let tenant_of = Array.make cfg.tenants None in
  (* Victims' echo server, on an exclusive engine so server-side
     scheduling is not part of the contention story. *)
  Scenario.echo_server h_srv ~name:"backend-v" ~exclusive_engine:true;
  (* Aggressors' sink: consumes and never replies. *)
  Scenario.sink h_srv ~name:"backend-a" ~service:(Time.us 1);
  (* Distinct start instants make attach order (tenant ids, engine
     assignment) a function of the config, not of same-time scheduling
     ties. *)
  let start i = Time.add (Time.us 600) (i * 500) in
  let victim_driver i ctx =
    Cpu.Thread.sleep ctx (start i);
    let tn =
      Snap.Host.attach_tenant ctx h_guest
        ~name:(Printf.sprintf "v%d" i)
        ~dst_host:1 ~dst_name:"backend-v" ~ring_slots ~buf_bytes ()
    in
    tenant_of.(i) <- Some tn;
    Scenario.guest_victim victim tn ~ops:cfg.victim_ops ~bytes:victim_bytes
      ~stop_at:cfg.stop_at ~gap:0 ctx;
    Snap.Host.detach_tenant h_guest tn
  in
  (* Aggressor driver: open-loop posts at a fixed interval, reaping
     used entries just enough to keep the ring usable.  Rejections land
     as used entries too — the guest sees its own overload. *)
  let aggressor_driver i ctx =
    Cpu.Thread.sleep ctx (start i);
    let tn =
      Snap.Host.attach_tenant ctx h_guest
        ~name:(Printf.sprintf "a%d" i)
        ~dst_host:1 ~dst_name:"backend-a" ~ring_slots ~buf_bytes
        ~rate_ops_per_sec:aggressor_rate_ops_per_sec
        ~burst_ops:aggressor_burst_ops ()
    in
    tenant_of.(i) <- Some tn;
    let posted = ref 0 in
    while
      !posted < cfg.aggressor_ops
      && Tenant.state tn = Tenant.Attached
      && Cpu.Thread.now ctx < cfg.stop_at
    do
      let rec reap () =
        match Ring.pop_used tn.Tenant.tx with Some _ -> reap () | None -> ()
      in
      reap ();
      (* Monotonic ids for the same reason as the victims: a slow
         (Busy-retried) op can outlive a full ring wrap, and reusing
         its id while live reads as aliasing. *)
      if
        Ring.post tn.Tenant.tx ~now:(Cpu.Thread.now ctx) ~id:!posted
          ~off:(Tenant.tx_buf_off tn !posted) ~len:aggressor_bytes
      then incr posted;
      Cpu.Thread.sleep ctx aggressor_interval
    done;
    (* Drain: keep reaping so the mux can finish, then detach.  A
       force-detached tenant skips this — its reclaim already ran. *)
    let drain_deadline = Time.add (Cpu.Thread.now ctx) (Time.ms 4) in
    while
      Tenant.state tn = Tenant.Attached
      && (Ring.in_flight tn.Tenant.tx > 0 || Ring.backlog tn.Tenant.tx > 0)
      && Cpu.Thread.now ctx < drain_deadline
    do
      (match Ring.pop_used tn.Tenant.tx with Some _ -> () | None -> ());
      Cpu.Thread.sleep ctx (Time.us 10)
    done;
    if Tenant.state tn = Tenant.Attached then
      Snap.Host.detach_tenant h_guest tn
  in
  for i = 0 to cfg.tenants - 1 do
    let driver = if is_aggressor i then aggressor_driver else victim_driver in
    ignore
      (Snap.Host.spawn_app h_guest
         ~name:(Printf.sprintf "guest%d" i)
         (fun ctx -> driver i ctx))
  done;
  (* Transparent upgrade of the guest engine group, mid-traffic. *)
  let upgrade_reports = ref [] in
  (match cfg.upgrade_at with
  | None -> ()
  | Some at ->
      ignore
        (Loop.at loop at (fun () ->
             match Snap.Host.guest_mux h_guest with
             | None -> ()
             | Some mux ->
                 let machine = h_guest.Snap.Host.machine in
                 let ng =
                   Engine.create_group ~machine ~name:"guest-v2"
                     ~mode:mux_mode
                 in
                 Upgrade.upgrade ~loop
                   ~old_group:(Mux.group mux) ~new_group:ng
                   ~extra_state_bytes:(fun _ -> upgrade_state_bytes)
                   ~on_done:(fun rs -> upgrade_reports := rs)
                   ())));
  (* Forced detach of part of the aggressor cohort: abandoned in-flight
     ops, bulk reclaim, stragglers hit the generation check. *)
  (match cfg.force_detach_at with
  | None -> ()
  | Some at ->
      ignore
        (Loop.at loop at (fun () ->
             let k = ref 0 in
             Array.iteri
               (fun i tno ->
                 match tno with
                 | Some tn when is_aggressor i ->
                     incr k;
                     if
                       !k mod force_detach_every = 0
                       && Tenant.state tn = Tenant.Attached
                     then begin
                       Snap.Host.detach_tenant ~force:true h_guest tn;
                       incr force_detached
                     end
                 | _ -> ())
               tenant_of)));
  Scenario.finish sc ~until:cfg.run_cap;
  let all_tenants =
    Array.to_list tenant_of |> List.filter_map (fun x -> x)
  in
  let sum f = List.fold_left (fun acc tn -> acc + f tn) 0 all_tenants in
  let agg_sum f =
    List.fold_left
      (fun acc tn ->
        if String.length tn.Tenant.tname > 0 && tn.Tenant.tname.[0] = 'a' then
          acc + f tn
        else acc)
      0 all_tenants
  in
  let committed =
    List.length
      (List.filter
         (fun r -> r.Upgrade.outcome = Upgrade.Committed)
         !upgrade_reports)
  in
  let rollbacks =
    List.fold_left (fun acc r -> acc + r.Upgrade.rollbacks) 0 !upgrade_reports
  in
  let max_blackout =
    List.fold_left
      (fun acc r -> Time.max acc r.Upgrade.blackout)
      Time.zero !upgrade_reports
  in
  {
    n_tenants = cfg.tenants;
    n_victims;
    n_aggressors;
    victim_ok = victim.ok;
    victim_failed = victim.failed;
    victim_retries = victim.retries;
    victim_goodput_gbps = Scenario.echo_gbps victim ~bytes:victim_bytes;
    victim_latencies = victim.latencies;
    agg_completed = agg_sum Tenant.tx_completed;
    agg_rejected = agg_sum Tenant.tx_rejected;
    agg_failed = agg_sum Tenant.tx_failed;
    agg_cancelled = agg_sum Tenant.tx_cancelled;
    rx_delivered = sum Tenant.rx_delivered;
    rx_drops = sum Tenant.rx_drops;
    tx_post_failures =
      sum (fun tn ->
          Ring.post_failures tn.Tenant.tx + Ring.post_failures tn.Tenant.rx);
    detached =
      sum (fun tn -> if Tenant.state tn = Tenant.Detached then 1 else 0);
    force_detached = !force_detached;
    reclaimed_bytes = sum Tenant.reclaimed_bytes;
    mux_resyncs =
      (match Snap.Host.guest_mux h_guest with
      | Some m -> Mux.resyncs m
      | None -> 0);
    upgrade_committed = committed;
    upgrade_rollbacks = rollbacks;
    max_blackout;
  }

(* Same discipline as the other workloads: semantic counters only.
   Latencies, goodput and blackout durations legitimately move by
   nanoseconds under the sweep's tie-break perturbation; everything a
   tenant or the backend {e decided} must not. *)
let fingerprint (r : result) : string =
  let buf = Buffer.create 512 in
  let add name v = Buffer.add_string buf (Printf.sprintf "%s=%d\n" name v) in
  add "tenants" r.n_tenants;
  add "victims" r.n_victims;
  add "aggressors" r.n_aggressors;
  add "victim_ok" r.victim_ok;
  add "victim_failed" r.victim_failed;
  add "victim_retries" r.victim_retries;
  add "agg_completed" r.agg_completed;
  add "agg_rejected" r.agg_rejected;
  add "agg_failed" r.agg_failed;
  add "agg_cancelled" r.agg_cancelled;
  add "rx_delivered" r.rx_delivered;
  add "rx_drops" r.rx_drops;
  add "tx_post_failures" r.tx_post_failures;
  add "detached" r.detached;
  add "force_detached" r.force_detached;
  add "reclaimed_bytes" r.reclaimed_bytes;
  add "upgrade_committed" r.upgrade_committed;
  add "upgrade_rollbacks" r.upgrade_rollbacks;
  Digest.to_hex (Digest.string (Buffer.contents buf))
