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
   when checking is on, and [pool_leak_bytes] reports it always. *)

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
  pool_leak_bytes : int;
}

let run (cfg : config) : result =
  Check.Invariant.begin_run ();
  let loop = Loop.create ~seed:cfg.seed ~tie_salt:cfg.tie_salt () in
  Check.Invariant.install ~loop ();
  let fab = Fabric.create ~loop ~config:Fabric.default_config ~hosts:2 in
  let dir = PE.Directory.create () in
  let mk addr =
    Snap.Host.create ~loop ~fabric:fab ~directory:dir ~addr ~mode ~op_pool_bytes
      ()
  in
  let h_guest = mk 0 in
  let h_srv = mk 1 in
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
  let victim_ok = ref 0 in
  let victim_failed = ref 0 in
  let victim_retries = ref 0 in
  let victim_last_done = ref Time.zero in
  let victim_hist = Stats.Histogram.create () in
  let reg_hist =
    Stats.Registry.histogram
      ~labels:[ ("workload", "tenants") ]
      "workload_victim_latency_ns"
  in
  let force_detached = ref 0 in
  let tenant_of = Array.make cfg.tenants None in
  (* Victims' echo server, on an exclusive engine so server-side
     scheduling is not part of the contention story. *)
  ignore
    (Snap.Host.spawn_app h_srv ~name:"backend-v" ~spin:true (fun ctx ->
         let c =
           PE.create_client ctx h_srv.Snap.Host.pony ~name:"backend-v"
             ~exclusive_engine:true ()
         in
         while true do
           let m = PE.await_message ctx c in
           ignore (PE.send_message ctx m.PE.msg_conn ~bytes:m.PE.msg_bytes ())
         done));
  (* Aggressors' sink: consumes and never replies. *)
  ignore
    (Snap.Host.spawn_app h_srv ~name:"backend-a" ~spin:true (fun ctx ->
         let c = PE.create_client ctx h_srv.Snap.Host.pony ~name:"backend-a" () in
         while true do
           let _m = PE.await_message ctx c in
           Cpu.Thread.compute ctx (Time.us 1)
         done));
  (* Sleep-poll with a deadline: a blocked wait would need its own
     wakeup plumbing; polling at a fixed cadence keeps the drivers
     deterministic and immune to lost wakeups. *)
  let poll_step = Time.us 2 in
  let poll ctx ~deadline f =
    let rec go () =
      match f () with
      | Some _ as r -> r
      | None ->
          if Cpu.Thread.now ctx >= deadline then None
          else begin
            Cpu.Thread.sleep ctx poll_step;
            go ()
          end
    in
    go ()
  in
  let prime_rx tn =
    for s = 0 to Ring.capacity tn.Tenant.rx - 1 do
      ignore
        (Ring.post tn.Tenant.rx ~now:Time.zero ~id:s
           ~off:(Tenant.rx_buf_off tn s) ~len:tn.Tenant.buf_bytes)
    done
  in
  (* Victim driver: guest-side closed loop over the rings.  One
     outstanding descriptor; its completion status comes back on the tx
     used ring, the echo on the rx used ring. *)
  let victim_driver i ctx =
    (* Distinct start instants make attach order (tenant ids, engine
       assignment) a function of the config, not of same-time
       scheduling ties. *)
    Cpu.Thread.sleep ctx (Time.add (Time.us 600) (i * 500));
    let tn =
      Snap.Host.attach_tenant ctx h_guest
        ~name:(Printf.sprintf "v%d" i)
        ~dst_host:1 ~dst_name:"backend-v" ~ring_slots ~buf_bytes ()
    in
    tenant_of.(i) <- Some tn;
    prime_rx tn;
    let n = ref 0 in
    let next_id = ref 0 in
    while !n < cfg.victim_ops && Cpu.Thread.now ctx < cfg.stop_at do
      incr n;
      let t0 = Cpu.Thread.now ctx in
      let rec attempt k =
        if k > 3 then incr victim_failed
        else begin
          if k > 1 then incr victim_retries;
          let slot = !n mod ring_slots in
          (* Fresh id per attempt: a timed-out attempt's descriptor may
             still be in flight, and reusing its id would be scored as
             id aliasing by the hardened mux.  The id is a label; the
             buffer slot stays op-indexed. *)
          incr next_id;
          let id = !next_id in
          if
            not
              (Ring.post tn.Tenant.tx ~now:(Cpu.Thread.now ctx) ~id
                 ~off:(Tenant.tx_buf_off tn slot) ~len:victim_bytes)
          then begin
            (* Single outstanding op: a full tx ring means cancelled
               completions from a detach are pending; nothing to do. *)
            Cpu.Thread.sleep ctx (Time.us 50);
            attempt (k + 1)
          end
          else
            let deadline = Time.add (Cpu.Thread.now ctx) (Time.ms 4) in
            (* Drop stale used entries (from attempts that timed out
               here but completed later): match on descriptor id. *)
            match
              poll ctx ~deadline (fun () ->
                  match Ring.pop_used tn.Tenant.tx with
                  | Some u when u.Ring.u_id = id -> Some u
                  | Some _ | None -> None)
            with
            | Some u when u.Ring.u_status = Ring.Complete -> (
                (* The echo window must ride out a full engine blackout
                   on its own: the transport has taken responsibility,
                   so the echo is coming — late, not lost. *)
                let deadline = Time.add (Cpu.Thread.now ctx) (Time.ms 10) in
                match
                  poll ctx ~deadline (fun () -> Ring.pop_used tn.Tenant.rx)
                with
                | Some ru ->
                    (* Return the buffer to the rx ring. *)
                    ignore
                      (Ring.post tn.Tenant.rx ~now:(Cpu.Thread.now ctx)
                         ~id:ru.Ring.u_id
                         ~off:(Tenant.rx_buf_off tn ru.Ring.u_id)
                         ~len:tn.Tenant.buf_bytes);
                    let lat = Time.sub (Cpu.Thread.now ctx) t0 in
                    Stats.Histogram.record victim_hist lat;
                    Stats.Histogram.record reg_hist lat;
                    incr victim_ok;
                    victim_last_done := Loop.now loop
                | None -> incr victim_failed)
            | Some _ ->
                (* Rejected / timed out / busy: back off and retry. *)
                Cpu.Thread.sleep ctx (Time.us 50);
                attempt (k + 1)
            | None ->
                (* No completion within the window — typically the mux
                   engine is mid-blackout.  Retry: the stale descriptor
                   completes later and is dropped by the id match. *)
                attempt (k + 1)
        end
      in
      attempt 1
    done;
    Snap.Host.detach_tenant h_guest tn
  in
  (* Aggressor driver: open-loop posts at a fixed interval, reaping
     used entries just enough to keep the ring usable.  Rejections land
     as used entries too — the guest sees its own overload. *)
  let aggressor_driver i ctx =
    Cpu.Thread.sleep ctx (Time.add (Time.us 600) (i * 500));
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
  Loop.run ~until:cfg.run_cap loop;
  Check.Invariant.quiesce ();
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
  let pool_leak_bytes =
    Memory.Pool.in_use (PE.op_pool h_guest.Snap.Host.pony)
    + Memory.Pool.in_use (PE.op_pool h_srv.Snap.Host.pony)
  in
  List.iter
    (fun h -> Memory.Pool.assert_quiesced (PE.op_pool h.Snap.Host.pony))
    [ h_guest; h_srv ];
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
  let victim_goodput_gbps =
    if !victim_last_done = 0 then 0.0
    else
      float_of_int (!victim_ok * victim_bytes * 2 * 8)
      /. float_of_int !victim_last_done
  in
  {
    n_tenants = cfg.tenants;
    n_victims;
    n_aggressors;
    victim_ok = !victim_ok;
    victim_failed = !victim_failed;
    victim_retries = !victim_retries;
    victim_goodput_gbps;
    victim_latencies = victim_hist;
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
    pool_leak_bytes;
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
  add "pool_leak" r.pool_leak_bytes;
  Digest.to_hex (Digest.string (Buffer.contents buf))
