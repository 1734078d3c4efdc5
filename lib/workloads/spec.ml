(* The workload contract: one table entry per acceptance workload.

   Each entry's [go] runs one config, measures exactly the measured run
   (comparison baselines stay outside the window, or run lazily inside
   [report]), and turns every acceptance bound into a typed check.
   Checks read the run's result or [Stats.Registry], never stdout. *)

module T = Sim.Time

type check = { name : string; ok : bool; detail : string }

type row = {
  ops : int;
  goodput_gbps : float;
  latencies : Stats.Histogram.t;
  cpu_ns_per_op : float;
  gc_words_per_op : float;
}

type outcome = {
  fingerprint : string;
  checks : check list;
  row : row;
  report : unit -> string list;
}

type t = {
  name : string;
  title : string;
  seed : int;
  full : seed:int -> tie_salt:int -> outcome;
  small : seed:int -> tie_salt:int -> outcome;
  sabotages : (string * (unit -> unit)) list;
}

let failed checks = List.filter (fun (c : check) -> not c.ok) checks
let verdict checks = if failed checks = [] then `Pass else `Fail

let checked_fingerprint o =
  match failed o.checks with
  | [] -> o.fingerprint
  | fs ->
      failwith
        ("acceptance check failed: "
        ^ String.concat "; "
            (List.map
               (fun (c : check) -> Printf.sprintf "%s (%s)" c.name c.detail)
               fs))

let catch_sabotage (flag, run) =
  let was_checking = Check.Invariant.enabled () in
  let was_tracing = Sim.Optrace.enabled () in
  Check.Invariant.set_enabled true;
  if not was_tracing then Sim.Optrace.set_capture (Some 8192);
  Sim.Optrace.clear ();
  Check.Invariant.set_sabotage flag true;
  let restore () =
    Check.Invariant.set_sabotage flag false;
    Sim.Optrace.clear ();
    if not was_tracing then Sim.Optrace.set_capture None;
    Check.Invariant.set_enabled was_checking
  in
  match Fun.protect ~finally:restore run with
  | () -> None
  | exception Check.Invariant.Violation msg -> Some msg

(* -- Checks and report helpers --------------------------------------------- *)

let pf = Printf.sprintf
let check name ok detail : check = { name; ok; detail }
let zero name v = check name (v = 0) (string_of_int v)
let positive name v = check name (v > 0) (string_of_int v)
let total counters = List.fold_left (fun acc (_, v) -> acc + v) 0 counters

let no_lost ~completed ~expected ~lost =
  check "no lost ops"
    (lost = 0 && completed = expected)
    (pf "%d/%d completed, %d lost" completed expected lost)

let metric_names () =
  List.map (fun m -> m.Stats.Registry.m_name) (Stats.Registry.snapshot ())

let exported names =
  let have = metric_names () in
  let missing = List.filter (fun n -> not (List.mem n have)) names in
  check "metrics exported" (missing = [])
    (String.concat " " (if missing = [] then names else "missing" :: missing))

let us h p = T.to_float_us (Stats.Histogram.percentile h p)

(* "label: a=1, b=2", zero counts omitted. *)
let counts label kvs =
  label ^ ": "
  ^ String.concat ", "
      (List.filter_map
         (fun (k, v) -> if v = 0 then None else Some (pf "%s=%d" k v))
         kvs)

let kept ~base v = if base > 0.0 then 100.0 *. v /. base else 0.0

(* Victim goodput and p99 against a comparison baseline run. *)
let versus base_name ~goodput ~lat ~base_goodput ~base_lat =
  pf "victim: goodput %.2f Gbps (%s %.2f, %.0f%% kept), p99 %.1fus (%s %.1fus)"
    goodput base_name base_goodput (kept ~base:base_goodput goodput)
    (us lat 99.0) base_name (us base_lat 99.0)

(* -- Measurement ----------------------------------------------------------- *)

(* Engine cost, minor-heap words and op attribution of [f ()] alone:
   the Optrace ring and the op_stage_* histograms its sink feeds restart
   here, and the registry scans sit outside the GC window. *)
let measure f =
  Sim.Optrace.clear ();
  List.iter
    (fun m ->
      match m.Stats.Registry.m_kind with
      | Stats.Registry.Histogram h
        when String.starts_with ~prefix:"op_stage_" m.Stats.Registry.m_name ->
          Stats.Histogram.clear h
      | _ -> ())
    (Stats.Registry.snapshot ());
  let cost0 = Engine_cost.ns () in
  let gc0 = Gc.minor_words () in
  let r = f () in
  let gc1 = Gc.minor_words () in
  (r, (float_of_int (Engine_cost.ns () - cost0), gc1 -. gc0))

(* The row divides the measured window by [ops] unless the workload
   measured its own [steady] per-op window. *)
let outcome ?steady ~fingerprint ~checks ~ops ~goodput_gbps ~latencies
    (cost, gc) report =
  let n = float_of_int (Int.max 1 ops) in
  let cpu_ns_per_op, gc_words_per_op =
    Option.value steady ~default:(cost /. n, gc /. n)
  in
  let row = { ops; goodput_gbps; latencies; cpu_ns_per_op; gc_words_per_op } in
  { fingerprint; checks; row; report }

(* [sizes ~seed ~tie_salt] is the (full, sweep-size) config pair. *)
let entry name title ~seed ?(sabotages = []) sizes go : t =
  let full ~seed ~tie_salt = go (fst (sizes ~seed ~tie_salt)) in
  let small ~seed ~tie_salt = go (snd (sizes ~seed ~tie_salt)) in
  { name; title; seed; full; small; sabotages }

(* -- The table ------------------------------------------------------------- *)

let chaos =
  let go (cfg : Chaos.config) =
    (* Fault-free same-config baseline first, outside the measured
       window. *)
    let baseline = Chaos.run { cfg with plan = Fault.Plan.empty } in
    let r, m = measure (fun () -> Chaos.run cfg) in
    let n_metrics = List.length (List.sort_uniq compare (metric_names ())) in
    outcome ~fingerprint:(Chaos.fingerprint r)
      ~checks:
        [
          no_lost ~completed:r.ops_completed ~expected:r.ops_expected
            ~lost:r.lost_ops;
          check "registry exports >= 25 metrics" (n_metrics >= 25)
            (string_of_int n_metrics);
          positive "faults injected" (total r.fault_counters);
          positive "retransmits" r.retransmits;
        ]
      ~ops:r.ops_completed ~goodput_gbps:r.goodput_gbps ~latencies:r.latencies m
      (fun () ->
        let line name (x : Chaos.result) =
          pf "%-10s %10.1f %10.1f %10.1f %9.2f Gbps" name (us x.latencies 50.0)
            (us x.latencies 99.0) (us x.latencies 99.9) x.goodput_gbps
        in
        [
          pf "%-10s %10s %10s %10s %12s" "" "p50(us)" "p99(us)" "p999(us)"
            "goodput";
          line "baseline" baseline;
          line "faulted" r;
          pf "goodput degradation: %.1f%%"
            (Chaos.goodput_degradation_pct ~baseline ~faulted:r);
          counts "recovery"
            [ ("retransmits", r.retransmits);
              ("corrupt_drops", r.corrupt_dropped); ("rx_stalls", r.rx_stalled) ];
          counts "injected" r.fault_counters;
        ])
  in
  (* The Pony charge leak trips the quiesce-time pool invariant; the
     uncharged dequeue stamp trips per-engine stage conservation. *)
  let sabotage () =
    ignore (Chaos.run { Chaos.default_config with ops_per_client = 50 })
  in
  entry "chaos" "Availability under faults (Workloads.Chaos)"
    ~seed:Chaos.default_config.seed
    ~sabotages:
      [ ("skip_credit_release", sabotage); ("skip_op_attribution", sabotage) ]
    (fun ~seed ~tie_salt ->
      let c = { Chaos.default_config with seed; tie_salt } in
      (c, { c with ops_per_client = 150 }))
    go

let chaos_upgrade =
  let go (cfg : Chaos_upgrade.config) =
    let r, m = measure (fun () -> Chaos_upgrade.run cfg) in
    outcome ~fingerprint:(Chaos_upgrade.fingerprint r)
      ~checks:
        [
          no_lost ~completed:r.ops_completed ~expected:r.ops_expected
            ~lost:r.lost_ops;
          check "groups consistent" r.groups_consistent
            (pf "%d give-ups" r.give_ups);
          positive "upgrades committed" r.committed;
          positive "rollbacks" r.rollbacks;
          positive "watchdog restarts" r.watchdog_restarts;
        ]
      ~ops:r.ops_completed ~goodput_gbps:r.goodput_gbps ~latencies:r.latencies
      m
      (fun () ->
        pf "latency: p50 %.1fus p99 %.1fus p999 %.1fus; goodput %.2f Gbps; \
            max blackout %.1fms"
          (us r.latencies 50.0) (us r.latencies 99.0) (us r.latencies 99.9)
          r.goodput_gbps
          (T.to_float_ms r.max_blackout)
        :: List.concat_map
             (fun (addr, rs) ->
               List.map
                 (fun (u : Upgrade.report) ->
                   pf "  host %d %s: %s after %d attempt(s), blackout %.1fms"
                     addr u.engine_name
                     (match u.outcome with
                     | Upgrade.Committed -> "committed"
                     | Upgrade.Gave_up why -> "gave up (" ^ why ^ ")")
                     u.attempts (T.to_float_ms u.blackout))
                 rs)
             r.reports
        @ [
            counts "watchdog"
              (("flow_resyncs", r.flow_resyncs) :: r.watchdog_counters);
            counts "injected" r.fault_counters;
          ])
  in
  entry "chaos_upgrade" "Availability under upgrade (Workloads.Chaos_upgrade)"
    ~seed:Chaos_upgrade.default_config.seed
    (fun ~seed ~tie_salt ->
      let c = { Chaos_upgrade.default_config with seed; tie_salt } in
      (c, { c with ops_per_client = 250 }))
    go

let overload =
  let go (cfg : Overload.config) =
    let r, m = measure (fun () -> Overload.run cfg) in
    outcome ~fingerprint:(Overload.fingerprint r)
      ~checks:
        [
          zero "no Exhausted escapes" r.exhausted_escapes;
          exported
            [ "overload_ops_rejected"; "overload_ops_shed";
              "overload_pressure_transitions"; "overload_busy_nacks";
              "overload_op_pool_frac" ];
          positive "admission rejected work" r.quota_rejected;
          positive "ops shed at dequeue" r.ops_shed;
          positive "pressure transitions" r.pressure_transitions;
        ]
      ~ops:r.victim_ok ~goodput_gbps:r.victim_goodput_gbps
      ~latencies:r.victim_latencies m
      (fun () ->
        (* Uncontended baseline: same config, aggressors silent. *)
        let u = Overload.run { cfg with aggressors = 0 } in
        [
          counts "aggressors"
            [ ("offered", r.offered); ("ok", r.agg_ok);
              ("rejected", r.agg_rejected); ("timed_out", r.agg_timed_out);
              ("busy", r.agg_busy); ("expired", r.ops_expired);
              ("busy_nacks", r.busy_nacks); ("rx_pool_drops", r.rx_pool_drops);
              ("zero_window_probes", r.zero_window_probes) ];
          versus "uncontended" ~goodput:r.victim_goodput_gbps
            ~lat:r.victim_latencies ~base_goodput:u.victim_goodput_gbps
            ~base_lat:u.victim_latencies;
        ])
  in
  entry "overload" "Overload protection (Workloads.Overload)"
    ~seed:Overload.default_config.seed
    (fun ~seed ~tie_salt ->
      let c = { Overload.default_config with seed; tie_salt } in
      (c, { c with victim_ops = 60; stop_at = T.ms 10; run_cap = T.ms 40 }))
    go

let partition =
  let go (cfg : Partition.config) =
    let r, m = measure (fun () -> Partition.run cfg) in
    outcome ~fingerprint:(Partition.fingerprint r)
      ~checks:
        [
          check "no op hangs"
            (r.ops_resolved = r.ops_attempted && r.victims_finished = 2)
            (pf "%d/%d resolved, victims finished %d/2" r.ops_resolved
               r.ops_attempted r.victims_finished);
          check "detection within bounds" r.detection_ok
            (pf "slowest failed op %.1fus (bound %.1fus), longest outage \
                 %.1fms (bound %.1fms)"
               (T.to_float_us r.max_failed_resolution)
               (T.to_float_us r.resolution_bound)
               (T.to_float_ms r.max_outage)
               (T.to_float_ms r.outage_bound));
          exported
            [ "conn_established"; "conn_resets"; "peer_conn_deaths";
              "peer_dead_ops"; "peer_restarts"; "peer_keepalive_probes" ];
          positive "conns established" r.conns_established;
          positive "conn deaths" r.peer_deaths;
          positive "ops failed Peer_dead" r.peer_dead_ops;
          positive "server restart detected" r.peer_restarts;
          positive "keepalives probed" r.keepalive_probes;
          check "conn deaths on >= 2 hosts" (r.death_hosts >= 2)
            (string_of_int r.death_hosts);
        ]
      ~ops:r.ops_resolved ~goodput_gbps:r.goodput_gbps ~latencies:r.latencies m
      (fun () ->
        [
          counts "ops"
            [ ("echo_ok", r.echo_ok); ("echo_timeouts", r.echo_timeouts);
              ("peer_dead", r.peer_dead_failures);
              ("retry_exhausted", r.retry_exhausted);
              ("other", r.other_failures) ];
          counts "recovery"
            [ ("reconnects", r.reconnects);
              ("server_registrations", r.server_registrations);
              ("server_incarnation", r.server_incarnation);
              ("conns_closed", r.conns_closed); ("resets_sent", r.conn_resets);
              ("stale_drops", r.stale_drops) ];
          pf "clean-path latency: p50 %.1fus p99 %.1fus; goodput %.2f Gbps"
            (us r.latencies 50.0) (us r.latencies 99.0) r.goodput_gbps;
          counts "injected" r.fault_counters;
        ])
  in
  (* Continuous streaming of large multi-chunk messages, so blackout
     edges cut messages mid-flight: the receiver then holds pool-charged
     reassembly state when the keepalive declares the conn dead, and a
     sabotaged kill_conn strands it. *)
  let sabotage () =
    ignore
      (Partition.run
         { Partition.default_config with ops_per_victim = 200;
           op_interval = T.us 0; bytes = 131072; stop_at = T.ms 22;
           run_cap = T.ms 40 })
  in
  entry "partition" "Peer failure and reconnect (Workloads.Partition)"
    ~seed:Partition.default_config.seed
    ~sabotages:[ ("skip_peer_reclaim", sabotage) ]
    (fun ~seed ~tie_salt ->
      let c = { Partition.default_config with seed; tie_salt } in
      ( c,
        { c with ops_per_victim = 120; stop_at = T.ms 30; run_cap = T.ms 50 } ))
    go

let tenants =
  let go (cfg : Tenants.config) =
    let r, m = measure (fun () -> Tenants.run cfg) in
    let labels =
      Stats.Registry.snapshot ()
      |> List.filter_map (fun (m : Stats.Registry.metric) ->
             if m.m_name <> "tenant_tx_completed" then None
             else List.assoc_opt "tenant" m.m_labels)
      |> List.sort_uniq compare
    in
    outcome ~fingerprint:(Tenants.fingerprint r)
      ~checks:
        [
          check "all tenants detached" (r.detached = r.n_tenants)
            (pf "%d/%d (%d forced)" r.detached r.n_tenants r.force_detached);
          (* The floor is 2x nic_filter_update (8 ms of NIC filter
             reprogramming) regardless of state size; "bounded" means the
             serialize term stays small. *)
          check "upgrade blackout < 15ms" (r.max_blackout < T.ms 15)
            (pf "%.1fus" (T.to_float_us r.max_blackout));
          check "upgrade committed"
            (cfg.upgrade_at = None || r.upgrade_committed > 0)
            (pf "%d committed, %d rollbacks, %d mux resyncs"
               r.upgrade_committed r.upgrade_rollbacks r.mux_resyncs);
          exported
            [ "tenant_tx_completed"; "tenant_tx_rejected";
              "tenant_rx_delivered"; "tenant_reclaimed_bytes";
              "tenant_ring_backlog" ];
          check "every tenant exported"
            (List.length labels >= r.n_tenants)
            (pf "%d tenant labels" (List.length labels));
          positive "tenant sends completed" (r.victim_ok + r.agg_completed);
          positive "quota rejected aggressors" r.agg_rejected;
          positive "rx delivered" r.rx_delivered;
        ]
      ~ops:r.victim_ok ~goodput_gbps:r.victim_goodput_gbps
      ~latencies:r.victim_latencies m
      (fun () ->
        (* Uncontended baseline: same tenant population, aggressors
           silent. *)
        let u = Tenants.run { cfg with aggressor_ops = 0 } in
        [
          counts "tenants"
            [ ("victims", r.n_victims); ("aggressors", r.n_aggressors);
              ("victim_failed", r.victim_failed); ("agg_failed", r.agg_failed);
              ("agg_cancelled", r.agg_cancelled); ("rx_drops", r.rx_drops);
              ("posts_bounced", r.tx_post_failures) ];
          versus "uncontended" ~goodput:r.victim_goodput_gbps
            ~lat:r.victim_latencies ~base_goodput:u.victim_goodput_gbps
            ~base_lat:u.victim_latencies;
        ])
  in
  (* guest_skip_release: the backend forgets an op's in-flight entry
     and admission charge; the tenant's detach-quiesce invariant must
     notice.  mux_skip_kick_mark: kicks wake the mux engine without
     marking the tenant busy; guest.mux.busy must notice. *)
  let sabotage () =
    ignore
      (Tenants.run
         { Tenants.default_config with tenants = 8; victim_ops = 4;
           aggressor_ops = 8; upgrade_at = None; force_detach_at = None;
           stop_at = T.ms 6; run_cap = T.ms 16 })
  in
  entry "tenants" "Multi-tenant guest networking (Workloads.Tenants)"
    ~seed:Tenants.default_config.seed
    ~sabotages:
      [ ("guest_skip_release", sabotage); ("mux_skip_kick_mark", sabotage) ]
    (fun ~seed ~tie_salt ->
      let c = { Tenants.default_config with seed; tie_salt } in
      ( c,
        { c with tenants = 24; victim_ops = 8; aggressor_ops = 20;
          stop_at = T.ms 8; run_cap = T.ms 40 } ))
    go

let churn =
  let go (cfg : Churn.config) =
    let r, m = measure (fun () -> Churn.run cfg) in
    (* Per-op figures come from the in-workload steady window, so ramp
       and teardown cannot launder them. *)
    outcome
      ~steady:(r.steady_cpu_ns_per_op, r.steady_gc_words_per_op)
      ~fingerprint:(Churn.fingerprint r)
      ~checks:
        [
          check "all conns live at steady"
            (r.live_at_steady = r.conns_target && r.ramp_failures = 0)
            (pf "%d/%d live, %d ramp failures" r.live_at_steady r.conns_target
               r.ramp_failures);
          check "no failed ops"
            (r.ops_failed = 0 && r.burst_failed = 0)
            (pf "%d steady, %d burst" r.ops_failed r.burst_failed);
          check "every storm close graceful" (r.conns_closed = r.closes)
            (pf "closed %d of %d" r.conns_closed r.closes);
        ]
      ~ops:(r.ops_ok + r.burst_ok) ~goodput_gbps:(Churn.goodput_gbps r)
      ~latencies:r.latencies m
      (fun () ->
        [
          pf "steady window (%d ops): %.1f minor-GC words/op, %.1f engine ns/op"
            r.steady_ops r.steady_gc_words_per_op r.steady_cpu_ns_per_op;
          pf "latency: p50 %.1fus p99 %.1fus; goodput %.2f Gbps"
            (us r.latencies 50.0) (us r.latencies 99.0) (Churn.goodput_gbps r);
          counts "lifecycle"
            [ ("drivers", r.n_drivers); ("ops_ok", r.ops_ok);
              ("strays", r.stray_completions); ("storm_closes", r.closes);
              ("reconnects", r.reconnects); ("burst_ok", r.burst_ok);
              ("halves_established", r.conns_established);
              ("closed", r.conns_closed); ("resets", r.conn_resets);
              ("deaths", r.peer_deaths) ];
        ])
  in
  entry "churn" "Million-connection churn (Workloads.Churn)"
    ~seed:Churn.default_config.seed
    (fun ~seed ~tie_salt ->
      let c = { Churn.default_config with seed; tie_salt } in
      ( c,
        { c with clients_per_side = 16; ops_per_driver = 40;
          stop_at = T.ms 30; run_cap = T.ms 60 } ))
    go

let hostile =
  let go (cfg : Hostile.config) =
    (* Clean same-seed baseline first: identical cohorts and schedule,
       empty fault plan. *)
    let clean = Hostile.run { cfg with byzantine = false } in
    let r, m = measure (fun () -> Hostile.run cfg) in
    let kept = kept ~base:clean.victim_goodput_gbps r.victim_goodput_gbps in
    let kinds = List.length (List.filter (fun (_, v) -> v > 0) r.violations) in
    outcome ~fingerprint:(Hostile.fingerprint r)
      ~checks:
        [
          check "all attackers quarantined"
            (r.attackers_quarantined = r.n_attackers)
            (pf "%d/%d (%d suspect escalations)" r.attackers_quarantined
               r.n_attackers r.suspects);
          check "detection within bound" r.detection_ok
            (pf "worst %.1fus, bound %.1fus"
               (T.to_float_us r.max_detection)
               (T.to_float_us Hostile.detect_bound));
          zero "no victim violations" r.victim_violations;
          check "victim goodput kept >= 80% of clean" (kept >= 80.0)
            (pf "%.0f%%" kept);
          check "all tenants detached" (r.detached = r.n_tenants)
            (pf "%d/%d" r.detached r.n_tenants);
          exported
            [ "tenant_quarantines"; "tenant_quarantine_suspects";
              "guest_violations"; "guest_unmatched_completions";
              "ring_post_bad_range" ];
          positive "quarantines" r.attackers_quarantined;
          positive "suspect escalations" r.suspects;
          positive "violations scored" (total r.violations);
          check "violation kinds >= 4" (kinds >= 4) (string_of_int kinds);
        ]
      ~ops:r.victim_ok ~goodput_gbps:r.victim_goodput_gbps
      ~latencies:r.victim_latencies m
      (fun () ->
        [
          versus "clean" ~goodput:r.victim_goodput_gbps ~lat:r.victim_latencies
            ~base_goodput:clean.victim_goodput_gbps
            ~base_lat:clean.victim_latencies;
          counts "attacks"
            (("byzantine_windows", r.guest_attacks) :: r.violations);
          counts "verdicts"
            [ ("failed_descs", r.atk_failed); ("cancelled", r.atk_cancelled);
              ("rx_drops", r.rx_drops);
              ("unmatched_completions", r.unmatched_completions);
              ("checked_posts_refused", r.post_bad_range) ];
        ])
  in
  (* Escalation stops short of quarantine: violations keep accruing past
     the threshold while the tenant stays attached; the
     [guest.quarantine] invariant must notice. *)
  let sabotage () =
    ignore
      (Hostile.run { Hostile.default_config with tenants = 8; victim_ops = 4 })
  in
  entry "hostile" "Hostile-guest hardening (Workloads.Hostile)"
    ~seed:Hostile.default_config.seed
    ~sabotages:[ ("skip_tenant_quarantine", sabotage) ]
    (fun ~seed ~tie_salt ->
      let c = { Hostile.default_config with seed; tie_salt } in
      (c, { c with tenants = 12; victim_ops = 6 }))
    go

let all =
  [ chaos; chaos_upgrade; overload; partition; tenants; churn; hostile ]
