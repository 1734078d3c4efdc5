module Time = Sim.Time
module PE = Pony.Express
module Ring = Guest.Ring
module Tenant = Guest.Tenant
module Mux = Guest.Mux

(* Byzantine aggressors against well-behaved victims on one shared
   guest backend: every odd-indexed tenant turns hostile for the
   [Fault.Plan.Guest_byzantine] window, abusing its rings through the
   unchecked raw surface (garbage descriptors, index rollback/runahead,
   reap withholding, kick storms, id aliasing).  The host's take-side
   validation must turn every abuse into counted verdicts — never an
   exception in a mux engine — and the escalation ladder must quarantine
   every attacker within the detection bound while the victim cohort
   keeps its goodput.  Containment is checkable: quarantined tenants'
   host ring indices freeze, their pool bytes return through the
   generation-tagged owner release, and the victims score zero
   violations of their own. *)

(* Every k-th tenant is a byzantine attacker. *)
let attacker_every = 2
let victim_bytes = 1024

(* Pause between victim ops, stretching the cohort's activity across the
   attack window. *)
let victim_gap = Time.us 300
let ring_slots = 16
let buf_bytes = 4096
let mux_engines = 2
let mux_mode = Engine.Spreading { runtime_pct = 0.9 }

(* Scheduling mode of the Pony groups. *)
let mode = Engine.Dedicating { cores = 2 }
let suspect_after = 3
let quarantine_after = 12
let attack_start = Time.ms 2
let attack_duration = Time.ms 3

(* Max allowed quarantine latency from attack start. *)
let detect_bound = Time.ms 2

(* Rate of the [Kick_storm] behavior. *)
let kick_hz = 200_000.
let stop_at = Time.ms 10
let run_cap = Time.ms 25
let op_pool_bytes = 256 lsl 20

type config = {
  tenants : int;
  victim_ops : int;  (** Closed-loop echoes per victim. *)
  byzantine : bool;
      (** [false] runs the clean same-seed baseline: identical cohorts
          and schedule, empty fault plan. *)
  seed : int;
  tie_salt : int;
}

let default_config =
  {
    tenants = 40;
    victim_ops = 12;
    byzantine = true;
    seed = 33;
    tie_salt = 0;
  }

type result = {
  n_tenants : int;
  n_victims : int;
  n_attackers : int;
  victim_ok : int;
  victim_failed : int;
  victim_retries : int;
  victim_goodput_gbps : float;
  victim_latencies : Stats.Histogram.t;
  victim_violations : int;
      (** Violations scored against victims — must be zero: the
          escalation ladder must not produce false positives. *)
  attackers_quarantined : int;
  suspects : int;  (** Suspect escalations at the mux. *)
  max_detection : Time.t;
      (** Worst quarantine latency from attack start (0 when no
          attacker was quarantined). *)
  detection_ok : bool;
      (** All attackers quarantined within [detect_bound]. *)
  violations : (string * int) list;
      (** Attacker violations by reason (schedule-sensitive counts). *)
  post_bad_range : int;
      (** Checked posts refused guest-side: each attacker fires one
          buggy-but-honest out-of-range {!Ring.post} probe, proving the
          non-fatal rejection path end to end. *)
  unmatched_completions : int;
  atk_completed : int;  (** Attacker ops that completed normally. *)
  atk_failed : int;  (** Malformed/aliased descriptors, completed Failed. *)
  atk_cancelled : int;
  rx_drops : int;
  detached : int;  (** Tenants fully detached at quiesce. *)
  guest_attacks : int;  (** Byzantine windows the injector launched. *)
}

let run (cfg : config) : result =
  let sc =
    Scenario.create ~seed:cfg.seed ~tie_salt:cfg.tie_salt ~hosts:2
      (fun ~loop ~fabric ~directory ~addr ->
        Snap.Host.create ~loop ~fabric ~directory ~addr ~mode ~op_pool_bytes ())
  in
  let h_guest = sc.hosts.(0) and h_srv = sc.hosts.(1) in
  ignore
    (Snap.Host.enable_guests ~engines:mux_engines ~mode:mux_mode ~suspect_after
       ~quarantine_after h_guest);
  let is_attacker i = i mod attacker_every = attacker_every - 1 in
  let attacker_rank i =
    let r = ref 0 in
    for j = 0 to i - 1 do
      if is_attacker j then incr r
    done;
    !r
  in
  let n_attackers =
    let n = ref 0 in
    for i = 0 to cfg.tenants - 1 do
      if is_attacker i then incr n
    done;
    !n
  in
  let n_victims = cfg.tenants - n_attackers in
  let behaviors_of rank : Fault.Plan.byzantine list =
    match rank mod 6 with
    | 0 -> [ Fault.Plan.Bad_desc_range ]
    | 1 -> [ Fault.Plan.Avail_rollback; Fault.Plan.Bad_desc_range ]
    | 2 -> [ Fault.Plan.Avail_runahead ]
    | 3 -> [ Fault.Plan.Reap_withhold ]
    | 4 -> [ Fault.Plan.Kick_storm { hz = kick_hz } ]
    | _ -> [ Fault.Plan.Desc_id_alias ]
  in
  let victim = Scenario.trips ~workload:"hostile" "workload_victim_latency_ns" in
  let tenant_of = Array.make cfg.tenants None in
  Scenario.echo_server h_srv ~name:"backend-v" ~exclusive_engine:true;
  Scenario.sink h_srv ~name:"backend-a" ~service:(Time.us 1);
  let start i = Time.add (Time.us 600) (i * 500) in
  (* Victims pause between ops so the cohort is active throughout the
     attack window. *)
  let victim_driver i ctx =
    Cpu.Thread.sleep ctx (start i);
    let tn =
      Snap.Host.attach_tenant ctx h_guest
        ~name:(Printf.sprintf "v%d" i)
        ~dst_host:1 ~dst_name:"backend-v" ~ring_slots ~buf_bytes ()
    in
    tenant_of.(i) <- Some tn;
    Scenario.guest_victim victim tn ~ops:cfg.victim_ops ~bytes:victim_bytes
      ~stop_at ~gap:victim_gap ctx;
    Snap.Host.detach_tenant h_guest tn
  in
  (* Attacker driver: attaches like any guest and behaves until the
     byzantine window (the injector flips its driver hostile).  Right
     after attach it fires one buggy-but-honest probe — a {e checked}
     post with an out-of-range buffer — which must come back as a
     counted refusal, not a crash.  Light legitimate traffic keeps the
     binding warm so the attack hits a live datapath. *)
  let attacker_driver i ctx =
    Cpu.Thread.sleep ctx (start i);
    let tn =
      Snap.Host.attach_tenant ctx h_guest
        ~name:(Printf.sprintf "x%d" i)
        ~dst_host:1 ~dst_name:"backend-a" ~ring_slots ~buf_bytes ()
    in
    tenant_of.(i) <- Some tn;
    let accepted =
      Ring.post tn.Tenant.tx ~now:(Cpu.Thread.now ctx) ~id:999
        ~off:(Memory.Region.size tn.Tenant.region)
        ~len:64
    in
    assert (not accepted);
    let posted = ref 0 in
    while Tenant.state tn = Tenant.Attached && Cpu.Thread.now ctx < stop_at
    do
      (* The cooperative guest driver owns the rings only until the
         byzantine window opens; after that the attack driver does
         (reaping here would defeat Reap_withhold). *)
      if (not cfg.byzantine) || Cpu.Thread.now ctx < attack_start then begin
        let rec reap () =
          match Ring.pop_used tn.Tenant.tx with Some _ -> reap () | None -> ()
        in
        reap ();
        if Cpu.Thread.now ctx < attack_start then begin
          incr posted;
          ignore
            (Ring.post tn.Tenant.tx ~now:(Cpu.Thread.now ctx)
               ~id:(1000 + !posted)
               ~off:(Tenant.tx_buf_off tn !posted)
               ~len:256)
        end
      end;
      Cpu.Thread.sleep ctx (Time.us 200)
    done;
    if Tenant.state tn = Tenant.Attached then
      Snap.Host.detach_tenant h_guest tn
  in
  for i = 0 to cfg.tenants - 1 do
    let driver = if is_attacker i then attacker_driver else victim_driver in
    ignore
      (Snap.Host.spawn_app h_guest
         ~name:(Printf.sprintf "hg%d" i)
         (fun ctx -> driver i ctx))
  done;
  (* The fault plan: one byzantine window per attacker, all opening at
     [attack_start].  The clean baseline runs the identical schedule
     with no events. *)
  let plan =
    if not cfg.byzantine then Fault.Plan.empty
    else
      Fault.Plan.make ~seed:cfg.seed
        (List.filter_map
           (fun i ->
             if is_attacker i then
               Some
                 (Fault.Plan.Guest_byzantine
                    {
                      host = 0;
                      tenant = Printf.sprintf "x%d" i;
                      start = attack_start;
                      duration = attack_duration;
                      behaviors = behaviors_of (attacker_rank i);
                    })
             else None)
           (List.init cfg.tenants (fun i -> i)))
  in
  let inj = Scenario.inject sc plan in
  Scenario.finish sc ~until:run_cap;
  let all_tenants = Array.to_list tenant_of |> List.filter_map (fun x -> x) in
  let split p = List.filter p all_tenants in
  let victims =
    split (fun tn -> String.length tn.Tenant.tname > 0 && tn.Tenant.tname.[0] = 'v')
  in
  let attackers =
    split (fun tn -> String.length tn.Tenant.tname > 0 && tn.Tenant.tname.[0] = 'x')
  in
  let sum l f = List.fold_left (fun acc tn -> acc + f tn) 0 l in
  let attackers_quarantined =
    sum attackers (fun tn ->
        if Tenant.health tn = Tenant.Quarantined then 1 else 0)
  in
  let max_detection =
    List.fold_left
      (fun acc tn ->
        match Tenant.quarantined_at tn with
        | Some at -> Time.max acc (Time.sub at attack_start)
        | None -> acc)
      Time.zero attackers
  in
  let detection_ok =
    (not cfg.byzantine)
    || (attackers_quarantined = n_attackers && max_detection <= detect_bound)
  in
  let mux = Snap.Host.guest_mux h_guest in
  let mux_stat f = match mux with Some m -> f m | None -> 0 in
  {
    n_tenants = cfg.tenants;
    n_victims;
    n_attackers;
    victim_ok = victim.ok;
    victim_failed = victim.failed;
    victim_retries = victim.retries;
    victim_goodput_gbps = Scenario.echo_gbps victim ~bytes:victim_bytes;
    victim_latencies = victim.latencies;
    victim_violations = sum victims Tenant.violations;
    attackers_quarantined;
    suspects = mux_stat Mux.suspects;
    max_detection;
    detection_ok;
    violations =
      List.map
        (fun v ->
          ( Tenant.violation_to_string v,
            sum attackers (fun tn -> Tenant.violations_by tn v) ))
        Tenant.all_violations;
    post_bad_range =
      sum all_tenants (fun tn ->
          Ring.post_bad_range tn.Tenant.tx + Ring.post_bad_range tn.Tenant.rx);
    unmatched_completions = mux_stat Mux.unmatched_completions;
    atk_completed = sum attackers Tenant.tx_completed;
    atk_failed = sum attackers Tenant.tx_failed;
    atk_cancelled = sum attackers Tenant.tx_cancelled;
    rx_drops = sum all_tenants Tenant.rx_drops;
    detached =
      sum all_tenants (fun tn ->
          if Tenant.state tn = Tenant.Detached then 1 else 0);
    guest_attacks =
      (match List.assoc_opt "guest_attacks" (Fault.Injector.counters inj) with
      | Some n -> n
      | None -> 0);
  }

(* Decision-level counters only.  Violation totals accrue per engine
   pass and are schedule-sensitive under the sweep's tie-break
   perturbation, as are retry counts near their deadlines; everything
   the backend {e decided} — who was quarantined, what completed, what
   detached — must be byte-identical. *)
let fingerprint (r : result) : string =
  let buf = Buffer.create 512 in
  let add name v = Buffer.add_string buf (Printf.sprintf "%s=%d\n" name v) in
  add "tenants" r.n_tenants;
  add "victims" r.n_victims;
  add "attackers" r.n_attackers;
  add "victim_ok" r.victim_ok;
  add "victim_failed" r.victim_failed;
  add "victim_violations" r.victim_violations;
  add "attackers_quarantined" r.attackers_quarantined;
  add "detection_ok" (if r.detection_ok then 1 else 0);
  add "post_bad_range" r.post_bad_range;
  add "guest_attacks" r.guest_attacks;
  add "detached" r.detached;
  Digest.to_hex (Digest.string (Buffer.contents buf))
