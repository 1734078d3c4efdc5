(* The measurement core every workload shares.

   A repetition builds one simulation, steps it event by event up to a
   sentinel event at each slice end (set-up, warmup, window, drain), and
   times set-up and load on the host clock.  At the window edges it reads
   each layer's counters from the host handles; after the drain it reads
   the end-of-run totals and runs the output checks.  A [pool] sums the
   repetitions of one run, and [end_to_end] / [per_layer] turn the sums
   into the reported metrics. *)

module Time = Sim.Time
module Loop = Sim.Loop
module PE = Pony.Express
module H = Stats.Histogram

let wall () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* -- What a workload hands the harness ------------------------------------ *)

(* Filled by the workload's own app threads.  [ops], [bytes] and [lat] count
   only the window; [attempted] and [ok] count the whole repetition. *)
type meter = {
  mutable ops : int;
  mutable bytes : int;  (** app payload delivered inside the window *)
  lat : H.t;  (** latency of the window's ops, ns *)
  late : H.t;  (** open-loop generators: send time minus due time, ns *)
  mutable attempted : int;
  mutable ok : int;
}

let meter () =
  { ops = 0; bytes = 0; lat = H.create (); late = H.create (); attempted = 0; ok = 0 }

type scenario = {
  loop : Loop.t;
  fabric : Fabric.t;
  hosts : Snap.Host.t list;
  setup_end : Time.t;  (** every conn is established by here *)
  window : Time.t * Time.t;
  drain_end : Time.t;  (** issuing stops at the window end; ops resolve by here *)
  meter : meter;
  checks : unit -> (string * bool) list;  (** workload checks, read after the drain *)
}

(* One span per op in traced runs: due to completion, with the send
   time as an argument, on the workload's track. *)
let op_span loop ~track ~due ~sent ~completed =
  if Sim.Span.enabled () then
    Sim.Span.emit loop ~cat:"op" ~track ~start:due ~dur:(completed - due)
      ~args:[ ("sent_ns", string_of_int sent) ]
      "op"

(* -- Stepping ------------------------------------------------------------- *)

type drive = { d_loop : Loop.t; mutable events : int; mutable pending_peak : int }

(* Run every event up to and including a sentinel scheduled at [t]. *)
let run_until d t =
  let reached = ref false in
  ignore (Loop.at d.d_loop t (fun () -> reached := true));
  while (not !reached) && Loop.step d.d_loop do
    d.events <- d.events + 1;
    let p = Loop.pending_events d.d_loop in
    if p > d.pending_peak then d.pending_peak <- p
  done

(* -- Layer counters ------------------------------------------------------- *)

let pony_engines h =
  let p = h.Snap.Host.pony in
  List.init (PE.num_engines p) (PE.engine_handle p)

let mux_engines h =
  match Snap.Host.guest_mux h with None -> [] | Some m -> Guest.Mux.engines m

let tenants hosts =
  List.concat_map
    (fun h ->
      match Snap.Host.guest_mux h with None -> [] | Some m -> Guest.Mux.tenants m)
    hosts

let context_switches h =
  let m = h.Snap.Host.machine in
  let name = Cpu.Sched.machine_name m in
  let n = ref 0 in
  for c = 0 to Cpu.Sched.num_cores m - 1 do
    match
      Stats.Registry.find
        ~labels:[ ("machine", name); ("core", string_of_int c) ]
        "cpu_core_context_switches"
    with
    | Some { Stats.Registry.m_kind = Stats.Registry.Gauge g; _ } ->
        n := !n + int_of_float (Stats.Gauge.value g)
    | _ -> ()
  done;
  !n

(* Counters read at a window edge; the window's share is the difference. *)
type edge = {
  minor_words : float;
  busy : int;
  app : int;
  snap : int;
  softirq : int;
  eng_busy : int;
  eng_steps : int;
  mux_busy : int;
  tx_pkts : int;
  switches : int;
}

let edge hosts =
  let sum f = List.fold_left (fun a h -> a + f h) 0 hosts in
  let acct name h = Cpu.Sched.account_busy_ns h.Snap.Host.machine name in
  let engs f es = List.fold_left (fun a e -> a + f e) 0 es in
  let all_engines h = pony_engines h @ mux_engines h in
  {
    minor_words = Gc.minor_words ();
    busy = sum (fun h -> Cpu.Sched.busy_ns h.Snap.Host.machine);
    app = sum (acct "app");
    snap = sum (acct "snap");
    softirq = sum (acct "softirq");
    eng_busy = sum (fun h -> engs Engine.busy_ns (all_engines h));
    eng_steps = sum (fun h -> engs Engine.steps (all_engines h));
    mux_busy = sum (fun h -> engs Engine.busy_ns (mux_engines h));
    tx_pkts = sum (fun h -> Nic.tx_count h.Snap.Host.nic);
    switches = sum context_switches;
  }

(* Fold every registry histogram called [name] into [dst]. *)
let merge_registry_hists name dst =
  List.iter
    (fun m ->
      match m.Stats.Registry.m_kind with
      | Stats.Registry.Histogram h when String.equal m.Stats.Registry.m_name name ->
          H.merge_into ~src:h ~dst
      | _ -> ())
    (Stats.Registry.snapshot ())

let stages = [ Sim.Optrace.Dequeued; Credit; First_tx; Rx_first; Completed ]

(* -- Pooling repetitions -------------------------------------------------- *)

type pool = {
  sums : (string, float) Hashtbl.t;
  maxes : (string, float) Hashtbl.t;
  hists : (string, H.t) Hashtbl.t;
  mutable setup_s : float list;  (** host seconds per repetition, in run order *)
  mutable load_s : float list;
  mutable failures : string list;  (** names of failed checks, newest first *)
}

let pool () =
  {
    sums = Hashtbl.create 64;
    maxes = Hashtbl.create 8;
    hists = Hashtbl.create 16;
    setup_s = [];
    load_s = [];
    failures = [];
  }

let sum p k = Option.value ~default:0.0 (Hashtbl.find_opt p.sums k)
let add p k v = Hashtbl.replace p.sums k (sum p k +. v)
let addi p k v = add p k (float_of_int v)
let maxv p k = Option.value ~default:0.0 (Hashtbl.find_opt p.maxes k)
let note_max p k v = Hashtbl.replace p.maxes k (Float.max (maxv p k) v)

let hist p k =
  match Hashtbl.find_opt p.hists k with
  | Some h -> h
  | None ->
      let h = H.create () in
      Hashtbl.replace p.hists k h;
      h

let check p (name, ok) = if not ok then p.failures <- name :: p.failures

(* -- One repetition ------------------------------------------------------- *)

(* Run one repetition of [build] and add it to [p].  [check_invariants]
   turns [Check.Invariant] on, for the smoke test. *)
let rep ~check_invariants p (build : seed:int -> scenario) ~seed =
  (* Drop the last repetition's registry, stage sink and invariants:
     they hold closures over its simulation, which must be garbage
     before [live0] is taken. *)
  Stats.Registry.clear ();
  Sim.Optrace.set_stage_sink None;
  Check.Invariant.set_enabled check_invariants;
  Check.Invariant.begin_run ();
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let live0 = live () in
  let t0 = wall () in
  let sc = build ~seed in
  Check.Invariant.install ~loop:sc.loop ();
  let d = { d_loop = sc.loop; events = 0; pending_peak = 0 } in
  let phase name start stop =
    if Sim.Span.enabled () then
      Sim.Span.emit sc.loop ~cat:"phase" ~track:"snapbench" ~start
        ~dur:(stop - start) name
  in
  run_until d sc.setup_end;
  phase "setup" 0 sc.setup_end;
  let t1 = wall () in
  let setup_events = d.events in
  let w0, w1 = sc.window in
  run_until d w0;
  phase "warmup" sc.setup_end w0;
  let e0 = edge sc.hosts in
  run_until d w1;
  let e1 = edge sc.hosts in
  phase "window" w0 w1;
  (* The simulation's resident state at its fullest, off the clock.  A
     peak heap size would depend on the GC's pacing, not on the state. *)
  let t_gc = wall () in
  let live_words = live () - live0 in
  let gc_s = wall () -. t_gc in
  run_until d sc.drain_end;
  phase "drain" w1 sc.drain_end;
  let t2 = wall () -. gc_s in
  let quiesced =
    match Check.Invariant.quiesce () with
    | () -> true
    | exception Check.Invariant.Violation msg ->
        prerr_endline ("invariant violated: " ^ msg);
        false
  in
  Check.Invariant.set_enabled false;
  let m = sc.meter in
  let hosts = sc.hosts in
  let sumh f = List.fold_left (fun a h -> a + f h) 0 hosts in
  let pony f = sumh (fun h -> f h.Snap.Host.pony) in
  let tns = tenants hosts in
  let sumt f = List.fold_left (fun a t -> a + f t) 0 tns in
  (* Window deltas. *)
  addi p "window_ns" (w1 - w0);
  addi p "ops" m.ops;
  addi p "bytes" m.bytes;
  add p "minor_words" (e1.minor_words -. e0.minor_words);
  addi p "busy" (e1.busy - e0.busy);
  addi p "app" (e1.app - e0.app);
  addi p "snap" (e1.snap - e0.snap);
  addi p "softirq" (e1.softirq - e0.softirq);
  addi p "eng_busy" (e1.eng_busy - e0.eng_busy);
  addi p "eng_steps" (e1.eng_steps - e0.eng_steps);
  addi p "mux_busy" (e1.mux_busy - e0.mux_busy);
  addi p "tx_pkts" (e1.tx_pkts - e0.tx_pkts);
  addi p "switches" (e1.switches - e0.switches);
  (* Whole-repetition totals. *)
  addi p "reps" 1;
  addi p "attempted" m.attempted;
  addi p "failed" (m.attempted - m.ok);
  addi p "load_events" (d.events - setup_events);
  note_max p "pending_peak" (float_of_int d.pending_peak);
  note_max p "live_words" (float_of_int live_words);
  addi p "rx_dropped" (sumh (fun h -> Nic.rx_dropped h.Snap.Host.nic));
  addi p "fabric_dropped" (Fabric.dropped sc.fabric);
  List.iter
    (fun h ->
      note_max p "port_max_queue"
        (float_of_int
           (Fabric.port_max_queue_bytes sc.fabric ~addr:(Nic.addr h.Snap.Host.nic))))
    hosts;
  let flows = List.concat_map (fun h -> PE.flow_stats h.Snap.Host.pony) hosts in
  addi p "flows" (List.length flows);
  addi p "flow_delivered" (List.fold_left (fun a (_, d, _) -> a + d) 0 flows);
  addi p "flow_retx" (List.fold_left (fun a (_, _, r) -> a + r) 0 flows);
  merge_registry_hists "engine_sched_delay_ns" (hist p "sched_delay");
  merge_registry_hists "pony_flow_rtt_ns" (hist p "flow_rtt");
  addi p "conns_established" (pony PE.conns_established);
  addi p "peer_deaths" (pony PE.peer_deaths);
  addi p "conn_resets" (pony PE.conn_resets_sent);
  addi p "one_sided_served" (pony PE.one_sided_served);
  addi p "busy_nacks" (pony PE.busy_nacks);
  addi p "quota_rejected" (pony PE.quota_rejected + sumt Guest.Tenant.tx_rejected);
  addi p "pressure_transitions" (pony PE.pressure_transitions);
  addi p "guest_rx_delivered" (sumt Guest.Tenant.rx_delivered);
  addi p "guest_rx_drops" (sumt Guest.Tenant.rx_drops);
  addi p "guest_tx_post_failures"
    (sumt (fun t ->
         Guest.Ring.post_failures t.Guest.Tenant.tx
         + Guest.Ring.post_failures t.Guest.Tenant.rx));
  note_max p "op_pool_peak"
    (float_of_int (pony (fun t -> Memory.Pool.high_watermark (PE.op_pool t))));
  H.merge_into ~src:m.lat ~dst:(hist p "lat");
  H.merge_into ~src:m.late ~dst:(hist p "late");
  if Sim.Optrace.enabled () then
    List.iter
      (fun s ->
        let n = Sim.Optrace.stage_name s in
        merge_registry_hists ("op_stage_" ^ n) (hist p ("stage_" ^ n)))
      stages;
  (* Output checks. *)
  let leaked = pony (fun t -> Memory.Pool.in_use (PE.op_pool t)) in
  List.iter (check p)
    ([
       ("op_pool_quiesced", leaked = 0);
       ("invariants", quiesced);
     ]
    @ sc.checks ());
  p.setup_s <- p.setup_s @ [ t1 -. t0 ];
  p.load_s <- p.load_s @ [ t2 -. t1 ]

(* -- Metrics -------------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

(* The host's speed drifts by tens of percent over seconds when its
   neighbours are busy; the fastest repetition tracks the code's cost,
   the median tracks the neighbours. *)
let fastest l = List.fold_left Float.min infinity l

let q_us h q = H.quantile_interp h q /. 1000.0
let per x n = if n = 0.0 then 0.0 else x /. n

let end_to_end p =
  let ops = sum p "ops" and win = sum p "window_ns" in
  let lat = hist p "lat" in
  [
    { name = "setup_s"; value = fastest p.setup_s; unit_ = "s" };
    { name = "host_s"; value = fastest p.load_s; unit_ = "s" };
    {
      name = "heap_live_mb";
      value = maxv p "live_words" *. float_of_int (Sys.word_size / 8) /. 1e6;
      unit_ = "MB";
    };
    { name = "alloc_words_per_op"; value = per (sum p "minor_words") ops; unit_ = "words" };
    { name = "goodput_gbps"; value = per (8.0 *. sum p "bytes") win; unit_ = "Gbps" };
    { name = "ops_per_s"; value = per (ops *. 1e9) win; unit_ = "1/s" };
    { name = "cpu_us_per_op"; value = per (sum p "busy" /. 1000.0) ops; unit_ = "us" };
    { name = "lat_p50_us"; value = q_us lat 0.50; unit_ = "us" };
    { name = "lat_p99_us"; value = q_us lat 0.99; unit_ = "us" };
  ]

(* Counts are per repetition; rates and quantiles cover the pool. *)
let per_layer p =
  let ops = sum p "ops" and win = sum p "window_ns" in
  let cores k = per (sum p k) win in
  let each k = per (sum p k) (sum p "reps") in
  let total l = List.fold_left ( +. ) 0.0 l in
  let m name unit_ value = { name; value; unit_ } in
  let sd = hist p "sched_delay" and rtt = hist p "flow_rtt" in
  [
    m "sim.events" "count" (each "load_events");
    m "sim.host_ns_per_event" "ns" (per (total p.load_s *. 1e9) (sum p "load_events"));
    m "sim.pending_peak" "count" (maxv p "pending_peak");
    m "cpu.busy_cores" "cores" (cores "busy");
    m "cpu.app_cores" "cores" (cores "app");
    m "cpu.snap_cores" "cores" (cores "snap");
    m "cpu.softirq_cores" "cores" (cores "softirq");
    m "cpu.ctx_switches_per_op" "count" (per (sum p "switches") ops);
    m "engine.busy_ns_per_op" "ns" (per (sum p "eng_busy") ops);
    m "engine.batches_per_op" "count" (per (sum p "eng_steps") ops);
    m "engine.sched_delay_p50_us" "us" (q_us sd 0.50);
    m "engine.sched_delay_p99_us" "us" (q_us sd 0.99);
    m "nic.pkts_per_op" "count" (per (sum p "tx_pkts") ops);
    m "nic.rx_dropped" "count" (each "rx_dropped");
    m "fabric.port_max_queue_kb" "KiB" (maxv p "port_max_queue" /. 1024.0);
    m "fabric.dropped" "count" (each "fabric_dropped");
    m "flow.retx_per_kpkt" "count" (per (1000.0 *. sum p "flow_retx") (sum p "flow_delivered"));
    m "flow.rtt_p50_us" "us" (q_us rtt 0.50);
    m "flow.rtt_p99_us" "us" (q_us rtt 0.99);
    m "flow.count" "count" (each "flows");
    m "express.conns_established" "count" (each "conns_established");
    m "express.connects_per_setup_s" "1/s"
      (per (sum p "conns_established") (total p.setup_s));
    m "express.peer_deaths" "count" (each "peer_deaths");
    m "express.conn_resets" "count" (each "conn_resets");
    m "express.one_sided_served" "count" (each "one_sided_served");
    m "express.busy_nacks" "count" (each "busy_nacks");
    m "overload.quota_rejected" "count" (each "quota_rejected");
    m "overload.pressure_transitions" "count" (each "pressure_transitions");
    m "guest.mux_busy_ns_per_op" "ns" (per (sum p "mux_busy") ops);
    m "guest.rx_delivered" "count" (each "guest_rx_delivered");
    m "guest.rx_drops" "count" (each "guest_rx_drops");
    m "guest.tx_post_failures" "count" (each "guest_tx_post_failures");
    m "memory.op_pool_peak_mb" "MB" (maxv p "op_pool_peak" /. 1e6);
    m "gen.late_p99_us" "us" (q_us (hist p "late") 0.99);
    m "gen.ops_attempted" "count" (each "attempted");
    m "lat.samples" "count" (float_of_int (H.count (hist p "lat")));
  ]

let stage_metrics p =
  List.concat_map
    (fun s ->
      let n = Sim.Optrace.stage_name s in
      let h = hist p ("stage_" ^ n) in
      [
        { name = Printf.sprintf "stage.%s_p50_us" n; value = q_us h 0.50; unit_ = "us" };
        { name = Printf.sprintf "stage.%s_p99_us" n; value = q_us h 0.99; unit_ = "us" };
      ])
    stages
