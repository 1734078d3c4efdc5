(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (section 5), plus ablations and the fault/overload/tenancy
   workload sections.  Microbenchmarks of the simulator's primitives live
   in snapbench (its micro.* rows).

   Usage: main.exe [SECTION[,SECTION...]...|all]
                   [--metrics-out FILE.json] [--trace-out FILE.json]
                   [--slow-ops-out FILE.json] [--bench-out FILE.json]
                   [--check]

   `--help` lists the sections; the single source of truth is the
   [all_benches] table in the driver at the bottom of this file.
   Section names may be comma-separated.

   --metrics-out dumps the full Stats.Registry (every counter, gauge
   and histogram the selected sections touched) as JSON.  A
   counter key shows its latest registration: the counter of the last
   component made under that key, not a sum over the process.
   Histograms are shared by every registration, so they sum.
   --trace-out turns on Sim.Span capture for the run and writes the
   result as Chrome trace-event JSON (chrome://tracing, perfetto);
   with op attribution on, cross-host flow arrows link each op's
   tx-side and rx-side spans.
   --slow-ops-out turns on Sim.Optrace capture and writes the top-K
   slowest ops with their full stage timelines as JSON (grouped per
   section for the attribution-enabled sections below).
   --bench-out writes BENCH_8.json-style normalized perf rows for the
   fault/overload/tenancy sections (the repo's perf trajectory; see
   tools/bench_gate.py for the regression gate).
   --check enables the Check.Invariant registry for every workload run;
   the sweep section (invariants + acceptance checks under schedule
   perturbation across seeds, tie-break salts and randomized hashing,
   then the armed-sabotage runs) enables it regardless and is excluded
   from `all`.

   Exit status is the verdict: 1 when any typed acceptance check of the
   selected workload sections or the sweep fails.

   Absolute numbers come from a calibrated cost model (lib/sim/costs.ml);
   the claim checked here is the paper's shape: who wins, by what factor,
   and where the crossovers fall.  Paper values quoted inline. *)

module T = Sim.Time
module A = Workloads.All_to_all

let section name = Printf.printf "\n=== %s ===\n%!" name

let spreading = Engine.Spreading { runtime_pct = 1.0 }
let compacting = Engine.Compacting { slo = T.us 25; max_threads = 10 }

(* -- Table 1 ------------------------------------------------------------ *)

let table1 () =
  section "Table 1: single-thread streaming throughput (paper values in [])";
  Printf.printf "%-26s %8s %12s %10s\n" "system" "streams" "CPU/sec" "Gbps";
  let row name paper_cpu paper_gbps (r : Workloads.Streaming.result) =
    Printf.printf "%-26s %8d %6.2f [%s] %6.1f [%s]\n%!" name
      r.Workloads.Streaming.streams r.cpu paper_cpu r.gbps paper_gbps
  in
  let window = T.ms 25 in
  row "Linux TCP" "1.17" "22.0" (Workloads.Streaming.run_tcp ~window ());
  row "Linux TCP" "1.15" "12.4" (Workloads.Streaming.run_tcp ~window ~streams:200 ());
  row "Snap/Pony" "1.05" "38.5" (Workloads.Streaming.run_pony ~window ());
  row "Snap/Pony" "1.05" "39.1" (Workloads.Streaming.run_pony ~window ~streams:200 ());
  row "Snap/Pony 5k MTU" "1.05" "67.5" (Workloads.Streaming.run_pony ~window ~mtu:5000 ());
  row "Snap/Pony 5k MTU" "1.05" "65.7"
    (Workloads.Streaming.run_pony ~window ~mtu:5000 ~streams:200 ());
  row "Snap/Pony 5k+I/OAT" "1.05" "82.2"
    (Workloads.Streaming.run_pony ~window ~mtu:5000 ~use_copy_engine:true ());
  row "Snap/Pony 5k+I/OAT" "1.05" "80.5"
    (Workloads.Streaming.run_pony ~window ~mtu:5000 ~use_copy_engine:true
       ~streams:200 ())

(* -- Figure 6(a) --------------------------------------------------------- *)

let fig6a () =
  section "Figure 6(a): mean small-op round-trip latency (paper values in [])";
  let row name paper v =
    Printf.printf "%-34s %7.1f us  [%s]\n%!" name (T.to_float_us v) paper
  in
  row "TCP_RR" "23" (Workloads.Rr.mean_rtt (Workloads.Rr.Tcp_rr { busy_poll = false }));
  row "TCP_RR busy-poll" "18"
    (Workloads.Rr.mean_rtt (Workloads.Rr.Tcp_rr { busy_poll = true }));
  row "Snap/Pony (app blocks)" "18"
    (Workloads.Rr.mean_rtt (Workloads.Rr.Pony_rr { app_spin = false }));
  row "Snap/Pony (app spins)" "<10"
    (Workloads.Rr.mean_rtt (Workloads.Rr.Pony_rr { app_spin = true }));
  row "Snap/Pony one-sided" "8.8" (Workloads.Rr.mean_rtt Workloads.Rr.Pony_one_sided)

(* -- Figures 6(b)/(c): CPU and tail latency vs offered load --------------- *)

let loads = [ 8.0; 24.0; 48.0; 72.0 ]

let fig6bc () =
  section
    "Figures 6(b)+(c): all-to-all 1MB RPCs - per-host CPU and 99p tiny-RPC \
     latency vs offered load";
  Printf.printf
    "(8 hosts x 10 jobs, 50G NICs; paper: 42 hosts; at 80G Snap is >3x more \
     CPU-efficient than TCP; spreading has the best tail under load)\n";
  Printf.printf "%-10s %18s %18s %18s\n" "load" "TCP" "Snap/spreading"
    "Snap/compacting";
  Printf.printf "%-10s %9s %9s %9s %9s %9s %9s\n" "Gbps/host" "cores" "p99us"
    "cores" "p99us" "cores" "p99us";
  List.iter
    (fun load ->
      let cfg =
        {
          A.default_config with
          A.offered_gbps_per_host = load;
          A.jobs_per_host = 10;
          A.window = T.ms 25;
        }
      in
      let tcp = A.run A.Tcp cfg in
      let spread = A.run (A.Pony spreading) cfg in
      let compact = A.run (A.Pony compacting) cfg in
      let p99 r = T.to_float_us (Stats.Histogram.percentile r.A.prober 99.) in
      Printf.printf "%-10.0f %9.2f %9.0f %9.2f %9.0f %9.2f %9.0f\n%!" load
        tcp.A.cpu_cores (p99 tcp) spread.A.cpu_cores (p99 spread)
        compact.A.cpu_cores (p99 compact))
    loads

(* -- Figure 6(d): antagonists, MicroQuanta vs CFS ------------------------- *)

let fig6d () =
  section
    "Figure 6(d): 99p latency with MD5 antagonists - MicroQuanta vs CFS(-20) \
     spreading engines";
  Printf.printf "%-10s %16s %16s\n" "load" "MicroQuanta" "CFS nice -20";
  Printf.printf "%-10s %16s %16s\n" "Gbps/host" "p99 us" "p99 us";
  List.iter
    (fun load ->
      let base =
        {
          A.default_config with
          A.offered_gbps_per_host = load;
          A.jobs_per_host = 10;
          A.window = T.ms 25;
          A.antagonist = A.Md5 12;
        }
      in
      let mq = A.run (A.Pony spreading) base in
      let cfs =
        A.run (A.Pony (Engine.Spreading_class (Cpu.Sched.Cfs { nice = -20 }))) base
      in
      let p99 r = T.to_float_us (Stats.Histogram.percentile r.A.prober 99.) in
      Printf.printf "%-10.0f %16.0f %16.0f\n%!" load (p99 mq) (p99 cfs))
    [ 8.0; 48.0 ]

(* -- Figures 7(a)/(b) ------------------------------------------------------ *)

let fig7 interference title =
  section title;
  Printf.printf "%-18s %10s %10s %10s\n" "system" "p50 us" "p99 us" "p99.9 us";
  let row name h =
    Printf.printf "%-18s %10.1f %10.1f %10.1f\n%!" name
      (T.to_float_us (Stats.Histogram.percentile h 50.))
      (T.to_float_us (Stats.Histogram.percentile h 99.))
      (T.to_float_us (Stats.Histogram.percentile h 99.9))
  in
  let dur = T.sec 1 in
  row "TCP" (Workloads.Rr.prober ~duration:dur ~interference Workloads.Rr.Prober_tcp);
  row "Snap/spreading"
    (Workloads.Rr.prober ~duration:dur ~interference (Workloads.Rr.Prober_pony spreading));
  row "Snap/compacting"
    (Workloads.Rr.prober ~duration:dur ~interference
       (Workloads.Rr.Prober_pony compacting))

let fig7a () =
  fig7 Workloads.Rr.Idle
    "Figure 7(a): 1000-QPS prober on idle machines (C-state wakeups; \
     compacting spin-polls and avoids them)"

let fig7b () =
  fig7 (Workloads.Rr.Mmap_antagonist 8)
    "Figure 7(b): 1000-QPS prober under mmap antagonist (non-preemptible \
     kernel sections)"

(* -- Figure 8 -------------------------------------------------------------- *)

let fig8 () =
  section
    "Figure 8: one-sided batched-indirect-read service (paper: up to 5M \
     IOPS on one engine core)";
  let r = Workloads.Analytics.run () in
  Printf.printf "server engine cores: %.2f\n" r.Workloads.Analytics.server_engine_cores;
  Printf.printf "mean: %.2f M IOPS   peak: %.2f M IOPS\n" (r.mean_iops /. 1e6)
    (r.peak_iops /. 1e6);
  Printf.printf "%10s  %12s\n" "t (ms)" "IOPS";
  Stats.Series.iter r.iops_series (fun t v ->
      Printf.printf "%10.1f  %12.0f\n" (T.to_float_ms t) v);
  Printf.printf "%!"

(* -- Figure 9 -------------------------------------------------------------- *)

let fig9 () =
  section
    "Figure 9: transparent-upgrade blackout distribution (paper: median \
     250 ms, heavy tail)";
  let r = Workloads.Upgrade_fleet.run () in
  Printf.printf "engines migrated: %d; messages delivered during upgrades: %d\n"
    r.Workloads.Upgrade_fleet.engines_migrated r.messages_delivered_during;
  Printf.printf "blackout: p25=%.0fms p50=%.0fms [250] p75=%.0fms p90=%.0fms p99=%.0fms\n%!"
    (T.to_float_ms (Stats.Histogram.percentile r.blackouts 25.))
    (T.to_float_ms r.median)
    (T.to_float_ms (Stats.Histogram.percentile r.blackouts 75.))
    (T.to_float_ms (Stats.Histogram.percentile r.blackouts 90.))
    (T.to_float_ms (Stats.Histogram.percentile r.blackouts 99.))

(* -- Ablations -------------------------------------------------------------- *)

let ablate_mtu () =
  section "Ablation: MTU sweep for Snap/Pony single-stream throughput";
  List.iter
    (fun mtu ->
      let r = Workloads.Streaming.run_pony ~window:(T.ms 20) ~mtu () in
      Printf.printf "MTU %5d: %6.1f Gbps at %.2f cores\n%!" mtu
        r.Workloads.Streaming.gbps r.cpu)
    [ 1500; 4096; 5000; 9000 ]

let ablate_indirect () =
  section
    "Ablation: batched indirect read vs application-level pointer chase \
     (section 3.2: 'an indirect read effectively doubles the achievable \
     operation rate and halves the latency')";
  (* One logical lookup = resolve a table entry, then read the target.
     Client-side chase: two dependent one-sided reads (2 RTT).  Indirect
     read: one operation. *)
  let run_chase ~indirect =
    let loop = Sim.Loop.create ~seed:3 () in
    let fab = Fabric.create ~loop ~config:Fabric.default_config ~hosts:2 in
    let dir = Pony.Express.Directory.create () in
    let mk addr =
      Snap.Host.create ~loop ~fabric:fab ~directory:dir ~addr
        ~mode:(Engine.Dedicating { cores = 1 }) ()
    in
    let hs = mk 0 and hc = mk 1 in
    let table = Memory.Region.create ~id:1 ~size:65536 ~owner:"srv" () in
    let data = Memory.Region.create ~id:2 ~size:65536 ~owner:"srv" () in
    for i = 0 to (65536 / 8) - 1 do
      Memory.Region.write_int64 table (8 * i) (Int64.of_int (8 * i mod 65000))
    done;
    ignore
      (Snap.Host.spawn_app hs ~name:"srv" (fun ctx ->
           let c = Pony.Express.create_client ctx hs.Snap.Host.pony ~name:"srv" () in
           Pony.Express.register_region ctx c table;
           Pony.Express.register_region ctx c data;
           Cpu.Thread.sleep ctx (T.sec 2)));
    let sum = ref 0 and n = ref 0 in
    ignore
      (Snap.Host.spawn_app hc ~name:"cli" ~spin:true (fun ctx ->
           let c = Pony.Express.create_client ctx hc.Snap.Host.pony ~name:"cli" () in
           Cpu.Thread.sleep ctx (T.us 500);
           let conn = Pony.Express.connect ctx c ~dst_host:0 ~dst_client:0 in
           for i = 1 to 200 do
             let t0 = Cpu.Thread.now ctx in
             if indirect then begin
               ignore
                 (Pony.Express.indirect_read ctx conn ~table_region:1
                    ~data_region:2 ~indices:[ i mod 1000 ] ~len:64);
               ignore (Pony.Express.await_completion ctx c)
             end
             else begin
               ignore
                 (Pony.Express.one_sided_read ctx conn ~region:1
                    ~off:(8 * (i mod 1000)) ~len:8);
               let c1 = Pony.Express.await_completion ctx c in
               let target =
                 match c1.Pony.Express.value with
                 | Some v -> Int64.to_int v
                 | None -> 0
               in
               ignore (Pony.Express.one_sided_read ctx conn ~region:2 ~off:target ~len:64);
               ignore (Pony.Express.await_completion ctx c)
             end;
             sum := !sum + (Cpu.Thread.now ctx - t0);
             incr n
           done));
    Sim.Loop.run ~until:(T.ms 100) loop;
    !sum / max 1 !n
  in
  let chase = run_chase ~indirect:false in
  let ind = run_chase ~indirect:true in
  Printf.printf "pointer chase (2 RTT): %.1f us\n" (T.to_float_us chase);
  Printf.printf "indirect read (1 op):  %.1f us  (%.2fx lower latency)\n%!"
    (T.to_float_us ind)
    (float_of_int chase /. float_of_int ind)

let ablate_slo () =
  section "Ablation: compacting-scheduler SLO (latency/CPU trade, 48G load)";
  List.iter
    (fun slo_us ->
      let cfg =
        {
          A.default_config with
          A.offered_gbps_per_host = 48.0;
          A.jobs_per_host = 10;
          A.window = T.ms 25;
        }
      in
      let r =
        A.run (A.Pony (Engine.Compacting { slo = T.us slo_us; max_threads = 10 })) cfg
      in
      Printf.printf "SLO %4dus: cpu=%.2f cores  p99=%.0fus\n%!" slo_us
        r.A.cpu_cores
        (T.to_float_us (Stats.Histogram.percentile r.A.prober 99.)))
    [ 10; 50; 200 ]

(* -- Workload sections + perf trajectory ---------------------------------- *)

(* The fault/overload/tenancy workloads are one table, Workloads.Spec.all.
   Each section runs its spec at full size with op latency attribution
   on, prints the report, a per-stage breakdown and the typed acceptance
   checks, re-runs the same seed to check determinism, and contributes
   one normalized row to the --bench-out document (committed as
   BENCH_8.json at the repo root, gated by tools/bench_gate.py in CI).
   Rows hold modeled, deterministic quantities plus minor-GC words per
   op, the one compiler-dependent number, which the gate holds to a
   loose tolerance.  Any failed check makes the process exit 1. *)

module Spec = Workloads.Spec

let bench8_rows : (string * Spec.row) list ref = ref []
let slow_wanted = ref false
let slow_sections : (string * string) list ref = ref []

(* Every check any section evaluated, prefixed with its section; the
   process verdict. *)
let checks : Spec.check list ref = ref []

let record sec cs =
  List.iter
    (fun (c : Spec.check) ->
      Printf.printf "  %s %-36s %s\n" (if c.ok then "ok  " else "FAIL") c.name
        c.detail;
      checks := { c with name = sec ^ ": " ^ c.name } :: !checks)
    cs;
  flush stdout

let stage_hist i =
  let name = Sim.Optrace.stage_name (Sim.Optrace.stage_of_index i) in
  match Stats.Registry.find ("op_stage_" ^ name) with
  | Some { Stats.Registry.m_kind = Stats.Registry.Histogram h; _ } ->
      Some (name, h)
  | _ -> None

let print_stage_breakdown () =
  Printf.printf "stage breakdown (ns per stage, interpolated quantiles):\n";
  Printf.printf "  %-10s %9s %12s %12s %12s\n" "stage" "count" "p50" "p99"
    "p99.9";
  for i = 0 to Sim.Optrace.n_stages - 1 do
    match stage_hist i with
    | Some (name, h) when Stats.Histogram.count h > 0 ->
        Printf.printf "  %-10s %9d %12.1f %12.1f %12.1f\n" name
          (Stats.Histogram.count h)
          (Stats.Histogram.quantile_interp h 0.5)
          (Stats.Histogram.quantile_interp h 0.99)
          (Stats.Histogram.quantile_interp h 0.999)
    | _ -> ()
  done;
  Printf.printf "  ops traced: %d completed, %d in flight, %d dropped\n%!"
    (List.length (Sim.Optrace.completed ()))
    (Sim.Optrace.in_flight ()) (Sim.Optrace.dropped ())

(* The spec restarts op attribution with its measured run, so the
   breakdown, the slow-op exemplars and the attributed-op count are
   taken before the report (which may run a comparison baseline). *)
let workload (spec : Spec.t) () =
  section spec.title;
  if not (Sim.Optrace.enabled ()) then Sim.Optrace.set_capture (Some 8192);
  let o = spec.full ~seed:spec.seed ~tie_salt:0 in
  print_stage_breakdown ();
  let attributed =
    match stage_hist (Sim.Optrace.stage_index Sim.Optrace.Completed) with
    | Some (_, h) -> Stats.Histogram.count h
    | None -> 0
  in
  if !slow_wanted then
    slow_sections :=
      (spec.name, String.trim (Sim.Optrace.slow_ops_json ~k:32 ()))
      :: !slow_sections;
  List.iter print_endline (o.report ());
  bench8_rows := (spec.name, o.row) :: !bench8_rows;
  let again = spec.full ~seed:spec.seed ~tie_salt:0 in
  record spec.name
    (o.checks
    @ [
        { Spec.name = "ops attributed"; ok = attributed > 0;
          detail = string_of_int attributed };
        { Spec.name = "deterministic across runs";
          ok = String.equal o.fingerprint again.fingerprint;
          detail = Digest.to_hex (Digest.string o.fingerprint) };
      ])

let bench8_json () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"bench\":\"BENCH_8\",\"sections\":[";
  List.iteri
    (fun i (sec, (r : Spec.row)) ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf
        "{\"section\":\"%s\",\"ops\":%d,\"goodput_gbps\":%.3f,\"p50_ns\":%d,\
         \"p99_ns\":%d,\"cpu_ns_per_op\":%.1f,\"gc_minor_words_per_op\":%.1f}"
        sec r.ops r.goodput_gbps
        (Stats.Histogram.percentile r.latencies 50.)
        (Stats.Histogram.percentile r.latencies 99.)
        r.cpu_ns_per_op r.gc_words_per_op)
    (List.rev !bench8_rows);
  Buffer.add_string buf "]}\n";
  Buffer.contents buf

(* -- Determinism sweep ---------------------------------------------------- *)

(* Every spec at sweep size across seeds x event-loop tie-break salts x
   repeats with randomized Hashtbl hashing: every registered invariant
   and every acceptance check must hold on every run, and every
   fingerprint must be a function of the seed alone.  Then each spec's
   armed sabotages must be caught, proving the checkers are not
   vacuous. *)
let sweep () =
  section "Determinism sweep: invariants under schedule perturbation";
  Check.Invariant.set_enabled true;
  (* Latency attribution on for every swept run, so the per-engine
     stage-conservation invariant is exercised across every schedule. *)
  Sim.Optrace.set_capture (Some 8192);
  (* Invariant evaluation counts restart with every run; sum them. *)
  let invariant_evals = ref 0 and evaluated = ref 0 in
  List.iter
    (fun (spec : Spec.t) ->
      let o =
        Check.Explore.sweep ~seeds:[ 1; 2; 3; 4; 5; 6; 7; 8 ]
          ~randomize_hash:true
          ~run:(fun ~seed ~salt ->
            let o = spec.small ~seed ~tie_salt:salt in
            invariant_evals :=
              !invariant_evals + Check.Invariant.evaluations ();
            evaluated := !evaluated + List.length o.checks;
            Spec.checked_fingerprint o)
          ()
      in
      Printf.printf "%-14s %s" spec.name (Check.Explore.summary o);
      let sabotage ((flag, _) as s) =
        let caught = Spec.catch_sabotage s in
        { Spec.name = "sabotage " ^ flag ^ " caught"; ok = caught <> None;
          detail =
            String.concat " "
              (String.split_on_char '\n'
                 (Option.value caught ~default:"checker is vacuous")) }
      in
      record spec.name
        ({ Spec.name = "sweep"; ok = Check.Explore.ok o; detail = "" }
        :: List.map sabotage spec.sabotages))
    Spec.all;
  Printf.printf
    "swept runs: %d invariant evaluations, %d acceptance checks evaluated\n"
    !invariant_evals !evaluated

(* -- Driver ------------------------------------------------------------------ *)

let all_benches =
  [
    ("table1", table1);
    ("fig6a", fig6a);
    ("fig6b", fig6bc);
    ("fig6c", fig6bc);
    ("fig6d", fig6d);
    ("fig7a", fig7a);
    ("fig7b", fig7b);
    ("fig8", fig8);
    ("fig9", fig9);
    ("ablate-mtu", ablate_mtu);
    ("ablate-indirect", ablate_indirect);
    ("ablate-slo", ablate_slo);
  ]
  @ List.map (fun (s : Spec.t) -> (s.name, workload s)) Spec.all
  @ [ ("sweep", sweep) ]

(* The section list in any user-facing text is generated from
   [all_benches]; adding a section above (or a spec to
   Workloads.Spec.all) is all it takes. *)
let section_names () = String.concat ", " (List.map fst all_benches)

let usage oc =
  Printf.fprintf oc
    "usage: main.exe [SECTION[,SECTION...]...|all] \
     [--metrics-out FILE.json] [--trace-out FILE.json] [--slow-ops-out \
     FILE.json] [--bench-out FILE.json] [--check]\n\
     sections (comma-separable): %s\n\
     `all` runs everything except the sweep (which re-runs the fault \
     workloads many times and must be named explicitly).\n"
    (section_names ())

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* Pull `--flag VALUE` pairs out of the arg list, returning the value
   (last wins) and the remaining positional args. *)
let extract_flag flag args =
  let rec go acc value = function
    | [] -> (value, List.rev acc)
    | a :: v :: rest when a = flag -> go acc (Some v) rest
    | [ a ] when a = flag ->
        Printf.eprintf "%s requires a file argument\n" flag;
        exit 2
    | a :: rest -> go (a :: acc) value rest
  in
  go [] None args

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  if List.exists (fun a -> a = "--help" || a = "-h") args then begin
    usage stdout;
    exit 0
  end;
  let metrics_out, args = extract_flag "--metrics-out" args in
  let trace_out, args = extract_flag "--trace-out" args in
  let slow_ops_out, args = extract_flag "--slow-ops-out" args in
  let bench_out, args = extract_flag "--bench-out" args in
  (* --check turns on the invariant registry for every workload run in
     the selected sections (the sweep section enables it regardless). *)
  let check_on = List.mem "--check" args in
  let args = List.filter (fun a -> a <> "--check") args in
  (* Section names may be comma-separated. *)
  let args =
    List.concat_map (String.split_on_char ',') args
    |> List.filter (fun a -> a <> "")
  in
  if check_on then Check.Invariant.set_enabled true;
  if trace_out <> None then Sim.Span.set_capture (Some 200_000);
  if slow_ops_out <> None then begin
    slow_wanted := true;
    Sim.Optrace.set_capture (Some 8192)
  end;
  (match args with
  | [] | [ "all" ] ->
      (* fig6b and fig6c share one run; don't execute twice.  The sweep
         re-runs the fault workloads many times over; it only runs when
         named explicitly. *)
      List.iter
        (fun (name, f) -> if name <> "fig6c" && name <> "sweep" then f ())
        all_benches
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name all_benches with
          | Some f -> f ()
          | None ->
              Printf.eprintf "unknown bench %s\n" name;
              usage stderr;
              exit 2)
        names);
  if check_on then
    Printf.printf
      "invariant checker: %d registered (last run), %d evaluations, no \
       violations\n%!"
      (Check.Invariant.registered ())
      (Check.Invariant.evaluations ());
  Option.iter
    (fun path ->
      write_file path (Stats.Registry.to_json ());
      Printf.printf "metrics written to %s\n%!" path)
    metrics_out;
  Option.iter
    (fun path ->
      write_file path (Sim.Span.to_chrome_json ());
      if Sim.Span.dropped () > 0 then
        Printf.printf "trace ring dropped %d events\n" (Sim.Span.dropped ());
      Printf.printf "trace written to %s\n%!" path;
      let n = List.length (Sim.Span.events ()) in
      record "trace"
        [ { Spec.name = "span events captured"; ok = n > 0;
            detail = string_of_int n } ])
    trace_out;
  Option.iter
    (fun path ->
      write_file path (bench8_json ());
      Printf.printf "bench rows written to %s\n%!" path)
    bench_out;
  Option.iter
    (fun path ->
      let doc =
        match List.rev !slow_sections with
        | [] -> Sim.Optrace.slow_ops_json ~k:32 ()
        | secs ->
            "{\"sections\":["
            ^ String.concat ","
                (List.map
                   (fun (n, j) ->
                     Printf.sprintf "{\"section\":\"%s\",\"report\":%s}" n j)
                   secs)
            ^ "]}\n"
      in
      write_file path doc;
      Printf.printf "slow ops written to %s\n%!" path)
    slow_ops_out;
  match Spec.verdict !checks with
  | `Pass -> if !checks <> [] then Printf.printf "verdict: pass\n"
  | `Fail ->
      Printf.printf "verdict: fail (%s)\n"
        (String.concat "; "
           (List.rev_map
              (fun (c : Spec.check) -> c.name)
              (Spec.failed !checks)));
      exit 1
