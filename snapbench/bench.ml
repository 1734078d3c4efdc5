(* The workload table and one benchmark run: pooled repetitions for the
   metrics, extra repetitions for host-time samples while the time budget
   lasts, and in traced runs a second, captured pass plus the primitive
   microbenchmarks. *)

type workload = {
  name : string;
  reps : int;  (** repetitions pooled into every reported metric *)
  build : smoke:bool -> seed:int -> Harness.scenario;
}

let workloads =
  [
    { name = "stream"; reps = 3; build = Wl_stream.scenario };
    { name = "rpc_mesh"; reps = 8; build = Wl_rpc_mesh.scenario };
    { name = "conn_churn"; reps = 4; build = Wl_conn_churn.scenario };
    { name = "onesided"; reps = 3; build = Wl_onesided.scenario };
    { name = "tenants"; reps = 16; build = Wl_tenants.scenario };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) workloads

type result = {
  failures : string list;  (** failed output checks; empty when correct *)
  attempted : int;
  failed : int;
  metrics : Harness.metric list;
}

(* Repetition [i] of a run simulates its own seed, so pooled repetitions
   add independent samples. *)
let sub_seed seed i = (seed * 1000) + i

let span_capacity = 200_000

(* 1024 rather than the 8192 the bench sections use: every conn death
   collects and sorts the whole in-flight table, which at 8192 raises
   conn_churn's traced overhead from 1.12x to 1.27x. *)
let optrace_capacity = 1024

(* [trace_out] receives the last traced repetition's spans as Chrome
   trace-event JSON. *)
let run ?(smoke = false) ?trace_out w ~seed ~seconds ~trace =
  let min_samples = if smoke then 10 else 1000 in
  let build = w.build ~smoke in
  let start = Harness.wall () in
  let p = Harness.pool () in
  let rep pool i = Harness.rep ~check_invariants:smoke pool build ~seed:(sub_seed seed i) in
  for i = 0 to w.reps - 1 do
    rep p i
  done;
  Harness.check p ("latency_samples", Stats.Histogram.count (Harness.hist p "lat") >= min_samples);
  let extra = Harness.pool () in
  let traced = Harness.pool () in
  let metrics =
    if not trace then begin
      (* More host-time samples while the budget lasts; the modeled
         metrics stay those of the pooled repetitions. *)
      let i = ref w.reps in
      let mean_rep () = (Harness.wall () -. start) /. float_of_int !i in
      while Harness.wall () -. start +. mean_rep () <= seconds do
        rep extra !i;
        incr i
      done;
      p.setup_s <- p.setup_s @ extra.setup_s;
      p.load_s <- p.load_s @ extra.load_s;
      Harness.end_to_end p
    end
    else begin
      (* The first half of the pooled repetitions again, captured. *)
      let kt = (w.reps + 1) / 2 in
      for i = 0 to kt - 1 do
        Sim.Span.set_capture (Some span_capacity);
        Sim.Optrace.set_capture (Some optrace_capacity);
        rep traced i
      done;
      Option.iter
        (fun file ->
          Out_channel.with_open_bin file (fun oc ->
              output_string oc (Sim.Span.to_chrome_json ())))
        trace_out;
      Sim.Span.set_capture None;
      Sim.Optrace.set_capture None;
      Harness.per_layer p @ Harness.stage_metrics traced
      @ [
          {
            Harness.name = "trace.overhead";
            value =
              Harness.fastest traced.load_s
              /. Harness.fastest (List.filteri (fun i _ -> i < kt) p.load_s);
            unit_ = "ratio";
          };
        ]
      @ Micro.run ~budget_s:(if smoke then 0.05 else 1.0)
    end
  in
  let total k = int_of_float (Harness.sum p k +. Harness.sum extra k +. Harness.sum traced k) in
  Harness.check p
    ("finite_metrics", List.for_all (fun m -> Float.is_finite m.Harness.value) metrics);
  {
    failures = List.sort_uniq compare (p.failures @ extra.failures @ traced.failures);
    attempted = total "attempted";
    failed = total "failed";
    metrics;
  }

(* -- Output --------------------------------------------------------------- *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.10g" v else "null"

let json_fields r =
  let metrics =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.Harness.name
             (json_number m.Harness.value) m.Harness.unit_)
         r.metrics)
  in
  Printf.sprintf "\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}"
    (r.failures = []) r.attempted r.failed metrics

let print r =
  List.iter
    (fun m -> Printf.printf "%-32s %.6g %s\n" m.Harness.name m.Harness.value m.Harness.unit_)
    r.metrics;
  List.iter (fun f -> Printf.printf "check failed: %s\n" f) r.failures;
  Printf.printf "{%s}\n%!" (json_fields r)
