(* snapbench: the repository's benchmark.

   snapbench.exe --workload W --seed N [--seconds S] [--trace 0|1]
                 [--out FILE] [--trace-out FILE]
   snapbench.exe --layers [--seconds S]

   Prints every metric as "name value unit" and, as the last line, one
   JSON object {"correct", "attempted", "failed", "metrics"}.  With
   --trace 0 the metrics are the end-to-end ones, with --trace 1 the
   per-layer ones (from a second, captured pass).  --out writes the same
   object, tagged with workload, seed and trace, to FILE; --trace-out
   writes the captured spans as Chrome trace-event JSON.  --layers times
   the simulator's primitives alone.  Exits 1 when an output check
   fails, 2 on a usage error. *)

open Snapbench_lib

let usage () =
  Printf.eprintf "usage: snapbench.exe --workload {%s} --seed N [--seconds S] [--trace 0|1]\n\
                 \                     [--out FILE] [--trace-out FILE]\n\
                 \       snapbench.exe --layers [--seconds S]\n"
    (String.concat "|" (List.map (fun w -> w.Bench.name) Bench.workloads));
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10.0 in
  let trace = ref 0 and out = ref "" and trace_out = ref "" and layers = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S host-time budget (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--out", Arg.Set_string out, "FILE also write the result JSON here");
      ("--trace-out", Arg.Set_string trace_out, "FILE write captured spans (with --trace 1)");
      ("--layers", Arg.Set layers, " time the simulator's primitives only");
    ]
  in
  (try Arg.parse_argv Sys.argv spec (fun _ -> usage ()) "snapbench.exe"
   with Arg.Bad _ | Arg.Help _ -> usage ());
  if !layers then begin
    let metrics = Micro.run ~budget_s:!seconds in
    Bench.print
      { Bench.failures = []; attempted = List.length metrics; failed = 0; metrics };
    exit 0
  end;
  let w = match Bench.find !workload with Some w -> w | None -> usage () in
  if !seed < 0 || (!trace <> 0 && !trace <> 1) then usage ();
  let r =
    Bench.run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
      ?trace_out:(if !trace_out = "" then None else Some !trace_out)
  in
  if !out <> "" then
    Out_channel.with_open_bin !out (fun oc ->
        Printf.fprintf oc "{\"workload\": %S, \"seed\": %d, \"trace\": %d, %s}\n" w.Bench.name
          !seed !trace (Bench.json_fields r));
  Bench.print r;
  exit (if r.Bench.failures = [] then 0 else 1)
