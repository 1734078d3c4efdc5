(* Smoke test of the benchmark: every workload at a small size, with
   Check.Invariant on.  Two same-seed runs must agree on every metric
   except the host times, every metric BENCHMARK.json names must be
   reported, and the per-account CPU must fit inside the machines' busy
   time. *)

open Snapbench_lib

(* The "name" values of one top-level array of BENCHMARK.json. *)
let names_in section =
  let doc = In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all in
  let find_from i sub =
    let n = String.length sub in
    let rec go i = if String.sub doc i n = sub then i else go (i + 1) in
    go i
  in
  let start = find_from 0 (Printf.sprintf "%S: [" section) in
  let stop = find_from start "]" in
  let rec collect i acc =
    match find_from i "\"name\": \"" with
    | j when j < stop ->
        let v = j + 9 in
        let e = String.index_from doc v '"' in
        collect e (String.sub doc v (e - v) :: acc)
    | _ -> List.rev acc
    | exception Invalid_argument _ -> List.rev acc
  in
  collect start []

let run w ~trace = Bench.run ~smoke:true w ~seed:7 ~seconds:0.0 ~trace
let value r name = (List.find (fun m -> m.Harness.name = name) r.Bench.metrics).Harness.value

let names r = List.map (fun m -> m.Harness.name) r.Bench.metrics

let check_clean r =
  Alcotest.(check (list string)) "output checks" [] r.Bench.failures;
  Alcotest.(check int) "failed ops" 0 r.Bench.failed

let test_end_to_end w () =
  let a = run w ~trace:false and b = run w ~trace:false in
  check_clean a;
  Alcotest.(check (list string)) "end-to-end metrics" (names_in "end_to_end") (names a);
  List.iter
    (fun m ->
      let n = m.Harness.name in
      if n <> "setup_s" && n <> "host_s" then
        Alcotest.(check (float 0.0)) ("same seed, same " ^ n) m.Harness.value (value b n))
    a.Bench.metrics

let test_per_layer w () =
  let r = run w ~trace:true in
  check_clean r;
  let missing = List.filter (fun n -> not (List.mem n (names r))) (names_in "per_layer") in
  Alcotest.(check (list string)) "per-layer metrics" [] missing;
  let accounts =
    value r "cpu.app_cores" +. value r "cpu.snap_cores" +. value r "cpu.softirq_cores"
  in
  Alcotest.(check bool) "accounts within busy time" true
    (accounts <= value r "cpu.busy_cores" *. (1.0 +. 1e-9))

let test_workload_names () =
  Alcotest.(check (list string))
    "workloads" (names_in "workloads")
    (List.map (fun w -> w.Bench.name) Bench.workloads)

let () =
  Alcotest.run "snapbench"
    [
      ("snapbench workloads", [ Alcotest.test_case "names" `Quick test_workload_names ]);
      ( "snapbench end-to-end",
        List.map (fun w -> Alcotest.test_case w.Bench.name `Quick (test_end_to_end w)) Bench.workloads
      );
      ( "snapbench per-layer",
        List.map (fun w -> Alcotest.test_case w.Bench.name `Quick (test_per_layer w)) Bench.workloads );
    ]
