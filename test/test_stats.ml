(* Tests for histograms, series and the registry. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_hist_empty () =
  let h = Stats.Histogram.create () in
  check_int "count" 0 (Stats.Histogram.count h);
  check_int "quantile" 0 (Stats.Histogram.percentile h 50.);
  check_int "min" 0 (Stats.Histogram.min_value h)

let test_hist_exact_small () =
  (* Values below 64 are recorded exactly. *)
  let h = Stats.Histogram.create () in
  List.iter (Stats.Histogram.record h) [ 1; 2; 3; 4; 5 ];
  check_int "p50" 3 (Stats.Histogram.percentile h 50.);
  check_int "min" 1 (Stats.Histogram.min_value h);
  check_int "max" 5 (Stats.Histogram.max_value h);
  check_int "sum" 15 (Stats.Histogram.sum h)

let test_hist_relative_error () =
  let h = Stats.Histogram.create () in
  let v = 1_234_567 in
  Stats.Histogram.record h v;
  let q = Stats.Histogram.percentile h 100. in
  (* max_value is exact *)
  check_int "max exact" v (Stats.Histogram.max_value h);
  let err = abs (q - v) in
  check_bool "within 2% relative error" true
    (float_of_int err /. float_of_int v < 0.02)

(* Bucketing round trip: the bucket midpoint must land back in the same
   bucket, and sit within the bucket's relative-error bound of the
   original value.  Power-of-two boundaries are where the log-linear
   grid changes resolution, so probe 2^k - 1, 2^k, 2^k + 1. *)
let test_hist_index_value_round_trip () =
  (* 32 linear buckets per power of two. *)
  let bound = 2.0 ** -5.0 in
  for k = 0 to 61 do
    List.iter
      (fun v ->
        if v >= 0 then begin
          let idx = Stats.Histogram.index_of v in
          let mid = Stats.Histogram.value_of idx in
          Alcotest.(check int)
            (Printf.sprintf "v=%d same bucket" v)
            idx
            (Stats.Histogram.index_of mid);
          let err = abs (mid - v) in
          check_bool
            (Printf.sprintf "v=%d midpoint error" v)
            true
            (v = 0 || float_of_int err /. float_of_int v <= bound)
        end)
      [ (1 lsl k) - 1; 1 lsl k; (1 lsl k) + 1 ]
  done

let hist_prop_round_trip =
  QCheck.Test.make ~name:"value_of is a right inverse of index_of" ~count:500
    QCheck.(int_bound max_int)
    (fun v ->
      let idx = Stats.Histogram.index_of v in
      Stats.Histogram.index_of (Stats.Histogram.value_of idx) = idx)

let test_hist_quantiles_order () =
  let h = Stats.Histogram.create () in
  for i = 1 to 10_000 do
    Stats.Histogram.record h i
  done;
  let p50 = Stats.Histogram.percentile h 50. in
  let p90 = Stats.Histogram.percentile h 90. in
  let p99 = Stats.Histogram.percentile h 99. in
  check_bool "p50 near 5000" true (abs (p50 - 5000) < 200);
  check_bool "p90 near 9000" true (abs (p90 - 9000) < 300);
  check_bool "p99 near 9900" true (abs (p99 - 9900) < 300);
  check_bool "ordered" true (p50 <= p90 && p90 <= p99)

(* Interpolated quantiles: exact in the width-1 region, clamped to the
   observed range, and within the bucket's relative error against a
   sorted-array reference elsewhere. *)
let check_float_near msg ~tol expected actual =
  check_bool
    (Printf.sprintf "%s: |%g - %g| <= %g" msg actual expected tol)
    true
    (Float.abs (actual -. expected) <= tol)

let test_hist_quantile_interp_small () =
  let h = Stats.Histogram.create () in
  check_bool "empty is 0" true (Stats.Histogram.quantile_interp h 0.5 = 0.0);
  List.iter (Stats.Histogram.record h) [ 10; 20; 30; 40 ];
  (* Small values are exact buckets, so interpolation reproduces the
     textbook midpoint-linear quantile up to half a bucket width. *)
  check_float_near "p0 is min" ~tol:0.5 10.0
    (Stats.Histogram.quantile_interp h 0.0);
  check_float_near "p100 is max" ~tol:0.5 40.0
    (Stats.Histogram.quantile_interp h 1.0);
  check_float_near "p50 between the middle pair" ~tol:5.0 25.0
    (Stats.Histogram.quantile_interp h 0.5);
  (* Out-of-range q clamps rather than raising. *)
  check_float_near "q>1 clamps" ~tol:0.5 40.0
    (Stats.Histogram.quantile_interp h 2.0);
  check_float_near "q<0 clamps" ~tol:0.5 10.0
    (Stats.Histogram.quantile_interp h (-1.0))

let test_hist_quantile_interp_vs_sorted_reference () =
  let h = Stats.Histogram.create () in
  (* Deterministic skewed values spanning several power-of-two ranges. *)
  let values =
    List.init 5000 (fun i -> 100 + (i * i mod 9973) + (i * 37 mod 1000))
  in
  List.iter (Stats.Histogram.record h) values;
  let sorted = List.sort compare values |> Array.of_list in
  let reference q =
    (* Same definition the histogram interpolates: rank q*(n-1) in the
       sorted sample, linear between neighbors. *)
    let rank = q *. float_of_int (Array.length sorted - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (Array.length sorted - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    ((1.0 -. frac) *. float_of_int sorted.(lo))
    +. (frac *. float_of_int sorted.(hi))
  in
  List.iter
    (fun q ->
      let expect = reference q in
      let got = Stats.Histogram.quantile_interp h q in
      (* Bucket relative error (~2^-(sub_bits) = 3.2%) plus a bucket. *)
      check_float_near
        (Printf.sprintf "q=%g" q)
        ~tol:((expect *. 0.04) +. 2.0)
        expect got)
    [ 0.01; 0.1; 0.25; 0.5; 0.9; 0.99; 0.999 ]

let hist_prop_quantile_interp_monotone =
  QCheck.Test.make ~name:"quantile_interp is monotone and in range" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 50) (int_bound 1_000_000))
              (pair (float_bound_inclusive 1.0) (float_bound_inclusive 1.0)))
    (fun (vs, (q1, q2)) ->
      QCheck.assume (vs <> []);
      let h = Stats.Histogram.create () in
      List.iter (Stats.Histogram.record h) vs;
      let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
      let a = Stats.Histogram.quantile_interp h lo in
      let b = Stats.Histogram.quantile_interp h hi in
      a <= b
      && a >= float_of_int (Stats.Histogram.min_value h)
      && b <= float_of_int (Stats.Histogram.max_value h))

(* The shrunk counterexample the property above once found: rank
   0.697 * 7 = 4.88 sits in the top half-slot of its bucket, where the
   in-bucket fraction (rank - acc + 0.5) / count passed 1 and the value
   overshot the larger rank's. *)
let test_hist_quantile_interp_top_half_slot () =
  let h = Stats.Histogram.create () in
  List.iter (Stats.Histogram.record h)
    [ 0; 868352; 0; 0; 851968; 868352; 0; 871485 ];
  let a = Stats.Histogram.quantile_interp h 0.697048420823 in
  let b = Stats.Histogram.quantile_interp h 0.724805962516 in
  check_bool (Printf.sprintf "monotone: %.17g <= %.17g" a b) true (a <= b)

let test_hist_merge () =
  let a = Stats.Histogram.create () in
  let b = Stats.Histogram.create () in
  for i = 1 to 100 do
    Stats.Histogram.record a i
  done;
  for i = 101 to 200 do
    Stats.Histogram.record b i
  done;
  Stats.Histogram.merge_into ~src:b ~dst:a;
  check_int "count" 200 (Stats.Histogram.count a);
  check_int "max" 200 (Stats.Histogram.max_value a);
  check_int "min" 1 (Stats.Histogram.min_value a)

(* Bucket arrays grow on demand, so two histograms fed different value
   ranges have different lengths: merging in either direction must read
   exactly like one histogram that recorded every value. *)
let hist_prop_merge_grown =
  QCheck.Test.make ~name:"merge across grown lengths matches one histogram"
    ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 40) (int_bound 200))
        (list_of_size Gen.(0 -- 40) (int_bound 50_000_000)))
    (fun (small, large) ->
      let of_list vs =
        let h = Stats.Histogram.create () in
        List.iter (Stats.Histogram.record h) vs;
        h
      in
      let whole = of_list (small @ large) in
      let same h =
        let module H = Stats.Histogram in
        H.count h = H.count whole
        && H.sum h = H.sum whole
        && H.min_value h = H.min_value whole
        && H.max_value h = H.max_value whole
        && List.for_all
             (fun q ->
               H.percentile h (100. *. q) = H.percentile whole (100. *. q)
               && H.quantile_interp h q = H.quantile_interp whole q)
             [ 0.0; 0.01; 0.25; 0.5; 0.9; 0.99; 1.0 ]
      in
      let into_small = of_list small in
      Stats.Histogram.merge_into ~src:(of_list large) ~dst:into_small;
      let into_large = of_list large in
      Stats.Histogram.merge_into ~src:(of_list small) ~dst:into_large;
      same into_small && same into_large)

let test_hist_negative_clamped () =
  let h = Stats.Histogram.create () in
  Stats.Histogram.record h (-5);
  check_int "clamped to zero" 0 (Stats.Histogram.max_value h);
  check_int "counted" 1 (Stats.Histogram.count h)

let hist_prop_quantile_bounds =
  QCheck.Test.make ~name:"quantile stays within min/max" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 50) (int_bound 1_000_000)) (float_bound_inclusive 1.0))
    (fun (values, q) ->
      let h = Stats.Histogram.create () in
      List.iter (Stats.Histogram.record h) values;
      let v = Stats.Histogram.percentile h (100. *. q) in
      v >= Stats.Histogram.min_value h && v <= Stats.Histogram.max_value h)

let hist_prop_mean_matches =
  QCheck.Test.make ~name:"histogram mean equals arithmetic mean" ~count:200
    QCheck.(list_of_size Gen.(1 -- 100) (int_bound 100_000))
    (fun values ->
      let h = Stats.Histogram.create () in
      List.iter (Stats.Histogram.record h) values;
      let expect =
        float_of_int (List.fold_left ( + ) 0 values)
        /. float_of_int (List.length values)
      in
      Float.abs (Stats.Histogram.mean h -. expect) < 1e-6)

let test_series () =
  let s = Stats.Series.create () in
  for i = 1 to 100 do
    Stats.Series.add s (Sim.Time.ms i) (float_of_int (i * 10))
  done;
  Alcotest.(check (float 1e-9)) "max" 1000.0 (Stats.Series.max_value s);
  let n = ref 0 and last = ref 0.0 in
  Stats.Series.iter s (fun _ v ->
      incr n;
      last := v);
  check_int "length" 100 !n;
  Alcotest.(check (float 1e-9)) "last" 1000.0 !last

(* -- Registry ---------------------------------------------------------- *)

(* The registry is process-global: each test starts from an empty table
   ([clear]) so registrations from other tests (or instrumented library
   code exercised above) cannot leak in. *)
let with_empty_registry f =
  Stats.Registry.clear ();
  Fun.protect f ~finally:Stats.Registry.clear

(* The value of the counter a registry entry names, -1 for anything else. *)
let counter_value = function
  | Some { Stats.Registry.m_kind = Stats.Registry.Counter c; _ } ->
      Stats.Counter.value c
  | _ -> -1

(* A counter belongs to the component that registered it: a second
   registration under one key makes a fresh counter, and the key names
   the latest. *)
let test_registry_counter_per_registration () =
  with_empty_registry (fun () ->
      let labels = [ ("x", "1") ] in
      let a = Stats.Registry.counter ~labels "ops" in
      Stats.Counter.incr a ~by:2;
      let b = Stats.Registry.counter ~labels "ops" in
      check_int "a second registration is fresh" 0 (Stats.Counter.value b);
      Stats.Counter.incr a;
      Stats.Counter.incr b ~by:5;
      check_int "the first handle counts on its own" 3 (Stats.Counter.value a);
      check_int "find shows the latest" 5
        (counter_value (Stats.Registry.find ~labels "ops"));
      (match Stats.Registry.snapshot () with
      | [ m ] ->
          check_int "snapshot shows the latest" 5 (counter_value (Some m))
      | _ -> Alcotest.fail "expected one metric");
      let other = Stats.Registry.counter ~labels:[ ("x", "2") ] "ops" in
      check_int "distinct labels, distinct counter" 0 (Stats.Counter.value other))

(* A hit returns the installed instrument without building a new one;
   a miss builds an empty one. *)
let test_registry_builds_only_on_miss () =
  with_empty_registry (fun () ->
      let h = Stats.Registry.histogram "lat" in
      Stats.Histogram.record h 7;
      let again = Stats.Registry.histogram "lat" in
      check_int "same histogram" 1 (Stats.Histogram.count again);
      check_int "a miss builds a fresh one" 0
        (Stats.Histogram.count (Stats.Registry.histogram "other")))

let test_registry_label_order_canonical () =
  with_empty_registry (fun () ->
      ignore (Stats.Registry.counter ~labels:[ ("b", "2"); ("a", "1") ] "ops");
      let c =
        Stats.Registry.counter ~labels:[ ("a", "1"); ("b", "2") ] "ops"
      in
      Stats.Counter.incr c;
      check_int "one key" 1 (List.length (Stats.Registry.snapshot ()));
      check_int "either order finds it" 1
        (counter_value
           (Stats.Registry.find ~labels:[ ("b", "2"); ("a", "1") ] "ops")))

let test_registry_kind_mismatch () =
  with_empty_registry (fun () ->
      ignore (Stats.Registry.counter "m");
      Alcotest.check_raises "kind collision"
        (Invalid_argument "Registry.histogram: m is already a counter")
        (fun () -> ignore (Stats.Registry.histogram "m"));
      (* A fresh counter still never replaces another kind. *)
      ignore (Stats.Registry.histogram "h");
      Alcotest.check_raises "counter over a histogram"
        (Invalid_argument "Registry.counter: h is already a histogram")
        (fun () -> ignore (Stats.Registry.counter "h")))

let test_registry_snapshot_sorted () =
  with_empty_registry (fun () ->
      ignore (Stats.Registry.counter "zeta");
      ignore (Stats.Registry.gauge_fn "alpha" (fun () -> 0.0));
      ignore (Stats.Registry.counter ~labels:[ ("k", "b") ] "mid");
      ignore (Stats.Registry.counter ~labels:[ ("k", "a") ] "mid");
      let names =
        List.map (fun m -> m.Stats.Registry.m_name) (Stats.Registry.snapshot ())
      in
      Alcotest.(check (list string))
        "sorted by name then labels"
        [ "alpha"; "mid"; "mid"; "zeta" ] names;
      match Stats.Registry.snapshot () with
      | [ _; m1; m2; _ ] ->
          Alcotest.(check (list (pair string string)))
            "label order breaks ties" [ ("k", "a") ] m1.Stats.Registry.m_labels;
          Alcotest.(check (list (pair string string)))
            "second" [ ("k", "b") ] m2.Stats.Registry.m_labels
      | _ -> Alcotest.fail "expected four metrics")

let test_registry_gauge_push_pull () =
  with_empty_registry (fun () ->
      let src = ref 7.0 in
      let p = Stats.Registry.gauge_fn "pulled" (fun () -> !src) in
      Alcotest.(check (float 1e-9)) "pull mode" 7.0 (Stats.Gauge.value p);
      src := 9.0;
      Alcotest.(check (float 1e-9)) "sampler re-read" 9.0 (Stats.Gauge.value p);
      (* Re-registering re-installs the sampler: last wins. *)
      let p2 = Stats.Registry.gauge_fn "pulled" (fun () -> 1.0) in
      Alcotest.(check (float 1e-9)) "last sampler wins" 1.0 (Stats.Gauge.value p2))

let test_registry_json () =
  with_empty_registry (fun () ->
      let c = Stats.Registry.counter ~labels:[ ("host", "0") ] "ops" in
      Stats.Counter.incr c ~by:3;
      let h = Stats.Registry.histogram "lat" in
      Stats.Histogram.record h 1000;
      ignore (Stats.Registry.gauge_fn "level" (fun () -> 0.0));
      let json = Stats.Registry.to_json () in
      let contains sub =
        let n = String.length sub and m = String.length json in
        let rec go i = i + n <= m && (String.sub json i n = sub || go (i + 1)) in
        go 0
      in
      check_bool "envelope" true (contains "{\"metrics\":[");
      check_bool "counter value" true
        (contains "\"name\":\"ops\",\"labels\":{\"host\":\"0\"},\"type\":\"counter\",\"value\":3");
      check_bool "histogram stats" true (contains "\"p99\":"))

let () =
  Alcotest.run "stats"
    [
      ( "histogram",
        [
          Alcotest.test_case "empty" `Quick test_hist_empty;
          Alcotest.test_case "exact small values" `Quick test_hist_exact_small;
          Alcotest.test_case "relative error" `Quick test_hist_relative_error;
          Alcotest.test_case "index/value round trip" `Quick
            test_hist_index_value_round_trip;
          QCheck_alcotest.to_alcotest hist_prop_round_trip;
          Alcotest.test_case "quantile order" `Quick test_hist_quantiles_order;
          Alcotest.test_case "interpolated quantiles (small)" `Quick
            test_hist_quantile_interp_small;
          Alcotest.test_case "interpolated quantiles vs sorted reference"
            `Quick test_hist_quantile_interp_vs_sorted_reference;
          QCheck_alcotest.to_alcotest hist_prop_quantile_interp_monotone;
          Alcotest.test_case "merge" `Quick test_hist_merge;
          QCheck_alcotest.to_alcotest hist_prop_merge_grown;
          Alcotest.test_case "negative clamp" `Quick test_hist_negative_clamped;
          QCheck_alcotest.to_alcotest hist_prop_quantile_bounds;
          QCheck_alcotest.to_alcotest hist_prop_mean_matches;
          Alcotest.test_case "interpolated quantile in a top half-slot" `Quick
            test_hist_quantile_interp_top_half_slot;
        ] );
      ("series", [ Alcotest.test_case "basic" `Quick test_series ]);
      ( "registry",
        [
          Alcotest.test_case "counter per registration" `Quick
            test_registry_counter_per_registration;
          Alcotest.test_case "builds only on a miss" `Quick
            test_registry_builds_only_on_miss;
          Alcotest.test_case "label canonicalization" `Quick
            test_registry_label_order_canonical;
          Alcotest.test_case "kind mismatch" `Quick test_registry_kind_mismatch;
          Alcotest.test_case "snapshot sorted" `Quick
            test_registry_snapshot_sorted;
          Alcotest.test_case "gauge push/pull" `Quick
            test_registry_gauge_push_pull;
          Alcotest.test_case "json" `Quick test_registry_json;
        ] );
    ]
