(* Tests for the discrete-event core: heap, rng, loop, time. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* -- Heap -------------------------------------------------------------- *)

let pop h = if Sim.Heap.is_empty h then None else Some (Sim.Heap.pop_exn h)

let test_heap_order () =
  let h = Sim.Heap.create () in
  List.iter (fun k -> Sim.Heap.add h ~key:k k) [ 5; 3; 9; 1; 7; 3; 0 ];
  let out = ref [] in
  let rec drain () =
    match pop h with
    | Some v ->
        out := v :: !out;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted" [ 0; 1; 3; 3; 5; 7; 9 ] (List.rev !out)

let test_heap_fifo_ties () =
  let h = Sim.Heap.create () in
  Sim.Heap.add h ~key:1 10;
  Sim.Heap.add h ~key:1 20;
  Sim.Heap.add h ~key:1 30;
  Alcotest.(check (option int)) "first" (Some 10) (pop h);
  Alcotest.(check (option int)) "second" (Some 20) (pop h);
  Alcotest.(check (option int)) "third" (Some 30) (pop h)

let test_heap_min_key () =
  let h = Sim.Heap.create () in
  check_bool "empty" true (Sim.Heap.is_empty h);
  Sim.Heap.add h ~key:42 0;
  Sim.Heap.add h ~key:7 1;
  check_bool "not empty" false (Sim.Heap.is_empty h);
  check_int "top key" 7 (Sim.Heap.top_key h)

let heap_prop_sorted =
  QCheck.Test.make ~name:"heap pops in nondecreasing key order" ~count:200
    QCheck.(list small_int)
    (fun keys ->
      let h = Sim.Heap.create () in
      List.iter (fun k -> Sim.Heap.add h ~key:k k) keys;
      let rec drain acc =
        match pop h with Some v -> drain (v :: acc) | None -> List.rev acc
      in
      let out = drain [] in
      out = List.sort compare keys)

(* -- Rng --------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Sim.Rng.create ~seed:7 and b = Sim.Rng.create ~seed:7 in
  for _ = 1 to 100 do
    check_int "same stream" (Sim.Rng.int a 1000) (Sim.Rng.int b 1000)
  done

let test_rng_split_independent () =
  let a = Sim.Rng.create ~seed:7 in
  let c = Sim.Rng.split a in
  let x = Sim.Rng.int a 1_000_000 and y = Sim.Rng.int c 1_000_000 in
  check_bool "streams diverge" true (x <> y)

let test_rng_bounds () =
  let r = Sim.Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Sim.Rng.int r 10 in
    check_bool "in range" true (v >= 0 && v < 10)
  done

let test_rng_exponential_mean () =
  let r = Sim.Rng.create ~seed:11 in
  let n = 20_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Sim.Rng.exponential r ~mean:50.0
  done;
  let mean = !acc /. float_of_int n in
  check_bool "mean near 50" true (mean > 47.0 && mean < 53.0)

let test_rng_float_bounds () =
  let r = Sim.Rng.create ~seed:5 in
  for _ = 1 to 1000 do
    let v = Sim.Rng.float r 2.5 in
    check_bool "in range" true (v >= 0.0 && v < 2.5)
  done

(* -- Loop -------------------------------------------------------------- *)

let test_loop_ordering () =
  let loop = Sim.Loop.create () in
  let order = ref [] in
  ignore (Sim.Loop.at loop (Sim.Time.us 30) (fun () -> order := 3 :: !order));
  ignore (Sim.Loop.at loop (Sim.Time.us 10) (fun () -> order := 1 :: !order));
  ignore (Sim.Loop.at loop (Sim.Time.us 20) (fun () -> order := 2 :: !order));
  Sim.Loop.run loop;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !order);
  check_int "clock at last event" (Sim.Time.us 30) (Sim.Loop.now loop)

let test_loop_same_time_fifo () =
  let loop = Sim.Loop.create () in
  let order = ref [] in
  for i = 1 to 5 do
    ignore (Sim.Loop.at loop (Sim.Time.us 10) (fun () -> order := i :: !order))
  done;
  Sim.Loop.run loop;
  Alcotest.(check (list int)) "fifo among ties" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_loop_cancel () =
  let loop = Sim.Loop.create () in
  let fired = ref false in
  let h = Sim.Loop.after loop (Sim.Time.us 5) (fun () -> fired := true) in
  Sim.Loop.cancel loop h;
  Sim.Loop.run loop;
  check_bool "cancelled event did not fire" false !fired

let test_loop_until () =
  let loop = Sim.Loop.create () in
  let count = ref 0 in
  ignore (Sim.Loop.at loop (Sim.Time.us 10) (fun () -> incr count));
  ignore (Sim.Loop.at loop (Sim.Time.us 90) (fun () -> incr count));
  Sim.Loop.run ~until:(Sim.Time.us 50) loop;
  check_int "only first fired" 1 !count;
  check_int "clock at until" (Sim.Time.us 50) (Sim.Loop.now loop);
  Sim.Loop.run loop;
  check_int "second fires later" 2 !count

let test_loop_every () =
  let loop = Sim.Loop.create () in
  let count = ref 0 in
  let h = Sim.Loop.every loop (Sim.Time.us 10) (fun () -> incr count) in
  Sim.Loop.run ~until:(Sim.Time.us 55) loop;
  check_int "five periods" 5 !count;
  Sim.Loop.cancel loop h;
  Sim.Loop.run ~until:(Sim.Time.us 200) loop;
  check_int "stopped after cancel" 5 !count

let test_loop_nested_schedule () =
  let loop = Sim.Loop.create () in
  let hits = ref [] in
  ignore
    (Sim.Loop.at loop (Sim.Time.us 10) (fun () ->
         hits := Sim.Loop.now loop :: !hits;
         ignore
           (Sim.Loop.after loop (Sim.Time.us 5) (fun () ->
                hits := Sim.Loop.now loop :: !hits))));
  Sim.Loop.run loop;
  Alcotest.(check (list int))
    "nested event at +5us"
    [ Sim.Time.us 10; Sim.Time.us 15 ]
    (List.rev !hits)

let test_loop_past_event_runs_now () =
  let loop = Sim.Loop.create () in
  let at = ref (-1) in
  ignore
    (Sim.Loop.at loop (Sim.Time.us 10) (fun () ->
         ignore (Sim.Loop.at loop (Sim.Time.us 3) (fun () -> at := Sim.Loop.now loop))));
  Sim.Loop.run loop;
  check_int "clamped to now" (Sim.Time.us 10) !at

let test_loop_handle_stale () =
  let loop = Sim.Loop.create () in
  let fired = Sim.Loop.after loop (Sim.Time.us 5) ignore in
  let cancelled = Sim.Loop.after loop (Sim.Time.us 5) ignore in
  check_bool "pending before it fires" true (Sim.Loop.is_pending loop fired);
  Sim.Loop.cancel loop cancelled;
  check_bool "stale after cancel" false (Sim.Loop.is_pending loop cancelled);
  check_int "cancelled entry still queued" 2 (Sim.Loop.pending_events loop);
  Sim.Loop.run loop;
  check_bool "stale after firing" false (Sim.Loop.is_pending loop fired);
  check_int "queue drained" 0 (Sim.Loop.pending_events loop)

(* A handle outlives its event; once the slot is reused, cancelling the
   old handle must leave the new occupant alone. *)
let test_loop_cancel_stale_after_reuse () =
  let loop = Sim.Loop.create () in
  let old_fired = Sim.Loop.after loop (Sim.Time.us 1) ignore in
  let old_cancelled = Sim.Loop.after loop (Sim.Time.us 1) ignore in
  Sim.Loop.cancel loop old_cancelled;
  Sim.Loop.run loop;
  let hits = ref 0 in
  let fresh =
    List.init 4 (fun _ -> Sim.Loop.after loop (Sim.Time.us 1) (fun () -> incr hits))
  in
  Sim.Loop.cancel loop old_fired;
  Sim.Loop.cancel loop old_cancelled;
  List.iter
    (fun h -> check_bool "new event still pending" true (Sim.Loop.is_pending loop h))
    fresh;
  Sim.Loop.run loop;
  check_int "every new event fired" 4 !hits

let test_loop_every_cancel_from_callback () =
  let loop = Sim.Loop.create () in
  let count = ref 0 in
  let self = ref None in
  let h =
    Sim.Loop.every loop (Sim.Time.us 10) (fun () ->
        incr count;
        if !count = 3 then Option.iter (Sim.Loop.cancel loop) !self)
  in
  self := Some h;
  Sim.Loop.run ~until:(Sim.Time.us 200) loop;
  check_int "stopped at the cancelling tick" 3 !count;
  check_bool "handle stale" false (Sim.Loop.is_pending loop h);
  check_int "no tick left queued" 0 (Sim.Loop.pending_events loop)

(* -- Handler events ------------------------------------------------------ *)

(* Forty events over four instants, every fifth one cancelled (handler
   and closure events alike), and each of the first ten scheduling a
   follow-up at its own instant.  With [mixed] the even ids go through a
   registered handler, otherwise every event is a closure; the firing
   order must not tell them apart. *)
let mixed_schedule ~salt ~mixed =
  let loop = Sim.Loop.create ~tie_salt:salt () in
  let fired = ref [] in
  let self = ref None in
  let rec fire i =
    fired := i :: !fired;
    if i < 10 then ignore (schedule (Sim.Loop.now loop) (i + 100))
  and schedule at i =
    match !self with
    | Some h when mixed && i mod 2 = 0 ->
        Sim.Loop.after_h loop (at - Sim.Loop.now loop) h i
    | Some _ | None -> Sim.Loop.at loop at (fun () -> fire i)
  in
  self := Some (Sim.Loop.handler loop fire);
  for i = 0 to 39 do
    let h = schedule (Sim.Time.us ((i * 7) mod 4)) i in
    if i mod 5 = 3 then Sim.Loop.cancel loop h
  done;
  Sim.Loop.run loop;
  List.rev !fired

let test_loop_handler_order () =
  List.iter
    (fun salt ->
      let closures = mixed_schedule ~salt ~mixed:false in
      check_int "every live event fired" 40 (List.length closures);
      Alcotest.(check (list int))
        (Printf.sprintf "salt %d: same order as all closures" salt)
        closures
        (mixed_schedule ~salt ~mixed:true))
    [ 0; 1; 2; 3 ]

let test_loop_handler_cancel () =
  let loop = Sim.Loop.create () in
  let hits = ref [] in
  let h = Sim.Loop.handler loop (fun i -> hits := i :: !hits) in
  let fired = Sim.Loop.after_h loop (Sim.Time.us 5) h 1 in
  let cancelled = Sim.Loop.after_h loop (Sim.Time.us 5) h 2 in
  check_bool "pending before it fires" true (Sim.Loop.is_pending loop fired);
  Sim.Loop.cancel loop cancelled;
  check_bool "stale after cancel" false (Sim.Loop.is_pending loop cancelled);
  check_int "cancelled entry still queued" 2 (Sim.Loop.pending_events loop);
  Sim.Loop.run loop;
  Alcotest.(check (list int)) "only the live event ran" [ 1 ] !hits;
  check_bool "stale after firing" false (Sim.Loop.is_pending loop fired);
  (* The old handles' slots are reused; cancelling them must leave the
     new occupants alone. *)
  let fresh =
    List.init 4 (fun i -> Sim.Loop.after_h loop (Sim.Time.us 1) h (10 + i))
  in
  Sim.Loop.cancel loop fired;
  Sim.Loop.cancel loop cancelled;
  Sim.Loop.cancel loop Sim.Loop.none;
  check_bool "none is never pending" false (Sim.Loop.is_pending loop Sim.Loop.none);
  List.iter
    (fun h -> check_bool "new event still pending" true (Sim.Loop.is_pending loop h))
    fresh;
  Sim.Loop.run loop;
  Alcotest.(check (list int)) "every new event ran" [ 13; 12; 11; 10; 1 ] !hits

let test_loop_handler_no_alloc () =
  let loop = Sim.Loop.create () in
  let sum = ref 0 in
  let h = Sim.Loop.handler loop (fun i -> sum := !sum + i) in
  let pairs () =
    for i = 1 to 10_000 do
      ignore (Sim.Loop.after_h loop 1 h i);
      ignore (Sim.Loop.step loop)
    done
  in
  (* Warm-up grows the slot table and the heap to size. *)
  pairs ();
  let before = Gc.minor_words () in
  pairs ();
  let words = Gc.minor_words () -. before in
  check_int "every event fired" (2 * 50_005_000) !sum;
  check_int "minor words for 10,000 after_h+step pairs" 0 (int_of_float words)

(* Random at/after/cancel/step/run-until scripts against a sorted-list
   reference: same firing order, clock, pending count and liveness. *)
type loop_op =
  | At of int
  | After of int
  | Cancel of int
  | Step
  | Run_until of int

let loop_op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun t -> At t) (int_bound 60));
        (3, map (fun d -> After d) (int_bound 20));
        (2, map (fun k -> Cancel k) (int_bound 40));
        (3, return Step);
        (1, map (fun t -> Run_until t) (int_bound 80));
      ])

let print_loop_op = function
  | At t -> Printf.sprintf "At %d" t
  | After d -> Printf.sprintf "After %d" d
  | Cancel k -> Printf.sprintf "Cancel %d" k
  | Step -> "Step"
  | Run_until t -> Printf.sprintf "Run_until %d" t

let run_loop_script salt ops =
  let loop = Sim.Loop.create ~tie_salt:salt () in
  let handles = ref [||] and fired = ref [] in
  (* Reference: every queued entry as (time, tie rank, seq, id), cancelled
     ones included, plus a liveness flag per id. *)
  let queued = ref [] and live = ref [||] and clock = ref 0 and seq = ref 0 in
  let ref_fired = ref [] and ok = ref true in
  let schedule when_ =
    let id = Array.length !handles in
    let h = Sim.Loop.at loop when_ (fun () -> fired := id :: !fired) in
    handles := Array.append !handles [| h |];
    let when_ = max when_ !clock in
    queued := (when_, Sim.Heap.tie_rank ~salt !seq, !seq, id) :: !queued;
    incr seq;
    live := Array.append !live [| true |]
  in
  let ref_step () =
    match List.sort compare !queued with
    | [] -> false
    | (time, _, _, id) :: rest ->
        queued := rest;
        clock := max !clock time;
        if !live.(id) then begin
          !live.(id) <- false;
          ref_fired := id :: !ref_fired
        end;
        true
  in
  List.iter
    (fun op ->
      (match op with
      | At t -> schedule t
      | After d -> schedule (!clock + d)
      | Cancel k ->
          let n = Array.length !handles in
          if n > 0 then begin
            Sim.Loop.cancel loop !handles.(k mod n);
            !live.(k mod n) <- false
          end
      | Step -> if Sim.Loop.step loop <> ref_step () then ok := false
      | Run_until limit ->
          Sim.Loop.run ~until:limit loop;
          while
            List.exists (fun (time, _, _, _) -> time <= limit) !queued
            && ref_step ()
          do
            ()
          done;
          clock := max !clock limit);
      if
        Sim.Loop.now loop <> !clock
        || Sim.Loop.pending_events loop <> List.length !queued
      then ok := false)
    ops;
  Array.iteri
    (fun id h -> if Sim.Loop.is_pending loop h <> !live.(id) then ok := false)
    !handles;
  !ok && !fired = !ref_fired

let loop_prop_matches_model =
  QCheck.Test.make ~name:"loop matches a sorted-list model under salts 0, 1, 7"
    ~count:300
    QCheck.(make ~print:(Print.list print_loop_op) Gen.(list_size (int_bound 80) loop_op_gen))
    (fun ops -> List.for_all (fun salt -> run_loop_script salt ops) [ 0; 1; 7 ])

(* -- Span -------------------------------------------------------------- *)

let with_span_reset f =
  Fun.protect f ~finally:(fun () -> Sim.Span.set_capture None)

let test_span_disabled_noop () =
  with_span_reset (fun () ->
      let loop = Sim.Loop.create () in
      check_bool "off by default" false (Sim.Span.enabled ());
      Sim.Span.emit loop "ignored";
      check_int "nothing recorded" 0 (List.length (Sim.Span.events ()));
      check_int "nothing dropped" 0 (Sim.Span.dropped ()))

let test_span_ring_wraparound () =
  with_span_reset (fun () ->
      let loop = Sim.Loop.create () in
      Sim.Span.set_capture (Some 3);
      check_bool "enabled" true (Sim.Span.enabled ());
      for i = 1 to 5 do
        ignore
          (Sim.Loop.at loop (Sim.Time.us i) (fun () ->
               Sim.Span.emit loop (Printf.sprintf "ev%d" i)))
      done;
      Sim.Loop.run loop;
      let evs = Sim.Span.events () in
      check_int "ring keeps newest 3" 3 (List.length evs);
      check_int "two evicted" 2 (Sim.Span.dropped ());
      Alcotest.(check (list string))
        "oldest first" [ "ev3"; "ev4"; "ev5" ]
        (List.map (fun e -> e.Sim.Span.ev_name) evs);
      check_int "virtual timestamps" (Sim.Time.us 3)
        (match evs with e :: _ -> e.Sim.Span.ev_ts | [] -> -1))

let test_span_ring_sustained_overflow () =
  (* Emit far past capacity from a single hot loop: the ring must keep
     exactly the newest [cap] events in order and count every eviction,
     with no resizing or aliasing under sustained pressure. *)
  with_span_reset (fun () ->
      let loop = Sim.Loop.create () in
      let cap = 16 and total = 1000 in
      Sim.Span.set_capture (Some cap);
      ignore
        (Sim.Loop.at loop (Sim.Time.us 1) (fun () ->
             for i = 1 to total do
               Sim.Span.emit loop (Printf.sprintf "ev%d" i)
             done));
      Sim.Loop.run loop;
      let evs = Sim.Span.events () in
      check_int "ring holds exactly cap" cap (List.length evs);
      check_int "everything else dropped" (total - cap) (Sim.Span.dropped ());
      Alcotest.(check (list string))
        "newest cap events, oldest first"
        (List.init cap (fun i -> Printf.sprintf "ev%d" (total - cap + 1 + i)))
        (List.map (fun e -> e.Sim.Span.ev_name) evs))

let test_span_chrome_export () =
  with_span_reset (fun () ->
      let loop = Sim.Loop.create () in
      Sim.Span.set_capture (Some 16);
      ignore
        (Sim.Loop.at loop (Sim.Time.us 10) (fun () ->
             Sim.Span.emit loop ~cat:"test" ~track:"lane" "instant";
             Sim.Span.emit loop ~cat:"test" ~track:"lane"
               ~start:(Sim.Time.us 4) ~dur:(Sim.Time.us 6)
               ~args:[ ("k", "v") ] "span"));
      Sim.Loop.run loop;
      let json = Sim.Span.to_chrome_json () in
      let contains sub =
        let n = String.length sub and m = String.length json in
        let rec go i = i + n <= m && (String.sub json i n = sub || go (i + 1)) in
        go 0
      in
      check_bool "track metadata" true (contains "thread_name");
      check_bool "complete event" true (contains "\"ph\":\"X\"");
      check_bool "instant event" true (contains "\"ph\":\"i\"");
      check_bool "args survive" true (contains "\"k\":\"v\"");
      check_bool "duration in us" true (contains "\"dur\":6.000"))

let test_span_on_off_transitions () =
  with_span_reset (fun () ->
      let loop = Sim.Loop.create () in
      Sim.Span.set_capture (Some 4);
      Sim.Span.emit loop "kept";
      Sim.Span.set_capture None;
      check_bool "disabled" false (Sim.Span.enabled ());
      check_int "ring dropped with capture" 0 (List.length (Sim.Span.events ()));
      Sim.Span.emit loop "lost";
      Sim.Span.set_capture (Some 4);
      check_int "fresh ring on re-enable" 0 (List.length (Sim.Span.events ()));
      Sim.Span.emit loop "again";
      check_int "captures again" 1 (List.length (Sim.Span.events ())))

(* -- Wheel ------------------------------------------------------------- *)

let test_wheel_fires_in_order () =
  let loop = Sim.Loop.create () in
  let wheel = Sim.Wheel.create ~loop () in
  let out = ref [] in
  List.iter
    (fun d ->
      ignore
        (Sim.Wheel.arm wheel ~at:d (fun () ->
             out := (d, Sim.Loop.now loop) :: !out)))
    [ 900; 5; 70_000; 5; 1_000_000; 300; 70_000 ];
  Sim.Loop.run loop;
  let fired = List.rev !out in
  Alcotest.(check (list int))
    "due order"
    [ 5; 5; 300; 900; 70_000; 70_000; 1_000_000 ]
    (List.map fst fired);
  List.iter
    (fun (d, at) -> check_int "fires at exact due time" d at)
    fired

let test_wheel_cancel () =
  let loop = Sim.Loop.create () in
  let wheel = Sim.Wheel.create ~loop () in
  let fired = ref 0 in
  let a = Sim.Wheel.arm wheel ~at:100 (fun () -> incr fired) in
  let _b = Sim.Wheel.arm wheel ~at:200 (fun () -> incr fired) in
  Sim.Wheel.cancel a;
  Sim.Wheel.cancel a;
  check_bool "cancelled timer disarmed" false (Sim.Wheel.is_armed a);
  Sim.Loop.run loop;
  check_int "only the live timer fired" 1 !fired

let test_wheel_idle_quiesces () =
  let loop = Sim.Loop.create () in
  let wheel = Sim.Wheel.create ~loop () in
  check_int "no wake when empty" 0 (Sim.Loop.pending_events loop);
  let a = Sim.Wheel.arm wheel ~at:5_000 (fun () -> ()) in
  check_int "wake pending while armed" 1 (Sim.Loop.pending_events loop);
  Sim.Wheel.cancel a;
  (* The lazily-cancelled timer costs at most one spurious wake, then
     the wheel schedules nothing more: the loop drains. *)
  Sim.Loop.run loop;
  check_int "quiescent after drain" 0 (Sim.Loop.pending_events loop);
  check_bool "no live timer" false (Sim.Wheel.is_armed a)

let test_wheel_rearm_from_callback () =
  let loop = Sim.Loop.create () in
  let wheel = Sim.Wheel.create ~loop () in
  let times = ref [] in
  let rec tick n =
    times := Sim.Loop.now loop :: !times;
    if n > 0 then
      ignore
        (Sim.Wheel.arm wheel
           ~at:(Sim.Loop.now loop + 250)
           (fun () -> tick (n - 1)))
  in
  ignore (Sim.Wheel.arm wheel ~at:100 (fun () -> tick 3));
  Sim.Loop.run loop;
  Alcotest.(check (list int))
    "chained re-arms" [ 100; 350; 600; 850 ] (List.rev !times)

let test_wheel_cascade_far_future () =
  let loop = Sim.Loop.create () in
  let wheel = Sim.Wheel.create ~loop () in
  (* Spans several wheel levels: 1ns, ~4us, ~1ms, ~0.3s. *)
  let due = [ 1; 4_096; 1_048_577; 300_000_000 ] in
  let out = ref [] in
  List.iter
    (fun d ->
      ignore
        (Sim.Wheel.arm wheel ~at:d (fun () ->
             out := Sim.Loop.now loop :: !out)))
    (List.rev due);
  Sim.Loop.run loop;
  Alcotest.(check (list int)) "cascades land on time" due (List.rev !out)

(* For the same salt, same-instant wheel timers must fire in exactly the
   order the reference heap pops same-key entries. *)
let wheel_prop_matches_heap =
  QCheck.Test.make ~name:"wheel matches salted heap order and times" ~count:100
    QCheck.(pair small_int (list (pair (int_bound 5_000) unit)))
    (fun (salt, pts) ->
      let dues = List.map (fun (d, ()) -> d + 1) pts in
      let heap = Sim.Heap.create ~salt () in
      List.iteri (fun i d -> Sim.Heap.add heap ~key:d i) dues;
      let due = Array.of_list dues in
      let expect =
        let rec drain acc =
          match pop heap with
          | Some i -> drain ((due.(i), i) :: acc)
          | None -> List.rev acc
        in
        drain []
      in
      let loop = Sim.Loop.create ~tie_salt:salt () in
      let wheel = Sim.Wheel.create ~loop () in
      let got = ref [] in
      List.iteri
        (fun i d ->
          ignore
            (Sim.Wheel.arm wheel ~at:d (fun () ->
                 if Sim.Loop.now loop <> d then
                   failwith "wheel fired at wrong time";
                 got := (d, i) :: !got)))
        dues;
      Sim.Loop.run loop;
      List.rev !got = expect)

(* -- Bitset ------------------------------------------------------------ *)

(* Members by a [next] walk, as engine passes visit them. *)
let members b =
  let acc = ref [] in
  let i = ref (Sim.Bitset.next b 0) in
  while !i >= 0 do
    acc := !i :: !acc;
    i := Sim.Bitset.next b (!i + 1)
  done;
  List.rev !acc

let test_bitset_basics () =
  let b = Sim.Bitset.create () in
  check_int "next on a new set" (-1) (Sim.Bitset.next b 0);
  Sim.Bitset.clear b 1000;
  Alcotest.(check (list int)) "clear past the end is a no-op" [] (members b);
  (* 31/32 and 63/64 straddle word boundaries; 200 forces growth. *)
  List.iter (Sim.Bitset.set b) [ 31; 32; 63; 64; 200; 0; 32 ];
  Alcotest.(check (list int))
    "ascending, set idempotent" [ 0; 31; 32; 63; 64; 200 ] (members b);
  check_int "next at a member" 31 (Sim.Bitset.next b 31);
  check_int "next across a word" 63 (Sim.Bitset.next b 33);
  check_int "next across empty words" 200 (Sim.Bitset.next b 65);
  check_int "next past the last member" (-1) (Sim.Bitset.next b 201);
  check_int "next far past the end" (-1) (Sim.Bitset.next b 100_000);
  check_int "negative start" 0 (Sim.Bitset.next b (-5));
  Sim.Bitset.clear b 32;
  Sim.Bitset.clear b 32;
  Alcotest.(check (list int))
    "clear idempotent" [ 0; 31; 63; 64; 200 ] (members b);
  Sim.Bitset.reset b;
  check_int "next after reset" (-1) (Sim.Bitset.next b 0);
  Sim.Bitset.set b 5;
  Alcotest.(check (list int)) "usable after reset" [ 5 ] (members b);
  Alcotest.check_raises "negative set"
    (Invalid_argument "Bitset.set: negative index") (fun () ->
      Sim.Bitset.set b (-1))

let test_bitset_iter_mutation () =
  let b = Sim.Bitset.create () in
  List.iter (Sim.Bitset.set b) [ 2; 9; 40 ];
  let seen = ref [] in
  (* A [next] walk resumes above the member just visited, so changes in
     the visited word and in later words, ahead and behind, show as
     they would to an engine pass that sets and clears members. *)
  let i = ref (Sim.Bitset.next b 0) in
  while !i >= 0 do
    seen := !i :: !seen;
    if !i = 2 then begin
      Sim.Bitset.set b 1;
      Sim.Bitset.set b 5;
      Sim.Bitset.set b 70;
      Sim.Bitset.clear b 9;
      Sim.Bitset.clear b 40
    end;
    i := Sim.Bitset.next b (!i + 1)
  done;
  Alcotest.(check (list int))
    "added ahead visited, behind and cleared not" [ 2; 5; 70 ] (List.rev !seen)

(* Model check against a [bool array]: random set/clear/reset sequences
   (clears also past the grown storage), then [next] from every index
   and past the end, and the member list. *)
let bitset_prop_matches_model =
  let n = 256 in
  let op =
    QCheck.Gen.(
      frequency
        [
          (6, map (fun i -> `Set i) (int_bound 199));
          (3, map (fun i -> `Clear i) (int_bound (n - 1)));
          (1, return `Reset);
        ])
  in
  QCheck.Test.make ~name:"bitset matches a bool-array model" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_bound 80) op))
    (fun ops ->
      let b = Sim.Bitset.create () in
      let model = Array.make n false in
      List.iter
        (function
          | `Set i ->
              Sim.Bitset.set b i;
              model.(i) <- true
          | `Clear i ->
              Sim.Bitset.clear b i;
              model.(i) <- false
          | `Reset ->
              Sim.Bitset.reset b;
              Array.fill model 0 n false)
        ops;
      let model_next i =
        let rec go j = if j >= n then -1 else if model.(j) then j else go (j + 1) in
        go i
      in
      let ok = ref true in
      for i = 0 to n + 10 do
        if Sim.Bitset.next b i <> model_next i then ok := false
      done;
      !ok
      && members b = List.filter (fun i -> model.(i)) (List.init n Fun.id))

(* -- Time -------------------------------------------------------------- *)

let test_time_units () =
  check_int "us" 1_000 (Sim.Time.us 1);
  check_int "ms" 1_000_000 (Sim.Time.ms 1);
  check_int "sec" 1_000_000_000 (Sim.Time.sec 1);
  Alcotest.(check (float 1e-9)) "to_float_us" 2.5 (Sim.Time.to_float_us 2_500);
  check_int "scale" 500 (Sim.Time.scale 1_000 0.5)

let () =
  Alcotest.run "sim"
    [
      ( "heap",
        [
          Alcotest.test_case "order" `Quick test_heap_order;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "min key" `Quick test_heap_min_key;
          QCheck_alcotest.to_alcotest heap_prop_sorted;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_bounds;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
        ] );
      ( "loop",
        [
          Alcotest.test_case "ordering" `Quick test_loop_ordering;
          Alcotest.test_case "same-time fifo" `Quick test_loop_same_time_fifo;
          Alcotest.test_case "cancel" `Quick test_loop_cancel;
          Alcotest.test_case "run until" `Quick test_loop_until;
          Alcotest.test_case "every" `Quick test_loop_every;
          Alcotest.test_case "nested" `Quick test_loop_nested_schedule;
          Alcotest.test_case "past event" `Quick test_loop_past_event_runs_now;
          Alcotest.test_case "handle stale" `Quick test_loop_handle_stale;
          Alcotest.test_case "cancel stale after reuse" `Quick
            test_loop_cancel_stale_after_reuse;
          Alcotest.test_case "every cancelled from callback" `Quick
            test_loop_every_cancel_from_callback;
          Alcotest.test_case "handler events keep the closure order" `Quick
            test_loop_handler_order;
          Alcotest.test_case "handler cancel and stale handles" `Quick
            test_loop_handler_cancel;
          Alcotest.test_case "handler events allocate nothing" `Quick
            test_loop_handler_no_alloc;
          QCheck_alcotest.to_alcotest loop_prop_matches_model;
        ] );
      ( "span",
        [
          Alcotest.test_case "disabled no-op" `Quick test_span_disabled_noop;
          Alcotest.test_case "ring wraparound" `Quick test_span_ring_wraparound;
          Alcotest.test_case "ring sustained overflow" `Quick
            test_span_ring_sustained_overflow;
          Alcotest.test_case "chrome export" `Quick test_span_chrome_export;
          Alcotest.test_case "on/off transitions" `Quick
            test_span_on_off_transitions;
        ] );
      ( "wheel",
        [
          Alcotest.test_case "fires in order" `Quick test_wheel_fires_in_order;
          Alcotest.test_case "cancel" `Quick test_wheel_cancel;
          Alcotest.test_case "idle quiesces" `Quick test_wheel_idle_quiesces;
          Alcotest.test_case "re-arm from callback" `Quick
            test_wheel_rearm_from_callback;
          Alcotest.test_case "cascades far future" `Quick
            test_wheel_cascade_far_future;
          QCheck_alcotest.to_alcotest wheel_prop_matches_heap;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "set/clear/reset/next" `Quick test_bitset_basics;
          Alcotest.test_case "iter under mutation" `Quick
            test_bitset_iter_mutation;
          QCheck_alcotest.to_alcotest bitset_prop_matches_model;
        ] );
      ("time", [ Alcotest.test_case "units" `Quick test_time_units ]);
    ]
