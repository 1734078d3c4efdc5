(* Host nanoseconds per call of the simulator's public primitives, each
   timed in isolation where no coroutine can suspend.  Every primitive
   runs in batches; the reported value is the median batch's ns per call
   (the loop and closure call are included, about 1-2 ns). *)

module Time = Sim.Time
module Loop = Sim.Loop
module Ring = Guest.Ring

let clock_ns () = Int64.to_int (Monotonic_clock.now ())

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Median over batches of the ns per call of [f], for about [budget_ns]. *)
let time_op ~budget_ns f =
  let batch = 256 in
  for _ = 1 to batch do
    f ()
  done;
  let samples = ref [] and n = ref 0 in
  let stop = clock_ns () + budget_ns in
  while !n < 5 || clock_ns () < stop do
    let t0 = clock_ns () in
    for _ = 1 to batch do
      f ()
    done;
    samples := (float_of_int (clock_ns () - t0) /. float_of_int batch) :: !samples;
    incr n
  done;
  median !samples

let heap () =
  let h = Sim.Heap.create () in
  for i = 0 to 1023 do
    Sim.Heap.add h ~key:((i * 7919) land 0xFFFF) i
  done;
  let k = ref 0 in
  fun () ->
    k := !k + 997;
    Sim.Heap.add h ~key:(!k land 0xFFFFF) 0;
    ignore (Sim.Heap.pop_exn h)

(* An early timer pins the wheel's loop event, so arm/cancel further out
   never touch the loop's heap. *)
let wheel () =
  let loop = Loop.create () in
  let w = Sim.Wheel.create ~loop () in
  ignore (Sim.Wheel.arm w ~at:10 ignore);
  let k = ref 0 in
  fun () ->
    incr k;
    Sim.Wheel.cancel (Sim.Wheel.arm w ~at:(1000 + (!k land 0xFFFF)) ignore)

let loop_at_step () =
  let loop = Loop.create () in
  for i = 1 to 1024 do
    ignore (Loop.at loop (Time.sec 1000 + i) ignore)
  done;
  fun () ->
    ignore (Loop.at loop (Loop.now loop + 1) ignore);
    ignore (Loop.step loop)

let arena () =
  let a = Memory.Arena.create () in
  let hs = Array.init 1024 (fun i -> Memory.Arena.alloc a i) in
  let k = ref 0 in
  let alloc_free () =
    let i = !k land 1023 in
    incr k;
    ignore (Memory.Arena.free a hs.(i));
    hs.(i) <- Memory.Arena.alloc a i
  in
  let get () =
    incr k;
    ignore (Memory.Arena.get a hs.(!k land 1023))
  in
  (alloc_free, get)

let pool () =
  let p = Memory.Pool.create ~name:"micro" ~capacity_bytes:(1 lsl 30) in
  fun () -> Memory.Pool.free (Memory.Pool.alloc p ~owner:"micro" ~bytes:4096)

let spsc () =
  let q = Squeue.Spsc.create ~capacity:1024 () in
  fun () ->
    ignore (Squeue.Spsc.push q ~now:0 1);
    ignore (Squeue.Spsc.pop q)

let mailbox () =
  let mb = Squeue.Mailbox.create () in
  fun () ->
    ignore (Squeue.Mailbox.post mb ignore);
    ignore (Squeue.Mailbox.service mb)

let histogram () =
  let h = Stats.Histogram.create () in
  let k = ref 0 in
  fun () ->
    k := (!k + 7919) land 0xFFFFF;
    Stats.Histogram.record h !k

let counter () =
  let c = Stats.Registry.counter "snapbench_micro" in
  fun () -> Stats.Counter.incr c

let timely () =
  let cc = Pony.Timely.create ~max_rate_gbps:100.0 () in
  let k = ref 0 in
  fun () ->
    incr k;
    Pony.Timely.on_rtt_sample cc (Time.us 10 + (!k land 0x3FFF))

let pipeline () =
  let open Engine.Element in
  let pipe =
    Pipeline.of_list
      [ counter ~name:"in"; acl ~name:"acl" ~allow:(fun _ -> true); counter ~name:"out" ]
  in
  let pkt = Memory.Packet.make ~id:0 ~src:0 ~dst:1 ~wire_bytes:1500 Memory.Packet.Empty () in
  fun () -> ignore (Pipeline.push pipe pkt)

let admission () =
  let pool = Memory.Pool.create ~name:"micro-adm" ~capacity_bytes:(1 lsl 30) in
  let adm = Overload.Admission.create ~pool ~owner:"micro" ~rate_ops_per_sec:1e12 () in
  let now = ref 0 in
  fun () ->
    now := !now + 1000;
    match Overload.Admission.admit adm ~now:!now ~bytes:4096 with
    | Overload.Admission.Admitted a -> Overload.Admission.release adm a
    | Overload.Admission.Rejected _ -> ()

(* Guest post, host checked take and completion, guest reap. *)
let ring () =
  let region = Memory.Region.create ~id:9 ~size:(64 * 4096) ~owner:"micro" () in
  let r = Ring.create ~region ~slots:64 () in
  let k = ref 0 in
  fun () ->
    incr k;
    ignore (Ring.post r ~now:0 ~id:!k ~off:0 ~len:1024);
    (match Ring.take_checked r with
    | Ring.Take_ok d -> Ring.complete r ~id:d.Ring.d_id ~len:d.Ring.d_len ~status:Ring.Complete
    | _ -> ());
    ignore (Ring.pop_used r)

let span_off () =
  let loop = Loop.create () in
  fun () -> Sim.Span.emit loop "off"

let optrace_off () =
  let loop = Loop.create () in
  let key =
    {
      Sim.Optrace.k_origin = 0;
      k_origin_client = 0;
      k_peer = 1;
      k_session = 1;
      k_origin_init = true;
      k_op = 1;
    }
  in
  fun () -> Sim.Optrace.stamp loop key Sim.Optrace.First_tx

(* Pony.Flow's per-packet path in three phases over batches of 32
   packets: sender enqueue+emit, receiver on_receive+make_ack, sender
   on_receive of the ack.  Packets go out 100 ns apart and acks return
   within 10 us, below Timely's low threshold, so the rate never drops. *)
let flow ~budget_ns =
  let loop = Loop.create () in
  let key = { Pony.Wire.src_host = 0; src_engine = 0; dst_host = 1; dst_engine = 0 } in
  let a = Pony.Flow.create ~loop ~key ~max_rate_gbps:1000.0 () in
  let b = Pony.Flow.create ~loop ~key:(Pony.Wire.reverse key) ~max_rate_gbps:1000.0 () in
  let gen = Memory.Packet.Id_gen.create () in
  let conn =
    {
      Pony.Wire.initiator_host = 0;
      initiator_client = 0;
      target_host = 1;
      target_client = 0;
      session = 1;
    }
  in
  let batch = 32 in
  let pkts = Array.make batch None and acks = Array.make batch None in
  let send = ref [] and recv = ref [] and ack = ref [] and n = ref 0 in
  let base = ref 0 in
  let per t0 t1 = float_of_int (t1 - t0) /. float_of_int batch in
  let stop = clock_ns () + budget_ns in
  while !n < 5 || clock_ns () < stop do
    let t0 = clock_ns () in
    for i = 0 to batch - 1 do
      Pony.Flow.enqueue a
        (Pony.Wire.Msg_chunk { conn; op_id = i; stream = 0; offset = 0; len = 4096; total = 4096 })
        ~payload_bytes:4096;
      pkts.(i) <- Pony.Flow.emit a ~now:(!base + (i * 100)) ~gen
    done;
    let t1 = clock_ns () in
    let now = !base + Time.us 5 in
    for i = 0 to batch - 1 do
      match pkts.(i) with
      | Some p ->
          ignore (Pony.Flow.on_receive b ~now p);
          acks.(i) <- Pony.Flow.make_ack b ~now ~gen
      | None -> acks.(i) <- None
    done;
    let t2 = clock_ns () in
    let now = !base + Time.us 10 in
    for i = 0 to batch - 1 do
      match acks.(i) with Some p -> ignore (Pony.Flow.on_receive a ~now p) | None -> ()
    done;
    let t3 = clock_ns () in
    send := per t0 t1 :: !send;
    recv := per t1 t2 :: !recv;
    ack := per t2 t3 :: !ack;
    incr n;
    base := !base + Time.us 20
  done;
  [
    ("flow_enqueue_emit", median !send);
    ("flow_receive", median !recv);
    ("flow_ack", median !ack);
  ]

(* Every primitive, as [micro.<layer>_<op>_ns], within about [budget_s]. *)
let run ~budget_s =
  let arena_alloc_free, arena_get = arena () in
  let ops =
    [
      ("sim_heap_add_pop", heap ());
      ("sim_wheel_arm_cancel", wheel ());
      ("sim_loop_at_step", loop_at_step ());
      ("memory_arena_alloc_free", arena_alloc_free);
      ("memory_arena_get", arena_get);
      ("memory_pool_alloc_free", pool ());
      ("queue_spsc_push_pop", spsc ());
      ("queue_mailbox_post_service", mailbox ());
      ("stats_histogram_record", histogram ());
      ("stats_counter_incr", counter ());
      ("pony_timely_rtt_sample", timely ());
      ("engine_pipeline_push", pipeline ());
      ("overload_admit_release", admission ());
      ("guest_ring_post_take", ring ());
      ("sim_span_emit_off", span_off ());
      ("sim_optrace_stamp_off", optrace_off ());
    ]
  in
  let budget_ns = int_of_float (budget_s *. 1e9) / (List.length ops + 3) in
  let timed = List.map (fun (name, f) -> (name, time_op ~budget_ns f)) ops in
  let flows = List.map (fun (n, v) -> ("pony_" ^ n, v)) (flow ~budget_ns:(3 * budget_ns)) in
  List.map
    (fun (name, v) -> { Harness.name = Printf.sprintf "micro.%s_ns" name; value = v; unit_ = "ns" })
    (timed @ flows)
