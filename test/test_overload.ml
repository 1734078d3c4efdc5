(* Tests for the overload-protection stack: admission control, the
   pressure state machine, retry arithmetic, crash-safe pool
   reclamation, advertised-window back-pressure at the flow layer, and
   the end-to-end overload acceptance workload. *)

module T = Sim.Time

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* -- Admission control ---------------------------------------------------- *)

let mk_admission ?(pool_bytes = 1 lsl 20) ?max_ops ?max_bytes
    ?rate_ops_per_sec ?burst_ops () =
  let pool = Memory.Pool.create ~name:"adm-test" ~capacity_bytes:pool_bytes in
  let adm =
    Overload.Admission.create ~pool ~owner:"client" ?max_ops ?max_bytes
      ?rate_ops_per_sec ?burst_ops ()
  in
  (pool, adm)

let admit adm ~now ~bytes = Overload.Admission.admit adm ~now ~bytes

(* The [overload_ops_admitted] counter the registry names for [owner]:
   the latest admission made for it. *)
let admitted_in_registry owner =
  match
    Stats.Registry.find ~labels:[ ("client", owner) ] "overload_ops_admitted"
  with
  | Some { Stats.Registry.m_kind = Stats.Registry.Counter c; _ } ->
      Stats.Counter.value c
  | _ -> Alcotest.fail "overload_ops_admitted not registered"

let test_admission_op_quota () =
  let _pool, adm = mk_admission ~max_ops:2 () in
  let charge v =
    match v with
    | Overload.Admission.Admitted c -> c
    | Rejected _ -> Alcotest.fail "unexpected rejection"
  in
  let c1 = charge (admit adm ~now:0 ~bytes:100) in
  let _c2 = charge (admit adm ~now:0 ~bytes:100) in
  (match admit adm ~now:0 ~bytes:100 with
  | Rejected Over_op_quota -> ()
  | _ -> Alcotest.fail "third op must exceed the op quota");
  check_int "two outstanding" 2 (Overload.Admission.outstanding_ops adm);
  check_int "rejection counted" 1 (Overload.Admission.rejected adm);
  (* Releasing one frees the slot. *)
  Overload.Admission.release adm c1;
  (match admit adm ~now:0 ~bytes:100 with
  | Admitted _ -> ()
  | Rejected _ -> Alcotest.fail "slot freed by release");
  check_int "admissions counted" 3 (admitted_in_registry "client")

let test_admission_byte_quota_charges_pool () =
  let pool, adm = mk_admission ~max_bytes:1000 () in
  (match admit adm ~now:0 ~bytes:800 with
  | Admitted (Some c) ->
      check_int "pool charged" 800 (Memory.Pool.in_use pool);
      (match admit adm ~now:0 ~bytes:300 with
      | Rejected Over_byte_quota -> ()
      | _ -> Alcotest.fail "byte quota must refuse the second op");
      Overload.Admission.release adm (Some c);
      check_int "pool refunded" 0 (Memory.Pool.in_use pool)
  | _ -> Alcotest.fail "first op must be admitted with a charge");
  (* Zero-byte ops are admitted without a pool charge. *)
  match admit adm ~now:0 ~bytes:0 with
  | Admitted None -> ()
  | _ -> Alcotest.fail "zero-byte op carries no charge"

let test_admission_pool_exhausted () =
  (* A tiny pool refuses before the byte quota does — and answers with
     a verdict, never an exception. *)
  let _pool, adm = mk_admission ~pool_bytes:500 ~max_bytes:10_000 () in
  match admit adm ~now:0 ~bytes:800 with
  | Rejected Pool_exhausted -> ()
  | _ -> Alcotest.fail "exhausted pool must reject, not raise"

let test_admission_rate_limit () =
  let _pool, adm = mk_admission ~rate_ops_per_sec:1000.0 ~burst_ops:2 () in
  let ok now = match admit adm ~now ~bytes:0 with
    | Overload.Admission.Admitted c -> Overload.Admission.release adm c; true
    | Rejected _ -> false
  in
  check_bool "burst 1" true (ok 0);
  check_bool "burst 2" true (ok 0);
  check_bool "bucket empty" false (ok 0);
  check_int "rate rejection counted" 1 (Overload.Admission.rejected adm);
  (* 1000 ops/s is one token per millisecond. *)
  check_bool "token refilled" true (ok (T.ms 1));
  check_bool "only one token refilled" false (ok (T.ms 1))

(* Two admissions for one owner on one pool: each counts only its own
   admits, and the registry key names the one made last, from the
   moment it is made. *)
let test_admission_counts_per_instance () =
  let pool = Memory.Pool.create ~name:"adm-test" ~capacity_bytes:(1 lsl 20) in
  let owner = "tenant" in
  let make () = Overload.Admission.create ~pool ~owner () in
  let admit_n adm n =
    for _ = 1 to n do
      match admit adm ~now:0 ~bytes:0 with
      | Overload.Admission.Admitted _ -> ()
      | Rejected _ -> Alcotest.fail "unexpected rejection"
    done
  in
  let first = make () in
  admit_n first 2;
  check_int "registry reads the first" 2 (admitted_in_registry owner);
  let second = make () in
  check_int "a second admission starts at zero" 0 (admitted_in_registry owner);
  admit_n second 3;
  admit_n first 1;
  check_int "second counts its own" 3 (admitted_in_registry owner);
  admit_n second 1;
  check_int "registry reads the second" 4 (admitted_in_registry owner)

(* -- Pressure state machine ----------------------------------------------- *)

let test_pressure_hysteresis () =
  let loop = Sim.Loop.create () in
  let p = Overload.Pressure.create ~loop ~name:"test-eng" () in
  let module P = Overload.Pressure in
  Alcotest.(check bool) "starts Nominal" true (P.level p = P.Nominal);
  check_bool "below enter stays Nominal" true
    (P.update p ~occupancy:0.45 = P.Nominal);
  check_bool "0.6 enters Pressured" true
    (P.update p ~occupancy:0.60 = P.Pressured);
  check_bool "0.4 holds Pressured (hysteresis)" true
    (P.update p ~occupancy:0.40 = P.Pressured);
  check_bool "0.85 enters Saturated" true
    (P.update p ~occupancy:0.85 = P.Saturated);
  check_bool "0.7 holds Saturated (hysteresis)" true
    (P.update p ~occupancy:0.70 = P.Saturated);
  check_bool "0.55 drops to Pressured" true
    (P.update p ~occupancy:0.55 = P.Pressured);
  check_bool "0.3 drops to Nominal" true
    (P.update p ~occupancy:0.30 = P.Nominal);
  check_int "four transitions" 4 (P.transitions p)

(* -- Retry arithmetic ----------------------------------------------------- *)

let test_retry_backoff () =
  let module R = Overload.Retry in
  let p =
    { R.max_attempts = 4; base_delay = T.us 50; multiplier = 2.0;
      max_delay = T.us 150; op_timeout = None }
  in
  check_int "attempt 1 has no delay" 0 (R.delay_before p ~attempt:1);
  check_int "attempt 2 waits base" (T.us 50) (R.delay_before p ~attempt:2);
  check_int "attempt 3 doubles" (T.us 100) (R.delay_before p ~attempt:3);
  check_int "attempt 4 capped" (T.us 150) (R.delay_before p ~attempt:4);
  check_bool "4 attempts allowed" false (R.attempts_exhausted p ~attempt:4);
  check_bool "5th exhausted" true (R.attempts_exhausted p ~attempt:5)

(* The exponential is computed in float space: at large attempt counts
   [base * multiplier^(attempt-2)] overflows any integer representation,
   and the old int-space clamp wrapped negative before comparing against
   the cap.  Every attempt number must yield a delay in [0, max_delay]. *)
let test_retry_backoff_overflow () =
  let module R = Overload.Retry in
  let p =
    { R.max_attempts = max_int; base_delay = T.us 50; multiplier = 2.0;
      max_delay = T.ms 5; op_timeout = None }
  in
  List.iter
    (fun attempt ->
      let d = R.delay_before p ~attempt in
      check_bool (Printf.sprintf "attempt %d non-negative" attempt) true (d >= 0);
      check_int (Printf.sprintf "attempt %d capped" attempt) (T.ms 5) d)
    [ 60; 200; 10_000; max_int ];
  (* Monotone up to the cap: each retry waits at least as long as the
     previous one. *)
  let prev = ref 0 in
  for attempt = 1 to 100 do
    let d = R.delay_before p ~attempt in
    check_bool (Printf.sprintf "attempt %d monotone" attempt) true (d >= !prev);
    prev := d
  done;
  (* A sub-unity multiplier decays toward zero without going negative. *)
  let decay = { p with R.multiplier = 0.5 } in
  List.iter
    (fun attempt ->
      let d = R.delay_before decay ~attempt in
      check_bool (Printf.sprintf "decay attempt %d in range" attempt) true
        (d >= 0 && d <= T.us 50))
    [ 2; 10; 1000; max_int ]

(* -- Crash-safe pool reclamation ------------------------------------------ *)

let test_pool_release_owner () =
  let p = Memory.Pool.create ~name:"reclaim" ~capacity_bytes:1000 in
  let a = Memory.Pool.alloc p ~owner:"eng0" ~bytes:300 in
  let b = Memory.Pool.alloc p ~owner:"eng0" ~bytes:200 in
  let c = Memory.Pool.alloc p ~owner:"eng1" ~bytes:100 in
  check_int "bulk reclaim returns eng0's bytes" 500
    (Memory.Pool.release_owner p ~owner:"eng0");
  check_int "eng1 untouched" 100 (Memory.Pool.in_use p);
  (* Stale frees from the dead owner's generation are no-ops... *)
  Memory.Pool.free a;
  Memory.Pool.free b;
  check_int "stale frees do not double-return" 100 (Memory.Pool.in_use p);
  (* ...but a fresh post-reclaim allocation frees normally. *)
  let a' = Memory.Pool.alloc p ~owner:"eng0" ~bytes:50 in
  Memory.Pool.free a';
  check_int "new generation frees count" 100 (Memory.Pool.in_use p);
  check_bool "quiesce still blocked by eng1" true
    (try Memory.Pool.assert_quiesced p; false with Failure msg ->
      (* The failure names the leaking owner. *)
      let rec has i =
        i + 4 <= String.length msg
        && (String.sub msg i 4 = "eng1" || has (i + 1))
      in
      has 0);
  Memory.Pool.free c;
  Memory.Pool.assert_quiesced p

(* -- Advertised-window back-pressure at the flow layer -------------------- *)

let mk_flow_pair () =
  let loop = Sim.Loop.create () in
  let k = { Pony.Wire.src_host = 0; src_engine = 0; dst_host = 1; dst_engine = 0 } in
  let a = Pony.Flow.create ~loop ~key:k ~max_rate_gbps:100.0 () in
  let b = Pony.Flow.create ~loop ~key:(Pony.Wire.reverse k) ~max_rate_gbps:100.0 () in
  (a, b)

let ck =
  {
    Pony.Wire.initiator_host = 0;
    initiator_client = 0;
    target_host = 1;
    target_client = 0;
    session = 0;
  }

let grant i = Pony.Wire.Credit_grant { conn = ck; bytes = i }

let test_window_caps_flight () =
  (* Once the peer advertises a 2-packet window, the sender keeps at
     most 2 in flight no matter how much is queued. *)
  let a, b = mk_flow_pair () in
  let gen = Memory.Packet.Id_gen.create () in
  Pony.Flow.set_window_provider b (fun () -> 2);
  for i = 1 to 6 do
    Pony.Flow.enqueue a (grant i) ~payload_bytes:0
  done;
  let now = ref 0 in
  let emit () =
    now := !now + 1_000;
    Pony.Flow.emit a ~now:!now ~gen
  in
  let deliver_and_ack p =
    ignore (Pony.Flow.on_receive b ~now:!now p);
    match Pony.Flow.make_ack b ~now:!now ~gen with
    | Some ack ->
        now := !now + 1_000;
        ignore (Pony.Flow.on_receive a ~now:!now ack)
    | None -> Alcotest.fail "expected ack"
  in
  (* First exchange teaches the sender the shrunken window. *)
  (match emit () with
  | Some p -> deliver_and_ack p
  | None -> Alcotest.fail "first emit");
  (* Now the sender may put exactly two more in flight, no third. *)
  let p2 = emit () and p3 = emit () in
  check_bool "two allowed" true (Option.is_some p2 && Option.is_some p3);
  check_int "flight at the advertised cap" 2 (Pony.Flow.in_flight a);
  check_bool "third blocked by the window" true (emit () = None);
  (* Acking one opens one slot. *)
  deliver_and_ack (Option.get p2);
  check_bool "slot reopened" true (Option.is_some (emit ()))

let test_zero_window_probe_reopens () =
  (* Quench the flow with a zero window, then let the probe reopen it:
     no data -> no acks -> no window update would otherwise livelock. *)
  let a, b = mk_flow_pair () in
  let gen = Memory.Packet.Id_gen.create () in
  let wnd = ref 0 in
  Pony.Flow.set_window_provider b (fun () -> !wnd);
  for i = 1 to 3 do
    Pony.Flow.enqueue a (grant i) ~payload_bytes:0
  done;
  let now = ref 1_000 in
  (* First packet goes out against the default full window; its ack
     carries wnd=0 and quenches the sender. *)
  (match Pony.Flow.emit a ~now:!now ~gen with
  | Some p ->
      ignore (Pony.Flow.on_receive b ~now:!now p);
      (match Pony.Flow.make_ack b ~now:!now ~gen with
      | Some ack -> ignore (Pony.Flow.on_receive a ~now:(!now + 1_000) ack)
      | None -> Alcotest.fail "expected ack")
  | None -> Alcotest.fail "first emit");
  now := !now + 2_000;
  check_bool "quenched: nothing emitted" true
    (Pony.Flow.emit a ~now:!now ~gen = None);
  check_int "data still waiting" 2 (Pony.Flow.pending a);
  (* The flow still asks for service at the probe time — an idle
     quenched flow must not fall off the timer wheel. *)
  check_bool "probe deadline armed" true
    (Pony.Flow.next_deadline a <> max_int);
  (* After the probe interval one probe goes out, even at window 0. *)
  now := !now + T.us 300;
  (match Pony.Flow.emit a ~now:!now ~gen with
  | Some p ->
      check_int "probe counted" 1 (Pony.Flow.zero_window_probes a);
      (* The receiver drained meanwhile: the probe's ack reopens. *)
      wnd := 8;
      ignore (Pony.Flow.on_receive b ~now:!now p);
      (match Pony.Flow.make_ack b ~now:!now ~gen with
      | Some ack -> ignore (Pony.Flow.on_receive a ~now:(!now + 1_000) ack)
      | None -> Alcotest.fail "expected probe ack")
  | None -> Alcotest.fail "probe must be allowed through a zero window");
  now := !now + 2_000;
  check_bool "flow resumed" true (Option.is_some (Pony.Flow.emit a ~now:!now ~gen));
  check_int "exactly one probe" 1 (Pony.Flow.zero_window_probes a)

let test_rto_retransmit_bypasses_zero_window () =
  (* Packets lost while the peer's window collapses to zero: the RTO's
     go-back-N retransmissions are exempt from the window check (their
     flight slots are already accounted), so recovery cannot livelock
     behind the closed window. *)
  let a, b = mk_flow_pair () in
  let gen = Memory.Packet.Id_gen.create () in
  Pony.Flow.set_window_provider b (fun () -> 0);
  for i = 1 to 3 do
    Pony.Flow.enqueue a (grant i) ~payload_bytes:0
  done;
  let now = ref 0 in
  let p1 =
    now := !now + 1_000;
    Option.get (Pony.Flow.emit a ~now:!now ~gen)
  in
  let _p2 =
    now := !now + 1_000;
    Option.get (Pony.Flow.emit a ~now:!now ~gen)
  in
  let _p3 =
    now := !now + 1_000;
    Option.get (Pony.Flow.emit a ~now:!now ~gen)
  in
  (* Only p1 arrives; its ack closes the window with 2 still lost. *)
  ignore (Pony.Flow.on_receive b ~now:!now p1);
  (match Pony.Flow.make_ack b ~now:!now ~gen with
  | Some ack -> ignore (Pony.Flow.on_receive a ~now:(!now + 1_000) ack)
  | None -> Alcotest.fail "expected ack");
  check_int "two lost in flight" 2 (Pony.Flow.in_flight a);
  (* RTO fires; the requeued packets transmit straight through. *)
  check_int "go-back-n requeued" 2 (Pony.Flow.check_timeout a ~now:(T.ms 5));
  now := T.ms 5;
  for _ = 1 to 2 do
    now := !now + 1_000;
    match Pony.Flow.emit a ~now:!now ~gen with
    | Some p -> ignore (Pony.Flow.on_receive b ~now:!now p)
    | None -> Alcotest.fail "retransmission must bypass the zero window"
  done;
  check_int "all delivered despite zero window" 3 (Pony.Flow.delivered b);
  check_int "retransmits counted" 2 (Pony.Flow.retransmits a)

(* -- End-to-end: overload acceptance workload ----------------------------- *)

module O = Workloads.Overload

let test_overload_saturation_regime () =
  (* Default config: aggressors at 4x capacity with tight quotas and a
     deliberately small op pool.  Every protection layer must engage and
     the victim must keep its goodput. *)
  let r = O.run O.default_config in
  check_int "no Exhausted escaped into apps" 0 r.O.exhausted_escapes;
  check_int "every offered op accounted" r.O.offered
    (r.O.agg_ok + r.O.agg_rejected + r.O.agg_timed_out);
  check_bool "admission rejected" true (r.O.quota_rejected > 0);
  check_bool "saturated engines shed at dequeue" true (r.O.ops_shed > 0);
  check_bool "pressure levels changed" true (r.O.pressure_transitions > 0);
  check_bool "zero-window probes sent" true (r.O.zero_window_probes > 0);
  (* The victim (isolated path, exclusive engine) is unharmed. *)
  check_int "victim completed everything" O.default_config.O.victim_ops
    r.O.victim_ok;
  check_int "victim never gave up" 0 r.O.victim_failed;
  let u = O.run { O.default_config with O.aggressors = 0 } in
  check_bool "victim goodput within 80% of uncontended" true
    (r.O.victim_goodput_gbps >= 0.8 *. u.O.victim_goodput_gbps);
  let p99 = Stats.Histogram.percentile r.O.victim_latencies 99.0 in
  let u99 = Stats.Histogram.percentile u.O.victim_latencies 99.0 in
  check_bool "victim p99 within 2x of uncontended" true
    (p99 <= 2 * max 1 u99)

let busy_regime_config =
  (* Generous quotas and pool with a slow consumer: messages reach the
     wire and pile into the destination's bounded incoming queue, so
     the Busy-NACK and deadline-expiry paths carry the overload. *)
  { O.default_config with
    O.aggressors = 2;
    aggressor_quota_ops = 4096;
    aggressor_quota_bytes = 32 lsl 20;
    aggressor_pool_bytes = 256 lsl 20;
    aggressor_bytes = 2048;
    server_service_time = T.us 50;
    aggressor_deadline = T.ms 5;
  }

let test_overload_busy_regime () =
  let r = O.run busy_regime_config in
  check_bool "receiver NACKed a full queue" true (r.O.busy_nacks > 0);
  check_int "every NACK surfaced as a Busy completion" r.O.busy_nacks
    r.O.agg_busy;
  check_bool "deadlines expired credit-starved ops" true (r.O.ops_expired > 0);
  check_int "every expiry surfaced as Timed_out" r.O.ops_expired
    r.O.agg_timed_out;
  check_int "no Exhausted escaped" 0 r.O.exhausted_escapes;
  check_int "every offered op accounted" r.O.offered
    (r.O.agg_ok + r.O.agg_rejected + r.O.agg_timed_out);
  check_int "victim completed everything" busy_regime_config.O.victim_ops
    r.O.victim_ok

let test_overload_deterministic () =
  (* Same seed, byte-identical fingerprint; different seed, (almost
     surely) different one.  Shortened run: determinism does not need
     the full 30 ms of load. *)
  let cfg =
    { O.default_config with
      O.stop_at = T.ms 10; run_cap = T.ms 40; victim_ops = 100 }
  in
  let r1 = O.run cfg in
  let r2 = O.run cfg in
  Alcotest.(check string)
    "same seed, same fingerprint" (O.fingerprint r1) (O.fingerprint r2);
  let r3 = O.run { cfg with O.aggressors = cfg.O.aggressors - 1 } in
  check_bool "config change perturbs the fingerprint" true
    (O.fingerprint r3 <> O.fingerprint r1)

let () =
  Alcotest.run "overload"
    [
      ( "admission",
        [
          Alcotest.test_case "op quota" `Quick test_admission_op_quota;
          Alcotest.test_case "byte quota charges the pool" `Quick
            test_admission_byte_quota_charges_pool;
          Alcotest.test_case "pool exhaustion rejects" `Quick
            test_admission_pool_exhausted;
          Alcotest.test_case "token-bucket rate limit" `Quick
            test_admission_rate_limit;
          Alcotest.test_case "counts per instance" `Quick
            test_admission_counts_per_instance;
        ] );
      ( "pressure",
        [ Alcotest.test_case "hysteresis" `Quick test_pressure_hysteresis ] );
      ( "retry",
        [
          Alcotest.test_case "backoff arithmetic" `Quick test_retry_backoff;
          Alcotest.test_case "backoff overflow clamp" `Quick
            test_retry_backoff_overflow;
        ] );
      ( "pool",
        [
          Alcotest.test_case "release_owner reclaim + stale frees" `Quick
            test_pool_release_owner;
        ] );
      ( "window",
        [
          Alcotest.test_case "advertised window caps flight" `Quick
            test_window_caps_flight;
          Alcotest.test_case "zero-window probe reopens" `Quick
            test_zero_window_probe_reopens;
          Alcotest.test_case "rto bypasses zero window" `Quick
            test_rto_retransmit_bypasses_zero_window;
        ] );
      ( "workload",
        [
          Alcotest.test_case "saturation regime" `Slow
            test_overload_saturation_regime;
          Alcotest.test_case "busy-nack regime" `Slow test_overload_busy_regime;
          Alcotest.test_case "deterministic fingerprint" `Slow
            test_overload_deterministic;
        ] );
    ]
