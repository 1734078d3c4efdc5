(* Tests for Pony Express: congestion control, reliable flows, and
   end-to-end messaging / one-sided operations. *)

module T = Sim.Time

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* -- Timely ------------------------------------------------------------- *)

(* The controller's rate in Gbps, read back through the pacer: a
   megabyte takes 8e6 / rate ns. *)
let rate cc = 8e6 /. float_of_int (Pony.Timely.pacing_gap cc 1_000_000)

let test_timely_increase_on_low_rtt () =
  let cc = Pony.Timely.create ~max_rate_gbps:100.0 () in
  let r0 = rate cc in
  for _ = 1 to 50 do
    Pony.Timely.on_rtt_sample cc (T.us 8)
  done;
  check_bool "rate grew" true (rate cc > r0);
  check_bool "clamped at max" true (rate cc <= 100.0)

let test_timely_decrease_on_high_rtt () =
  let cc = Pony.Timely.create ~max_rate_gbps:100.0 () in
  for _ = 1 to 20 do
    Pony.Timely.on_rtt_sample cc (T.us 8)
  done;
  let high = rate cc in
  for _ = 1 to 20 do
    Pony.Timely.on_rtt_sample cc (T.us 500)
  done;
  check_bool "rate fell" true (rate cc < high /. 2.0);
  check_bool "above min" true (rate cc >= 0.05)

let test_timely_gradient_response () =
  (* Rising RTT within [t_low, t_high] should reduce rate. *)
  let cc = Pony.Timely.create ~max_rate_gbps:100.0 () in
  for i = 1 to 30 do
    Pony.Timely.on_rtt_sample cc (T.us (30 + (3 * i)))
  done;
  let falling = rate cc in
  (* Falling RTT should then recover the rate. *)
  for i = 1 to 30 do
    Pony.Timely.on_rtt_sample cc (T.us (max 21 (120 - (3 * i))))
  done;
  check_bool "gradient recovery" true (rate cc > falling)

let test_timely_loss () =
  let cc = Pony.Timely.create ~max_rate_gbps:100.0 () in
  let r0 = rate cc in
  Pony.Timely.on_loss cc;
  Alcotest.(check (float 0.001)) "halved" (r0 /. 2.0) (rate cc)

(* The gradient is normalized by the smallest RTT seen: the same RTT
   moves over a lower floor are a steeper gradient and cut the rate
   more.  The two runs differ by a constant 10 us, and both floors are
   set by the second sample. *)
let test_timely_min_rtt_tracking () =
  let after samples =
    let cc = Pony.Timely.create ~max_rate_gbps:100.0 () in
    List.iter (fun us -> Pony.Timely.on_rtt_sample cc (T.us us)) samples;
    rate cc
  in
  check_bool "lower min rtt, larger cut" true
    (after [ 30; 20; 30; 35 ] < after [ 40; 30; 40; 45 ])

(* -- Wire --------------------------------------------------------------- *)

let test_wire_negotiate () =
  Alcotest.(check (option int)) "common" (Some 6) (Pony.Wire.negotiate [ 5; 6 ] [ 6; 7 ]);
  Alcotest.(check (option int)) "highest" (Some 7)
    (Pony.Wire.negotiate [ 5; 6; 7 ] [ 5; 6; 7 ]);
  Alcotest.(check (option int)) "none" None (Pony.Wire.negotiate [ 1 ] [ 2 ])

let test_wire_reverse () =
  let k = { Pony.Wire.src_host = 1; src_engine = 2; dst_host = 3; dst_engine = 4 } in
  let r = Pony.Wire.reverse k in
  check_int "src" 3 r.Pony.Wire.src_host;
  check_int "dst" 1 r.Pony.Wire.dst_host;
  check_bool "involution" true (Pony.Wire.reverse r = k)

(* -- Flow (driven manually, no engines) --------------------------------- *)

let mk_flow_pair () =
  let loop = Sim.Loop.create () in
  let k = { Pony.Wire.src_host = 0; src_engine = 0; dst_host = 1; dst_engine = 0 } in
  let a = Pony.Flow.create ~loop ~key:k ~max_rate_gbps:100.0 () in
  let b = Pony.Flow.create ~loop ~key:(Pony.Wire.reverse k) ~max_rate_gbps:100.0 () in
  (loop, a, b)

let test_flow_delivers_items () =
  let loop, a, b = mk_flow_pair () in
  let gen = Memory.Packet.Id_gen.create () in
  for _ = 1 to 5 do
    Pony.Flow.enqueue a Pony.Wire.Bare_ack ~payload_bytes:100
  done;
  (* Bare_ack is not delivered; use a credit grant as a visible item. *)
  let ck =
    { Pony.Wire.initiator_host = 0; initiator_client = 0; target_host = 1; target_client = 0; session = 0 }
  in
  for i = 1 to 5 do
    Pony.Flow.enqueue a (Pony.Wire.Credit_grant { conn = ck; bytes = i }) ~payload_bytes:0
  done;
  let delivered = ref [] in
  let now = ref 0 in
  (* Pump: emit from a, receive at b. *)
  let rec pump guard =
    if guard > 0 then begin
      now := !now + 1_000;
      match Pony.Flow.emit a ~now:!now ~gen with
      | Some pkt -> (
          match Pony.Flow.on_receive b ~now:!now pkt with
          | Some (Pony.Wire.Credit_grant { bytes; _ }) ->
              delivered := bytes :: !delivered;
              pump (guard - 1)
          | _ -> pump (guard - 1))
      | None -> pump (guard - 1)
    end
  in
  pump 100;
  ignore loop;
  Alcotest.(check (list int)) "in order, exactly once" [ 1; 2; 3; 4; 5 ]
    (List.rev !delivered)

let test_flow_dedup_on_retransmit () =
  let _loop, a, b = mk_flow_pair () in
  let gen = Memory.Packet.Id_gen.create () in
  let ck =
    { Pony.Wire.initiator_host = 0; initiator_client = 0; target_host = 1; target_client = 0; session = 0 }
  in
  Pony.Flow.enqueue a (Pony.Wire.Credit_grant { conn = ck; bytes = 42 }) ~payload_bytes:0;
  let pkt =
    match Pony.Flow.emit a ~now:1000 ~gen with Some p -> p | None -> Alcotest.fail "emit"
  in
  (* Deliver the same packet twice: only the first yields the item. *)
  let first = Pony.Flow.on_receive b ~now:2000 pkt in
  let second = Pony.Flow.on_receive b ~now:3000 pkt in
  check_bool "first delivered" true (Option.is_some first);
  check_bool "duplicate suppressed" true (Option.is_none second);
  check_int "delivered count" 1 (Pony.Flow.delivered b)

let test_flow_retransmit_on_timeout () =
  let _loop, a, _b = mk_flow_pair () in
  let gen = Memory.Packet.Id_gen.create () in
  let ck =
    { Pony.Wire.initiator_host = 0; initiator_client = 0; target_host = 1; target_client = 0; session = 0 }
  in
  Pony.Flow.enqueue a (Pony.Wire.Credit_grant { conn = ck; bytes = 1 }) ~payload_bytes:0;
  ignore (Pony.Flow.emit a ~now:1000 ~gen);
  check_int "in flight" 1 (Pony.Flow.in_flight a);
  (* No ack arrives; the timeout must requeue it. *)
  let requeued = Pony.Flow.check_timeout a ~now:(T.ms 1) in
  check_int "requeued" 1 requeued;
  check_bool "ready to re-emit" true (Pony.Flow.ready_to_emit a ~now:(T.ms 1));
  let again = Pony.Flow.emit a ~now:(T.ms 1) ~gen in
  check_bool "retransmitted" true (Option.is_some again);
  check_int "retx counted" 1 (Pony.Flow.retransmits a)

let test_flow_ack_clears_flight () =
  let _loop, a, b = mk_flow_pair () in
  let gen = Memory.Packet.Id_gen.create () in
  let ck =
    { Pony.Wire.initiator_host = 0; initiator_client = 0; target_host = 1; target_client = 0; session = 0 }
  in
  Pony.Flow.enqueue a (Pony.Wire.Credit_grant { conn = ck; bytes = 1 }) ~payload_bytes:0;
  let pkt = Option.get (Pony.Flow.emit a ~now:1000 ~gen) in
  ignore (Pony.Flow.on_receive b ~now:2000 pkt);
  check_bool "b owes ack" true (Pony.Flow.ack_owed b);
  let ack = Option.get (Pony.Flow.make_ack b ~now:2500 ~gen) in
  ignore (Pony.Flow.on_receive a ~now:3000 ack);
  check_int "flight cleared" 0 (Pony.Flow.in_flight a)

let test_flow_pacing_spaces_packets () =
  let _loop, a, _b = mk_flow_pair () in
  let gen = Memory.Packet.Id_gen.create () in
  let ck =
    { Pony.Wire.initiator_host = 0; initiator_client = 0; target_host = 1; target_client = 0; session = 0 }
  in
  (* Two 5000-byte items at 100 Gbps (Timely starts at half = 100 of 200
     cap... rate is max_rate/2 = 50 Gbps): second release gated. *)
  Pony.Flow.enqueue a (Pony.Wire.Credit_grant { conn = ck; bytes = 1 }) ~payload_bytes:4000;
  Pony.Flow.enqueue a (Pony.Wire.Credit_grant { conn = ck; bytes = 2 }) ~payload_bytes:4000;
  check_bool "first ready" true (Pony.Flow.ready_to_emit a ~now:0);
  ignore (Pony.Flow.emit a ~now:0 ~gen);
  check_bool "second paced" false (Pony.Flow.ready_to_emit a ~now:10);
  (match Pony.Flow.next_deadline a with
  | d when d = max_int -> Alcotest.fail "expected pacing deadline"
  | d -> check_bool "release in future" true (d > 10));
  check_bool "ready after release" true (Pony.Flow.ready_to_emit a ~now:(T.us 10))

(* A flow registers no metric of its own: every flow of an engine
   records its RTT samples into that engine's one [pony_flow_rtt_ns],
   labelled with the engine's name, and no flight histogram exists.
   Engine 0 of host 0 runs flows to two peers.  Each data packet's ack
   carries one RTT sample back, 3 on the first flow and 5 on the
   second; the peers send only acks, so they take none. *)
let test_flow_rtt_histogram_per_engine () =
  Stats.Registry.clear ();
  Fun.protect ~finally:Stats.Registry.clear @@ fun () ->
  let loop = Sim.Loop.create () in
  let gen = Memory.Packet.Id_gen.create () in
  let ck =
    { Pony.Wire.initiator_host = 0; initiator_client = 0; target_host = 1; target_client = 0; session = 0 }
  in
  let now = ref 0 in
  let rounds ~dst_host n =
    let k = { Pony.Wire.src_host = 0; src_engine = 0; dst_host; dst_engine = 0 } in
    let a = Pony.Flow.create ~loop ~key:k ~max_rate_gbps:100.0 () in
    let b = Pony.Flow.create ~loop ~key:(Pony.Wire.reverse k) ~max_rate_gbps:100.0 () in
    for i = 1 to n do
      Pony.Flow.enqueue a (Pony.Wire.Credit_grant { conn = ck; bytes = i }) ~payload_bytes:0;
      now := !now + T.us 10;
      let pkt = Option.get (Pony.Flow.emit a ~now:!now ~gen) in
      now := !now + T.us 1;
      ignore (Pony.Flow.on_receive b ~now:!now pkt);
      let ack = Option.get (Pony.Flow.make_ack b ~now:!now ~gen) in
      now := !now + T.us 1;
      ignore (Pony.Flow.on_receive a ~now:!now ack)
    done
  in
  rounds ~dst_host:1 3;
  rounds ~dst_host:2 5;
  let named n = List.filter (fun m -> m.Stats.Registry.m_name = n) (Stats.Registry.snapshot ()) in
  let count labels =
    match Stats.Registry.find ~labels "pony_flow_rtt_ns" with
    | Some { Stats.Registry.m_kind = Stats.Registry.Histogram h; _ } ->
        Stats.Histogram.count h
    | _ -> Alcotest.fail "no engine RTT histogram"
  in
  Alcotest.(check (list (list (pair string string))))
    "one RTT histogram per engine, labelled with its name"
    [ [ ("engine", "pony0@0") ]; [ ("engine", "pony0@1") ]; [ ("engine", "pony0@2") ] ]
    (List.map (fun m -> m.Stats.Registry.m_labels) (named "pony_flow_rtt_ns"));
  check_int "engine 0 holds both flows' samples" (3 + 5)
    (count [ ("engine", Pony.Flow.engine_name ~host:0 ~engine:0) ]);
  check_int "the peers took none" 0
    (count [ ("engine", "pony0@1") ] + count [ ("engine", "pony0@2") ]);
  check_int "no flight histogram" 0 (List.length (named "pony_flow_flight"))

(* -- End-to-end Pony ----------------------------------------------------- *)

type host = {
  m : Cpu.Sched.machine;
  nic : Nic.t;
  pony : Pony.Express.t;
  ctl : Control.t;
}

let mk_cluster ?(hosts = 2) ?(cores = 10) ?(mtu = 5000) ?(engines = 1)
    ?(use_copy_engine = false) ?(mode = fun _ -> Engine.Dedicating { cores = 2 }) () =
  let loop = Sim.Loop.create () in
  let fab = Fabric.create ~loop ~config:Fabric.default_config ~hosts in
  let dir = Pony.Express.Directory.create () in
  let mk addr =
    let m =
      Cpu.Sched.create_machine ~loop ~name:(Printf.sprintf "m%d" addr) ~cores
    in
    let nic =
      Nic.create ~loop ~machine:m ~fabric:fab ~addr
        { Nic.default_config with Nic.mtu }
    in
    let ctl = Control.create ~loop ~name:(Printf.sprintf "snap%d" addr) in
    let group = Engine.create_group ~machine:m ~name:"pony" ~mode:(mode addr) in
    let pony =
      Pony.Express.create ~directory:dir ~control:ctl ~machine:m ~nic ~group ~engines
        ~use_copy_engine ()
    in
    { m; nic; pony; ctl }
  in
  (loop, List.init hosts mk)

let spawn ?(spin = false) h name body =
  ignore
    (Cpu.Thread.spawn h.m ~name ~account:"app"
       ~klass:(Cpu.Sched.Cfs { nice = 0 })
       ~idle:(if spin then Cpu.Sched.Spin else Cpu.Sched.Block)
       body)

let test_pony_two_sided_message () =
  let loop, hosts = mk_cluster () in
  let a = List.nth hosts 0 and b = List.nth hosts 1 in
  let got = ref None in
  let send_comp = ref None in
  spawn b "server" (fun ctx ->
      let c = Pony.Express.create_client ctx b.pony ~name:"server" () in
      let m = Pony.Express.await_message ctx c in
      got := Some m.Pony.Express.msg_bytes);
  spawn a "client" (fun ctx ->
      let c = Pony.Express.create_client ctx a.pony ~name:"client" () in
      (* Give the server time to come up. *)
      Cpu.Thread.sleep ctx (T.us 200);
      let conn = Pony.Express.connect ctx c ~dst_host:1 ~dst_client:0 in
      ignore (Pony.Express.send_message ctx conn ~bytes:1_000_000 ());
      let comp = Pony.Express.await_completion ctx c in
      send_comp := Some comp);
  Sim.Loop.run ~until:(T.ms 50) loop;
  (match !got with
  | Some bytes -> check_int "message size" 1_000_000 bytes
  | None -> Alcotest.fail "message not delivered");
  match !send_comp with
  | Some comp -> check_bool "send completed ok" true (comp.Pony.Express.status = Pony.Wire.Ok)
  | None -> Alcotest.fail "send completion missing"

let test_pony_ping_pong_latency () =
  let loop, hosts = mk_cluster () in
  let a = List.nth hosts 0 and b = List.nth hosts 1 in
  let rtts = ref [] in
  spawn ~spin:true b "server" (fun ctx ->
      let c = Pony.Express.create_client ctx b.pony ~name:"server" () in
      for _ = 1 to 30 do
        let m = Pony.Express.await_message ctx c in
        ignore (Pony.Express.send_message ctx m.Pony.Express.msg_conn ~bytes:64 ())
      done);
  spawn ~spin:true a "client" (fun ctx ->
      let c = Pony.Express.create_client ctx a.pony ~name:"client" () in
      Cpu.Thread.sleep ctx (T.us 500);
      let conn = Pony.Express.connect ctx c ~dst_host:1 ~dst_client:0 in
      for _ = 1 to 30 do
        let t0 = Cpu.Thread.now ctx in
        ignore (Pony.Express.send_message ctx conn ~bytes:64 ());
        let _m = Pony.Express.await_message ctx c in
        rtts := (Cpu.Thread.now ctx - t0) :: !rtts
      done);
  Sim.Loop.run ~until:(T.ms 100) loop;
  check_int "30 rtts" 30 (List.length !rtts);
  let avg = List.fold_left ( + ) 0 !rtts / List.length !rtts in
  (* Figure 6(a): spinning client two-sided should be order-10us. *)
  check_bool (Printf.sprintf "rtt plausible (%dns)" avg) true
    (avg > T.us 4 && avg < T.us 25)

let test_pony_one_sided_read_correct () =
  let loop, hosts = mk_cluster () in
  let a = List.nth hosts 0 and b = List.nth hosts 1 in
  let region = Memory.Region.create ~id:7 ~size:65536 ~owner:"server" () in
  Memory.Region.write_int64 region 4096 0xDEADBEEFL;
  let result = ref None in
  spawn b "server" (fun ctx ->
      let c = Pony.Express.create_client ctx b.pony ~name:"server" () in
      Pony.Express.register_region ctx c region;
      (* One-sided: the server thread does nothing else. *)
      Cpu.Thread.sleep ctx (T.ms 40));
  spawn a "client" (fun ctx ->
      let c = Pony.Express.create_client ctx a.pony ~name:"client" () in
      Cpu.Thread.sleep ctx (T.us 500);
      let conn = Pony.Express.connect ctx c ~dst_host:1 ~dst_client:0 in
      ignore (Pony.Express.one_sided_read ctx conn ~region:7 ~off:4096 ~len:4096);
      result := Some (Pony.Express.await_completion ctx c));
  Sim.Loop.run ~until:(T.ms 50) loop;
  match !result with
  | Some comp ->
      check_bool "status ok" true (comp.Pony.Express.status = Pony.Wire.Ok);
      check_int "bytes" 4096 comp.Pony.Express.bytes;
      Alcotest.(check (option int64)) "value read remotely" (Some 0xDEADBEEFL)
        comp.Pony.Express.value;
      check_int "server engine served it" 1 (Pony.Express.one_sided_served b.pony)
  | None -> Alcotest.fail "no completion"

let test_pony_one_sided_errors () =
  let loop, hosts = mk_cluster () in
  let a = List.nth hosts 0 and b = List.nth hosts 1 in
  let region = Memory.Region.create ~id:1 ~size:1024 ~owner:"server" () in
  let comps = ref [] in
  spawn b "server" (fun ctx ->
      let c = Pony.Express.create_client ctx b.pony ~name:"server" () in
      Pony.Express.register_region ctx c region;
      Cpu.Thread.sleep ctx (T.ms 40));
  spawn a "client" (fun ctx ->
      let c = Pony.Express.create_client ctx a.pony ~name:"client" () in
      Cpu.Thread.sleep ctx (T.us 500);
      let conn = Pony.Express.connect ctx c ~dst_host:1 ~dst_client:0 in
      ignore (Pony.Express.one_sided_read ctx conn ~region:99 ~off:0 ~len:8);
      comps := Pony.Express.await_completion ctx c :: !comps;
      ignore (Pony.Express.one_sided_read ctx conn ~region:1 ~off:1000 ~len:100);
      comps := Pony.Express.await_completion ctx c :: !comps);
  Sim.Loop.run ~until:(T.ms 50) loop;
  match List.rev !comps with
  | [ c1; c2 ] ->
      check_bool "bad region" true (c1.Pony.Express.status = Pony.Wire.Bad_region);
      check_bool "bad range" true (c2.Pony.Express.status = Pony.Wire.Bad_range)
  | _ -> Alcotest.fail "expected two completions"

let test_pony_indirect_read () =
  let loop, hosts = mk_cluster () in
  let a = List.nth hosts 0 and b = List.nth hosts 1 in
  let table = Memory.Region.create ~id:1 ~size:4096 ~owner:"server" () in
  let data = Memory.Region.create ~id:2 ~size:65536 ~owner:"server" () in
  (* table[3] points at offset 512 where the value lives. *)
  Memory.Region.write_int64 table (8 * 3) 512L;
  Memory.Region.write_int64 data 512 0xCAFEL;
  let result = ref None in
  spawn b "server" (fun ctx ->
      let c = Pony.Express.create_client ctx b.pony ~name:"server" () in
      Pony.Express.register_region ctx c table;
      Pony.Express.register_region ctx c data;
      Cpu.Thread.sleep ctx (T.ms 40));
  spawn a "client" (fun ctx ->
      let c = Pony.Express.create_client ctx a.pony ~name:"client" () in
      Cpu.Thread.sleep ctx (T.us 500);
      let conn = Pony.Express.connect ctx c ~dst_host:1 ~dst_client:0 in
      ignore
        (Pony.Express.indirect_read ctx conn ~table_region:1 ~data_region:2
           ~indices:[ 3; 3; 3; 3; 3; 3; 3; 3 ] ~len:128);
      result := Some (Pony.Express.await_completion ctx c));
  Sim.Loop.run ~until:(T.ms 50) loop;
  match !result with
  | Some comp ->
      check_bool "ok" true (comp.Pony.Express.status = Pony.Wire.Ok);
      check_int "batched bytes (8 x 128)" 1024 comp.Pony.Express.bytes;
      Alcotest.(check (option int64)) "value" (Some 0xCAFEL) comp.Pony.Express.value
  | None -> Alcotest.fail "no completion"

let test_pony_scan_read () =
  let loop, hosts = mk_cluster () in
  let a = List.nth hosts 0 and b = List.nth hosts 1 in
  let region = Memory.Region.create ~id:5 ~size:8192 ~owner:"server" () in
  (* Entry 10: needle 777 -> pointer 2048; value there is 31337. *)
  Memory.Region.write_int64 region (16 * 10) 777L;
  Memory.Region.write_int64 region ((16 * 10) + 8) 2048L;
  Memory.Region.write_int64 region 2048 31337L;
  let results = ref [] in
  spawn b "server" (fun ctx ->
      let c = Pony.Express.create_client ctx b.pony ~name:"server" () in
      Pony.Express.register_region ctx c region;
      Cpu.Thread.sleep ctx (T.ms 40));
  spawn a "client" (fun ctx ->
      let c = Pony.Express.create_client ctx a.pony ~name:"client" () in
      Cpu.Thread.sleep ctx (T.us 500);
      let conn = Pony.Express.connect ctx c ~dst_host:1 ~dst_client:0 in
      ignore (Pony.Express.scan_read ctx conn ~region:5 ~scan_limit:1024 ~needle:777L ~len:64);
      results := Pony.Express.await_completion ctx c :: !results;
      ignore (Pony.Express.scan_read ctx conn ~region:5 ~scan_limit:1024 ~needle:999L ~len:64);
      results := Pony.Express.await_completion ctx c :: !results);
  Sim.Loop.run ~until:(T.ms 50) loop;
  match List.rev !results with
  | [ hit; miss ] ->
      check_bool "hit" true (hit.Pony.Express.status = Pony.Wire.Ok);
      Alcotest.(check (option int64)) "value at pointer" (Some 31337L) hit.Pony.Express.value;
      check_bool "miss" true (miss.Pony.Express.status = Pony.Wire.No_match)
  | _ -> Alcotest.fail "expected two completions"

let test_pony_streaming_throughput () =
  (* Dedicated spinning engines, 5000B MTU: expect tens of Gbps
     (Table 1 ballpark). *)
  let loop, hosts = mk_cluster () in
  let a = List.nth hosts 0 and b = List.nth hosts 1 in
  let total = 256 * 1024 * 1024 in
  let received = ref 0 in
  let finish = ref 0 in
  spawn ~spin:true b "server" (fun ctx ->
      let c = Pony.Express.create_client ctx b.pony ~name:"server" () in
      while !received < total do
        let m = Pony.Express.await_message ctx c in
        received := !received + m.Pony.Express.msg_bytes
      done;
      finish := Cpu.Thread.now ctx);
  spawn ~spin:true a "client" (fun ctx ->
      let c = Pony.Express.create_client ctx a.pony ~name:"client" () in
      Cpu.Thread.sleep ctx (T.us 500);
      let conn = Pony.Express.connect ctx c ~dst_host:1 ~dst_client:0 in
      let sent = ref 0 and inflight = ref 0 in
      while !sent < total do
        ignore (Pony.Express.send_message ctx conn ~bytes:65536 ());
        sent := !sent + 65536;
        incr inflight;
        (* Bound outstanding sends by reaping completions. *)
        if !inflight > 8 then begin
          ignore (Pony.Express.await_completion ctx c);
          decr inflight
        end
      done);
  Sim.Loop.run ~until:(T.ms 200) loop;
  check_int "all delivered" total !received;
  let gbps = float_of_int total *. 8.0 /. float_of_int !finish in
  check_bool (Printf.sprintf "throughput plausible (%.1f Gbps)" gbps) true
    (gbps > 25.0 && gbps < 95.0)

let test_pony_flow_stats_and_credit () =
  let loop, hosts = mk_cluster () in
  let a = List.nth hosts 0 and b = List.nth hosts 1 in
  let got = ref 0 in
  spawn b "server" (fun ctx ->
      let c = Pony.Express.create_client ctx b.pony ~name:"server" () in
      (* 3 MB in 1 MB messages exceeds the 1 MB initial credit, forcing
         the credit machinery to cycle. *)
      for _ = 1 to 3 do
        let m = Pony.Express.await_message ctx c in
        got := !got + m.Pony.Express.msg_bytes
      done);
  spawn a "client" (fun ctx ->
      let c = Pony.Express.create_client ctx a.pony ~name:"client" () in
      Cpu.Thread.sleep ctx (T.us 500);
      let conn = Pony.Express.connect ctx c ~dst_host:1 ~dst_client:0 in
      for _ = 1 to 3 do
        ignore (Pony.Express.send_message ctx conn ~bytes:1_000_000 ())
      done;
      for _ = 1 to 3 do
        ignore (Pony.Express.await_completion ctx c)
      done);
  Sim.Loop.run ~until:(T.ms 100) loop;
  check_int "3MB delivered despite 1MB credit" 3_000_000 !got;
  let stats = Pony.Express.flow_stats a.pony in
  check_bool "flow stats visible" true (List.length stats >= 1);
  let delivered = List.fold_left (fun acc (_, d, _) -> acc + d) 0 stats in
  check_bool "packets delivered on reverse flow" true (delivered > 0)

(* Two clients may hold many conns at once, as two processes may hold
   many sockets: a connect leaves its siblings between the same client
   pair alive and usable. *)
let test_pony_sibling_conns () =
  let loop, hosts = mk_cluster () in
  let a = List.nth hosts 0 and b = List.nth hosts 1 in
  let n = 200 in
  let got = ref 0 in
  let statuses = ref [] in
  let conns = ref [||] in
  spawn b "server" (fun ctx ->
      let c = Pony.Express.create_client ctx b.pony ~name:"server" () in
      while true do
        ignore (Pony.Express.await_message ctx c);
        incr got
      done);
  spawn a "client" (fun ctx ->
      let c = Pony.Express.create_client ctx a.pony ~name:"client" () in
      Cpu.Thread.sleep ctx (T.us 500);
      conns :=
        Array.init n (fun _ ->
            Pony.Express.connect ctx c ~dst_host:1 ~dst_client:0);
      Array.iter
        (fun conn -> ignore (Pony.Express.send_message ctx conn ~bytes:4096 ()))
        !conns;
      for _ = 1 to n do
        let comp = Pony.Express.await_completion ctx c in
        statuses := comp.Pony.Express.status :: !statuses
      done);
  Sim.Loop.run ~until:(T.ms 50) loop;
  check_int "every send completed" n (List.length !statuses);
  check_int "every send Ok" n
    (List.length (List.filter (fun s -> s = Pony.Wire.Ok) !statuses));
  check_int "every message delivered" n !got;
  check_int "every conn Established" n
    (Array.fold_left
       (fun k conn ->
         if Pony.Express.conn_state conn = Pony.Express.Established then k + 1
         else k)
       0 !conns);
  check_int "no peer deaths" 0
    (Pony.Express.peer_deaths a.pony + Pony.Express.peer_deaths b.pony)

(* An engine finds a conn half from an item's key through an index that
   doubles as it fills.  Four clients each dial 1,000 conns to two
   servers, so each host's one engine holds 4,000 halves and its index
   has grown from one slot through thirteen doublings.  Each conn
   carries one message on a stream of its own, which the server echoes
   on the conn it arrived on: every message must reach the server its
   conn was dialed to exactly once, and every echo must come back once,
   on the conn that sent it. *)
let test_pony_conn_routing_at_scale () =
  let loop, hosts = mk_cluster () in
  let a = List.nth hosts 0 and b = List.nth hosts 1 in
  let clients = 4 and per_client = 1000 and servers = 2 in
  let n = clients * per_client in
  let received = Array.make n 0 and echoed = Array.make n 0 in
  let wrong_server = ref 0 and wrong_conn = ref 0 in
  for s = 0 to servers - 1 do
    let name = Printf.sprintf "server%d" s in
    spawn b name (fun ctx ->
        let c = Pony.Express.create_client ctx b.pony ~name () in
        while true do
          let m = Pony.Express.await_message ctx c in
          let stream = m.Pony.Express.stream in
          received.(stream) <- received.(stream) + 1;
          if stream mod servers <> s then incr wrong_server;
          ignore
            (Pony.Express.send_message ctx m.Pony.Express.msg_conn ~stream
               ~bytes:64 ())
        done)
  done;
  for k = 0 to clients - 1 do
    spawn a (Printf.sprintf "client%d" k) (fun ctx ->
        let c =
          Pony.Express.create_client ctx a.pony ~name:(Printf.sprintf "client%d" k) ()
        in
        Cpu.Thread.sleep ctx (T.us 500);
        let first = k * per_client in
        let conns =
          Array.init per_client (fun j ->
              Pony.Express.connect_by_name ctx c ~dst_host:1
                ~dst_name:(Printf.sprintf "server%d" ((first + j) mod servers)))
        in
        Array.iteri
          (fun j conn ->
            ignore
              (Pony.Express.send_message ctx conn ~stream:(first + j) ~bytes:64 ()))
          conns;
        for _ = 1 to per_client do
          let m = Pony.Express.await_message ctx c in
          let stream = m.Pony.Express.stream in
          echoed.(stream) <- echoed.(stream) + 1;
          let j = stream - first in
          if j < 0 || j >= per_client || m.Pony.Express.msg_conn != conns.(j) then
            incr wrong_conn
        done)
  done;
  Sim.Loop.run ~until:(T.ms 200) loop;
  check_int "conns established on both hosts" (2 * n)
    (Pony.Express.conns_established a.pony + Pony.Express.conns_established b.pony);
  check_int "every message arrived exactly once" n
    (Array.fold_left (fun k r -> if r = 1 then k + 1 else k) 0 received);
  check_int "at the server its conn was dialed to" 0 !wrong_server;
  check_int "every echo came back exactly once" n
    (Array.fold_left (fun k r -> if r = 1 then k + 1 else k) 0 echoed);
  check_int "on the conn that sent it" 0 !wrong_conn;
  check_int "no resets" 0
    (Pony.Express.conn_resets_sent a.pony + Pony.Express.conn_resets_sent b.pony)

(* With the copy engine, a message reaches its app when the copy lands,
   outside any engine pass, so the app notification is charged to the
   receiving host's softirq account: at least [thread_notify] per
   message. *)
let test_pony_copy_engine_notify_charged () =
  let loop, hosts = mk_cluster ~use_copy_engine:true () in
  let a = List.nth hosts 0 and b = List.nth hosts 1 in
  let n = 50 in
  let got = ref 0 in
  spawn b "server" (fun ctx ->
      let c = Pony.Express.create_client ctx b.pony ~name:"server" () in
      while true do
        ignore (Pony.Express.await_message ctx c);
        incr got
      done);
  spawn a "client" (fun ctx ->
      let c = Pony.Express.create_client ctx a.pony ~name:"client" () in
      Cpu.Thread.sleep ctx (T.us 500);
      let conn = Pony.Express.connect ctx c ~dst_host:1 ~dst_client:0 in
      for _ = 1 to n do
        ignore (Pony.Express.send_message ctx conn ~bytes:4096 ())
      done);
  Sim.Loop.run ~until:(T.ms 20) loop;
  check_int "every message delivered" n !got;
  let softirq = Cpu.Sched.account_busy_ns b.m "softirq" in
  let floor = n * Sim.Costs.default.Sim.Costs.thread_notify in
  check_bool
    (Printf.sprintf "softirq %d ns covers %d notifications (%d ns)" softirq n floor)
    true (softirq >= floor)

(* The per-packet path's allocation budget.  One client streams 64 KiB
   messages between two hosts with one dedicated engine each (MTU 5000);
   over a steady window, minor-heap words per packet sent by either NIC
   must stay under [words_per_packet_budget].  The packet and its Pony
   header are 22 words; the rest is parked-packet options, ring and
   queue cells, the engine pass and the app's own per-op work spread
   over its packets.  The budget is about 1.6x the 68 words measured on
   OCaml 5.1.1, so a compiler release that allocates a little
   differently passes.  With a closure per loop event and per engine
   walk, as the path was once built, it measured about 360. *)
let words_per_packet_budget = 110.0

let test_pony_packet_alloc_budget () =
  let loop, hosts = mk_cluster ~mode:(fun _ -> Engine.Dedicating { cores = 1 }) () in
  let a = List.nth hosts 0 and b = List.nth hosts 1 in
  spawn b "server" (fun ctx ->
      let c = Pony.Express.create_client ctx b.pony ~name:"server" () in
      while true do
        ignore (Pony.Express.await_message ctx c)
      done);
  spawn a "client" (fun ctx ->
      let c = Pony.Express.create_client ctx a.pony ~name:"client" () in
      Cpu.Thread.sleep ctx (T.us 500);
      let conn = Pony.Express.connect ctx c ~dst_host:1 ~dst_client:0 in
      let inflight = ref 0 in
      while true do
        ignore (Pony.Express.send_message ctx conn ~bytes:65536 ());
        incr inflight;
        if !inflight > 8 then begin
          ignore (Pony.Express.await_completion ctx c);
          decr inflight
        end
      done);
  let packets () = Nic.tx_count a.nic + Nic.tx_count b.nic in
  Sim.Loop.run ~until:(T.ms 2) loop;
  let words0 = Gc.minor_words () and packets0 = packets () in
  Sim.Loop.run ~until:(T.ms 6) loop;
  let words = Gc.minor_words () -. words0 and n = packets () - packets0 in
  check_bool (Printf.sprintf "steady window carries traffic (%d packets)" n) true
    (n > 5_000);
  let per_packet = words /. float_of_int n in
  check_bool
    (Printf.sprintf "%.1f minor words per packet, budget %.0f" per_packet
       words_per_packet_budget)
    true
    (per_packet < words_per_packet_budget)

(* Conn state budget: a host holds 100k conn halves, so each one's heap
   cost is bounded.  After one warm-up conn (which creates the flows and
   the clients' tables), 20,000 more conns between one client pair must
   add at most [conn_words_budget] live major-heap words each, both
   halves together.  The conns stay reachable through the engines'
   arenas only; the app keeps no reference.  Optrace capture is one
   more input: the case runs with it off and on, and a half keeps no
   tracing state of its own, so both measure the same. *)
let conn_words_budget = 40.0

let conn_state_words ~capture =
  Sim.Optrace.set_capture capture;
  Fun.protect ~finally:(fun () -> Sim.Optrace.set_capture None) @@ fun () ->
  let label = if capture = None then "capture off" else "capture on" in
  let loop, hosts = mk_cluster () in
  let a = List.nth hosts 0 and b = List.nth hosts 1 in
  let n = 20_000 in
  let dialed = ref 0 in
  let go = ref false in
  spawn b "server" (fun ctx ->
      ignore (Pony.Express.create_client ctx b.pony ~name:"server" ()));
  spawn a "client" (fun ctx ->
      let c = Pony.Express.create_client ctx a.pony ~name:"client" () in
      Cpu.Thread.sleep ctx (T.us 500);
      ignore (Pony.Express.connect ctx c ~dst_host:1 ~dst_client:0);
      while not !go do
        Cpu.Thread.sleep ctx (T.us 100)
      done;
      for _ = 1 to n do
        ignore (Pony.Express.connect ctx c ~dst_host:1 ~dst_client:0);
        incr dialed
      done);
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  Sim.Loop.run ~until:(T.ms 1) loop;
  let live0 = live () in
  go := true;
  Sim.Loop.run ~until:(T.sec 2) loop;
  check_int (label ^ ": every conn dialed") n !dialed;
  check_int (label ^ ": every conn established on both hosts") (2 * (n + 1))
    (Pony.Express.conns_established a.pony + Pony.Express.conns_established b.pony);
  let per_conn = float_of_int (live () - live0) /. float_of_int n in
  check_bool
    (Printf.sprintf "%s: %.1f live words per conn, budget %.0f" label per_conn
       conn_words_budget)
    true
    (per_conn <= conn_words_budget)

let test_pony_conn_state_budget () =
  conn_state_words ~capture:None;
  conn_state_words ~capture:(Some 8192)

(* Flow state budget: Pony runs one flow per pair of engines that talk,
   so flow state grows with the square of the engine count (snapbench's
   rpc_mesh holds 6,720 flows).  Host 0's 8 engines each dial every
   engine of two peers with 8 engines each, one RPC per conn (a 4 KiB
   request, a 64 B reply), so host 0 ends with 128 flows and each peer
   with 64, and every flow has carried data and taken RTT samples.  In
   the warm-up each engine of host 0 dials its namesake on both peers,
   which makes every engine's first flow; each of the 224 flows made
   after it may add at most [flow_words_budget] live major-heap words,
   registry entries and its half of the conn that opened it included.
   The budget is about 1.4x the 144 words measured on OCaml 5.1.1.
   With RTT and flight-size histograms of its own, as flows once had,
   a flow measured 626. *)
let flow_words_budget = 200.0

let test_pony_flow_state_budget () =
  let engines = 8 and peers = 2 in
  let loop, hosts = mk_cluster ~hosts:(1 + peers) ~engines () in
  let h0 = List.hd hosts in
  let go = ref false and rpcs = ref 0 in
  List.iter
    (fun h ->
      for i = 0 to engines - 1 do
        spawn h (Printf.sprintf "server%d" i) (fun ctx ->
            let c = Pony.Express.create_client ctx h.pony ~name:"server" () in
            while true do
              let m = Pony.Express.await_message ctx c in
              ignore (Pony.Express.send_message ctx m.Pony.Express.msg_conn ~bytes:64 ());
              ignore (Pony.Express.await_completion ctx c)
            done)
      done)
    (List.tl hosts);
  spawn h0 "client" (fun ctx ->
      (* Client [i] lands on engine [i], as server [j] on each peer does. *)
      let cs =
        Array.init engines (fun _ -> Pony.Express.create_client ctx h0.pony ~name:"client" ())
      in
      Cpu.Thread.sleep ctx (T.us 500);
      let rpc i ~dst_host ~dst_client =
        let c = cs.(i) in
        let conn = Pony.Express.connect ctx c ~dst_host ~dst_client in
        ignore (Pony.Express.send_message ctx conn ~bytes:4096 ());
        ignore (Pony.Express.await_completion ctx c);
        ignore (Pony.Express.await_message ctx c);
        incr rpcs
      in
      for i = 0 to engines - 1 do
        for p = 1 to peers do
          rpc i ~dst_host:p ~dst_client:i
        done
      done;
      while not !go do
        Cpu.Thread.sleep ctx (T.us 100)
      done;
      for i = 0 to engines - 1 do
        for p = 1 to peers do
          for j = 0 to engines - 1 do
            if j <> i then rpc i ~dst_host:p ~dst_client:j
          done
        done
      done);
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let flows () = List.concat_map (fun h -> Pony.Express.flow_stats h.pony) hosts in
  Sim.Loop.run ~until:(T.ms 5) loop;
  check_int "warm-up RPCs done" (engines * peers) !rpcs;
  let live0 = live () and flows0 = List.length (flows ()) in
  go := true;
  Sim.Loop.run ~until:(T.ms 50) loop;
  check_int "every RPC done" (engines * peers * engines) !rpcs;
  let all = flows () in
  check_int "host 0 holds a flow per peer engine pair" (engines * engines * peers)
    (List.length (Pony.Express.flow_stats h0.pony));
  check_bool "every flow delivered data" true
    (List.for_all (fun (_, delivered, _) -> delivered > 0) all);
  let n = List.length all - flows0 in
  let per_flow = float_of_int (live () - live0) /. float_of_int n in
  check_bool
    (Printf.sprintf "%.1f live words per flow over %d flows, budget %.0f" per_flow n
       flow_words_budget)
    true
    (per_flow <= flow_words_budget)

(* Table 1's shape: Pony's goodput is flat in the number of streams.
   The 25 ms window is Table 1's; the 200 sequential connects spend
   about 6 ms of it. *)
(* Every Table 1 Pony setting: the default MTU, the 5000 B MTU, and
   the 5000 B MTU with the copy engine. *)
let test_pony_table1_flat_in_streams () =
  List.iter
    (fun (name, mtu, use_copy_engine) ->
      let run streams =
        (Workloads.Streaming.run_pony ~streams ~mtu ~use_copy_engine
           ~window:(T.ms 25) ())
          .Workloads.Streaming.gbps
      in
      let one = run 1 and many = run 200 in
      check_bool
        (Printf.sprintf
           "%s: 200 streams %.1f Gbps within 15%% of 1 stream %.1f Gbps" name
           many one)
        true
        (many >= 0.85 *. one))
    [ ("4096 MTU", 4096, false); ("5000 MTU", 5000, false);
      ("5000 MTU + copy engine", 5000, true) ]

let () =
  Alcotest.run ~and_exit:false "pony"
    [
      ( "timely",
        [
          Alcotest.test_case "increase" `Quick test_timely_increase_on_low_rtt;
          Alcotest.test_case "decrease" `Quick test_timely_decrease_on_high_rtt;
          Alcotest.test_case "gradient" `Quick test_timely_gradient_response;
          Alcotest.test_case "loss" `Quick test_timely_loss;
          Alcotest.test_case "min rtt" `Quick test_timely_min_rtt_tracking;
        ] );
      ( "wire",
        [
          Alcotest.test_case "negotiate" `Quick test_wire_negotiate;
          Alcotest.test_case "reverse" `Quick test_wire_reverse;
        ] );
      ( "flow",
        [
          Alcotest.test_case "delivers in order" `Quick test_flow_delivers_items;
          Alcotest.test_case "dedup" `Quick test_flow_dedup_on_retransmit;
          Alcotest.test_case "timeout retransmit" `Quick test_flow_retransmit_on_timeout;
          Alcotest.test_case "ack clears flight" `Quick test_flow_ack_clears_flight;
          Alcotest.test_case "pacing" `Quick test_flow_pacing_spaces_packets;
          Alcotest.test_case "one RTT histogram per engine" `Quick
            test_flow_rtt_histogram_per_engine;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "two-sided message" `Quick test_pony_two_sided_message;
          Alcotest.test_case "ping-pong latency" `Quick test_pony_ping_pong_latency;
          Alcotest.test_case "one-sided read" `Quick test_pony_one_sided_read_correct;
          Alcotest.test_case "one-sided errors" `Quick test_pony_one_sided_errors;
          Alcotest.test_case "indirect read" `Quick test_pony_indirect_read;
          Alcotest.test_case "scan read" `Quick test_pony_scan_read;
          Alcotest.test_case "credit flow control" `Quick test_pony_flow_stats_and_credit;
          Alcotest.test_case "streaming throughput" `Slow test_pony_streaming_throughput;
          Alcotest.test_case "sibling conns stay live" `Quick test_pony_sibling_conns;
          Alcotest.test_case "conn routing through index growth" `Quick
            test_pony_conn_routing_at_scale;
          Alcotest.test_case "copy-engine delivery charges softirq" `Quick
            test_pony_copy_engine_notify_charged;
          Alcotest.test_case "per-packet allocation budget" `Quick
            test_pony_packet_alloc_budget;
          Alcotest.test_case "table1 flat in streams" `Slow
            test_pony_table1_flat_in_streams;
          Alcotest.test_case "conn state budget" `Quick test_pony_conn_state_budget;
          Alcotest.test_case "flow state budget" `Quick test_pony_flow_state_budget;
        ] );
    ]

(* -- Appended edge-case tests -------------------------------------------- *)

let test_mixed_release_version_negotiation () =
  (* A host on an old release and one on a new release must speak the
     least common denominator (§3.1). *)
  let loop = Sim.Loop.create ~seed:5 () in
  let fab = Fabric.create ~loop ~config:Fabric.default_config ~hosts:2 in
  let dir = Pony.Express.Directory.create () in
  let mk addr versions =
    Snap.Host.create ~loop ~fabric:fab ~directory:dir ~addr
      ~mode:(Engine.Dedicating { cores = 1 })
      ~wire_versions:versions ()
  in
  let a = mk 0 [ 5; 6 ] and b = mk 1 [ 6; 7 ] in
  let got = ref None in
  ignore
    (Snap.Host.spawn_app b ~name:"server" (fun ctx ->
         let c = Pony.Express.create_client ctx b.Snap.Host.pony ~name:"server" () in
         let m = Pony.Express.await_message ctx c in
         got := Some m.Pony.Express.msg_bytes));
  ignore
    (Snap.Host.spawn_app a ~name:"client" (fun ctx ->
         let c = Pony.Express.create_client ctx a.Snap.Host.pony ~name:"client" () in
         Cpu.Thread.sleep ctx (T.us 300);
         let conn = Pony.Express.connect ctx c ~dst_host:1 ~dst_client:0 in
         ignore (Pony.Express.send_message ctx conn ~bytes:100 ())));
  Sim.Loop.run ~until:(T.ms 20) loop;
  Alcotest.(check (option int)) "delivered across releases" (Some 100) !got;
  List.iter
    (fun (_, v) -> check_int "negotiated LCD version" 6 v)
    (Pony.Express.flow_versions a.Snap.Host.pony)

let test_one_sided_write () =
  let loop, hosts = mk_cluster () in
  let a = List.nth hosts 0 and b = List.nth hosts 1 in
  let region = Memory.Region.create ~id:4 ~size:1024 ~owner:"server" () in
  let comp = ref None in
  spawn b "server" (fun ctx ->
      let c = Pony.Express.create_client ctx b.pony ~name:"server" () in
      Pony.Express.register_region ctx c region;
      Cpu.Thread.sleep ctx (T.ms 30));
  spawn a "client" (fun ctx ->
      let c = Pony.Express.create_client ctx a.pony ~name:"client" () in
      Cpu.Thread.sleep ctx (T.us 300);
      let conn = Pony.Express.connect ctx c ~dst_host:1 ~dst_client:0 in
      ignore (Pony.Express.one_sided_write ctx conn ~region:4 ~off:100 ~len:200);
      comp := Some (Pony.Express.await_completion ctx c));
  Sim.Loop.run ~until:(T.ms 40) loop;
  match !comp with
  | Some c -> check_bool "write ok" true (c.Pony.Express.status = Pony.Wire.Ok)
  | None -> Alcotest.fail "no completion"

let test_zero_byte_message () =
  let loop, hosts = mk_cluster () in
  let a = List.nth hosts 0 and b = List.nth hosts 1 in
  let got = ref None in
  spawn b "server" (fun ctx ->
      let c = Pony.Express.create_client ctx b.pony ~name:"server" () in
      let m = Pony.Express.await_message ctx c in
      got := Some m.Pony.Express.msg_bytes);
  spawn a "client" (fun ctx ->
      let c = Pony.Express.create_client ctx a.pony ~name:"client" () in
      Cpu.Thread.sleep ctx (T.us 300);
      let conn = Pony.Express.connect ctx c ~dst_host:1 ~dst_client:0 in
      ignore (Pony.Express.send_message ctx conn ~bytes:0 ()));
  Sim.Loop.run ~until:(T.ms 20) loop;
  Alcotest.(check (option int)) "zero-byte message delivered" (Some 0) !got

let test_streams_interleave () =
  (* Messages on distinct streams of one connection all arrive, each
     reassembled independently. *)
  let loop, hosts = mk_cluster () in
  let a = List.nth hosts 0 and b = List.nth hosts 1 in
  let sizes = ref [] in
  spawn b "server" (fun ctx ->
      let c = Pony.Express.create_client ctx b.pony ~name:"server" () in
      for _ = 1 to 3 do
        let m = Pony.Express.await_message ctx c in
        sizes := (m.Pony.Express.stream, m.Pony.Express.msg_bytes) :: !sizes
      done);
  spawn a "client" (fun ctx ->
      let c = Pony.Express.create_client ctx a.pony ~name:"client" () in
      Cpu.Thread.sleep ctx (T.us 300);
      let conn = Pony.Express.connect ctx c ~dst_host:1 ~dst_client:0 in
      ignore (Pony.Express.send_message ctx conn ~stream:1 ~bytes:500_000 ());
      ignore (Pony.Express.send_message ctx conn ~stream:2 ~bytes:64 ());
      ignore (Pony.Express.send_message ctx conn ~stream:3 ~bytes:100_000 ()));
  Sim.Loop.run ~until:(T.ms 50) loop;
  let sorted = List.sort compare !sizes in
  Alcotest.(check (list (pair int int)))
    "all three streams delivered"
    [ (1, 500_000); (2, 64); (3, 100_000) ]
    sorted

let test_pony_recovers_from_fabric_loss () =
  (* A lossy fabric (tiny egress buffers) forces flow-level
     retransmission; a large message must still arrive intact. *)
  let loop = Sim.Loop.create ~seed:17 () in
  let fab =
    Fabric.create ~loop
      ~config:{ Fabric.default_config with Fabric.egress_buffer_bytes = 60_000 }
      ~hosts:2
  in
  let dir = Pony.Express.Directory.create () in
  let mk addr =
    Snap.Host.create ~loop ~fabric:fab ~directory:dir ~addr
      ~mode:(Engine.Dedicating { cores = 1 }) ()
  in
  let a = mk 0 and b = mk 1 in
  let got = ref None in
  ignore
    (Snap.Host.spawn_app b ~name:"server" (fun ctx ->
         let c = Pony.Express.create_client ctx b.Snap.Host.pony ~name:"server" () in
         let m = Pony.Express.await_message ctx c in
         got := Some m.Pony.Express.msg_bytes));
  ignore
    (Snap.Host.spawn_app a ~name:"client" (fun ctx ->
         let c = Pony.Express.create_client ctx a.Snap.Host.pony ~name:"client" () in
         Cpu.Thread.sleep ctx (T.us 300);
         let conn = Pony.Express.connect ctx c ~dst_host:1 ~dst_client:0 in
         ignore (Pony.Express.send_message ctx conn ~bytes:4_000_000 ())));
  Sim.Loop.run ~until:(T.sec 2) loop;
  Alcotest.(check (option int)) "message intact despite loss" (Some 4_000_000) !got

(* Reassembly is per conn half and keyed by op id, so items that loss
   reorders on one conn must reassemble apart.  Host 0 sends a
   three-page and a two-page message and a three-page one-sided read on
   one conn; the server answers the first message it gets with a
   two-page reply on the same conn.  The fault hook drops message 0's
   second page and the read response's first chunk once each, so
   message 1 completes while message 0 waits for its retransmitted
   page, and on host 0's half the reply's chunks arrive while the
   response's reassembly is open and before the chunk that carries the
   read's value.  Every op must complete exactly once, with its bytes
   and the region's value, and no reassembly or pool charge may be
   left behind. *)
let test_interleaved_reassembly_under_loss () =
  let loop = Sim.Loop.create ~seed:3 () in
  let fab = Fabric.create ~loop ~config:Fabric.default_config ~hosts:2 in
  let dir = Pony.Express.Directory.create () in
  let mk addr =
    Snap.Host.create ~loop ~fabric:fab ~directory:dir ~addr
      ~mode:(Engine.Dedicating { cores = 1 }) ()
  in
  let a = mk 0 and b = mk 1 in
  let page = 4096 in
  let region = Memory.Region.create ~id:5 ~size:65536 ~owner:"server" () in
  Memory.Region.write_int64 region 8192 0x5EED5EEDL;
  let dropped_page = ref false and dropped_resp = ref false in
  Fabric.set_fault_hook fab (fun pkt ->
      match pkt.Memory.Packet.payload with
      | Pony.Wire.Pony
          { item = Pony.Wire.Msg_chunk { op_id = 0; offset = 4096; _ }; _ }
        when pkt.Memory.Packet.src = 0 && not !dropped_page ->
          dropped_page := true;
          Fabric.Fault_drop
      | Pony.Wire.Pony
          { item = Pony.Wire.One_sided_resp { chunk_offset = 0; _ }; _ }
        when not !dropped_resp ->
          dropped_resp := true;
          Fabric.Fault_drop
      | _ -> Fabric.Fault_pass);
  let delivered = ref [] and replies = ref [] and comps = ref [] in
  let server_comps = ref [] in
  ignore
    (Snap.Host.spawn_app b ~name:"server" (fun ctx ->
         let c = Pony.Express.create_client ctx b.Snap.Host.pony ~name:"server" () in
         Pony.Express.register_region ctx c region;
         let m = Pony.Express.await_message ctx c in
         delivered := (m.Pony.Express.msg_op, m.Pony.Express.msg_bytes) :: !delivered;
         ignore
           (Pony.Express.send_message ctx m.Pony.Express.msg_conn ~bytes:(2 * page) ());
         server_comps := [ Pony.Express.await_completion ctx c ];
         let m = Pony.Express.await_message ctx c in
         delivered := (m.Pony.Express.msg_op, m.Pony.Express.msg_bytes) :: !delivered));
  ignore
    (Snap.Host.spawn_app a ~name:"client" (fun ctx ->
         let c = Pony.Express.create_client ctx a.Snap.Host.pony ~name:"client" () in
         Cpu.Thread.sleep ctx (T.us 300);
         let conn = Pony.Express.connect ctx c ~dst_host:1 ~dst_client:0 in
         ignore (Pony.Express.send_message ctx conn ~bytes:(3 * page) ());
         ignore (Pony.Express.send_message ctx conn ~bytes:(2 * page) ());
         ignore
           (Pony.Express.one_sided_read ctx conn ~region:5 ~off:8192 ~len:(3 * page));
         while true do
           match Pony.Express.poll_message ctx c with
           | Some m ->
               replies := (m.Pony.Express.msg_op, m.Pony.Express.msg_bytes) :: !replies
           | None -> (
               match Pony.Express.poll_completion ctx c with
               | Some comp -> comps := comp :: !comps
               | None -> Cpu.Thread.sleep ctx (T.us 1))
         done));
  Sim.Loop.run ~until:(T.ms 100) loop;
  check_bool "a message page was dropped" true !dropped_page;
  check_bool "a response chunk was dropped" true !dropped_resp;
  Alcotest.(check (list (pair int int)))
    "each message delivered once, message 1 first"
    [ (1, 2 * page); (0, 3 * page) ]
    (List.rev !delivered);
  Alcotest.(check (list (pair int int)))
    "the reply delivered once" [ (0, 2 * page) ] !replies;
  check_int "the reply's send completed once" 1 (List.length !server_comps);
  let comps =
    List.sort (fun x y -> compare x.Pony.Express.comp_op y.Pony.Express.comp_op) !comps
  in
  Alcotest.(check (list (pair int int)))
    "each op completed once with its bytes"
    [ (0, 3 * page); (1, 2 * page); (2, 3 * page) ]
    (List.map (fun c -> (c.Pony.Express.comp_op, c.Pony.Express.bytes)) comps);
  check_bool "every op Ok" true
    (List.for_all (fun c -> c.Pony.Express.status = Pony.Wire.Ok) (comps @ !server_comps));
  Alcotest.(check (option int64)) "read returned the region's value"
    (Some 0x5EED5EEDL)
    (List.nth comps 2).Pony.Express.value;
  List.iter
    (fun h ->
      let pony = h.Snap.Host.pony in
      let pool = Pony.Express.op_pool pony in
      check_int "op pool drained" 0 (Memory.Pool.in_use pool);
      (* A reassembly holds an op-pool charge until it completes or is
         dropped, unless the pool could not cover its message when it
         opened.  Every message here fits beside the peak, so a drained
         pool also means no reassembly is left. *)
      check_bool "every reassembly was charged" true
        (Memory.Pool.high_watermark pool + (3 * page) <= Memory.Pool.capacity pool))
    [ a; b ]

let test_completion_latency_fields () =
  let loop, hosts = mk_cluster () in
  let a = List.nth hosts 0 and b = List.nth hosts 1 in
  let region = Memory.Region.create ~id:1 ~size:128 ~owner:"server" () in
  let comp = ref None in
  spawn b "server" (fun ctx ->
      let c = Pony.Express.create_client ctx b.pony ~name:"server" () in
      Pony.Express.register_region ctx c region;
      Cpu.Thread.sleep ctx (T.ms 30));
  spawn a "client" ~spin:true (fun ctx ->
      let c = Pony.Express.create_client ctx a.pony ~name:"client" () in
      Cpu.Thread.sleep ctx (T.us 300);
      let conn = Pony.Express.connect ctx c ~dst_host:1 ~dst_client:0 in
      ignore (Pony.Express.one_sided_read ctx conn ~region:1 ~off:0 ~len:64);
      comp := Some (Pony.Express.await_completion ctx c));
  Sim.Loop.run ~until:(T.ms 40) loop;
  match !comp with
  | Some c ->
      let lat = c.Pony.Express.completed_at - c.Pony.Express.issued_at in
      check_bool "issue/complete stamps ordered" true (lat > 0);
      check_bool "one-sided latency near Figure 6(a)" true
        (lat > T.us 4 && lat < T.us 30)
  | None -> Alcotest.fail "no completion"

(* Deadline arming and expiry now run through the per-engine timing
   wheel and the [deadline_due] queue: only conns whose waiting-head
   deadline actually fired are visited, and firing order is salted
   exactly like the event heap.  This scenario is the regression guard
   for that path — several conns exhaust their connection credit at
   once, park expiring and generous sends behind the blockage, and the
   per-op outcomes must come out exactly, in the same order, on every
   run (the suite runs under OCAMLRUNPARAM=R in CI, so any surviving
   Hashtbl-iteration dependence would show up as a diff between the two
   back-to-back runs below). *)

let run_deadline_storm () =
  let loop, hosts = mk_cluster () in
  let a = List.nth hosts 0 and b = List.nth hosts 1 in
  let drivers = 2 in
  let big = 1 lsl 20 in
  for i = 0 to drivers - 1 do
    spawn b
      (Printf.sprintf "sink%d" i)
      (fun ctx ->
        (* Distinct creation instants make client-id assignment (and so
           [~dst_client:i]) independent of same-instant thread order. *)
        Cpu.Thread.sleep ctx (T.us (10 * (i + 1)));
        let c =
          Pony.Express.create_client ctx b.pony ~name:(Printf.sprintf "sink%d" i) ()
        in
        for _ = 1 to 6 do
          ignore (Pony.Express.await_message ctx c)
        done)
  done;
  let outcomes = Array.make drivers [] in
  for i = 0 to drivers - 1 do
    spawn a
      (Printf.sprintf "drv%d" i)
      (fun ctx ->
        let c =
          Pony.Express.create_client ctx a.pony ~name:(Printf.sprintf "drv%d" i) ()
        in
        Cpu.Thread.sleep ctx (T.us (200 + (50 * i)));
        let conn = Pony.Express.connect ctx c ~dst_host:1 ~dst_client:i in
        (* Exactly exhaust the 4 MiB connection credit so everything
           posted after this parks on the credit-waiting queue. *)
        for _ = 1 to 4 do
          ignore (Pony.Express.send_message ctx conn ~bytes:big ())
        done;
        let now = Cpu.Thread.now ctx in
        (* Heads whose deadline passes long before any credit can
           return (a 1 MiB delivery takes real virtual time), then
           tails generous enough to ride out the blockage. *)
        for _ = 1 to 3 do
          ignore
            (Pony.Express.send_message ctx conn
               ~deadline:(T.add now (T.us 1)) ~bytes:64 ())
        done;
        for _ = 1 to 2 do
          ignore
            (Pony.Express.send_message ctx conn
               ~deadline:(T.add now (T.ms 300)) ~bytes:64 ())
        done;
        for _ = 1 to 9 do
          let comp = Pony.Express.await_completion ctx c in
          outcomes.(i) <-
            (comp.Pony.Express.comp_op, comp.Pony.Express.status) :: outcomes.(i)
        done)
  done;
  Sim.Loop.run ~until:(T.ms 400) loop;
  Array.map List.rev outcomes

let test_deadline_expiry_deterministic () =
  let first = run_deadline_storm () in
  Array.iteri
    (fun i os ->
      let label s = Printf.sprintf "driver %d: %s" i s in
      check_int (label "all ops completed") 9 (List.length os);
      let count st = List.length (List.filter (fun (_, s) -> s = st) os) in
      check_int (label "expired heads timed out") 3 (count Pony.Wire.Timed_out);
      check_int (label "credit-backed ops ok") 6 (count Pony.Wire.Ok))
    first;
  (* Same scenario, fresh cluster: outcome vectors (op id, status, in
     completion order) must be bit-identical. *)
  let second = run_deadline_storm () in
  check_bool "identical outcome order across runs" true (first = second)

(* A keepalive-configured host pair must still quiesce when idle: the
   watch on a proven-alive conn lapses instead of re-arming forever, so
   after the last exchange the event heap drains and virtual time stops
   far short of the horizon.  Guards the quiesce-aware arming that lets
   [Pool.assert_quiesced]-style workloads keep keepalives on. *)
let test_keepalive_idle_quiesce () =
  let loop = Sim.Loop.create () in
  let fab = Fabric.create ~loop ~config:Fabric.default_config ~hosts:2 in
  let dir = Pony.Express.Directory.create () in
  let keepalive = { Pony.Express.ka_interval = T.us 100; ka_miss_budget = 2 } in
  let mk addr =
    Snap.Host.create ~loop ~fabric:fab ~directory:dir ~addr
      ~mode:(Engine.Dedicating { cores = 2 })
      ~keepalive ()
  in
  let a = mk 0 and b = mk 1 in
  let sent = ref false in
  ignore
    (Snap.Host.spawn_app b ~name:"b" (fun ctx ->
         let c = Pony.Express.create_client ctx b.Snap.Host.pony ~name:"b" () in
         while true do
           ignore (Pony.Express.await_message ctx c)
         done));
  ignore
    (Snap.Host.spawn_app a ~name:"a" (fun ctx ->
         let c = Pony.Express.create_client ctx a.Snap.Host.pony ~name:"a" () in
         Cpu.Thread.sleep ctx (T.us 200);
         let conn = Pony.Express.connect ctx c ~dst_host:1 ~dst_client:0 in
         ignore (Pony.Express.send_message ctx conn ~bytes:64 ());
         let comp = Pony.Express.await_completion ctx c in
         sent := comp.Pony.Express.status = Pony.Wire.Ok));
  Sim.Loop.run ~until:(T.sec 1) loop;
  check_bool "exchange completed" true !sent;
  check_bool "conn still alive on both sides" true
    (Pony.Express.peer_deaths a.Snap.Host.pony = 0
    && Pony.Express.peer_deaths b.Snap.Host.pony = 0);
  (* [run ~until] advances the clock to the horizon regardless, so
     quiescence shows up as a drained event heap: an eternally
     re-arming watch would keep timer events pending forever. *)
  check_int "event heap drained — idle watches lapsed" 0
    (Sim.Loop.pending_events loop);
  (* The regression this guards (probe arrivals restarting the peer's
     watch) probed ~10/ms forever; a quiescent pair sends at most a
     couple of cycles around the exchange. *)
  check_bool "probing stopped on both sides" true
    (Pony.Express.keepalive_probes a.Snap.Host.pony <= 4
    && Pony.Express.keepalive_probes b.Snap.Host.pony <= 4)

(* A reassembly opened while the op pool cannot cover its message holds
   no charge, so the pool-drained invariant cannot see it leak.  Here the
   receiver's pool is smaller than the message, the sender's host
   crashes once the first chunk is through, and no keepalive will ever
   declare the conn dead: the reassembly stays open, and quiesce must
   name the per-engine invariant that counts open reassemblies. *)
let test_uncharged_reassembly_caught_at_quiesce () =
  Check.Invariant.set_enabled true;
  Check.Invariant.begin_run ();
  Fun.protect
    ~finally:(fun () ->
      Check.Invariant.begin_run ();
      Check.Invariant.set_enabled false)
    (fun () ->
      let loop = Sim.Loop.create ~seed:3 () in
      let fab = Fabric.create ~loop ~config:Fabric.default_config ~hosts:2 in
      let dir = Pony.Express.Directory.create () in
      let page = 4096 in
      let mk addr ~op_pool_bytes =
        Snap.Host.create ~loop ~fabric:fab ~directory:dir ~addr
          ~mode:(Engine.Dedicating { cores = 1 })
          ~op_pool_bytes ()
      in
      let a = mk 0 ~op_pool_bytes:(1 lsl 30) in
      let b = mk 1 ~op_pool_bytes:(2 * page) in
      let crashed = ref false in
      Fabric.set_fault_hook fab (fun pkt ->
          match pkt.Memory.Packet.payload with
          | Pony.Wire.Pony { item = Pony.Wire.Msg_chunk { offset; _ }; _ }
            when pkt.Memory.Packet.src = 0 ->
              if offset = 0 && not !crashed then begin
                crashed := true;
                ignore
                  (Sim.Loop.after loop 0 (fun () ->
                       Pony.Express.crash_host a.Snap.Host.pony));
                Fabric.Fault_pass
              end
              else Fabric.Fault_drop
          | _ -> Fabric.Fault_pass);
      ignore
        (Snap.Host.spawn_app b ~name:"server" (fun ctx ->
             let c = Pony.Express.create_client ctx b.Snap.Host.pony ~name:"server" () in
             ignore (Pony.Express.await_message ctx c)));
      ignore
        (Snap.Host.spawn_app a ~name:"client" (fun ctx ->
             let c = Pony.Express.create_client ctx a.Snap.Host.pony ~name:"client" () in
             Cpu.Thread.sleep ctx (T.us 300);
             let conn = Pony.Express.connect ctx c ~dst_host:1 ~dst_client:0 in
             ignore (Pony.Express.send_message ctx conn ~bytes:(4 * page) ())));
      Sim.Loop.run ~until:(T.ms 50) loop;
      check_bool "the first chunk passed and the sender crashed" true !crashed;
      check_int "the receiver's pool holds nothing" 0
        (Memory.Pool.in_use (Pony.Express.op_pool b.Snap.Host.pony));
      match Check.Invariant.quiesce () with
      | () -> Alcotest.fail "quiesce raised nothing"
      | exception Check.Invariant.Violation msg ->
          let name = "pony0@1.reassemblies_closed" in
          let prefix = "invariant " ^ name ^ " violated" in
          check_bool
            (Printf.sprintf "violation names %s (got %S)" name msg)
            true
            (String.starts_with ~prefix msg))

let () =
  Alcotest.run "pony-extra"
    [
      ( "edge cases",
        [
          Alcotest.test_case "mixed-release versions" `Quick
            test_mixed_release_version_negotiation;
          Alcotest.test_case "one-sided write" `Quick test_one_sided_write;
          Alcotest.test_case "zero-byte message" `Quick test_zero_byte_message;
          Alcotest.test_case "streams interleave" `Quick test_streams_interleave;
          Alcotest.test_case "recovers from loss" `Quick
            test_pony_recovers_from_fabric_loss;
          Alcotest.test_case "completion stamps" `Quick
            test_completion_latency_fields;
          Alcotest.test_case "interleaved reassembly under loss" `Quick
            test_interleaved_reassembly_under_loss;
          Alcotest.test_case "uncharged reassembly caught at quiesce" `Quick
            test_uncharged_reassembly_caught_at_quiesce;
        ] );
      ( "timers",
        [
          Alcotest.test_case "deadline expiry deterministic" `Quick
            test_deadline_expiry_deterministic;
          Alcotest.test_case "keepalive idle quiesce" `Quick
            test_keepalive_idle_quiesce;
        ] );
    ]
