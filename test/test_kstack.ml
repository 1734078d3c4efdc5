(* Tests for the baseline kernel TCP stack model. *)

module T = Sim.Time

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

type host = { m : Cpu.Sched.machine; stack : Kstack.t }

let mk_pair ?(busy_poll = false) ?(mtu = 4096) ?fault
    ?(fab_cfg = Fabric.default_config) () =
  let loop = Sim.Loop.create () in
  let fab = Fabric.create ~loop ~config:fab_cfg ~hosts:2 in
  Option.iter (Fabric.set_fault_hook fab) fault;
  let mk addr =
    let m =
      Cpu.Sched.create_machine ~loop ~name:(Printf.sprintf "m%d" addr) ~cores:8
    in
    let nic =
      Nic.create ~loop ~machine:m ~fabric:fab ~addr
        { Nic.default_config with Nic.mtu }
    in
    let stack = Kstack.create ~loop ~machine:m ~nic ~busy_poll () in
    { m; stack }
  in
  (loop, mk 0, mk 1)

let test_connect () =
  let loop, a, b = mk_pair () in
  let accepted = ref 0 in
  Kstack.listen b.stack ~port:80 ~on_accept:(fun _ -> incr accepted);
  let connected = ref false in
  ignore
    (Cpu.Thread.spawn a.m ~name:"client" ~account:"app"
       ~klass:(Cpu.Sched.Cfs { nice = 0 }) (fun ctx ->
         let _sock = Kstack.connect ctx a.stack ~dst:1 ~port:80 in
         connected := true));
  Sim.Loop.run ~until:(T.ms 50) loop;
  check_bool "connected" true !connected;
  check_int "accepted" 1 !accepted

let run_transfer ?(busy_poll = false) ?(mtu = 4096) ~total ~chunk () =
  let loop, a, b = mk_pair ~busy_poll ~mtu () in
  let received = ref 0 in
  let finish_time = ref 0 in
  Kstack.listen b.stack ~port:80 ~on_accept:(fun sock ->
      ignore
        (Cpu.Thread.spawn b.m ~name:"server" ~account:"app"
           ~klass:(Cpu.Sched.Cfs { nice = 0 })
           ~idle:(if busy_poll then Cpu.Sched.Spin else Cpu.Sched.Block)
           (fun ctx ->
             while !received < total do
               received := !received + Kstack.recv ctx sock ~max:(1 lsl 20)
             done;
             finish_time := Cpu.Thread.now ctx)));
  ignore
    (Cpu.Thread.spawn a.m ~name:"client" ~account:"app"
       ~klass:(Cpu.Sched.Cfs { nice = 0 })
       ~idle:(if busy_poll then Cpu.Sched.Spin else Cpu.Sched.Block)
       (fun ctx ->
         let sock = Kstack.connect ctx a.stack ~dst:1 ~port:80 in
         let sent = ref 0 in
         while !sent < total do
           let n = min chunk (total - !sent) in
           Kstack.send ctx sock ~bytes:n;
           sent := !sent + n
         done));
  Sim.Loop.run ~until:(T.sec 2) loop;
  (!received, !finish_time, a, b)

let test_stream_delivery () =
  let total = 4 * 1024 * 1024 in
  let received, finish, _a, _b = run_transfer ~total ~chunk:65536 () in
  check_int "all bytes delivered" total received;
  check_bool "finished" true (finish > 0)

let test_stream_throughput_plausible () =
  (* Single stream should land in the tens of Gbps (Table 1: ~22). *)
  let total = 64 * 1024 * 1024 in
  let received, finish, _, _ = run_transfer ~total ~chunk:65536 () in
  check_int "complete" total received;
  let gbps = float_of_int total *. 8.0 /. float_of_int finish in
  check_bool
    (Printf.sprintf "throughput plausible (%.1f Gbps)" gbps)
    true
    (gbps > 10.0 && gbps < 40.0)

let test_busy_poll_transfer () =
  let total = 1024 * 1024 in
  let received, _, _, _ = run_transfer ~busy_poll:true ~total ~chunk:65536 () in
  check_int "all bytes delivered" total received

let test_rr_latency () =
  (* Ping-pong small messages; RTT should be in the tens of
     microseconds (Figure 6(a): ~23 us for TCP). *)
  let loop, a, b = mk_pair () in
  let rtts = ref [] in
  Kstack.listen b.stack ~port:80 ~on_accept:(fun sock ->
      ignore
        (Cpu.Thread.spawn b.m ~name:"server" ~account:"app"
           ~klass:(Cpu.Sched.Cfs { nice = 0 }) (fun ctx ->
             for _ = 1 to 20 do
               let n = Kstack.recv ctx sock ~max:4096 in
               Kstack.send ctx sock ~bytes:n
             done)));
  ignore
    (Cpu.Thread.spawn a.m ~name:"client" ~account:"app"
       ~klass:(Cpu.Sched.Cfs { nice = 0 }) (fun ctx ->
         let sock = Kstack.connect ctx a.stack ~dst:1 ~port:80 in
         for _ = 1 to 20 do
           let t0 = Cpu.Thread.now ctx in
           Kstack.send ctx sock ~bytes:64;
           let _n = Kstack.recv ctx sock ~max:4096 in
           rtts := (Cpu.Thread.now ctx - t0) :: !rtts
         done));
  Sim.Loop.run ~until:(T.sec 1) loop;
  check_int "20 rtts" 20 (List.length !rtts);
  let avg =
    List.fold_left ( + ) 0 !rtts / List.length !rtts
  in
  check_bool
    (Printf.sprintf "rtt in range (%d ns)" avg)
    true
    (avg > T.us 10 && avg < T.us 60)

let test_retransmit_on_loss () =
  (* The fabric drops every 100th data packet toward the receiver; the
     transfer must still complete via retransmission. *)
  let data = ref 0 and dropped = ref 0 in
  let fault (p : Memory.Packet.t) =
    if p.Memory.Packet.dst = 1 && p.Memory.Packet.wire_bytes > 1000 then begin
      incr data;
      if !data mod 100 = 0 then begin
        incr dropped;
        Fabric.Fault_drop
      end
      else Fabric.Fault_pass
    end
    else Fabric.Fault_pass
  in
  let loop, a, b = mk_pair ~fault () in
  let total = 2 * 1024 * 1024 in
  let received = ref 0 in
  Kstack.listen b.stack ~port:80 ~on_accept:(fun sock ->
      ignore
        (Cpu.Thread.spawn b.m ~name:"server" ~account:"app"
           ~klass:(Cpu.Sched.Cfs { nice = 0 }) (fun ctx ->
             while !received < total do
               received := !received + Kstack.recv ctx sock ~max:(1 lsl 20)
             done)));
  ignore
    (Cpu.Thread.spawn a.m ~name:"client" ~account:"app"
       ~klass:(Cpu.Sched.Cfs { nice = 0 }) (fun ctx ->
         let sock = Kstack.connect ctx a.stack ~dst:1 ~port:80 in
         let sent = ref 0 in
         while !sent < total do
           Kstack.send ctx sock ~bytes:65536;
           sent := !sent + 65536
         done));
  Sim.Loop.run ~until:(T.sec 5) loop;
  check_bool "data packets were lost" true (!dropped > 0);
  check_int "delivered despite loss" total !received

let test_many_streams_slower_than_one () =
  (* Table 1: 200 simultaneously active streams degrade per-byte
     efficiency (22 -> 12.4 Gbps).  With RFS-style softirq serialization
     (one application job), the locality multiplier makes many-stream
     aggregate throughput lower than a single stream moving the same
     total bytes. *)
  let run n_streams =
    let loop, a, b = mk_pair () in
    let per_stream = (32 * 1024 * 1024) / n_streams in
    let total = per_stream * n_streams in
    let received = ref 0 in
    let finish = ref 0 in
    Kstack.listen b.stack ~port:80 ~on_accept:(fun sock ->
        ignore
          (Cpu.Thread.spawn b.m ~name:"server" ~account:"app"
             ~klass:(Cpu.Sched.Cfs { nice = 0 }) (fun ctx ->
               let got = ref 0 in
               while !got < per_stream do
                 let n = Kstack.recv ctx sock ~max:(1 lsl 20) in
                 got := !got + n;
                 received := !received + n
               done;
               if !received >= total then finish := Cpu.Thread.now ctx)));
    for i = 0 to n_streams - 1 do
      ignore
        (Cpu.Thread.spawn a.m
           ~name:(Printf.sprintf "client%d" i)
           ~account:"app"
           ~klass:(Cpu.Sched.Cfs { nice = 0 })
           (fun ctx ->
             let sock = Kstack.connect ctx a.stack ~dst:1 ~port:80 in
             let sent = ref 0 in
             while !sent < per_stream do
               let n = min 65536 (per_stream - !sent) in
               Kstack.send ctx sock ~bytes:n;
               sent := !sent + n
             done))
    done;
    Sim.Loop.run ~until:(T.sec 20) loop;
    check_int (Printf.sprintf "%d streams complete" n_streams) total !received;
    float_of_int total *. 8.0 /. float_of_int !finish
  in
  let one = run 1 in
  let many = run 64 in
  check_bool
    (Printf.sprintf "one stream faster (%.1f vs %.1f Gbps)" one many)
    true
    (one > many *. 1.2)

let () =
  Alcotest.run "kstack"
    [
      ( "tcp",
        [
          Alcotest.test_case "connect" `Quick test_connect;
          Alcotest.test_case "stream delivery" `Quick test_stream_delivery;
          Alcotest.test_case "throughput plausible" `Quick test_stream_throughput_plausible;
          Alcotest.test_case "busy poll" `Quick test_busy_poll_transfer;
          Alcotest.test_case "rr latency" `Quick test_rr_latency;
          Alcotest.test_case "retransmit on loss" `Quick test_retransmit_on_loss;
          Alcotest.test_case "stream scaling penalty" `Slow test_many_streams_slower_than_one;
        ] );
    ]
