(* The run lifecycle every spec workload shares, and the traffic drivers
   more than one of them runs.  Host construction stays the workload's:
   it passes its own [Snap.Host.create] call, so a host's mode, pool and
   keepalive read where the workload sets them. *)

module Time = Sim.Time
module PE = Pony.Express
module Ring = Guest.Ring
module Tenant = Guest.Tenant

type t = { loop : Sim.Loop.t; fabric : Fabric.t; hosts : Snap.Host.t array }

(* The invariant scope opens before any layer registers predicates;
   both checker calls are no-ops unless checking is on. *)
let create ~seed ~tie_salt ~hosts:n host =
  Check.Invariant.begin_run ();
  let loop = Sim.Loop.create ~seed ~tie_salt () in
  Check.Invariant.install ~loop ();
  let fabric = Fabric.create ~loop ~config:Fabric.default_config ~hosts:n in
  let directory = PE.Directory.create () in
  let hosts = Array.init n (fun addr -> host ~loop ~fabric ~directory ~addr) in
  { loop; fabric; hosts }

let inject t plan =
  Fault.Injector.install ~loop:t.loop ~plan ~fabric:t.fabric
    ~hosts:(Array.to_list (Array.map Snap.Host.fault_host t.hosts))

(* Every op completed, failed or was shed with its charge released, and
   restarted engines reconcile their old incarnations' charges: a byte
   still charged now is a leak, and [assert_quiesced] names its owner. *)
let finish t ~until =
  Sim.Loop.run ~until t.loop;
  Check.Invariant.quiesce ();
  Array.iter
    (fun h -> Memory.Pool.assert_quiesced (PE.op_pool h.Snap.Host.pony))
    t.hosts

(* -- Round trips ----------------------------------------------------------- *)

type trips = {
  latencies : Stats.Histogram.t;
  labelled : Stats.Histogram.t;
  mutable ok : int;
  mutable failed : int;
  mutable retries : int;
  mutable last_done : Time.t;
}

let trips ~workload metric =
  {
    latencies = Stats.Histogram.create ();
    labelled = Stats.Registry.histogram ~labels:[ ("workload", workload) ] metric;
    ok = 0;
    failed = 0;
    retries = 0;
    last_done = Time.zero;
  }

let trip t ctx ~t0 =
  let now = Cpu.Thread.now ctx in
  let lat = Time.sub now t0 in
  Stats.Histogram.record t.latencies lat;
  Stats.Histogram.record t.labelled lat;
  t.ok <- t.ok + 1;
  t.last_done <- now

let echo_gbps t ~bytes =
  if t.last_done = 0 then 0.0
  else float_of_int (t.ok * bytes * 2 * 8) /. float_of_int t.last_done

(* -- Drivers --------------------------------------------------------------- *)

let echo_server host ~name ~exclusive_engine =
  ignore
    (Snap.Host.spawn_app host ~name ~spin:true (fun ctx ->
         let c = PE.create_client ctx host.Snap.Host.pony ~name ~exclusive_engine () in
         while true do
           let m = PE.await_message ctx c in
           ignore (PE.send_message ctx m.PE.msg_conn ~bytes:m.PE.msg_bytes ())
         done))

let sink host ~name ~service =
  ignore
    (Snap.Host.spawn_app host ~name ~spin:true (fun ctx ->
         let c = PE.create_client ctx host.Snap.Host.pony ~name () in
         while true do
           let _m = PE.await_message ctx c in
           Cpu.Thread.compute ctx service
         done))

let echo_client host trips ~name ~dst_host ~dst_name ~ops ~bytes ~think =
  ignore
    (Snap.Host.spawn_app host ~name ~spin:true (fun ctx ->
         let c = PE.create_client ctx host.Snap.Host.pony ~name () in
         Cpu.Thread.sleep ctx (Time.us 500);
         let conn = PE.connect_by_name ctx c ~dst_host ~dst_name in
         for _ = 1 to ops do
           let t0 = Cpu.Thread.now ctx in
           ignore (PE.send_message ctx conn ~bytes ());
           let _m = PE.await_message ctx c in
           trip trips ctx ~t0;
           if think > 0 then Cpu.Thread.sleep ctx think
         done))

(* Sleep-poll with a deadline: a blocked wait would need its own wakeup
   plumbing; polling at a fixed cadence keeps the drivers deterministic
   and immune to lost wakeups. *)
let poll_step = Time.us 2

let poll ctx ~deadline f =
  let rec go () =
    match f () with
    | Some _ as r -> r
    | None ->
        if Cpu.Thread.now ctx >= deadline then None
        else begin
          Cpu.Thread.sleep ctx poll_step;
          go ()
        end
  in
  go ()

let prime_rx tn =
  for s = 0 to Ring.capacity tn.Tenant.rx - 1 do
    ignore
      (Ring.post tn.Tenant.rx ~now:Time.zero ~id:s
         ~off:(Tenant.rx_buf_off tn s) ~len:tn.Tenant.buf_bytes)
  done

(* One outstanding descriptor: its completion status comes back on the
   tx used ring, the echo on the rx used ring. *)
let guest_victim trips tn ~ops ~bytes ~stop_at ~gap ctx =
  prime_rx tn;
  let n = ref 0 in
  let next_id = ref 0 in
  while !n < ops && Cpu.Thread.now ctx < stop_at do
    incr n;
    let t0 = Cpu.Thread.now ctx in
    let rec attempt k =
      if k > 3 then trips.failed <- trips.failed + 1
      else begin
        if k > 1 then trips.retries <- trips.retries + 1;
        let slot = !n mod Ring.capacity tn.Tenant.tx in
        (* Fresh id per attempt: a timed-out attempt's descriptor may
           still be in flight, and reusing its id would be scored as id
           aliasing by the hardened mux.  The id is a label; the buffer
           slot stays op-indexed. *)
        incr next_id;
        let id = !next_id in
        if
          not
            (Ring.post tn.Tenant.tx ~now:(Cpu.Thread.now ctx) ~id
               ~off:(Tenant.tx_buf_off tn slot) ~len:bytes)
        then begin
          (* Single outstanding op: a full tx ring means cancelled
             completions from a detach are pending; nothing to do. *)
          Cpu.Thread.sleep ctx (Time.us 50);
          attempt (k + 1)
        end
        else
          let deadline = Time.add (Cpu.Thread.now ctx) (Time.ms 4) in
          (* Drop stale used entries (from attempts that timed out here
             but completed later): match on descriptor id. *)
          match
            poll ctx ~deadline (fun () ->
                match Ring.pop_used tn.Tenant.tx with
                | Some u when u.Ring.u_id = id -> Some u
                | Some _ | None -> None)
          with
          | Some u when u.Ring.u_status = Ring.Complete -> (
              (* The echo window must ride out a full engine blackout on
                 its own: the transport has taken responsibility, so the
                 echo is coming — late, not lost. *)
              let deadline = Time.add (Cpu.Thread.now ctx) (Time.ms 10) in
              match poll ctx ~deadline (fun () -> Ring.pop_used tn.Tenant.rx) with
              | Some ru ->
                  (* Return the buffer to the rx ring. *)
                  ignore
                    (Ring.post tn.Tenant.rx ~now:(Cpu.Thread.now ctx)
                       ~id:ru.Ring.u_id
                       ~off:(Tenant.rx_buf_off tn ru.Ring.u_id)
                       ~len:tn.Tenant.buf_bytes);
                  trip trips ctx ~t0
              | None -> trips.failed <- trips.failed + 1)
          | Some _ ->
              (* Rejected / timed out / busy: back off and retry. *)
              Cpu.Thread.sleep ctx (Time.us 50);
              attempt (k + 1)
          | None ->
              (* No completion within the window — typically the mux
                 engine is mid-blackout.  Retry: the stale descriptor
                 completes later and is dropped by the id match. *)
              attempt (k + 1)
      end
    in
    attempt 1;
    if gap > 0 then Cpu.Thread.sleep ctx gap
  done

(* -- Fingerprints ---------------------------------------------------------- *)

let strip_pkt_ids detail =
  String.split_on_char ' ' detail
  |> List.filter (fun tok ->
         not (String.length tok > 4 && String.sub tok 0 4 = "pkt#"))
  |> String.concat " "

let add_fault_log buf log =
  List.iter
    (fun (e : Fault.Log.entry) ->
      Buffer.add_string buf
        (Printf.sprintf "%d %s %s\n" e.at e.kind (strip_pkt_ids e.detail)))
    (Fault.Log.entries log)
