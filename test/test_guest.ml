(* Tests for the guest subsystem: virtio-style rings, tenant
   accounting, and the mux backend end-to-end. *)

module T = Sim.Time
module Ring = Guest.Ring
module Tenant = Guest.Tenant
module PE = Pony.Express

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk_region ?(size = 4096) () =
  Memory.Region.create ~backed:true ~id:9000 ~size ~owner:"test" ()

let mk_ring ?(slots = 4) ?region () =
  let region =
    match region with Some r -> r | None -> mk_region ()
  in
  Ring.create ~name:"test-ring" ~region ~slots ()

(* What a mux's tenants show: how many satisfy [p], and how many tx ops
   the mux has taken and not yet completed. *)
let count_tenants mux p = List.length (List.filter p (Guest.Mux.tenants mux))

let inflight_ops mux =
  List.fold_left
    (fun acc tn -> acc + Ring.in_flight tn.Tenant.tx)
    0 (Guest.Mux.tenants mux)

let attached mux =
  count_tenants mux (fun tn -> Tenant.state tn = Tenant.Attached)

let quarantined mux =
  count_tenants mux (fun tn -> Tenant.health tn = Tenant.Quarantined)

(* {1 Ring} *)

(* Index legality for a well-behaved guest: [reaped <= used <= taken <=
   avail] and occupancy within capacity.  A byzantine guest may break
   it; the backend relies only on what [Ring.monitor] checks. *)
let healthy r =
  let avail = Ring.avail_idx r and taken = Ring.taken_idx r in
  let used = Ring.used_idx r and occ = Ring.occupancy r in
  let reaped = avail - occ in
  if 0 <= reaped && reaped <= used && used <= taken && taken <= avail
     && occ <= Ring.capacity r
  then None
  else
    Some
      (Printf.sprintf "avail %d taken %d used %d reaped %d" avail taken used
         reaped)

(* Take one descriptor through the validating path, which must accept
   it. *)
let take_ok r =
  match Ring.take_checked r with
  | Ring.Take_ok d -> d
  | _ -> Alcotest.fail "expected Take_ok"

let test_ring_fifo () =
  let r = mk_ring () in
  check_bool "post 0" true (Ring.post r ~now:T.zero ~id:0 ~off:0 ~len:64);
  check_bool "post 1" true (Ring.post r ~now:T.zero ~id:1 ~off:64 ~len:64);
  check_int "backlog" 2 (Ring.backlog r);
  check_int "take oldest" 0 (take_ok r).Ring.d_id;
  check_int "in flight" 1 (Ring.in_flight r);
  Ring.complete r ~id:0 ~len:64 ~status:Ring.Complete;
  (match Ring.pop_used r with
  | Some u ->
      check_int "used id" 0 u.Ring.u_id;
      check_bool "complete status" true (u.Ring.u_status = Ring.Complete)
  | None -> Alcotest.fail "expected used entry");
  check_int "occupancy after reap" 1 (Ring.occupancy r);
  Alcotest.(check (option string)) "healthy" None (healthy r)

let test_ring_out_of_order_completion () =
  let r = mk_ring () in
  for i = 0 to 2 do
    ignore (Ring.post r ~now:T.zero ~id:i ~off:(i * 64) ~len:64)
  done;
  for _ = 0 to 2 do
    ignore (take_ok r)
  done;
  (* Used entries carry descriptor ids, so the backend may publish in
     any order; the guest reaps in publication order. *)
  Ring.complete r ~id:2 ~len:64 ~status:Ring.Complete;
  Ring.complete r ~id:0 ~len:64 ~status:Ring.Failed;
  Ring.complete r ~id:1 ~len:64 ~status:Ring.Complete;
  let ids =
    List.init 3 (fun _ ->
        match Ring.pop_used r with
        | Some u -> u.Ring.u_id
        | None -> Alcotest.fail "missing used entry")
  in
  Alcotest.(check (list int)) "publication order" [ 2; 0; 1 ] ids;
  Alcotest.(check (option string)) "healthy" None (healthy r)

let test_ring_fullness_until_reaped () =
  (* Virtio fullness is [avail - reaped <= capacity]: completion alone
     does not free a slot, the guest must reap the used entry. *)
  let r = mk_ring ~slots:2 () in
  check_bool "post a" true (Ring.post r ~now:T.zero ~id:0 ~off:0 ~len:64);
  check_bool "post b" true (Ring.post r ~now:T.zero ~id:1 ~off:64 ~len:64);
  check_int "full" 2 (Ring.occupancy r);
  check_bool "post bounces" false (Ring.post r ~now:T.zero ~id:2 ~off:0 ~len:64);
  check_int "bounce counted" 1 (Ring.post_failures r);
  ignore (take_ok r);
  ignore (take_ok r);
  Ring.complete r ~id:0 ~len:64 ~status:Ring.Complete;
  Ring.complete r ~id:1 ~len:64 ~status:Ring.Complete;
  check_bool "still full before reap" false
    (Ring.post r ~now:T.zero ~id:2 ~off:0 ~len:64);
  ignore (Ring.pop_used r);
  check_bool "slot freed by reap" true
    (Ring.post r ~now:T.zero ~id:2 ~off:0 ~len:64);
  Alcotest.(check (option string)) "healthy" None (healthy r)

let test_ring_wrap_indices () =
  (* Drive the free-running indices several times around a tiny ring;
     they must grow monotonically and stay ordered the whole way. *)
  let r = mk_ring ~slots:2 () in
  let monitor = Ring.monitor r in
  for i = 0 to 19 do
    check_bool "post" true
      (Ring.post r ~now:T.zero ~id:i ~off:(i mod 2 * 64) ~len:64);
    ignore (take_ok r);
    Ring.complete r ~id:i ~len:64 ~status:Ring.Complete;
    ignore (Ring.pop_used r);
    Alcotest.(check (option string)) "monitor happy" None (monitor ())
  done;
  check_int "avail wrapped far past capacity" 20 (Ring.avail_idx r);
  check_int "reaped caught up" 0 (Ring.occupancy r)

let test_ring_bad_post_counted () =
  (* A buggy (non-hostile) guest driver posting outside its region is a
     counted, non-fatal rejection: the descriptor never reaches the
     ring.  Exceptions are reserved for host-side API misuse. *)
  let r = mk_ring ~slots:4 () in
  check_bool "past region end refused" false
    (Ring.post r ~now:T.zero ~id:0 ~off:4000 ~len:200);
  check_bool "negative length refused" false
    (Ring.post r ~now:T.zero ~id:1 ~off:0 ~len:(-8));
  check_bool "negative offset refused" false
    (Ring.post r ~now:T.zero ~id:2 ~off:(-64) ~len:64);
  check_int "rejections counted" 3 (Ring.post_bad_range r);
  check_int "nothing reached the ring" 0 (Ring.backlog r);
  check_int "fullness bounces counted separately" 0 (Ring.post_failures r);
  check_bool "ring still usable" true
    (Ring.post r ~now:T.zero ~id:3 ~off:0 ~len:64);
  Alcotest.(check (option string)) "healthy" None (healthy r);
  (* Host-side misuse is still a programming error, not guest input. *)
  ignore (take_ok r);
  Ring.complete r ~id:3 ~len:64 ~status:Ring.Complete;
  Alcotest.check_raises "completion without take raises"
    (Invalid_argument
       "Guest.Ring.complete(test-ring): more completions than takes")
    (fun () -> Ring.complete r ~id:0 ~len:0 ~status:Ring.Complete)

(* {1 Host-side trust boundary} *)

let test_take_checked_bad_range () =
  let r = mk_ring ~slots:4 () in
  Ring.post_raw r ~now:T.zero ~id:7 ~off:4000 ~len:200;
  (match Ring.take_checked r with
  | Ring.Take_bad (Ring.Bad_range, d) ->
      (* The host still learns the id so it can complete [Failed] and
         keep tx/used accounting balanced. *)
      check_int "descriptor id surfaced" 7 d.Ring.d_id;
      Ring.complete r ~id:d.Ring.d_id ~len:0 ~status:Ring.Failed
  | _ -> Alcotest.fail "expected Take_bad Bad_range");
  (match Ring.pop_used r with
  | Some u -> check_bool "failed completion" true (u.Ring.u_status = Ring.Failed)
  | None -> Alcotest.fail "expected used entry");
  Alcotest.(check (option string)) "host indices sane" None (Ring.monitor r ())

let test_take_checked_rollback () =
  let r = mk_ring ~slots:4 () in
  for i = 0 to 2 do
    Ring.post_raw r ~now:T.zero ~id:i ~off:(i * 64) ~len:64
  done;
  (match Ring.take_checked r with
  | Ring.Take_ok d -> Ring.complete r ~id:d.Ring.d_id ~len:64 ~status:Ring.Complete
  | _ -> Alcotest.fail "expected Take_ok");
  (* The guest's avail index regresses below what the host observed. *)
  Ring.set_avail_raw r 1;
  (match Ring.take_checked r with
  | Ring.Take_stop Ring.Rollback -> ()
  | _ -> Alcotest.fail "expected Take_stop Rollback");
  (* The shadow resyncs, but never below [taken]: the host really
     consumed that entry and its record of it must survive. *)
  Alcotest.(check (option string)) "host indices sane" None (Ring.monitor r ());
  (match Ring.take_checked r with
  | Ring.Take_empty -> ()
  | _ ->
      Alcotest.fail
        "expected Take_empty after resync: one verdict covers the regression");
  (* When the guest's index grows again the drain resumes where the
     host left off. *)
  Ring.set_avail_raw r 3;
  (match Ring.take_checked r with
  | Ring.Take_ok d -> check_int "drain resumes" 1 d.Ring.d_id
  | _ -> Alcotest.fail "expected Take_ok after recovery")

let test_take_checked_runahead_and_overcommit () =
  (* avail jumps far past capacity over slots no descriptor was ever
     written to: each unwritten slot drains as a drop until the
     overcommit guard refuses to take further. *)
  let r = mk_ring ~slots:4 () in
  Ring.set_avail_raw r 9;
  let drops = ref 0 and stopped = ref false in
  for _ = 1 to 6 do
    match Ring.take_checked r with
    | Ring.Take_drop Ring.Empty_slot -> incr drops
    | Ring.Take_stop Ring.Overcommit -> stopped := true
    | _ -> Alcotest.fail "expected drop or overcommit stop"
  done;
  check_int "one drop per slot up to capacity" 4 !drops;
  check_bool "then the host refuses to take" true !stopped;
  Alcotest.(check (option string)) "host indices sane" None (Ring.monitor r ())

let test_take_checked_reap_withhold () =
  (* Well-formed descriptors, used entries never reaped: after [cap]
     takes the ring is overcommitted and the host stops consuming, so a
     hostile guest cannot force used entries onto uncollected slots. *)
  let r = mk_ring ~slots:4 () in
  for i = 0 to 5 do
    Ring.post_raw r ~now:T.zero ~id:i ~off:0 ~len:64
  done;
  for _ = 0 to 3 do
    match Ring.take_checked r with
    | Ring.Take_ok d -> Ring.complete r ~id:d.Ring.d_id ~len:64 ~status:Ring.Complete
    | _ -> Alcotest.fail "expected Take_ok"
  done;
  (match Ring.take_checked r with
  | Ring.Take_stop Ring.Overcommit -> ()
  | _ -> Alcotest.fail "expected Take_stop Overcommit");
  check_int "in flight bounded by capacity" 4 (Ring.used_idx r);
  (* Reaping unblocks the ring. *)
  ignore (Ring.pop_used r);
  (match Ring.take_checked r with
  | Ring.Take_ok _ -> ()
  | _ -> Alcotest.fail "expected Take_ok after reap");
  Alcotest.(check (option string)) "host indices sane" None (Ring.monitor r ())

let test_take_pending () =
  (* The mux's keep rule: a binding with a pending take stays in its
     engine's busy set, so every case where [take_checked] would do
     more than a side-effect-free [Take_empty] must read pending. *)
  let r = mk_ring ~slots:4 () in
  check_bool "fresh ring" false (Ring.take_pending r);
  for i = 0 to 2 do
    ignore (Ring.post r ~now:T.zero ~id:i ~off:(i * 64) ~len:64)
  done;
  check_bool "after post" true (Ring.take_pending r);
  for _ = 0 to 2 do
    match Ring.take_checked r with
    | Ring.Take_ok _ -> ()
    | _ -> Alcotest.fail "expected Take_ok"
  done;
  check_bool "after the takes" false (Ring.take_pending r);
  (* avail regresses below taken: pending until the guest grows it. *)
  Ring.set_avail_raw r 1;
  check_bool "after set_avail_raw below taken" true (Ring.take_pending r);
  (match Ring.take_checked r with
  | Ring.Take_stop Ring.Rollback -> ()
  | _ -> Alcotest.fail "expected Take_stop Rollback");
  (* The shadow resyncs to taken (3), still above avail (1): the next
     take re-scores the rollback, so the ring stays pending. *)
  check_bool "after the resync, avail still below taken" true
    (Ring.take_pending r);
  (match Ring.take_checked r with
  | Ring.Take_stop Ring.Rollback -> ()
  | _ -> Alcotest.fail "expected the rollback re-scored");
  (* avail back at taken but below the shadow of a larger one: only the
     shadow clause sees it, and one resync clears it. *)
  let r2 = mk_ring ~slots:4 () in
  for i = 0 to 2 do
    ignore (Ring.post r2 ~now:T.zero ~id:i ~off:(i * 64) ~len:64)
  done;
  ignore (Ring.take_checked r2);
  Ring.set_avail_raw r2 1;
  check_int "no backlog" 0 (Ring.backlog r2);
  check_bool "avail at taken, below the shadow" true (Ring.take_pending r2);
  (match Ring.take_checked r2 with
  | Ring.Take_stop Ring.Rollback -> ()
  | _ -> Alcotest.fail "expected Take_stop Rollback");
  check_bool "after take_checked's resync" false (Ring.take_pending r2);
  Ring.set_avail_raw r2 9;
  check_bool "after a runahead" true (Ring.take_pending r2)

let test_ring_raw_wrap_around () =
  (* The raw surface drives the free-running indices several times
     around a tiny ring; the host-safety monitor must stay quiet. *)
  let r = mk_ring ~slots:2 () in
  let monitor = Ring.monitor r in
  for i = 0 to 19 do
    Ring.post_raw r ~now:T.zero ~id:i ~off:(i mod 2 * 64) ~len:64;
    (match Ring.take_checked r with
    | Ring.Take_ok d ->
        check_int "ids survive the wrap" i d.Ring.d_id;
        Ring.complete r ~id:d.Ring.d_id ~len:64 ~status:Ring.Complete
    | _ -> Alcotest.fail "expected Take_ok");
    ignore (Ring.pop_used r);
    Alcotest.(check (option string)) "monitor happy" None (monitor ())
  done;
  check_int "taken wrapped far past capacity" 20 (Ring.taken_idx r)

(* Fuzz the trust boundary: an arbitrary byte-driven guest throws
   random checked posts, raw posts, index writes, and reaps at the
   ring while the host drains with [take_checked].  Whatever the guest
   does, the host side must never raise, host-owned indices must stay
   sane, and completions must balance takes. *)
let ring_prop_hostile_guest =
  QCheck.Test.make ~name:"take_checked never raises, host indices stay sane"
    ~count:300
    QCheck.(list (pair (int_bound 5) (pair small_int small_signed_int)))
    (fun cmds ->
      let r = mk_ring ~slots:4 () in
      let completes = ref 0 in
      let host_drain () =
        match Ring.take_checked r with
        | Ring.Take_ok d ->
            Ring.complete r ~id:d.Ring.d_id ~len:d.Ring.d_len
              ~status:Ring.Complete;
            incr completes
        | Ring.Take_bad (_, d) ->
            Ring.complete r ~id:d.Ring.d_id ~len:0 ~status:Ring.Failed;
            incr completes
        | Ring.Take_empty | Ring.Take_drop _ | Ring.Take_stop _ -> ()
      in
      List.iter
        (fun (op, (a, b)) ->
          (match op with
          | 0 -> ignore (Ring.post r ~now:T.zero ~id:a ~off:b ~len:(a * 16))
          | 1 -> Ring.post_raw r ~now:T.zero ~id:a ~off:b ~len:(b * 3)
          | 2 -> Ring.set_avail_raw r (Ring.avail_idx r + b)
          | 3 -> ignore (Ring.pop_used r)
          | 4 -> Ring.kick_raw r
          | _ -> host_drain ());
          (* The host services the ring between guest actions. *)
          host_drain ();
          match Ring.monitor r () with
          | None -> ()
          | Some msg -> QCheck.Test.fail_reportf "host invariant: %s" msg)
        cmds;
      (* Every take that yielded a descriptor was completed; used can
         never run ahead of taken no matter what the guest wrote. *)
      Ring.used_idx r = !completes && Ring.used_idx r <= Ring.taken_idx r)

let test_ring_notifiers () =
  let r = mk_ring () in
  let kicked = ref 0 in
  Ring.arm_kick r (fun () -> incr kicked);
  ignore (Ring.post r ~now:T.zero ~id:0 ~off:0 ~len:64);
  check_int "kick fired" 1 !kicked;
  (* Edge-triggered: disarmed after firing, further posts coalesce. *)
  ignore (Ring.post r ~now:T.zero ~id:1 ~off:64 ~len:64);
  check_int "kick coalesced" 1 !kicked

(* {1 Tenant} *)

let test_tenant_layout_and_counters () =
  let pool = Memory.Pool.create ~name:"t-pool" ~capacity_bytes:(1 lsl 20) in
  let tn =
    Tenant.create ~pool ~host_addr:0 ~name:"t0" ~id:0 ~ring_slots:4
      ~buf_bytes:128 ()
  in
  check_int "tx buf 0" 0 (Tenant.tx_buf_off tn 0);
  check_int "tx buf wraps" 128 (Tenant.tx_buf_off tn 5);
  check_int "rx bufs in second half" (4 * 128) (Tenant.rx_buf_off tn 0);
  check_int "region covers both halves" (2 * 4 * 128)
    (Memory.Region.size tn.Tenant.region);
  Tenant.note_tx tn Ring.Complete;
  Tenant.note_tx tn Ring.Rejected;
  Tenant.note_tx tn Ring.Timed_out;
  Tenant.note_tx tn Ring.Cancelled;
  Tenant.note_rx tn 100;
  Tenant.note_rx_drop tn;
  Tenant.note_reclaimed tn 777;
  check_int "tx completed" 1 (Tenant.tx_completed tn);
  check_int "tx rejected" 1 (Tenant.tx_rejected tn);
  check_int "tx failed" 1 (Tenant.tx_failed tn);
  check_int "tx cancelled" 1 (Tenant.tx_cancelled tn);
  check_int "rx delivered" 1 (Tenant.rx_delivered tn);
  check_int "rx drops" 1 (Tenant.rx_drops tn);
  check_int "reclaimed" 777 (Tenant.reclaimed_bytes tn)

let test_tenant_owner_reclaim () =
  (* The detach path in one unit: admission charges land in the pool
     under the tenant's owner, and a generation-tagged bulk reclaim
     returns every charged byte while stale releases become no-ops. *)
  let pool = Memory.Pool.create ~name:"r-pool" ~capacity_bytes:(1 lsl 20) in
  let tn =
    Tenant.create ~pool ~host_addr:0 ~name:"t1" ~id:1 ~ring_slots:4
      ~buf_bytes:128 ()
  in
  let charges =
    List.init 3 (fun _ ->
        match Overload.Admission.admit tn.Tenant.adm ~now:T.zero ~bytes:256 with
        | Overload.Admission.Admitted a -> a
        | Overload.Admission.Rejected _ -> Alcotest.fail "unexpected reject")
  in
  check_int "charged to owner" (3 * 256) (Tenant.pool_usage tn);
  let reclaimed = Memory.Pool.release_owner pool ~owner:tn.Tenant.owner in
  check_int "bulk reclaim returns every byte" (3 * 256) reclaimed;
  check_int "owner emptied" 0 (Tenant.pool_usage tn);
  (* Straggler releases after the generation bump must be no-ops. *)
  List.iter (fun a -> Overload.Admission.release tn.Tenant.adm a) charges;
  check_int "stale releases are no-ops" 0 (Tenant.pool_usage tn);
  Memory.Pool.assert_quiesced pool

(* A tenant holds one [guest_violations] counter per reason, so the
   registry entry keeps counting across repeated violations. *)
let test_tenant_violation_counters () =
  let pool = Memory.Pool.create ~name:"v-pool" ~capacity_bytes:(1 lsl 20) in
  let tn = Tenant.create ~pool ~host_addr:0 ~name:"v0" ~id:2 () in
  for _ = 1 to 3 do
    ignore (Tenant.note_violation tn Tenant.Bad_range)
  done;
  check_int "total returned" 4 (Tenant.note_violation tn Tenant.Rollback);
  let registered reason =
    match
      Stats.Registry.find
        ~labels:
          [ ("tenant", tn.Tenant.owner);
            ("reason", Tenant.violation_to_string reason) ]
        "guest_violations"
    with
    | Some { Stats.Registry.m_kind = Stats.Registry.Counter c; _ } ->
        Stats.Counter.value c
    | _ -> Alcotest.fail "guest_violations not registered"
  in
  check_int "bad-range counter" (Tenant.violations_by tn Tenant.Bad_range)
    (registered Tenant.Bad_range);
  check_int "bad-range count" 3 (registered Tenant.Bad_range);
  check_int "rollback counter" 1 (registered Tenant.Rollback)

(* {1 Mux end-to-end} *)

let test_mux_echo_and_detach () =
  let loop = Sim.Loop.create ~seed:7 () in
  let fab = Fabric.create ~loop ~config:Fabric.default_config ~hosts:2 in
  let dir = PE.Directory.create () in
  let mk addr =
    Snap.Host.create ~loop ~fabric:fab ~directory:dir ~addr
      ~mode:(Engine.Dedicating { cores = 2 })
      ()
  in
  let h_guest = mk 0 in
  let h_srv = mk 1 in
  ignore (Snap.Host.enable_guests h_guest);
  ignore
    (Snap.Host.spawn_app h_srv ~name:"echo" ~spin:true (fun ctx ->
         let c = PE.create_client ctx h_srv.Snap.Host.pony ~name:"echo" () in
         while true do
           let m = PE.await_message ctx c in
           ignore (PE.send_message ctx m.PE.msg_conn ~bytes:m.PE.msg_bytes ())
         done));
  let echoes = ref 0 in
  let statuses = ref [] in
  let done_tenant = ref None in
  ignore
    (Snap.Host.spawn_app h_guest ~name:"guest" (fun ctx ->
         Cpu.Thread.sleep ctx (T.us 100);
         let tn =
           Snap.Host.attach_tenant ctx h_guest ~name:"g0" ~dst_host:1
             ~dst_name:"echo" ~ring_slots:8 ~buf_bytes:512 ()
         in
         for s = 0 to Ring.capacity tn.Tenant.rx - 1 do
           ignore
             (Ring.post tn.Tenant.rx ~now:(Cpu.Thread.now ctx) ~id:s
                ~off:(Tenant.rx_buf_off tn s) ~len:512)
         done;
         for i = 0 to 2 do
           ignore
             (Ring.post tn.Tenant.tx ~now:(Cpu.Thread.now ctx) ~id:i
                ~off:(Tenant.tx_buf_off tn i) ~len:256)
         done;
         (* Sleep-poll both used rings until all three echoes landed. *)
         let deadline = T.add (Cpu.Thread.now ctx) (T.ms 20) in
         while
           (!echoes < 3 || List.length !statuses < 3)
           && Cpu.Thread.now ctx < deadline
         do
           (match Ring.pop_used tn.Tenant.tx with
           | Some u -> statuses := u.Ring.u_status :: !statuses
           | None -> ());
           (match Ring.pop_used tn.Tenant.rx with
           | Some _ -> incr echoes
           | None -> ());
           Cpu.Thread.sleep ctx (T.us 2)
         done;
         Snap.Host.detach_tenant h_guest tn;
         done_tenant := Some tn));
  Sim.Loop.run ~until:(T.ms 40) loop;
  (match !done_tenant with
  | None -> Alcotest.fail "guest app never finished"
  | Some tn ->
      check_int "all sends completed" 3 (Tenant.tx_completed tn);
      check_bool "every status Complete" true
        (List.for_all (fun s -> s = Ring.Complete) !statuses);
      check_int "all echoes delivered" 3 (Tenant.rx_delivered tn);
      check_int "no rx drops" 0 (Tenant.rx_drops tn);
      check_bool "detached at quiesce" true (Tenant.state tn = Tenant.Detached);
      check_int "no charges left behind" 0 (Tenant.pool_usage tn));
  (match Snap.Host.guest_mux h_guest with
  | Some mux ->
      check_int "no in-flight ops" 0 (inflight_ops mux);
      check_int "tenant gone from mux" 0 (attached mux)
  | None -> Alcotest.fail "mux missing");
  Memory.Pool.assert_quiesced (PE.op_pool h_guest.Snap.Host.pony)

let test_mux_force_detach () =
  let loop = Sim.Loop.create ~seed:8 () in
  let fab = Fabric.create ~loop ~config:Fabric.default_config ~hosts:2 in
  let dir = PE.Directory.create () in
  let mk addr =
    Snap.Host.create ~loop ~fabric:fab ~directory:dir ~addr
      ~mode:(Engine.Dedicating { cores = 2 })
      ()
  in
  let h_guest = mk 0 in
  let h_srv = mk 1 in
  ignore (Snap.Host.enable_guests h_guest);
  ignore
    (Snap.Host.spawn_app h_srv ~name:"sink" ~spin:true (fun ctx ->
         let c = PE.create_client ctx h_srv.Snap.Host.pony ~name:"sink" () in
         while true do
           let _m = PE.await_message ctx c in
           Cpu.Thread.compute ctx (T.us 1)
         done));
  let done_tenant = ref None in
  ignore
    (Snap.Host.spawn_app h_guest ~name:"guest" (fun ctx ->
         Cpu.Thread.sleep ctx (T.us 100);
         let tn =
           Snap.Host.attach_tenant ctx h_guest ~name:"g1" ~dst_host:1
             ~dst_name:"sink" ~ring_slots:8 ~buf_bytes:512 ()
         in
         for i = 0 to 5 do
           ignore
             (Ring.post tn.Tenant.tx ~now:(Cpu.Thread.now ctx) ~id:i
                ~off:(Tenant.tx_buf_off tn i) ~len:256)
         done;
         (* Yank the tenant with descriptors still queued or in flight:
            the forced path must abandon them and bulk-reclaim. *)
         Cpu.Thread.sleep ctx (T.us 20);
         Snap.Host.detach_tenant ~force:true h_guest tn;
         done_tenant := Some tn));
  Sim.Loop.run ~until:(T.ms 40) loop;
  (match !done_tenant with
  | None -> Alcotest.fail "guest app never finished"
  | Some tn ->
      check_bool "detached" true (Tenant.state tn = Tenant.Detached);
      check_int "no charges left behind" 0 (Tenant.pool_usage tn));
  (match Snap.Host.guest_mux h_guest with
  | Some mux -> check_int "no in-flight ops" 0 (inflight_ops mux)
  | None -> Alcotest.fail "mux missing");
  Memory.Pool.assert_quiesced (PE.op_pool h_guest.Snap.Host.pony)

let test_mux_quarantine_hostile_tenant () =
  (* A hostile tenant hammers its tx ring through the raw surface while
     a well-behaved neighbour echoes traffic.  The mux must score the
     violations, quarantine and force-detach the attacker, and leave
     the neighbour untouched. *)
  let loop = Sim.Loop.create ~seed:11 () in
  let fab = Fabric.create ~loop ~config:Fabric.default_config ~hosts:2 in
  let dir = PE.Directory.create () in
  let mk addr =
    Snap.Host.create ~loop ~fabric:fab ~directory:dir ~addr
      ~mode:(Engine.Dedicating { cores = 2 })
      ()
  in
  let h_guest = mk 0 in
  let h_srv = mk 1 in
  ignore
    (Snap.Host.enable_guests ~suspect_after:2 ~quarantine_after:5 h_guest);
  ignore
    (Snap.Host.spawn_app h_srv ~name:"echo" ~spin:true (fun ctx ->
         let c = PE.create_client ctx h_srv.Snap.Host.pony ~name:"echo" () in
         while true do
           let m = PE.await_message ctx c in
           ignore (PE.send_message ctx m.PE.msg_conn ~bytes:m.PE.msg_bytes ())
         done));
  let evil = ref None and good = ref None in
  ignore
    (Snap.Host.spawn_app h_guest ~name:"evil" (fun ctx ->
         Cpu.Thread.sleep ctx (T.us 100);
         let tn =
           Snap.Host.attach_tenant ctx h_guest ~name:"evil" ~dst_host:1
             ~dst_name:"echo" ~ring_slots:8 ~buf_bytes:512 ()
         in
         evil := Some tn;
         (* Garbage descriptors until well past the quarantine
            threshold; keep posting after detach — frozen host indices
            are the containment property, not guest silence. *)
         let sz = Memory.Region.size tn.Tenant.region in
         for i = 0 to 19 do
           Ring.post_raw tn.Tenant.tx ~now:(Cpu.Thread.now ctx) ~id:i ~off:sz
             ~len:64;
           Cpu.Thread.sleep ctx (T.us 50)
         done));
  ignore
    (Snap.Host.spawn_app h_guest ~name:"good" (fun ctx ->
         Cpu.Thread.sleep ctx (T.us 120);
         let tn =
           Snap.Host.attach_tenant ctx h_guest ~name:"good" ~dst_host:1
             ~dst_name:"echo" ~ring_slots:8 ~buf_bytes:512 ()
         in
         for s = 0 to Ring.capacity tn.Tenant.rx - 1 do
           ignore
             (Ring.post tn.Tenant.rx ~now:(Cpu.Thread.now ctx) ~id:s
                ~off:(Tenant.rx_buf_off tn s) ~len:512)
         done;
         for i = 0 to 2 do
           ignore
             (Ring.post tn.Tenant.tx ~now:(Cpu.Thread.now ctx) ~id:i
                ~off:(Tenant.tx_buf_off tn i) ~len:256)
         done;
         let deadline = T.add (Cpu.Thread.now ctx) (T.ms 20) in
         while
           Tenant.tx_completed tn < 3 && Cpu.Thread.now ctx < deadline
         do
           (match Ring.pop_used tn.Tenant.tx with Some _ | None -> ());
           ignore (Ring.pop_used tn.Tenant.rx);
           Cpu.Thread.sleep ctx (T.us 5)
         done;
         Snap.Host.detach_tenant h_guest tn;
         good := Some tn));
  Sim.Loop.run ~until:(T.ms 40) loop;
  (match !evil with
  | None -> Alcotest.fail "hostile app never attached"
  | Some tn ->
      check_bool "attacker quarantined" true
        (Tenant.health tn = Tenant.Quarantined);
      check_bool "attacker force-detached" true
        (Tenant.state tn = Tenant.Detached);
      check_bool "violations scored" true
        (Tenant.violations_by tn Tenant.Bad_range >= 5);
      check_int "no charges left behind" 0 (Tenant.pool_usage tn));
  (match !good with
  | None -> Alcotest.fail "good app never finished"
  | Some tn ->
      check_bool "neighbour stayed healthy" true
        (Tenant.health tn = Tenant.Healthy);
      check_int "neighbour unaffected" 3 (Tenant.tx_completed tn);
      check_int "neighbour scored no violations" 0 (Tenant.violations tn));
  (match Snap.Host.guest_mux h_guest with
  | Some mux ->
      check_int "one quarantine" 1 (quarantined mux);
      check_bool "suspect escalation preceded it" true
        (Guest.Mux.suspects mux >= 1);
      check_int "no in-flight ops" 0 (inflight_ops mux);
      check_int "all tenants gone from mux" 0 (attached mux)
  | None -> Alcotest.fail "mux missing");
  Memory.Pool.assert_quiesced (PE.op_pool h_guest.Snap.Host.pony)

let test_mux_counters_per_host () =
  (* Two muxes in one simulation: host 0's quarantine must not show in
     host 1's per-instance counters. *)
  let loop = Sim.Loop.create ~seed:11 () in
  let fab = Fabric.create ~loop ~config:Fabric.default_config ~hosts:3 in
  let dir = PE.Directory.create () in
  let mk addr =
    Snap.Host.create ~loop ~fabric:fab ~directory:dir ~addr
      ~mode:(Engine.Dedicating { cores = 2 })
      ()
  in
  let h0 = mk 0 and h1 = mk 1 and h_srv = mk 2 in
  let mux0 = Snap.Host.enable_guests ~suspect_after:2 ~quarantine_after:5 h0 in
  let mux1 = Snap.Host.enable_guests h1 in
  ignore
    (Snap.Host.spawn_app h_srv ~name:"echo" ~spin:true (fun ctx ->
         let c = PE.create_client ctx h_srv.Snap.Host.pony ~name:"echo" () in
         while true do
           let m = PE.await_message ctx c in
           ignore (PE.send_message ctx m.PE.msg_conn ~bytes:m.PE.msg_bytes ())
         done));
  ignore
    (Snap.Host.spawn_app h0 ~name:"evil" (fun ctx ->
         Cpu.Thread.sleep ctx (T.us 100);
         let tn =
           Snap.Host.attach_tenant ctx h0 ~name:"evil" ~dst_host:2
             ~dst_name:"echo" ~ring_slots:8 ~buf_bytes:512 ()
         in
         let sz = Memory.Region.size tn.Tenant.region in
         for i = 0 to 19 do
           Ring.post_raw tn.Tenant.tx ~now:(Cpu.Thread.now ctx) ~id:i ~off:sz
             ~len:64;
           Cpu.Thread.sleep ctx (T.us 50)
         done));
  Sim.Loop.run ~until:(T.ms 40) loop;
  check_int "host 0 quarantined its tenant" 1 (quarantined mux0);
  check_bool "host 0 escalated first" true (Guest.Mux.suspects mux0 >= 1);
  check_int "host 1 quarantined nothing" 0 (quarantined mux1);
  check_int "host 1 escalated nothing" 0 (Guest.Mux.suspects mux1);
  check_int "host 1 matched every completion" 0
    (Guest.Mux.unmatched_completions mux1)

(* A guest host with a mux and a sink server on a second host. *)
let mk_guest_pair ~seed ?suspect_after ?quarantine_after () =
  let loop = Sim.Loop.create ~seed () in
  let fab = Fabric.create ~loop ~config:Fabric.default_config ~hosts:2 in
  let dir = PE.Directory.create () in
  let mk addr =
    Snap.Host.create ~loop ~fabric:fab ~directory:dir ~addr
      ~mode:(Engine.Dedicating { cores = 2 })
      ()
  in
  let h_guest = mk 0 in
  let h_srv = mk 1 in
  let mux =
    Snap.Host.enable_guests ?suspect_after ?quarantine_after h_guest
  in
  ignore
    (Snap.Host.spawn_app h_srv ~name:"sink" ~spin:true (fun ctx ->
         let c = PE.create_client ctx h_srv.Snap.Host.pony ~name:"sink" () in
         while true do
           let _m = PE.await_message ctx c in
           Cpu.Thread.compute ctx (T.us 1)
         done));
  (loop, h_guest, mux)

(* Post [n] sends and sleep-poll until all complete, reaping as they
   land; returns the number completed. *)
let send_and_reap ctx tn ~first ~n =
  let now () = Cpu.Thread.now ctx in
  for i = first to first + n - 1 do
    ignore
      (Ring.post tn.Tenant.tx ~now:(now ()) ~id:i
         ~off:(Tenant.tx_buf_off tn (i mod Ring.capacity tn.Tenant.tx))
         ~len:256)
  done;
  let deadline = T.add (now ()) (T.ms 5) in
  let reaped = ref 0 in
  while !reaped < n && now () < deadline do
    (match Ring.pop_used tn.Tenant.tx with
    | Some _ -> incr reaped
    | None -> ());
    Cpu.Thread.sleep ctx (T.us 5)
  done;
  !reaped

let test_mux_rollback_rescored () =
  (* One rollback of the tx avail index below taken, one kick, then
     silence from that guest while a neighbour keeps the mux engine
     busy.  The rolled-back ring keeps a take pending, so its tenant
     stays in the busy set and every pass re-scores Rollback until
     quarantine.  A keep rule that looked only at a positive backlog
     would drop it after one score. *)
  let loop, h_guest, mux =
    mk_guest_pair ~seed:12 ~suspect_after:2 ~quarantine_after:6 ()
  in
  let victim = ref None and settled = ref 0 in
  let rolled = ref false and neighbour = ref None and sent = ref 0 in
  ignore
    (Snap.Host.spawn_app h_guest ~name:"rollback" (fun ctx ->
         Cpu.Thread.sleep ctx (T.us 100);
         let tn =
           Snap.Host.attach_tenant ctx h_guest ~name:"rb" ~dst_host:1
             ~dst_name:"sink" ~ring_slots:8 ~buf_bytes:512 ()
         in
         victim := Some tn;
         settled := send_and_reap ctx tn ~first:0 ~n:3;
         Ring.set_avail_raw tn.Tenant.tx 1;
         rolled := true));
  ignore
    (Snap.Host.spawn_app h_guest ~name:"neighbour" (fun ctx ->
         Cpu.Thread.sleep ctx (T.us 120);
         let tn =
           Snap.Host.attach_tenant ctx h_guest ~name:"nb" ~dst_host:1
             ~dst_name:"sink" ~ring_slots:8 ~buf_bytes:512 ()
         in
         neighbour := Some tn;
         while not !rolled do
           Cpu.Thread.sleep ctx (T.us 10)
         done;
         for i = 0 to 19 do
           sent := !sent + send_and_reap ctx tn ~first:i ~n:1
         done));
  Sim.Loop.run ~until:(T.ms 20) loop;
  check_int "sends settled before the rollback" 3 !settled;
  check_bool "rolled back" true !rolled;
  check_int "neighbour sends completed" 20 !sent;
  (match !neighbour with
  | Some tn ->
      check_bool "neighbour healthy" true (Tenant.health tn = Tenant.Healthy)
  | None -> Alcotest.fail "neighbour never attached");
  match !victim with
  | None -> Alcotest.fail "guest never attached"
  | Some tn ->
      check_int "one spurious kick" 1
        (Tenant.violations_by tn Tenant.Spurious_kick);
      check_int "rollback re-scored up to the threshold" 5
        (Tenant.violations_by tn Tenant.Rollback);
      check_bool "quarantined" true (Tenant.health tn = Tenant.Quarantined);
      check_int "one quarantine" 1 (quarantined mux);
      check_int "no charges left behind" 0 (Tenant.pool_usage tn)

let test_mux_post_during_engine_detach () =
  (* A post that lands while the mux engine is detached wakes nobody;
     its mark outlives the engine epoch, so the first pass after the
     engine re-attaches serves it. *)
  let loop, h_guest, mux = mk_guest_pair ~seed:13 () in
  let e = List.hd (Guest.Mux.engines mux) in
  let g = Guest.Mux.group mux in
  let warm = ref 0 and taken_detached = ref (-1) and after = ref 0 in
  ignore
    (Snap.Host.spawn_app h_guest ~name:"guest" (fun ctx ->
         Cpu.Thread.sleep ctx (T.us 100);
         let tn =
           Snap.Host.attach_tenant ctx h_guest ~name:"g" ~dst_host:1
             ~dst_name:"sink" ~ring_slots:8 ~buf_bytes:512 ()
         in
         warm := send_and_reap ctx tn ~first:0 ~n:1;
         Engine.remove g e;
         ignore
           (Ring.post tn.Tenant.tx ~now:(Cpu.Thread.now ctx) ~id:1
              ~off:(Tenant.tx_buf_off tn 1) ~len:256);
         Cpu.Thread.sleep ctx (T.us 200);
         taken_detached := Ring.taken_idx tn.Tenant.tx;
         Engine.add g e;
         let deadline = T.add (Cpu.Thread.now ctx) (T.ms 5) in
         while !after = 0 && Cpu.Thread.now ctx < deadline do
           (match Ring.pop_used tn.Tenant.tx with
           | Some u ->
               check_bool "served Complete" true (u.Ring.u_status = Ring.Complete);
               incr after
           | None -> ());
           Cpu.Thread.sleep ctx (T.us 5)
         done;
         Snap.Host.detach_tenant h_guest tn));
  Sim.Loop.run ~until:(T.ms 20) loop;
  check_int "warm-up send completed" 1 !warm;
  check_int "not taken while detached" 1 !taken_detached;
  check_int "served after re-attach" 1 !after;
  check_int "one resync" 1 (Guest.Mux.resyncs mux);
  check_int "no in-flight ops" 0 (inflight_ops mux)

(* Tenant heap budget: a mux serves hundreds of tenants, so each one's
   heap cost is bounded.  After one warm-up tenant (which brings up the
   mux engine and the flow to the sink's host), 64 tenants with the
   tenants workload's geometry, 32-slot rings and 4 KiB buffers, must
   add under [tenant_words_budget] live words each.  Their regions
   bound the buffers and hold no bytes: this measured 784 words per
   tenant, and 33,628 with each region's 256 KiB backed. *)
let tenant_words_budget = 2048.0

let test_mux_tenant_heap_budget () =
  let loop, h_guest, mux = mk_guest_pair ~seed:14 () in
  let n = 64 in
  let go = ref false and dialed = ref 0 in
  ignore
    (Snap.Host.spawn_app h_guest ~name:"guest" (fun ctx ->
         Cpu.Thread.sleep ctx (T.us 100);
         let attach i =
           ignore
             (Snap.Host.attach_tenant ctx h_guest
                ~name:(Printf.sprintf "h%d" i) ~dst_host:1 ~dst_name:"sink"
                ~ring_slots:32 ~buf_bytes:4096 ())
         in
         attach 0;
         while not !go do
           Cpu.Thread.sleep ctx (T.us 100)
         done;
         for i = 1 to n do
           attach i;
           incr dialed
         done));
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  Sim.Loop.run ~until:(T.ms 1) loop;
  let live0 = live () in
  go := true;
  Sim.Loop.run ~until:(T.ms 20) loop;
  check_int "every tenant attached" n !dialed;
  check_int "all attached to the mux" (n + 1) (attached mux);
  let per_tenant = float_of_int (live () - live0) /. float_of_int n in
  check_bool
    (Printf.sprintf "%.1f live words per tenant, budget %.0f" per_tenant
       tenant_words_budget)
    true
    (per_tenant < tenant_words_budget)

(* A well-formed descriptor whose id aliases one still in flight
   completes Failed and scores Dup_id; once the first op completes, its
   id may go in flight again.  The guest picks any int as an id, so a
   negative one is checked as a positive one is. *)
let dup_id_scored ~seed ~id =
  let loop, h_guest, _mux = mk_guest_pair ~seed () in
  let used = ref [] and tenant = ref None in
  ignore
    (Snap.Host.spawn_app h_guest ~name:"guest" (fun ctx ->
         Cpu.Thread.sleep ctx (T.us 100);
         let tn =
           Snap.Host.attach_tenant ctx h_guest ~name:"dup" ~dst_host:1
             ~dst_name:"sink" ~ring_slots:8 ~buf_bytes:512 ()
         in
         tenant := Some tn;
         let post slot =
           ignore
             (Ring.post tn.Tenant.tx ~now:(Cpu.Thread.now ctx) ~id
                ~off:(Tenant.tx_buf_off tn slot) ~len:256)
         in
         let reap k =
           let deadline = T.add (Cpu.Thread.now ctx) (T.ms 5) in
           let got = ref 0 in
           while !got < k && Cpu.Thread.now ctx < deadline do
             (match Ring.pop_used tn.Tenant.tx with
             | Some u ->
                 used := (u.Ring.u_id, u.Ring.u_status) :: !used;
                 incr got
             | None -> ());
             Cpu.Thread.sleep ctx (T.us 5)
           done
         in
         post 0;
         post 1;
         reap 2;
         post 2;
         reap 1));
  Sim.Loop.run ~until:(T.ms 20) loop;
  match !tenant with
  | None -> Alcotest.fail "guest never attached"
  | Some tn ->
      check_bool
        (Printf.sprintf "id %d: alias Failed, then both sends Complete" id)
        true
        (List.rev !used
        = [ (id, Ring.Failed); (id, Ring.Complete); (id, Ring.Complete) ]);
      check_int "one Dup_id scored" 1 (Tenant.violations_by tn Tenant.Dup_id);
      check_int "no other violation" 1 (Tenant.violations tn);
      check_int "sends completed" 2 (Tenant.tx_completed tn);
      check_int "alias failed" 1 (Tenant.tx_failed tn)

let test_mux_dup_id_scored () =
  dup_id_scored ~seed:15 ~id:7;
  dup_id_scored ~seed:16 ~id:(-1)

let () =
  Alcotest.run "guest"
    [
      ( "ring",
        [
          Alcotest.test_case "fifo" `Quick test_ring_fifo;
          Alcotest.test_case "out-of-order completion" `Quick
            test_ring_out_of_order_completion;
          Alcotest.test_case "full until reaped" `Quick
            test_ring_fullness_until_reaped;
          Alcotest.test_case "wrap indices" `Quick test_ring_wrap_indices;
          Alcotest.test_case "bad post counted" `Quick
            test_ring_bad_post_counted;
          Alcotest.test_case "notifiers" `Quick test_ring_notifiers;
        ] );
      ( "trust-boundary",
        [
          Alcotest.test_case "bad range completes Failed" `Quick
            test_take_checked_bad_range;
          Alcotest.test_case "avail rollback stops the drain" `Quick
            test_take_checked_rollback;
          Alcotest.test_case "runahead drops then overcommit" `Quick
            test_take_checked_runahead_and_overcommit;
          Alcotest.test_case "reap withholding bounded" `Quick
            test_take_checked_reap_withhold;
          Alcotest.test_case "raw wrap-around" `Quick test_ring_raw_wrap_around;
          Alcotest.test_case "take pending" `Quick test_take_pending;
          QCheck_alcotest.to_alcotest ring_prop_hostile_guest;
        ] );
      ( "tenant",
        [
          Alcotest.test_case "layout and counters" `Quick
            test_tenant_layout_and_counters;
          Alcotest.test_case "owner reclaim" `Quick test_tenant_owner_reclaim;
          Alcotest.test_case "violation counters per reason" `Quick
            test_tenant_violation_counters;
        ] );
      ( "mux",
        [
          Alcotest.test_case "echo end-to-end" `Quick test_mux_echo_and_detach;
          Alcotest.test_case "force detach" `Quick test_mux_force_detach;
          Alcotest.test_case "hostile tenant quarantined" `Quick
            test_mux_quarantine_hostile_tenant;
          Alcotest.test_case "counters are per mux" `Quick
            test_mux_counters_per_host;
          Alcotest.test_case "rollback re-scored until quarantine" `Quick
            test_mux_rollback_rescored;
          Alcotest.test_case "post during engine detach served" `Quick
            test_mux_post_during_engine_detach;
          Alcotest.test_case "tenant heap budget" `Quick
            test_mux_tenant_heap_budget;
          Alcotest.test_case "dup id scored" `Quick test_mux_dup_id_scored;
        ] );
    ]
