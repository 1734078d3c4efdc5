module Time = Sim.Time
module Loop = Sim.Loop
module Rng = Sim.Rng
module Packet = Memory.Packet
module Sched = Cpu.Sched

type host = {
  h_addr : int;
  h_nic : Nic.t;
  h_machine : Sched.machine;
  h_control : Control.t;
  h_group : Engine.group;
  h_engines : Engine.t list;
  (* Whole-host crash/restart hooks for [Plan.Host_crash].  The fault
     layer cannot depend on the transport, so the host supplies
     closures (Snap.Host.fault_host wires them); [None] means the host
     does not support crash injection and a Host_crash targeting it is
     a plan error. *)
  h_crash : (unit -> unit) option;
  h_restart : (unit -> unit) option;
  (* Byzantine-guest hook for [Plan.Guest_byzantine]: launch a hostile
     driver against the named tenant's rings until [until].  Returns
     false when the tenant is unknown (the attack is skipped, not an
     error — the tenant may have detached before the window).  Same
     layering as the crash hooks: the fault layer cannot depend on the
     guest edge, so the host supplies the closure. *)
  h_byzantine :
    (tenant:string ->
    rng:Rng.t ->
    behaviors:Plan.byzantine list ->
    until:Time.t ->
    bool)
    option;
}

(* Fabric-level fault windows active right now.  Toggled by loop events
   scheduled at install time, so at any instant membership is a pure
   function of the plan — the hook below only consults this list and the
   injector's private RNG stream. *)
type window =
  | W_blackout of int * int
  | W_blackout_oneway of int * int  (* drops src -> dst only *)
  | W_loss of int * float
  | W_reorder of int * float * Time.t
  | W_corrupt of int * float

type t = {
  lp : Loop.t;
  fabric : Fabric.t;
  hosts : host list;
  rng : Rng.t;
  log : Log.t;
  mutable active : (int * window) list;
  mutable next_wid : int;
  (* This injector's counters, in registration order; the registry
     entries ("fault_<name>") name the latest injector's. *)
  cnt : (string * Stats.Counter.t) list;
}

let counter_names =
  [
    "blackout_drops";
    "loss_drops";
    "reorder_delays";
    "corruptions";
    "rx_stalls";
    "engine_crashes";
    "engine_restarts";
    "straggler_windows";
    "engine_wedges";
    "host_crashes";
    "host_restarts";
    "guest_attacks";
  ]

let bump t key =
  match List.assoc_opt key t.cnt with
  | Some c -> Stats.Counter.incr c
  | None -> invalid_arg ("Fault.Injector.bump: " ^ key)

let record t ~kind detail = Log.record t.log ~at:(Loop.now t.lp) ~kind ~detail

let announce t ~kind detail =
  record t ~kind detail;
  if Sim.Span.enabled () then
    Sim.Span.emit t.lp ~cat:"fault" ~track:"fault"
      ~args:[ ("detail", detail) ]
      kind

let find_host t addr =
  match List.find_opt (fun h -> h.h_addr = addr) t.hosts with
  | Some h -> h
  | None -> invalid_arg (Printf.sprintf "Fault.Injector: no host %d" addr)

let nth_engine h ~host ~engine =
  match List.nth_opt h.h_engines engine with
  | Some e -> e
  | None ->
      invalid_arg
        (Printf.sprintf "Fault.Injector: host %d has no engine %d" host engine)

let pkt_detail (pkt : Packet.t) =
  Printf.sprintf "pkt#%d %d->%d" pkt.Packet.id pkt.Packet.src pkt.Packet.dst

(* The single fabric hook: consulted once per packet at egress enqueue,
   in deterministic simulation order.  Window kinds are checked in a
   fixed severity order (blackout, loss, corruption, reordering) and RNG
   draws happen only for windows that match the packet, so the random
   stream is identical across runs of the same plan. *)
let hook t (pkt : Packet.t) =
  if t.active = [] then Fabric.Fault_pass
  else begin
    let src = pkt.Packet.src and dst = pkt.Packet.dst in
    let matching f = List.find_opt (fun (_, w) -> f w) t.active in
    let blackout =
      matching (function
        | W_blackout (a, b) -> (src = a && dst = b) || (src = b && dst = a)
        | W_blackout_oneway (s, d) -> src = s && dst = d
        | _ -> false)
    in
    match blackout with
    | Some _ ->
        bump t "blackout_drops";
        record t ~kind:"blackout-drop" (pkt_detail pkt);
        Fabric.Fault_drop
    | None -> (
        let lossy =
          matching (function W_loss (p, _) -> p = dst | _ -> false)
        in
        match lossy with
        | Some (_, W_loss (_, pct)) when Rng.float t.rng 100.0 < pct ->
            bump t "loss_drops";
            record t ~kind:"loss-drop" (pkt_detail pkt);
            Fabric.Fault_drop
        | _ -> (
            let corrupting =
              matching (function W_corrupt (p, _) -> p = dst | _ -> false)
            in
            match corrupting with
            | Some (_, W_corrupt (_, pct)) when Rng.float t.rng 100.0 < pct ->
                bump t "corruptions";
                record t ~kind:"corrupt" (pkt_detail pkt);
                Fabric.Fault_corrupt
            | _ -> (
                let reordering =
                  matching (function W_reorder (p, _, _) -> p = dst | _ -> false)
                in
                match reordering with
                | Some (_, W_reorder (_, pct, max_delay))
                  when Rng.float t.rng 100.0 < pct ->
                    let d = 1 + Rng.int t.rng max_delay in
                    bump t "reorder_delays";
                    record t ~kind:"reorder-delay"
                      (Printf.sprintf "%s +%dns" (pkt_detail pkt) d);
                    Fabric.Fault_delay d
                | _ -> Fabric.Fault_pass)))
  end

let open_window t w =
  let wid = t.next_wid in
  t.next_wid <- wid + 1;
  t.active <- t.active @ [ (wid, w) ];
  wid

let close_window t wid =
  t.active <- List.filter (fun (id, _) -> id <> wid) t.active

let schedule_fabric_window t ~start ~duration ~kind ~detail w =
  ignore
    (Loop.at t.lp start (fun () ->
         let wid = open_window t w in
         announce t ~kind:(kind ^ "-start") detail;
         ignore
           (Loop.at t.lp (Time.add start duration) (fun () ->
                close_window t wid;
                announce t ~kind:(kind ^ "-end") detail))))

let schedule t (ev : Plan.event) =
  match ev with
  | Plan.Link_blackout { a; b; start; duration } ->
      schedule_fabric_window t ~start ~duration ~kind:"blackout"
        ~detail:(Printf.sprintf "link %d<->%d" a b)
        (W_blackout (a, b))
  | Plan.Link_blackout_oneway { src; dst; start; duration } ->
      schedule_fabric_window t ~start ~duration ~kind:"blackout-oneway"
        ~detail:(Printf.sprintf "link %d->%d" src dst)
        (W_blackout_oneway (src, dst))
  | Plan.Burst_loss { port; start; duration; loss_pct } ->
      schedule_fabric_window t ~start ~duration ~kind:"loss"
        ~detail:(Printf.sprintf "port %d %.1f%%" port loss_pct)
        (W_loss (port, loss_pct))
  | Plan.Reorder { port; start; duration; reorder_pct; max_delay } ->
      schedule_fabric_window t ~start ~duration ~kind:"reorder"
        ~detail:(Printf.sprintf "port %d %.1f%%" port reorder_pct)
        (W_reorder (port, reorder_pct, max_delay))
  | Plan.Corrupt { port; start; duration; corrupt_pct } ->
      schedule_fabric_window t ~start ~duration ~kind:"corrupt"
        ~detail:(Printf.sprintf "port %d %.1f%%" port corrupt_pct)
        (W_corrupt (port, corrupt_pct))
  | Plan.Rx_stall { host; queue; start; duration } ->
      let h = find_host t host in
      ignore
        (Loop.at t.lp start (fun () ->
             Nic.stall_rx h.h_nic ~queue ~until:(Time.add start duration);
             bump t "rx_stalls";
             announce t ~kind:"rx-stall"
               (Format.asprintf "host %d q%d for %a" host queue Time.pp
                  duration)))
  | Plan.Engine_crash { host; engine; start; restart_after } ->
      let h = find_host t host in
      let eng = nth_engine h ~host ~engine in
      ignore
        (Loop.at t.lp start (fun () ->
             if Engine.is_attached eng then begin
               Engine.remove h.h_group eng;
               bump t "engine_crashes";
               announce t ~kind:"engine-crash"
                 (Printf.sprintf "host %d engine %d" host engine);
               Control.recover_engine h.h_control ~group:h.h_group eng
                 ~after:restart_after ~on_recovered:(fun () ->
                   bump t "engine_restarts";
                   announce t ~kind:"engine-restart"
                     (Printf.sprintf "host %d engine %d" host engine))
             end
             else begin
               (* The engine is detached — mid-blackout of an upgrade
                  transaction (or already crashed).  Mark the in-flight
                  instance failed so the owning transaction aborts at
                  commit time; do not schedule a recovery of our own,
                  the owner handles the restart. *)
               Engine.mark_failed eng;
               bump t "engine_crashes";
               announce t ~kind:"engine-crash-inflight"
                 (Printf.sprintf "host %d engine %d" host engine)
             end))
  | Plan.Engine_wedge { host; engine; start } ->
      let h = find_host t host in
      let eng = nth_engine h ~host ~engine in
      ignore
        (Loop.at t.lp start (fun () ->
             if Engine.is_attached eng && not (Engine.is_wedged eng) then begin
               Engine.set_wedged eng true;
               Engine.notify eng;
               bump t "engine_wedges";
               announce t ~kind:"engine-wedge"
                 (Printf.sprintf "host %d engine %d" host engine)
             end))
  | Plan.Host_crash { host; start; restart_after } ->
      let h = find_host t host in
      let crash, restart =
        match (h.h_crash, h.h_restart) with
        | Some c, Some r -> (c, r)
        | _ ->
            invalid_arg
              (Printf.sprintf
                 "Fault.Injector: host %d has no crash/restart hooks" host)
      in
      ignore
        (Loop.at t.lp start (fun () ->
             crash ();
             bump t "host_crashes";
             announce t ~kind:"host-crash" (Printf.sprintf "host %d" host);
             ignore
               (Loop.at t.lp (Time.add start restart_after) (fun () ->
                    restart ();
                    bump t "host_restarts";
                    announce t ~kind:"host-restart"
                      (Printf.sprintf "host %d" host)))))
  | Plan.Guest_byzantine { host; tenant; start; duration; behaviors } ->
      let h = find_host t host in
      let launch =
        match h.h_byzantine with
        | Some f -> f
        | None ->
            invalid_arg
              (Printf.sprintf "Fault.Injector: host %d has no byzantine hook"
                 host)
      in
      (* A split stream per attack: the hostile driver's draws never
         perturb the packet hook's stream (or another attack's), so
         fault sequences stay byte-identical per plan. *)
      let rng = Rng.split t.rng in
      let until = Time.add start duration in
      let detail =
        Printf.sprintf "tenant %s host %d [%s]" tenant host
          (String.concat "," (List.map Plan.byzantine_to_string behaviors))
      in
      ignore
        (Loop.at t.lp start (fun () ->
             if launch ~tenant ~rng ~behaviors ~until then begin
               bump t "guest_attacks";
               announce t ~kind:"byzantine-start" detail;
               ignore
                 (Loop.at t.lp until (fun () ->
                      announce t ~kind:"byzantine-end" detail))
             end
             else announce t ~kind:"byzantine-skip" detail))
  | Plan.Straggler { host; start; duration; slowdown } ->
      let h = find_host t host in
      ignore
        (Loop.at t.lp start (fun () ->
             Sched.set_cost_scale h.h_machine slowdown;
             bump t "straggler_windows";
             announce t ~kind:"straggler-start"
               (Printf.sprintf "host %d x%.1f" host slowdown);
             ignore
               (Loop.at t.lp (Time.add start duration) (fun () ->
                    Sched.set_cost_scale h.h_machine 1.0;
                    announce t ~kind:"straggler-end"
                      (Printf.sprintf "host %d" host)))))

let install ~loop ~plan ~fabric ~hosts =
  let t =
    {
      lp = loop;
      fabric;
      hosts;
      rng = Rng.create ~seed:(Plan.seed plan);
      log = Log.create ();
      active = [];
      next_wid = 0;
      cnt =
        List.map
          (fun n -> (n, Stats.Registry.counter ("fault_" ^ n)))
          counter_names;
    }
  in
  List.iter (schedule t) (Plan.events plan);
  Fabric.set_fault_hook fabric (hook t);
  t

let log t = t.log

let counters t = List.map (fun (n, c) -> (n, Stats.Counter.value c)) t.cnt
