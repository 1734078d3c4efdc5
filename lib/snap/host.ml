type t = {
  loop : Sim.Loop.t;
  machine : Cpu.Sched.machine;
  nic : Nic.t;
  control : Control.t;
  group : Engine.group;
  pony : Pony.Express.t;
  mutable mux : Guest.Mux.t option;
}

let create ~loop ~fabric ~directory ~addr ?(cores = 16) ?nic_config
    ?(mode = Engine.Dedicating { cores = 2 }) ?(engines = 1)
    ?(use_copy_engine = false) ?wire_versions ?op_pool_bytes ?keepalive () =
  let machine =
    Cpu.Sched.create_machine ~loop ~name:(Printf.sprintf "host%d" addr) ~cores
  in
  let nic_config = Option.value ~default:Nic.default_config nic_config in
  let nic = Nic.create ~loop ~machine ~fabric ~addr nic_config in
  let control =
    Control.create ~loop ~name:(Printf.sprintf "snap%d" addr)
  in
  let group = Engine.create_group ~machine ~name:"snap" ~mode in
  let pony =
    Pony.Express.create ~directory ~control ~machine ~nic ~group ~engines
      ~use_copy_engine ?wire_versions ?op_pool_bytes ?keepalive ()
  in
  { loop; machine; nic; control; group; pony; mux = None }


(* Fault-layer registration record for this host.  The fault library
   cannot depend on the transport, so the whole-host crash/restart
   hooks are closures over Pony's teardown (which detaches the engines
   itself). *)
let fault_host t =
  {
    Fault.Injector.h_addr = Nic.addr t.nic;
    h_nic = t.nic;
    h_machine = t.machine;
    h_control = t.control;
    h_group = t.group;
    h_engines =
      List.init (Pony.Express.num_engines t.pony)
        (Pony.Express.engine_handle t.pony);
    h_crash = Some (fun () -> Pony.Express.crash_host t.pony);
    h_restart = Some (fun () -> Pony.Express.restart_host t.pony);
    h_byzantine =
      Some
        (fun ~tenant ~rng ~behaviors ~until ->
          match t.mux with
          | None -> false
          | Some m -> (
              match
                List.find_opt
                  (fun tn -> tn.Guest.Tenant.tname = tenant)
                  (Guest.Mux.tenants m)
              with
              | None -> false
              | Some tn ->
                  Byzantine.launch ~loop:t.loop ~rng ~tenant:tn ~behaviors
                    ~until;
                  true));
  }

let spawn_app t ~name ?(spin = false) body =
  Cpu.Thread.spawn t.machine ~name ~account:"app"
    ~klass:(Cpu.Sched.Cfs { nice = 0 })
    ~idle:(if spin then Cpu.Sched.Spin else Cpu.Sched.Block)
    body

(* -- Guest networking --------------------------------------------------- *)

let enable_guests ?(engines = 1) ?(mode = Engine.Spreading { runtime_pct = 0.9 })
    ?suspect_after ?quarantine_after t =
  match t.mux with
  | Some m -> m
  | None ->
      let m =
        Guest.Mux.create ~loop:t.loop ~pony:t.pony ~engines ~mode
          ?suspect_after ?quarantine_after ()
      in
      t.mux <- Some m;
      m

let guest_mux t = t.mux

let attach_tenant ctx t ~name ~dst_host ~dst_name ?ring_slots ?buf_bytes
    ?rate_ops_per_sec ?burst_ops () =
  let m = enable_guests t in
  Guest.Mux.attach ctx m ~name ~dst_host ~dst_name ?ring_slots ?buf_bytes
    ?rate_ops_per_sec ?burst_ops ()

let detach_tenant ?force t tenant =
  match t.mux with
  | None -> invalid_arg "Snap.Host.detach_tenant: guests never enabled"
  | Some m -> Guest.Mux.detach ?force m tenant

