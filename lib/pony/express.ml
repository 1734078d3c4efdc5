module Time = Sim.Time
module Loop = Sim.Loop
module Packet = Memory.Packet
module Sched = Cpu.Sched

let costs = Sim.Costs.default

let cmd_queue_slots = 4096
let comp_queue_slots = 4096
let initial_credit_bytes = 4 lsl 20
let rx_batch = 16
let cmd_batch = 16
let oob_setup_latency = Time.us 30

type completion = {
  comp_op : int;
  status : Wire.status;
  bytes : int;
  value : int64 option;
  issued_at : Time.t;
  completed_at : Time.t;
}

(* Connection lifecycle (§4.3 availability): [Established] carries
   traffic; [Draining] is a close in progress (credit-waiting ops still
   drain, new sends are refused); [Dead] means the peer is gone
   (keepalive miss budget, Conn_reset, peer restart or host crash) and
   every stranded op has been failed [Peer_dead]; [Closed] is a
   completed local close.  Dead/Closed conns stay in the table as
   tombstones so late packets answer with a reset instead of
   resurrecting state. *)
type conn_state = Established | Draining | Dead | Closed

(* Opt-in dead-peer detection: probe a conn silent for [ka_interval];
   declare the peer dead after [ka_interval * (ka_miss_budget + 1)] of
   silence.  Arming is quiesce-aware: a conn only keeps a wheel timer
   while it has a reason to watch the peer — recent traffic, parked or
   outstanding ops, or unacked flow state — so an idle host with
   keepalives configured still drains to zero pending events and
   [Pool.assert_quiesced] workloads need not turn them off.  Detection
   stays bounded: any stranded op holds interest, so probing continues
   until the death budget declares the peer dead. *)
type keepalive = { ka_interval : Time.t; ka_miss_budget : int }

type command =
  | C_send of {
      cmd_conn : conn;
      op_id : int;
      stream : int;
      bytes : int;
      issued : Time.t;
      deadline : Time.t option;
    }
  | C_one_sided of {
      cmd_conn : conn;
      op_id : int;
      op : Wire.one_sided;
      issued : Time.t;
      deadline : Time.t option;
    }
  | C_close of { cmd_conn : conn }

and incoming = {
  msg_conn : conn;
  msg_op : int;
  stream : int;
  msg_bytes : int;
}

and client = {
  cid : int;
  cname : string;
  c_host : t;
  c_eng : eng;
  (* Index in [c_eng.eclients] and [c_eng.busy_clients]; -1 once the
     host crashed and the engine forgot the client. *)
  mutable c_slot : int;
  cmd_q : command Squeue.Spsc.t;
  comp_q : completion Squeue.Spsc.t;
  msg_q : incoming Squeue.Spsc.t;
  (* Registration order; a client shares a handful, so a scan finds
     one by id. *)
  mutable regions : Memory.Region.t array;
  c_owner : string;  (* admission / pool accounting name *)
  mutable c_dead : bool;  (* the owning host crashed while we existed *)
  adm : Overload.Admission.t;
  charges : Memory.Pool.alloc option Memory.Int_table.t;
      (* op id -> admission charge, held until the completion fires *)
  c_shed : Stats.Counter.t;
  c_expired : Stats.Counter.t;
  mutable app_task : Sched.task option;
  mutable on_delivery : (unit -> unit) option;
      (* Engine-side consumers (the guest mux) register a hook instead
         of an app task; called on every completion/message push. *)
  mutable next_op : int;
}

(* One half of a conn: the record an engine keeps for its local client's
   end.  It is kept small because a host may hold 100k of them; the
   remote end is read off [ckey], and what only a working half needs
   lives in [ext]. *)
and conn = {
  ckey : Wire.conn_key;
  we_are_initiator : bool;
  local : client;
  c_flow : Flow.t;
  mutable credit : int;
  mutable state : conn_state;
  mutable ext : conn_ext;  (* [no_ext] until the half first needs one *)
}

(* The state of a half that parks a send, awaits a one-sided response,
   reassembles a multi-chunk item or arms a timer.  A half gets its own
   on the first of these (see [ext_of]) and keeps it; until then [ext]
   is the shared, never-written [no_ext], whose queue is empty, whose
   counts are zero and whose timers are unarmed.  Keepalive hosts give
   every half one at connect, when its watch starts, so [last_heard],
   which only the keepalive path reads, lives here too. *)
and conn_ext = {
  waiting : command Queue.t;  (* credit-starved sends, in post order *)
  (* Open reassemblies of items arriving on this half, by ascending op
     id; the first [n_asm] slots are live, the rest [no_asm].  The
     direction is fixed on a half, so the op id alone names one. *)
  mutable asms : asm array;
  mutable n_asm : int;
  (* One-sided ops issued on this half and not yet answered: pairs of
     (op id, issue time) at [2i], [2i + 1], by ascending op id; the
     first [n_outst] pairs are live. *)
  mutable outst : int array;
  mutable n_outst : int;
  (* Wheel timers for the waiting head's deadline and the keepalive
     probe cycle. *)
  mutable dl_timer : Sim.Wheel.timer option;
  mutable dl_at : Time.t;
  mutable dl_queued : bool;
  mutable ka_timer : Sim.Wheel.timer option;
  mutable ka_queued : bool;
  mutable ka_base : Time.t;  (* watch epoch: silence measured from here *)
  mutable ka_sent_at : Time.t;  (* last keepalive probe we enqueued *)
  mutable last_heard : Time.t;  (* any item for this conn counts as life *)
}

and asm = {
  a_op : int;
  mutable got : int;
  total : int;
  mutable first_value : int64 option;
  mutable asm_status : Wire.status;
  mutable asm_charge : Memory.Pool.alloc option;
      (* Op memory reserved for the reassembly, charged to the owning
         engine.  Best-effort: [None] when the pool could not cover it
         (accounting degrades before correctness does). *)
}

and eng = {
  eid : int;
  e_host : t;
  core : Engine.t;
  (* This engine's op-pool account, which reassembly charges go to. *)
  e_acct : Memory.Pool.account;
  rxq : int;
  mutable eclients : client array;  (* creation order *)
  (* The engine's one flow table: the flow to peer engine [e] on host
     [h] is [flows.(h).(e)], rows grown on demand.  [connect] and the
     receive path both find flows here, by ints, so neither builds a
     key unless it creates the flow. *)
  mutable flows : Flow.t option array array;
  (* Flows in creation order; rebuilt only when the flow set changes
     (rare), never per pass. *)
  mutable flow_arr : Flow.t array;
  (* Per-pass membership, indexed like [flow_arr] and [eclients]: every
     flow that is not idle (see [Flow.set_activity_hook]) and every
     client whose [cmd_q] is non-empty is a member (members may have
     gone idle since; the scans drop them lazily).  A pass visits
     members only, so its cost follows the active flows and queued
     clients, not everything the engine owns. *)
  active_flows : Sim.Bitset.t;
  busy_clients : Sim.Bitset.t;
  (* The engine's conn halves in creation order, in the first
     [n_halves] slots.  A half is never removed: Dead and Closed halves stay to
     answer late items with a reset, and only a crash wipes them.
     Walks (peer teardown, crash, reclaim checks) go in this order. *)
  mutable halves : conn array;
  mutable n_halves : int;
  (* Finds a half from the key an item carries: each slot holds a
     position in [halves] or -1; a key's probe starts at its
     [conn_slot]'s home ([Memory.Int_table.home]) and runs linearly.
     At most half the [2 ^ index_bits] slots are full. *)
  mutable half_index : int array;
  mutable index_bits : int;
  mutable open_asms : int;  (* open reassemblies over this engine's halves *)
  (* Per-engine timing wheel: per-conn deadline and keepalive timers
     arm/cancel O(1) here instead of rescanning the conn table.  Fired
     timers enqueue their conn on a due queue and poke the engine; the
     engine pass drains the queues. *)
  wheel : Sim.Wheel.t;
  deadline_due : conn Queue.t;
  ka_due : conn Queue.t;
  mutable timer : Loop.handle;
  wake : unit -> unit;  (* the timer's event, made once *)
  pass_cost : int ref;  (* the running pass's CPU cost *)
  mutable served_one_sided : int;
  mutable tx_rr : int;
  mutable last_epoch : int;  (* engine restart detection (§4.3) *)
  pressure : Overload.Pressure.t;
}

and t = {
  dir : dir;
  ctl : Control.t;
  mach : Sched.machine;
  nic : Nic.t;
  group : Engine.group;
  lp : Loop.t;
  use_ce : bool;
  ce : Nic.Copy_engine.ce option;
  versions : int list;  (* wire versions this release can speak (§3.1) *)
  mutable engs : eng list;  (* ascending eid *)
  mutable next_cid : int;
  (* Conn-session allocator: every connect stamps a fresh session into
     the conn key, so a re-dial between the same client pair can never
     alias items still in flight from a dead predecessor.  Unique
     within this host; [initiator_host] in the key makes it global. *)
  mutable next_session : int;
  (* The [next_cid - first_cid] clients made since the last crash, in
     cid order: [clients.(i)] has cid [first_cid + i].  A client is
     never removed; a crash empties the array and moves [first_cid] to
     [next_cid], as cids are never reused. *)
  mutable clients : client array;
  mutable first_cid : int;
  gen : Packet.Id_gen.t;
  mutable rr_assign : int;
  (* This host's counters; the registry names the latest host on an
     address (bench sections re-create hosts). *)
  c_corrupt : Stats.Counter.t;
  c_resync : Stats.Counter.t;
  (* Overload protection (§3.3): one op-memory pool per host; admission
     charges, receive-side reassembly and packet ingest all draw from
     it, so saturation surfaces as [Rejected]/drops instead of
     unbounded growth. *)
  op_pool : Memory.Pool.t;
  c_busy : Stats.Counter.t;
  c_pool_drop : Stats.Counter.t;
  (* Connection lifecycle / peer failure (§4.3). *)
  mutable incarnation : int;  (* bumped on every restart after a crash *)
  mutable alive : bool;
  ka : keepalive option;
  (* Latest incarnation seen per peer host, indexed by its address (-1
     before its first packet; grown on demand): packets with an older
     stamp are pre-crash stragglers and are dropped; a newer stamp
     proves the peer restarted, so everything we hold about it is torn
     down. *)
  mutable peer_inc : int array;
  c_conn_est : Stats.Counter.t;
  c_conn_closed : Stats.Counter.t;
  c_conn_reset : Stats.Counter.t;  (* resets sent *)
  c_peer_death : Stats.Counter.t;  (* conns declared dead *)
  c_peer_dead_op : Stats.Counter.t;  (* ops failed Peer_dead *)
  c_stale_drop : Stats.Counter.t;  (* stale-incarnation packets dropped *)
  c_peer_restart : Stats.Counter.t;  (* peer restarts detected *)
  c_ka_probe : Stats.Counter.t;  (* keepalive probes enqueued *)
}

and dir = { hosts : (Packet.addr, t) Hashtbl.t }

module Retry = Overload.Retry

module Directory = struct
  type nonrec dir = dir

  let create () = { hosts = Hashtbl.create 16 }
end

type Control.message += Pony_setup of string | Pony_ready

let machine t = t.mach
let addr t = Nic.addr t.nic
let num_engines t = List.length t.engs
let engine_handle t i = (List.nth t.engs i).core

let flow_versions t =
  List.concat_map
    (fun e ->
      Array.to_list (Array.map (fun f -> (Flow.key f, Flow.version f)) e.flow_arr))
    t.engs

let corrupt_dropped t = Stats.Counter.value t.c_corrupt
let flow_resyncs t = Stats.Counter.value t.c_resync
let busy_nacks t = Stats.Counter.value t.c_busy
let rx_pool_drops t = Stats.Counter.value t.c_pool_drop
let op_pool t = t.op_pool
let incarnation t = t.incarnation
let host_alive t = t.alive
let conn_state c = c.state
let client_alive c = (not c.c_dead) && c.c_host.alive
let conns_established t = Stats.Counter.value t.c_conn_est
let conns_closed t = Stats.Counter.value t.c_conn_closed
let conn_resets_sent t = Stats.Counter.value t.c_conn_reset
let peer_deaths t = Stats.Counter.value t.c_peer_death
let peer_dead_ops t = Stats.Counter.value t.c_peer_dead_op
let stale_drops t = Stats.Counter.value t.c_stale_drop

let peer_restarts_detected t = Stats.Counter.value t.c_peer_restart

let keepalive_probes t = Stats.Counter.value t.c_ka_probe

let conn_is_dead c =
  match c.state with Dead | Closed -> true | Established | Draining -> false

let remote_host c =
  if c.we_are_initiator then c.ckey.Wire.target_host else c.ckey.Wire.initiator_host

let remote_client c =
  if c.we_are_initiator then c.ckey.Wire.target_client
  else c.ckey.Wire.initiator_client

(* Order of halves by key, then side: where teardown, re-charging and
   reports must not depend on creation order, they walk halves in this
   order.  Cold paths only. *)
let compare_half a b =
  compare (a.ckey, a.we_are_initiator) (b.ckey, b.we_are_initiator)

(* Probe key of a conn key: the initiator's address in the low bits,
   its session above.  Unique per (initiator host, session), so
   injective while addresses stay below [2 ^ slot_host_bits], which
   [connect] checks.  Both halves of a conn never share an engine (no
   loopback), and sessions are unique per initiator for the whole run,
   so it names at most one half of an engine. *)
let slot_host_bits = 20
let conn_slot (k : Wire.conn_key) =
  (k.Wire.session lsl slot_host_bits) lor k.Wire.initiator_host

let no_asm =
  { a_op = -1; got = 0; total = 0; first_value = None; asm_status = Wire.Ok;
    asm_charge = None }

let new_ext ~now =
  {
    waiting = Queue.create ();
    asms = [||];
    n_asm = 0;
    outst = [||];
    n_outst = 0;
    dl_timer = None;
    dl_at = 0;
    dl_queued = false;
    ka_timer = None;
    ka_queued = false;
    ka_base = now;
    ka_sent_at = now;
    last_heard = now;
  }

let no_ext = new_ext ~now:0

(* [conn]'s own ext, made on first use.  Every write to an ext goes
   through this, never through [conn.ext] directly, so [no_ext] stays
   pristine; reads may use [conn.ext]. *)
let ext_of conn =
  if conn.ext != no_ext then conn.ext
  else begin
    let e = new_ext ~now:(Loop.now conn.local.c_host.lp) in
    conn.ext <- e;
    e
  end

(* In cid order, so deterministic under randomized hashing without a
   sort. *)
let fold_clients t f init =
  let acc = ref init in
  for i = 0 to t.next_cid - t.first_cid - 1 do
    acc := f !acc t.clients.(i)
  done;
  !acc

let find_client t cid =
  if cid >= t.first_cid && cid < t.next_cid then Some t.clients.(cid - t.first_cid)
  else None
let client_ops_shed c = Stats.Counter.value c.c_shed
let client_ops_expired c = Stats.Counter.value c.c_expired
let ops_shed t = fold_clients t (fun acc c -> acc + client_ops_shed c) 0
let ops_expired t = fold_clients t (fun acc c -> acc + client_ops_expired c) 0

let quota_rejected t =
  fold_clients t (fun acc c -> acc + Overload.Admission.rejected c.adm) 0

let pressure_transitions t =
  List.fold_left
    (fun acc e -> acc + Overload.Pressure.transitions e.pressure)
    0 t.engs

let zero_window_probes t =
  List.fold_left
    (fun acc e ->
      Array.fold_left (fun a f -> a + Flow.zero_window_probes f) acc e.flow_arr)
    0 t.engs

let flow_stats t =
  List.concat_map
    (fun e ->
      Array.to_list
        (Array.map
           (fun f -> (Flow.key f, Flow.delivered f, Flow.retransmits f))
           e.flow_arr))
    t.engs

(* -- Latency attribution (Sim.Optrace) ----------------------------------- *)

(* Key of an op submitted by [conn]'s local client. *)
let ot_key conn op_id =
  {
    Sim.Optrace.k_origin = addr conn.local.c_host;
    k_origin_client = conn.local.cid;
    k_peer = remote_host conn;
    k_session = conn.ckey.Wire.session;
    k_origin_init = conn.we_are_initiator;
    k_op = op_id;
  }

(* Key of an op that originated at [conn]'s remote side (receive path). *)
let ot_rkey conn op_id =
  {
    Sim.Optrace.k_origin = remote_host conn;
    k_origin_client = remote_client conn;
    k_peer = addr conn.local.c_host;
    k_session = conn.ckey.Wire.session;
    k_origin_init = not conn.we_are_initiator;
    k_op = op_id;
  }

let ot_start conn op_id ~kind ~bytes =
  if Sim.Optrace.enabled () then
    Sim.Optrace.start conn.local.c_host.lp (ot_key conn op_id) ~kind ~bytes

(* Key of [op_id] on [conn]: submitted by the local client, or with
   [~remote] by the peer's (receive path).  Built only under capture. *)
let ot_op_key conn ~remote op_id =
  if remote then ot_rkey conn op_id else ot_key conn op_id

let ot_stamp conn ~remote op_id stage =
  if Sim.Optrace.enabled () then
    Sim.Optrace.stamp conn.local.c_host.lp (ot_op_key conn ~remote op_id) stage

let ot_dequeued conn op_id =
  if Sim.Optrace.enabled () then begin
    (* Sabotage point: with "skip_op_attribution" armed the dequeue
       charge is dropped while the cursor still advances, so completed
       ops under-account and the conservation invariant must fire
       (never armed outside the sweep's non-vacuity run). *)
    Sim.Optrace.stamp conn.local.c_host.lp
      ~charge:(not (Check.Invariant.sabotage "skip_op_attribution"))
      (ot_key conn op_id) Sim.Optrace.Dequeued
  end

let ot_finish_key conn key ~status =
  if Sim.Optrace.enabled () then
    Sim.Optrace.finish conn.local.c_host.lp key
      ~host:(addr conn.local.c_host)
      ~status:(Wire.status_to_string status)

let ot_finish conn ~remote op_id ~status =
  if Sim.Optrace.enabled () then
    ot_finish_key conn (ot_op_key conn ~remote op_id) ~status

let one_sided_served t =
  List.fold_left (fun acc e -> acc + e.served_one_sided) 0 t.engs

(* Maximum upper-layer payload bytes per packet. *)
let max_chunk t = Nic.mtu t.nic - Wire.header_bytes - 24

(* -- Flow mapper -------------------------------------------------------- *)

(* Flows never need to exceed the host link rate; Timely starts at
   half and probes up. *)
let flow_max_rate t = Nic.link_gbps t.nic

(* Receiver back-pressure (§3.3): the window this engine advertises on
   every outgoing packet.  Nominal pressure leaves the full flight cap
   (no behavioural change from the pre-overload transport); Pressured
   shrinks it toward what the rx ring can absorb; Saturated quenches
   senders entirely — the zero-window probe reopens them. *)
let advertised_window eng =
  match Overload.Pressure.level eng.pressure with
  | Overload.Pressure.Nominal -> Flow.max_flight
  | Overload.Pressure.Pressured ->
      let ring = Nic.rx_ring eng.e_host.nic ~queue:eng.rxq in
      let free = Squeue.Spsc.capacity ring - Squeue.Spsc.length ring in
      Int.max 1 (Int.min (Flow.max_flight / 8) (free / 4))
  | Overload.Pressure.Saturated -> 0

let hook_flow eng i f =
  Flow.set_activity_hook f (fun () -> Sim.Bitset.set eng.active_flows i)

(* Every change to the flow set that drops a flow goes through here,
   after the table has dropped it: the old flows stop marking (a dropped
   flow must never mark its successor's index) and the membership set
   is re-slotted to the new indices, each busy flow marking itself as
   its hook is installed.  A flow is [Flow.marked] exactly while its bit
   is set. *)
let install_flows eng flows =
  Array.iter (fun f -> Flow.set_activity_hook f ignore) eng.flow_arr;
  eng.flow_arr <- flows;
  Sim.Bitset.reset eng.active_flows;
  Array.iteri (hook_flow eng) flows

(* [a] with room for index [i], new slots [fill]. *)
let fit a i fill =
  if i < Array.length a then a
  else begin
    let b = Array.make (i + 1) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* [a], or a copy of its first [n] slots twice as long when it is full,
   with [x] stored at [n]. *)
let push a n x =
  let a =
    if n < Array.length a then a
    else begin
      let b = Array.make (Int.max 8 (2 * n)) x in
      Array.blit a 0 b 0 n;
      b
    end
  in
  a.(n) <- x;
  a

(* This engine's flow to engine [engine] of host [host], made on first
   use.  Only a new flow builds its key. *)
let get_flow eng ~host ~engine =
  let row = if host < Array.length eng.flows then eng.flows.(host) else [||] in
  match if engine < Array.length row then row.(engine) else None with
  | Some f -> f
  | None ->
      let t = eng.e_host in
      let key =
        { Wire.src_host = addr t; src_engine = eng.eid; dst_host = host;
          dst_engine = engine }
      in
      (* Wire-version negotiation with the peer release: pick the least
         common denominator of the two hosts' supported sets (§3.1). *)
      let remote =
        match Hashtbl.find_opt t.dir.hosts host with
        | Some peer -> peer.versions
        | None -> Wire.supported_versions
      in
      let version =
        match Wire.negotiate t.versions remote with
        | Some v -> v
        | None -> failwith "Pony: no common wire protocol version"
      in
      let f =
        Flow.create ~loop:t.lp ~key ~max_rate_gbps:(flow_max_rate t) ~version
          ~incarnation:t.incarnation ()
      in
      eng.flows <- fit eng.flows host [||];
      let row = fit eng.flows.(host) engine None in
      eng.flows.(host) <- row;
      row.(engine) <- Some f;
      (* An append moves no index: only the new flow needs a hook. *)
      let i = Array.length eng.flow_arr in
      eng.flow_arr <- Array.append eng.flow_arr [| f |];
      hook_flow eng i f;
      Flow.set_window_provider f (fun () -> advertised_window eng);
      f

(* -- Completion / message delivery to the application ------------------- *)

let notify_app engine_cost client =
  (match client.app_task with
  | Some task -> Sched.kick task
  | None -> ());
  (match client.on_delivery with Some f -> f () | None -> ());
  engine_cost := !engine_cost + costs.Sim.Costs.thread_notify

(* An op's admission charge is held until its (first) completion is
   delivered; any completion path — Ok, Rejected, Timed_out — funnels
   through here, so the release is unconditional on status. *)
let release_charge client op_id =
  match Memory.Int_table.find client.charges op_id with
  | charge ->
      Memory.Int_table.remove client.charges op_id;
      (* Sabotage point: with "skip_credit_release" armed the admission
         charge is deliberately leaked so the sweep can prove the
         pool-drained invariant actually fires (never armed outside the
         checker's own non-vacuity test). *)
      if not (Check.Invariant.sabotage "skip_credit_release") then
        Overload.Admission.release client.adm charge
  | exception Not_found -> ()

(* Every completion is built here, and only here.  An op that fails
   [Peer_dead] is counted here, and with [~ends] the op's trace
   finishes here: every outcome ends its op except a send's [Ok], which
   covers only the transport's take-over. *)
let completion conn ~ends ~op_id ~status ~bytes ~value ~issued ~now =
  if ends then ot_finish conn ~remote:false op_id ~status;
  if status = Wire.Peer_dead then
    Stats.Counter.incr conn.local.c_host.c_peer_dead_op;
  { comp_op = op_id; status; bytes; value; issued_at = issued; completed_at = now }

let push_completion cost client comp =
  release_charge client comp.comp_op;
  if Squeue.Spsc.push client.comp_q ~now:(Loop.now client.c_host.lp) comp then
    notify_app cost client

(* An engine pass ends op [op_id] of [conn]'s client with [status]. *)
let end_op cost conn ~op_id ~status ~bytes ~value ~issued ~now =
  push_completion cost conn.local
    (completion conn ~ends:true ~op_id ~status ~bytes ~value ~issued ~now)

(* An op of [cmd] ends with [status] before any of its work was done:
   at dequeue, or parked on a conn that died. *)
let complete_unstarted cost cmd ~status ~now =
  match cmd with
  | C_send { cmd_conn; op_id; bytes; issued; _ } ->
      end_op cost cmd_conn ~op_id ~status ~bytes ~value:None ~issued ~now
  | C_one_sided { cmd_conn; op_id; issued; _ } ->
      end_op cost cmd_conn ~op_id ~status ~bytes:0 ~value:None ~issued ~now
  | C_close _ -> invalid_arg "Pony: complete_unstarted on a close"

let push_incoming cost client inc =
  if Squeue.Spsc.push client.msg_q ~now:(Loop.now client.c_host.lp) inc then begin
    notify_app cost client;
    true
  end
  else false

(* -- Transmit-side segmentation ----------------------------------------- *)

(* Application payloads are segmented on 4096-byte page boundaries: a
   page travels in one packet when the MTU accommodates it (the 5000 B
   MTU was chosen "to comfortably fit a 4096 B application payload with
   additional headers", §5.1) and is split otherwise — which is exactly
   why Table 1's default-MTU row moves half the throughput. *)
let page_bytes = 4096

(* Enqueue a [total]-byte payload on [flow] in chunks: a message's
   ([Msg_chunk] on [stream]) or, with [~resp], a one-sided response's
   ([One_sided_resp], [value] riding on the first chunk).  An empty
   payload travels as one empty chunk. *)
let segment t flow ~ckey ~op_id ~total ~resp ~stream ~status ~value =
  let chunk = max_chunk t in
  let offset = ref 0 in
  let more = ref true in
  while !more do
    let off = !offset in
    let len =
      Int.min (Int.min chunk (page_bytes - (off mod page_bytes))) (total - off)
    in
    Flow.enqueue flow
      (if resp then
         Wire.One_sided_resp
           {
             conn = ckey;
             op_id;
             status;
             chunk_offset = off;
             chunk_len = len;
             total;
             value = (if off = 0 then value else None);
           }
       else Wire.Msg_chunk { conn = ckey; op_id; stream; offset = off; len; total })
      ~payload_bytes:len;
    offset := off + len;
    more := !offset < total
  done

(* -- One-sided execution (§3.2) ----------------------------------------- *)

(* @raise Not_found when the client shared no region [rid]. *)
let region_of client rid =
  let rs = client.regions in
  let i = ref 0 in
  while !i < Array.length rs && Memory.Region.id rs.(!i) <> rid do
    incr i
  done;
  if !i = Array.length rs then raise Not_found else rs.(!i)

let exec_one_sided cost client (op : Wire.one_sided) =
  cost := !cost + costs.Sim.Costs.pony_one_sided_exec;
  let read_value region off =
    if Memory.Region.is_backed region && off + 8 <= Memory.Region.size region
    then Some (Memory.Region.read_int64 region off)
    else None
  in
  match op with
  | Wire.Read { region; off; len } -> (
      match region_of client region with
      | exception Not_found -> (Wire.Bad_region, 0, None)
      | r ->
          if off < 0 || len < 0 || off + len > Memory.Region.size r then
            (Wire.Bad_range, 0, None)
          else (Wire.Ok, len, read_value r off))
  | Wire.Write { region; off; len } -> (
      match region_of client region with
      | exception Not_found -> (Wire.Bad_region, 0, None)
      | r ->
          if off < 0 || len < 0 || off + len > Memory.Region.size r then
            (Wire.Bad_range, 0, None)
          else (Wire.Ok, 0, None))
  | Wire.Indirect_read { table_region; data_region; indices; len } -> (
      match (region_of client table_region, region_of client data_region) with
      | exception Not_found -> (Wire.Bad_region, 0, None)
      | table, data ->
          let n = List.length indices in
          cost := !cost + (n * costs.Sim.Costs.pony_indirection_lookup);
          let ok = ref true in
          let first = ref None in
          List.iteri
            (fun i idx ->
              if 8 * (idx + 1) > Memory.Region.size table then ok := false
              else begin
                let target =
                  Int64.to_int (Memory.Region.read_int64 table (8 * idx))
                in
                if target < 0 || target + len > Memory.Region.size data then
                  ok := false
                else if i = 0 then first := read_value data target
              end)
            indices;
          if !ok then (Wire.Ok, n * len, !first) else (Wire.Bad_range, 0, None))
  | Wire.Scan_read { region; scan_limit; needle; len } -> (
      match region_of client region with
      | exception Not_found -> (Wire.Bad_region, 0, None)
      | r ->
          let limit = Int.min scan_limit (Memory.Region.size r) in
          (* Entries are 16 bytes: (needle, pointer). *)
          let entries = limit / 16 in
          cost :=
            !cost + (Int.max 1 (entries / 4) * costs.Sim.Costs.pony_indirection_lookup);
          if not (Memory.Region.is_backed r) then
            (* Synthetic regions: treat as a hit at a derived offset. *)
            (Wire.Ok, len, None)
          else begin
            let found = ref None in
            (try
               for i = 0 to entries - 1 do
                 if Memory.Region.read_int64 r (16 * i) = needle then begin
                   found := Some (Int64.to_int (Memory.Region.read_int64 r ((16 * i) + 8)));
                   raise Exit
                 end
               done
             with Exit -> ());
            match !found with
            | None -> (Wire.No_match, 0, None)
            | Some ptr ->
                if ptr < 0 || ptr + len > Memory.Region.size r then
                  (Wire.Bad_range, 0, None)
                else (Wire.Ok, len, read_value r ptr)
          end)

(* -- Receive-side upper layer ------------------------------------------- *)

(* The half [ckey] names here, if it is the side [we_init] says, else
   [Not_found]: a candidate counts once its side and every key field
   compare equal as ints, so a stale or foreign key misses instead of
   aliasing.  A loop that returns the half itself allocates nothing. *)
let find_conn eng (ckey : Wire.conn_key) ~we_init =
  let idx = eng.half_index in
  let mask = Array.length idx - 1 in
  let i = ref (Memory.Int_table.home ~bits:eng.index_bits (conn_slot ckey)) in
  let found = ref (-1) in
  while !found < 0 && idx.(!i) >= 0 do
    let c = eng.halves.(idx.(!i)) in
    if
      c.ckey.Wire.session = ckey.Wire.session
      && c.ckey.Wire.initiator_host = ckey.Wire.initiator_host
      && c.we_are_initiator = we_init
      && c.ckey.Wire.initiator_client = ckey.Wire.initiator_client
      && c.ckey.Wire.target_host = ckey.Wire.target_host
      && c.ckey.Wire.target_client = ckey.Wire.target_client
    then found := idx.(!i)
    else i := (!i + 1) land mask
  done;
  if !found < 0 then raise Not_found else eng.halves.(!found)

(* Put position [pos] of [halves] in its probe run's first vacant
   slot. *)
let index_half eng pos =
  let idx = eng.half_index in
  let mask = Array.length idx - 1 in
  let k = conn_slot eng.halves.(pos).ckey in
  let i = ref (Memory.Int_table.home ~bits:eng.index_bits k) in
  while idx.(!i) >= 0 do
    i := (!i + 1) land mask
  done;
  idx.(!i) <- pos

(* Append a half and index it; both arrays double as needed, the index
   before it would pass half full. *)
let add_conn eng conn =
  let n = eng.n_halves in
  eng.halves <- push eng.halves n conn;
  eng.n_halves <- n + 1;
  if 2 * (n + 1) > Array.length eng.half_index then begin
    eng.index_bits <- eng.index_bits + 1;
    eng.half_index <- Array.make (1 lsl eng.index_bits) (-1);
    for pos = 0 to n do
      index_half eng pos
    done
  end
  else index_half eng n

let iter_halves eng f =
  for i = 0 to eng.n_halves - 1 do
    f eng.halves.(i)
  done

(* Cancel a conn's wheel timers; every terminal transition funnels
   through here so dead conns never wake the wheel again.  A timer is
   only ever armed on a half's own ext. *)
let cancel_conn_timers conn =
  let e = conn.ext in
  (match e.dl_timer with
  | Some w ->
      Sim.Wheel.cancel w;
      e.dl_timer <- None
  | None -> ());
  match e.ka_timer with
  | Some w ->
      Sim.Wheel.cancel w;
      e.ka_timer <- None
  | None -> ()

let rx_copy_cost eng cost bytes =
  match eng.e_host.ce with
  | Some _ when eng.e_host.use_ce ->
      cost := !cost + costs.Sim.Costs.copy_engine_per_packet
  | Some _ | None ->
      cost :=
        !cost
        + Time.ns
            (int_of_float
               (Float.round (costs.Sim.Costs.snap_copy_per_byte_ns *. float_of_int bytes)))

let grant_credit flow ckey bytes =
  Flow.enqueue flow (Wire.Credit_grant { conn = ckey; bytes }) ~payload_bytes:0

let deliver_message eng cost ~conn ~op_id ~stream ~total ~reverse_flow =
  if
    push_incoming cost conn.local
      { msg_conn = conn; msg_op = op_id; stream; msg_bytes = total }
  then begin
    (* The message reached the destination application: this is the
       end-to-end completion point of a two-sided op (the sender's [Ok]
       completion at segmentation only covered transport take-over). *)
    ot_stamp conn ~remote:true op_id Sim.Optrace.Delivered;
    ot_finish conn ~remote:true op_id ~status:Wire.Ok;
    (* Receiver-driven replenishment once the message is handed to the
       application (§3.3). *)
    grant_credit reverse_flow conn.ckey total
  end
  else begin
    (* The destination client's incoming queue is full: shed at
       delivery and NACK so the sender's credit comes back and the op
       completes [Busy] instead of silently losing both. *)
    Stats.Counter.incr eng.e_host.c_busy;
    Flow.enqueue reverse_flow
      (Wire.Busy_nack { conn = conn.ckey; op_id; bytes = total })
      ~payload_bytes:0
  end

(* Reassembly state is charged to the owning engine in the op pool so
   receive-side memory is attributed (§2.5); best-effort — [None] when
   the pool cannot cover it. *)
let charge_assembly eng ~total =
  if total = 0 then None
  else
    Memory.Pool.try_alloc_from eng.e_acct ~bytes:total

let free_charge = function
  | Some c -> if c.Memory.Pool.live then Memory.Pool.free c
  | None -> ()

let free_assembly a =
  let c = a.asm_charge in
  a.asm_charge <- None;
  free_charge c

(* -- Per-half reassembly and outstanding one-sided ops ------------------- *)

(* Index of op [op_id]'s open reassembly on [e], or -1. *)
let asm_index e op_id =
  let i = ref 0 in
  while !i < e.n_asm && e.asms.(!i).a_op <> op_id do
    incr i
  done;
  if !i = e.n_asm then -1 else !i

(* Open reassembly [a] on [conn], keeping op-id order. *)
let add_asm conn a =
  let e = ext_of conn in
  let n = e.n_asm in
  if n = Array.length e.asms then begin
    let grown = Array.make (Int.max 2 (2 * n)) no_asm in
    Array.blit e.asms 0 grown 0 n;
    e.asms <- grown
  end;
  let i = ref n in
  while !i > 0 && e.asms.(!i - 1).a_op > a.a_op do
    e.asms.(!i) <- e.asms.(!i - 1);
    decr i
  done;
  e.asms.(!i) <- a;
  e.n_asm <- n + 1;
  let eng = conn.local.c_eng in
  eng.open_asms <- eng.open_asms + 1

(* Close the reassembly at index [i] on [conn]. *)
let remove_asm conn i =
  let e = conn.ext in
  let n = e.n_asm - 1 in
  for j = i to n - 1 do
    e.asms.(j) <- e.asms.(j + 1)
  done;
  e.asms.(n) <- no_asm;
  e.n_asm <- n;
  let eng = conn.local.c_eng in
  eng.open_asms <- eng.open_asms - 1

(* Abandon every open reassembly on [conn], in op-id order, returning
   each one's op-pool charge. *)
let drop_asms conn =
  let e = conn.ext in
  let n = e.n_asm in
  if n > 0 then begin
    for i = 0 to n - 1 do
      free_assembly e.asms.(i);
      e.asms.(i) <- no_asm
    done;
    e.n_asm <- 0;
    let eng = conn.local.c_eng in
    eng.open_asms <- eng.open_asms - n
  end

(* Halves of [eng] with open reassemblies, in [compare_half] order, so
   which reassemblies a walk reaches first under pool pressure depends
   on neither creation nor hash order. *)
let halves_with_asms eng =
  if eng.open_asms = 0 then []
  else begin
    let acc = ref [] in
    iter_halves eng (fun c -> if c.ext.n_asm > 0 then acc := c :: !acc);
    List.sort compare_half !acc
  end

let add_outstanding conn op_id ~issued =
  let e = ext_of conn in
  let n = e.n_outst in
  if 2 * n = Array.length e.outst then begin
    let grown = Array.make (Int.max 4 (4 * n)) 0 in
    Array.blit e.outst 0 grown 0 (2 * n);
    e.outst <- grown
  end;
  (* Usually an append: a client's ops reach its engine in issue
     order unless two threads share the client. *)
  let i = ref n in
  while !i > 0 && e.outst.(2 * (!i - 1)) > op_id do
    e.outst.(2 * !i) <- e.outst.(2 * (!i - 1));
    e.outst.((2 * !i) + 1) <- e.outst.((2 * !i) - 1);
    decr i
  done;
  e.outst.(2 * !i) <- op_id;
  e.outst.((2 * !i) + 1) <- issued;
  e.n_outst <- n + 1

(* Stop tracking one-sided op [op_id] on [conn]: its issue time, or -1
   when it is not outstanding there. *)
let take_outstanding conn op_id =
  let e = conn.ext in
  let n = e.n_outst in
  let i = ref 0 in
  while !i < n && e.outst.(2 * !i) <> op_id do
    incr i
  done;
  let i = !i in
  if i = n then -1
  else begin
    let issued = e.outst.((2 * i) + 1) in
    for j = 2 * i to (2 * (n - 1)) - 1 do
      e.outst.(j) <- e.outst.(j + 2)
    done;
    e.n_outst <- n - 1;
    issued
  end

(* -- Connection death and orphan-state reclamation ----------------------- *)

let item_for_conn ckey = function
  | Wire.Msg_chunk { conn; _ }
  | Wire.One_sided_req { conn; _ }
  | Wire.One_sided_resp { conn; _ }
  | Wire.Credit_grant { conn; _ }
  | Wire.Busy_nack { conn; _ }
  | Wire.Conn_reset { conn }
  | Wire.Keepalive { conn }
  | Wire.Keepalive_ack { conn } -> conn = ckey
  | Wire.Bare_ack -> false

let conn_label conn =
  Printf.sprintf "%d.%d->%d.%d%s" conn.ckey.Wire.initiator_host
    conn.ckey.Wire.initiator_client conn.ckey.Wire.target_host
    conn.ckey.Wire.target_client
    (if conn.we_are_initiator then ".init" else ".tgt")

(* A host lifecycle event as a Span instant.  Callers guard it with
   [Sim.Span.enabled], so the argument strings are built only under
   capture. *)
let host_event t ~args name =
  Sim.Span.emit t.lp ~cat:"pony"
    ~track:(Printf.sprintf "pony host %d" (addr t))
    ~args name

(* Every path that declares a connection dead funnels here: fail every
   stranded op with [Peer_dead] (releasing its admission charge through
   the completion path) and reclaim all transport state attributable to
   the peer — the credit-waiting queue, unsent flow items, outstanding
   one-sided ops, and receive-side reassembly (whose op-pool charge
   returns).  The per-host peer_reclaim invariant checks exactly this
   postcondition on every Dead/Closed conn; the "skip_peer_reclaim"
   sabotage switch skips the reclamation so the sweep can prove the
   invariant is not vacuous. *)
let kill_conn cost conn ~reason =
  if not (conn_is_dead conn) then begin
    let t = conn.local.c_host in
    let now = Loop.now t.lp in
    conn.state <- Dead;
    cancel_conn_timers conn;
    Stats.Counter.incr t.c_peer_death;
    if Sim.Span.enabled () then
      host_event t "conn dead"
        ~args:[ ("conn", conn_label conn); ("reason", reason) ];
    if not (Check.Invariant.sabotage "skip_peer_reclaim") then begin
      let e = conn.ext in
      (* Credit-starved ops parked on the conn. *)
      if not (Queue.is_empty e.waiting) then begin
        Queue.iter
          (fun cmd -> complete_unstarted cost cmd ~status:Wire.Peer_dead ~now)
          e.waiting;
        Queue.clear e.waiting
      end;
      (* Segments and control items not yet on the wire would address a
         dead peer; flight entries stay (removing them would punch holes
         in the go-back-N sequence space). *)
      Flow.purge_queue conn.c_flow ~drop:(item_for_conn conn.ckey);
      (* One-sided ops stranded without a response, in op-id order. *)
      let n = e.n_outst in
      if n > 0 then begin
        e.n_outst <- 0;
        for i = 0 to n - 1 do
          let op_id = e.outst.(2 * i) and issued = e.outst.((2 * i) + 1) in
          end_op cost conn ~op_id ~status:Wire.Peer_dead ~bytes:0 ~value:None
            ~issued ~now
        done
      end;
      (* Partially reassembled messages from the dead peer. *)
      drop_asms conn
    end;
    (* Attribution: ops on this conn still being traced — transmitted
       but undelivered sends included — can never complete normally.
       Close their records (both directions of the session) so the
       in-flight table does not carry them forever. *)
    if Sim.Optrace.enabled () then begin
      let stale = ref [] in
      Sim.Optrace.iter_in_flight (fun r ->
          let k = r.Sim.Optrace.r_key in
          if
            k.Sim.Optrace.k_session = conn.ckey.Wire.session
            && ((k.Sim.Optrace.k_origin = addr t
                && k.Sim.Optrace.k_origin_client = conn.local.cid
                && k.Sim.Optrace.k_peer = remote_host conn
                && k.Sim.Optrace.k_origin_init = conn.we_are_initiator)
               || (k.Sim.Optrace.k_origin = remote_host conn
                  && k.Sim.Optrace.k_origin_client = remote_client conn
                  && k.Sim.Optrace.k_peer = addr t
                  && k.Sim.Optrace.k_origin_init = not conn.we_are_initiator))
          then stale := k :: !stale);
      List.iter (fun k -> ot_finish_key conn k ~status:Wire.Peer_dead) !stale
    end
  end

(* Complete a local close: tell the peer (so its half dies promptly
   rather than by keepalive), abandon inbound reassembly, tombstone. *)
let finalize_close conn =
  match conn.state with
  | Draining ->
      let t = conn.local.c_host in
      conn.state <- Closed;
      cancel_conn_timers conn;
      Stats.Counter.incr t.c_conn_closed;
      Stats.Counter.incr t.c_conn_reset;
      Flow.enqueue conn.c_flow (Wire.Conn_reset { conn = conn.ckey })
        ~payload_bytes:0;
      drop_asms conn
  | Established | Dead | Closed -> ()

let reset_back eng ckey ~reverse_flow =
  Stats.Counter.incr eng.e_host.c_conn_reset;
  Flow.enqueue reverse_flow (Wire.Conn_reset { conn = ckey }) ~payload_bytes:0

(* Tear down everything this host holds about [peer]: conns die (their
   ops fail [Peer_dead]) and flows are dropped wholesale — their
   sequence state belongs to a peer instance that no longer exists. *)
let forget_peer cost t ~peer ~reason =
  List.iter
    (fun eng ->
      (* Creation order: deterministic without a sort even under
         randomized hashing. *)
      iter_halves eng (fun conn ->
          if remote_host conn = peer then kill_conn cost conn ~reason);
      if peer < Array.length eng.flows then eng.flows.(peer) <- [||];
      install_flows eng
        (Array.of_list
           (List.filter
              (fun f -> (Flow.key f).Wire.dst_host <> peer)
              (Array.to_list eng.flow_arr))))
    t.engs

(* Record the incarnation [peer] is speaking.  [`Stale] means the packet
   predates the peer's latest restart and must be dropped; a stamp newer
   than the recorded one proves the peer restarted, so everything held
   about it is torn down before the packet is processed. *)
let note_peer_inc cost t ~peer ~inc =
  if peer >= Array.length t.peer_inc then begin
    let grown =
      Array.make (Int.max (peer + 1) (2 * Array.length t.peer_inc)) (-1)
    in
    Array.blit t.peer_inc 0 grown 0 (Array.length t.peer_inc);
    t.peer_inc <- grown
  end;
  let known = t.peer_inc.(peer) in
  if known < 0 then begin
    t.peer_inc.(peer) <- inc;
    `Current
  end
  else if inc = known then `Current
  else if inc < known then `Stale
  else begin
    t.peer_inc.(peer) <- inc;
    Stats.Counter.incr t.c_peer_restart;
    if Sim.Span.enabled () then
      host_event t "peer restarted"
        ~args:[ ("peer", string_of_int peer); ("incarnation", string_of_int inc) ];
    forget_peer cost t ~peer ~reason:"peer restarted";
    `Current
  end

(* The reclamation postcondition [kill_conn]/[finalize_close] enforce:
   a Dead/Closed conn holds no parked ops, no outstanding one-sided
   ops, and no reassembly buffers. *)
let holds_orphans conn =
  let e = conn.ext in
  conn_is_dead conn
  && ((not (Queue.is_empty e.waiting)) || e.n_outst > 0 || e.n_asm > 0)

(* Each engine's first offending half in [compare_half] order is
   reported. *)
let check_peer_reclaim t =
  List.fold_left
    (fun acc eng ->
      match acc with
      | Some _ -> acc
      | None -> (
          let first = ref None in
          iter_halves eng (fun c ->
              if holds_orphans c then
                match !first with
                | Some f when compare_half f c <= 0 -> ()
                | Some _ | None -> first := Some c);
          match !first with
          | None -> None
          | Some conn ->
              let e = conn.ext in
              Some
                (if not (Queue.is_empty e.waiting) then
                   Printf.sprintf "conn %s: %d ops parked on a dead conn"
                     (conn_label conn) (Queue.length e.waiting)
                 else if e.n_outst > 0 then
                   Printf.sprintf
                     "conn %s: outstanding one-sided ops on a dead conn"
                     (conn_label conn)
                 else
                   Printf.sprintf "conn %s: reassembly state on a dead conn"
                     (conn_label conn))))
    None t.engs

let maybe_finalize_close conn =
  if conn.state = Draining && Queue.is_empty conn.ext.waiting then
    finalize_close conn

(* -- Per-conn wheel timers ----------------------------------------------- *)

(* Timer callbacks run in loop context, between engine passes: they only
   flag the conn onto the engine's due queue and poke the engine, so all
   real work — and all its determinism-sensitive ordering — stays inside
   the engine pass. *)

(* Keep the deadline timer in sync with the head of the credit-waiting
   queue.  Called after any mutation of the queue; O(1).  A head or an
   armed timer means the half has its own ext. *)
let rearm_deadline eng conn =
  let e = conn.ext in
  let head =
    if conn_is_dead conn then None
    else
      match Queue.peek_opt e.waiting with
      | Some (C_send { deadline = Some d; _ }) -> Some d
      | Some _ | None -> None
  in
  match (head, e.dl_timer) with
  | None, None -> ()
  | None, Some w ->
      Sim.Wheel.cancel w;
      e.dl_timer <- None
  | Some d, Some w when e.dl_at = d && Sim.Wheel.is_armed w -> ()
  | Some d, prev ->
      (match prev with Some w -> Sim.Wheel.cancel w | None -> ());
      e.dl_at <- d;
      e.dl_timer <-
        Some
          (Sim.Wheel.arm eng.wheel
             ~at:(Time.add d 1) (* expiry is strict: fire once now > d *)
             (fun () ->
               e.dl_timer <- None;
               if (not e.dl_queued) && not (conn_is_dead conn) then begin
                 e.dl_queued <- true;
                 Queue.add conn eng.deadline_due;
                 Engine.notify eng.core
               end))

(* Does this conn still have a reason to watch its peer?  Quiesce-aware
   keepalive arms only while the answer is yes; an idle healthy conn
   runs one probe cycle after its last traffic and then goes silent. *)
let conn_has_interest conn =
  (not (Queue.is_empty conn.ext.waiting))
  || conn.ext.n_outst > 0
  || Flow.in_flight conn.c_flow > 0
  || Flow.pending conn.c_flow > 0

(* Continue an existing watch epoch on the half's own ext [e]: arm the
   next probe-cycle wheel timer without touching [ka_base] (silence
   keeps accruing, so the death budget still runs out on a dead
   peer). *)
let rearm_ka eng conn e ~at =
  e.ka_timer <-
    Some
      (Sim.Wheel.arm eng.wheel ~at (fun () ->
           e.ka_timer <- None;
           if (not e.ka_queued) && not (conn_is_dead conn) then begin
             e.ka_queued <- true;
             Queue.add conn eng.ka_due;
             Engine.notify eng.core
           end))

(* Start (or resume) the keepalive watch if the host configured one and
   the conn has none running.  [ka_base] records when this watch epoch
   began so a resumed watch never counts silence accrued while we
   deliberately weren't watching. *)
let ensure_ka eng conn ~now =
  match eng.e_host.ka with
  | None -> ()
  | Some { ka_interval; _ } ->
      if conn.ext.ka_timer = None && not (conn_is_dead conn) then begin
        let e = ext_of conn in
        e.ka_base <- now;
        rearm_ka eng conn e ~at:(Time.add now ka_interval)
      end

(* Shed the head of [conn]'s credit-waiting queue if its deadline has
   passed at [now]: it completes [Timed_out] before any segmentation
   work, without consuming credit.  True when a head went. *)
let expire_head cost conn ~now =
  let w = conn.ext.waiting in
  (not (Queue.is_empty w))
  &&
  match Queue.peek w with
  | C_send { op_id; bytes; issued; deadline = Some d; _ } when now > d ->
      ignore (Queue.pop w);
      Stats.Counter.incr conn.local.c_expired;
      end_op cost conn ~op_id ~status:Wire.Timed_out ~bytes ~value:None ~issued
        ~now;
      true
  | C_send _ | C_one_sided _ | C_close _ -> false

(* Credit admits send [op_id]: debit it, segment the message and
   complete the op [Ok], which covers the transport's take-over. *)
let send_on_credit t cost conn ~op_id ~stream ~bytes ~issued =
  conn.credit <- conn.credit - bytes;
  ot_stamp conn ~remote:false op_id Sim.Optrace.Credit;
  segment t conn.c_flow ~ckey:conn.ckey ~op_id ~total:bytes ~resp:false ~stream
    ~status:Wire.Ok ~value:None;
  push_completion cost conn.local
    (completion conn ~ends:false ~op_id ~status:Wire.Ok ~bytes ~value:None
       ~issued ~now:(Loop.now t.lp))

let drain_waiting eng cost conn =
  let t = eng.e_host in
  let continue = ref true in
  while !continue do
    if not (expire_head cost conn ~now:(Loop.now t.lp)) then
      match Queue.peek_opt conn.ext.waiting with
      | Some (C_send { op_id; stream; bytes; issued; _ })
        when bytes <= conn.credit ->
          ignore (Queue.pop conn.ext.waiting);
          cost := !cost + costs.Sim.Costs.pony_per_op;
          send_on_credit t cost conn ~op_id ~stream ~bytes ~issued
      | Some _ | None -> continue := false
  done;
  maybe_finalize_close conn;
  rearm_deadline eng conn

(* Drop deadline-expired ops parked at the head of the credit-waiting
   queue.  [drain_waiting] does the same when credit arrives; this path
   covers the case where no credit ever does — the conn's wheel timer
   fired and flagged it onto [eng.deadline_due], so only conns with an
   actually-expired head are visited (never the whole table).  Wheel
   firing order is salted exactly like the loop heap, and the due queue
   preserves it, so expiry completions keep a deterministic order under
   randomized hashing. *)
let process_deadline_due eng cost ~now =
  let expired = ref 0 in
  while not (Queue.is_empty eng.deadline_due) do
    let conn = Queue.pop eng.deadline_due in
    conn.ext.dl_queued <- false;
    if not (conn_is_dead conn) then begin
      while expire_head cost conn ~now do
        incr expired
      done;
      maybe_finalize_close conn;
      rearm_deadline eng conn
    end
  done;
  !expired

(* A message's last chunk arrived: hand it to the application, through
   the copy engine when the host offloads copies (delivery then happens
   when the copy lands). *)
let message_done eng cost conn ~op_id ~stream ~total ~reverse_flow =
  let t = eng.e_host in
  ot_stamp conn ~remote:true op_id Sim.Optrace.Rx_done;
  match t.ce with
  | Some ce when t.use_ce ->
      Nic.Copy_engine.submit ce ~bytes:total ~on_complete:(fun () ->
          let notify_cost = ref 0 in
          deliver_message eng notify_cost ~conn ~op_id ~stream ~total ~reverse_flow;
          Sched.softirq_charge t.mach !notify_cost;
          Engine.notify eng.core)
  | Some _ | None -> deliver_message eng cost ~conn ~op_id ~stream ~total ~reverse_flow

(* A one-sided response's last chunk arrived: complete the op. *)
let response_done cost conn ~op_id ~status ~total ~value ~now =
  let issued = match take_outstanding conn op_id with -1 -> now | ts -> ts in
  ot_stamp conn ~remote:false op_id Sim.Optrace.Rx_done;
  end_op cost conn ~op_id ~status ~bytes:total ~value ~issued ~now

(* An item on [conn], a live half found under the item's key [ckey]. *)
let conn_item eng cost conn ckey (item : Wire.item) ~reverse_flow =
  let t = eng.e_host in
  let now = Loop.now t.lp in
  (* Any item carried on a live conn counts as life for dead-peer
     detection, which only a keepalive host runs. *)
  (match t.ka with Some _ -> (ext_of conn).last_heard <- now | None -> ());
  (* Traffic (re)starts the quiesce-aware keepalive watch — except the
     probe cycle itself.  A probe or its answer is proof of life, not
     interest: feeding it back into [ensure_ka] would let the watches on
     two idle hosts restart each other forever (probe restarts the
     peer's watch, whose probe restarts ours), and the pair never
     quiesces. *)
  (match item with
  | Wire.Keepalive _ | Wire.Keepalive_ack _ -> ()
  | _ -> ensure_ka eng conn ~now);
  match item with
  | Wire.Bare_ack -> ()
  | Wire.Conn_reset _ -> kill_conn cost conn ~reason:"reset by peer"
  | Wire.Keepalive _ ->
      Flow.enqueue reverse_flow (Wire.Keepalive_ack { conn = ckey })
        ~payload_bytes:0
  | Wire.Keepalive_ack _ ->
      (* The probe answer itself already refreshed [last_heard]. *)
      ()
  | Wire.Msg_chunk { conn = _; op_id; stream; offset = _; len; total } ->
      rx_copy_cost eng cost len;
      let i = asm_index conn.ext op_id in
      if i >= 0 then begin
        let a = conn.ext.asms.(i) in
        a.got <- a.got + len;
        if a.got >= a.total then begin
          remove_asm conn i;
          free_assembly a;
          message_done eng cost conn ~op_id ~stream ~total ~reverse_flow
        end
      end
      else begin
        let charge = charge_assembly eng ~total in
        ot_stamp conn ~remote:true op_id Sim.Optrace.Rx_first;
        (* A message one chunk completes is never stored. *)
        if len >= total then begin
          free_charge charge;
          message_done eng cost conn ~op_id ~stream ~total ~reverse_flow
        end
        else
          add_asm conn
            {
              a_op = op_id;
              got = len;
              total;
              first_value = None;
              asm_status = Wire.Ok;
              asm_charge = charge;
            }
      end
  | Wire.One_sided_req { conn = _; op_id; op } ->
      eng.served_one_sided <- eng.served_one_sided + 1;
      (* The conn's local half serves against its own client's regions,
         whichever side initiated. *)
      let status, total, value = exec_one_sided cost conn.local op in
      segment t reverse_flow ~ckey ~op_id ~total ~resp:true ~stream:0 ~status
        ~value
  | Wire.One_sided_resp
      { conn = _; op_id; status; chunk_offset; chunk_len; total; value } ->
      rx_copy_cost eng cost chunk_len;
      let value = if chunk_offset = 0 then value else None in
      let i = asm_index conn.ext op_id in
      if i >= 0 then begin
        let a = conn.ext.asms.(i) in
        a.got <- a.got + chunk_len;
        if chunk_offset = 0 then begin
          a.first_value <- value;
          a.asm_status <- status
        end;
        if a.got >= a.total then begin
          remove_asm conn i;
          free_assembly a;
          response_done cost conn ~op_id ~status:a.asm_status
            ~total:a.total ~value:a.first_value ~now
        end
      end
      else begin
        let charge = charge_assembly eng ~total in
        (* A one-sided response reassembles at the op's origin. *)
        ot_stamp conn ~remote:false op_id Sim.Optrace.Rx_first;
        if chunk_len >= total then begin
          free_charge charge;
          response_done cost conn ~op_id ~status ~total ~value ~now
        end
        else
          add_asm conn
            {
              a_op = op_id;
              got = chunk_len;
              total;
              first_value = value;
              asm_status = status;
              asm_charge = charge;
            }
      end
  | Wire.Credit_grant { conn = _; bytes } ->
      conn.credit <- conn.credit + bytes;
      drain_waiting eng cost conn
  | Wire.Busy_nack { conn = _; op_id; bytes } ->
      (* The receiver shed this op at delivery: reclaim the connection
         credit the send consumed and surface a [Busy] completion (a
         second completion for the op — the first, [Ok], only covered
         transport take-over). *)
      conn.credit <- conn.credit + bytes;
      end_op cost conn ~op_id ~status:Wire.Busy ~bytes ~value:None ~issued:now
        ~now;
      drain_waiting eng cost conn

(* Route an item to its conn, looked up once.  Traffic for an unknown or
   Dead/Closed conn answers with a reset — except a reset itself, which
   is never echoed, so two tombstones cannot ping-pong. *)
let handle_item eng cost ~from_host (item : Wire.item) ~reverse_flow =
  match item with
  | Wire.Bare_ack -> ()
  | Wire.Msg_chunk { conn = ckey; _ }
  | Wire.One_sided_req { conn = ckey; _ }
  | Wire.One_sided_resp { conn = ckey; _ }
  | Wire.Credit_grant { conn = ckey; _ }
  | Wire.Busy_nack { conn = ckey; _ }
  | Wire.Conn_reset { conn = ckey }
  | Wire.Keepalive { conn = ckey }
  | Wire.Keepalive_ack { conn = ckey } -> (
      let we_init = not (ckey.Wire.initiator_host = from_host) in
      match find_conn eng ckey ~we_init with
      | conn when not (conn_is_dead conn) ->
          conn_item eng cost conn ckey item ~reverse_flow
      | _ | (exception Not_found) -> (
          match item with
          | Wire.Conn_reset _ -> ()
          | _ -> reset_back eng ckey ~reverse_flow))

(* -- Command handling ---------------------------------------------------- *)

let cmd_expired cmd ~now =
  match cmd with
  | C_send { deadline = Some d; _ } | C_one_sided { deadline = Some d; _ } ->
      now > d
  | C_send _ | C_one_sided _ | C_close _ -> false

(* Load shedding (§3.3): under Saturated pressure, drop ops from
   clients holding a disproportionate share of their quota — at
   dequeue, before any segmentation or transmission work is invested
   in them (cheapest-first). *)
let shed_at_dequeue eng client =
  match Overload.Pressure.level eng.pressure with
  | Overload.Pressure.Nominal | Overload.Pressure.Pressured -> false
  | Overload.Pressure.Saturated ->
      Overload.Admission.outstanding_ops client.adm * 4
      > Overload.Admission.op_quota client.adm

let handle_command eng cost cmd =
  let t = eng.e_host in
  cost := !cost + costs.Sim.Costs.pony_per_op;
  let now = Loop.now t.lp in
  match cmd with
  | C_close { cmd_conn = conn } -> (
      (* The close is ordered behind the conn's earlier sends in the
         command queue; anything still credit-waiting drains first. *)
      match conn.state with
      | Established | Draining ->
          conn.state <- Draining;
          maybe_finalize_close conn
      | Dead | Closed -> ())
  | C_send { cmd_conn = conn; _ } | C_one_sided { cmd_conn = conn; _ } -> (
      if conn_is_dead conn then
        (* The conn died between posting and dequeue. *)
        complete_unstarted cost cmd ~now
          ~status:
            (match conn.state with
            | Dead -> Wire.Peer_dead
            | Established | Draining | Closed -> Wire.Rejected)
      else if cmd_expired cmd ~now then begin
        Stats.Counter.incr conn.local.c_expired;
        complete_unstarted cost cmd ~status:Wire.Timed_out ~now
      end
      else if shed_at_dequeue eng conn.local then begin
        Stats.Counter.incr conn.local.c_shed;
        complete_unstarted cost cmd ~status:Wire.Rejected ~now
      end
      else
        match cmd with
        | C_send { op_id; stream; bytes; issued; _ } ->
            ot_dequeued conn op_id;
            ensure_ka eng conn ~now;
            if bytes <= conn.credit then
              send_on_credit t cost conn ~op_id ~stream ~bytes ~issued
            else begin
              Queue.add cmd (ext_of conn).waiting;
              rearm_deadline eng conn
            end
        | C_one_sided { op_id; op; issued; _ } ->
            ot_dequeued conn op_id;
            ensure_ka eng conn ~now;
            add_outstanding conn op_id ~issued;
            Flow.enqueue conn.c_flow
              (Wire.One_sided_req { conn = conn.ckey; op_id; op })
              ~payload_bytes:0
        | C_close _ -> ())

(* -- The engine loop ----------------------------------------------------- *)

(* Re-arm the engine's pacing/retransmit wake-up.  Only flow deadlines
   are folded here — per-conn send deadlines and keepalives live on the
   engine's timing wheel and wake the engine themselves — and only over
   member flows: an idle flow has no deadline.  This is the pass's last
   flow scan, so it is where members found idle leave the set.  The
   loop event is re-armed even when the deadline is unchanged: keeping
   the old one would change its tie order against same-instant
   events. *)
let arm_timer eng =
  let t = eng.e_host in
  Loop.cancel t.lp eng.timer;
  eng.timer <- Loop.none;
  let deadline = ref max_int in
  let i = ref (Sim.Bitset.next eng.active_flows 0) in
  while !i >= 0 do
    let f = eng.flow_arr.(!i) in
    if Flow.settle f then Sim.Bitset.clear eng.active_flows !i
    else begin
      let d = Flow.next_deadline f in
      if d < !deadline then deadline := d
    end;
    i := Sim.Bitset.next eng.active_flows (!i + 1)
  done;
  if !deadline <> max_int && !deadline > Loop.now t.lp then
    eng.timer <- Loop.at t.lp !deadline eng.wake

let engine_run eng =
  let t = eng.e_host in
  let now = Loop.now t.lp in
  let cost = eng.pass_cost in
  cost := 0;
  let pkts = ref 0 in
  let worked = ref false in
  (* 0. Restart detection: an epoch bump means this engine was reloaded
     (crash recovery or upgrade rollback/commit).  Resynchronize every
     flow so in-flight operations retransmit immediately instead of
     waiting out a backed-off RTO. *)
  let ep = Engine.epoch eng.core in
  if ep <> eng.last_epoch then begin
    eng.last_epoch <- ep;
    (* The crashed instance's op-pool charges must not strand: bulk-
       reclaim everything under this engine's name (late frees from
       pre-crash allocations become generation-checked no-ops), then
       re-charge the reassemblies that survived in the engine's queues
       under the new epoch. *)
    let ename = Engine.name eng.core in
    let reclaimed = Memory.Pool.release_owner t.op_pool ~owner:ename in
    (* Sorted: under pool pressure only a prefix of the reassemblies
       re-charges successfully, so which ones get charges must not
       depend on creation order. *)
    List.iter
      (fun c ->
        let e = c.ext in
        for i = 0 to e.n_asm - 1 do
          let a = e.asms.(i) in
          a.asm_charge <-
            (if a.total = 0 then None
             else Memory.Pool.try_alloc_from eng.e_acct ~bytes:a.total)
        done)
      (halves_with_asms eng);
    if reclaimed > 0 && Sim.Span.enabled () then
      host_event t "reclaimed dead instance"
        ~args:
          [
            ("engine", ename);
            ("epoch", string_of_int ep);
            ("op_pool_bytes", string_of_int reclaimed);
          ];
    let requeued =
      Array.fold_left (fun acc f -> acc + Flow.resync f ~now) 0 eng.flow_arr
    in
    if requeued > 0 then begin
      Stats.Counter.incr t.c_resync;
      worked := true;
      if Sim.Span.enabled () then
        host_event t "resynced flows"
          ~args:
            [
              ("engine", Engine.name eng.core);
              ("epoch", string_of_int ep);
              ("requeued", string_of_int requeued);
            ]
    end
  end;
  (* Fold queue and pool occupancy into the engine's pressure level;
     everything downstream (admission windows, shedding) gates on it. *)
  let ring = Nic.rx_ring t.nic ~queue:eng.rxq in
  let occupancy =
    (* The fullest of the rx ring, the command queues and the op pool,
       compared as exact fractions so the scan allocates no floats;
       rounding is monotone, so the one division at the end equals the
       largest rounded fraction. *)
    let len = ref (Squeue.Spsc.length ring) in
    let cap = ref (Squeue.Spsc.capacity ring) in
    let i = ref (Sim.Bitset.next eng.busy_clients 0) in
    while !i >= 0 do
      let q = eng.eclients.(!i).cmd_q in
      let l = Squeue.Spsc.length q and c = Squeue.Spsc.capacity q in
      if l * !cap > !len * c then begin
        len := l;
        cap := c
      end;
      i := Sim.Bitset.next eng.busy_clients (!i + 1)
    done;
    let l = Memory.Pool.in_use t.op_pool and c = Memory.Pool.capacity t.op_pool in
    if l * !cap > !len * c then begin
      len := l;
      cap := c
    end;
    float_of_int !len /. float_of_int !cap
  in
  ignore (Overload.Pressure.update eng.pressure ~occupancy);
  (* 1. Receive a bounded batch from this engine's NIC ring. *)
  let n = ref 0 in
  let continue = ref true in
  while !continue && !n < rx_batch do
    match Squeue.Spsc.pop ring with
    | Some pkt -> (
        incr n;
        incr pkts;
        worked := true;
        (* Bare acks and control items skip payload-path processing. *)
        cost :=
          !cost
          + (if pkt.Packet.payload_bytes > 0 then
               costs.Sim.Costs.pony_rx_per_packet
             else Time.scale costs.Sim.Costs.pony_rx_per_packet 0.35);
        if pkt.Packet.corrupted then begin
          (* End-to-end integrity check (§3.1): the payload failed
             verification, so the packet is discarded before transport
             processing.  No ack advances; the sender retransmits. *)
          Stats.Counter.incr t.c_corrupt
        end
        else
        match pkt.Packet.payload with
        | Wire.Pony { flow = k; inc; _ } -> (
            (* Incarnation gate (§4.3): a stamp older than the sender's
               recorded incarnation is a pre-crash straggler — processing
               it could resurrect dead flow state, so it is dropped
               before any transport work.  A newer stamp proves the peer
               restarted and tears down what we held about it first. *)
            match note_peer_inc cost t ~peer:pkt.Packet.src ~inc with
            | `Stale -> Stats.Counter.incr t.c_stale_drop
            | `Current -> (
                (* Packet ingest holds a transient op-pool charge for the
                   payload while it is processed; when the pool cannot
                   cover even that, shed the packet before any transport
                   work ([try_alloc], never the raising [alloc]).  No ack
                   advances, so the sender retransmits once pressure
                   clears. *)
                let pb = pkt.Packet.payload_bytes in
                if pb > 0 && not (Memory.Pool.try_hold t.op_pool ~bytes:pb)
                then Stats.Counter.incr t.c_pool_drop
                else begin
                  (* The flow back to the sender.  Steering puts a
                     packet on the ring of its [dst_engine], and engine
                     [e] serves ring [e], so [k] is addressed here.
                     [Bare_ack] when nothing is new: a no-op below. *)
                  let f =
                    get_flow eng ~host:k.Wire.src_host ~engine:k.Wire.src_engine
                  in
                  handle_item eng cost ~from_host:pkt.Packet.src
                    (Flow.receive f ~now pkt) ~reverse_flow:f;
                  if pb > 0 then Memory.Pool.unhold t.op_pool ~bytes:pb
                end))
        | _ -> ())
    | None -> continue := false
  done;
  if Squeue.Spsc.is_empty ring then Nic.rearm_rx_interrupt t.nic ~queue:eng.rxq;
  (* 2. Application command queues, in client order; a client whose
     queue this drains leaves the set. *)
  let i = ref (Sim.Bitset.next eng.busy_clients 0) in
  while !i >= 0 do
    let client = eng.eclients.(!i) in
    let c = ref 0 in
    let go = ref true in
    while !go && !c < cmd_batch do
      match Squeue.Spsc.pop client.cmd_q with
      | Some cmd ->
          incr c;
          worked := true;
          handle_command eng cost cmd
      | None -> go := false
    done;
    if Squeue.Spsc.is_empty client.cmd_q then
      Sim.Bitset.clear eng.busy_clients !i;
    i := Sim.Bitset.next eng.busy_clients (!i + 1)
  done;
  if process_deadline_due eng cost ~now > 0 then worked := true;
  (* 2b. Dead-peer detection (opt-in keepalives, §4.3): conns surface
     on [eng.ka_due] when their wheel timer fires — only watched conns
     are visited, never the whole table.  Probe a conn silent for the
     interval; declare the peer dead once the silence exceeds the full
     miss budget, so detection stays bounded by
     ka_interval * (ka_miss_budget + 1) plus one engine wake-up.  The
     watch re-arms only while the conn still has interest (see
     [conn_has_interest]): an unanswered probe keeps flow state in
     flight and therefore keeps the watch alive until the death budget
     runs out, while an acked probe on an idle conn lets the watch — and
     with it the host — quiesce. *)
  (match t.ka with
  | None -> ()
  | Some ka ->
      let death_after = ka.ka_interval * (ka.ka_miss_budget + 1) in
      while not (Queue.is_empty eng.ka_due) do
        let conn = Queue.pop eng.ka_due in
        let e = conn.ext in
        e.ka_queued <- false;
        match conn.state with
        | Dead | Closed -> ()
        | Established | Draining ->
            (* Silence counts from the later of the last packet heard
               and the start of this watch epoch: a watch resumed after
               a quiet spell must not inherit that spell as misses. *)
            let anchor = Time.max e.last_heard e.ka_base in
            let silence = Time.sub now anchor in
            if silence >= death_after then begin
              worked := true;
              kill_conn cost conn
                ~reason:
                  (Printf.sprintf "keepalive: %d probes unanswered"
                     ka.ka_miss_budget)
            end
            else begin
              let probed_this_epoch = e.ka_sent_at >= e.ka_base in
              if
                silence >= ka.ka_interval
                && Time.sub now e.ka_sent_at >= ka.ka_interval
              then begin
                e.ka_sent_at <- now;
                Stats.Counter.incr t.c_ka_probe;
                worked := true;
                Flow.enqueue conn.c_flow (Wire.Keepalive { conn = conn.ckey })
                  ~payload_bytes:0
              end;
              (* Sustain the watch while the conn has interest or an
                 unanswered probe cycle is in progress (silence at the
                 interval).  A fire that lands before the silence
                 reaches the interval — traffic refreshed [last_heard]
                 mid-epoch — re-arms for when it will, so every epoch
                 completes at least one probe cycle.  Only a
                 proven-alive idle conn (this epoch's probe answered,
                 nothing stranded) lets the watch stop. *)
              if e.ka_timer = None then
                if conn_has_interest conn || silence >= ka.ka_interval then
                  rearm_ka eng conn e ~at:(Time.add now ka.ka_interval)
                else if not probed_this_epoch then
                  rearm_ka eng conn e ~at:(Time.add anchor ka.ka_interval)
            end
      done);
  (* 3. Retransmission timeouts (only a member can have a flight). *)
  let flows = eng.flow_arr in
  let active = eng.active_flows in
  let i = ref (Sim.Bitset.next active 0) in
  while !i >= 0 do
    if Flow.check_timeout flows.(!i) ~now > 0 then worked := true;
    i := Sim.Bitset.next active (!i + 1)
  done;
  (* 4. Just-in-time transmission against NIC descriptor slots (§3.1),
     round-robin over every flow.  A non-member has nothing queued, so
     visiting it only advances [tx_rr] and [idle_rounds] by one; a run
     of them is skipped by adding its length to both, capped where the
     loop would have stopped, which leaves the rotation exactly where
     visiting each one would. *)
  let nf = Array.length flows in
  if nf > 0 then begin
    let idle_rounds = ref 0 in
    while Nic.tx_slots_free t.nic > 0 && !idle_rounds < nf do
      let p = eng.tx_rr mod nf in
      let gap =
        if Flow.marked flows.(p) then 0
        else
          match Sim.Bitset.next active p with
          | -1 -> (
              match Sim.Bitset.next active 0 with -1 -> nf | j -> nf - p + j)
          | j -> j - p
      in
      let skip = Int.min gap (nf - !idle_rounds) in
      eng.tx_rr <- eng.tx_rr + skip;
      idle_rounds := !idle_rounds + skip;
      if !idle_rounds < nf then begin
        let f = flows.(eng.tx_rr mod nf) in
        eng.tx_rr <- eng.tx_rr + 1;
        if Flow.ready_to_emit f ~now then begin
          let pkt = Flow.transmit f ~now ~gen:t.gen in
          if pkt == Packet.none then incr idle_rounds
          else if Nic.try_transmit t.nic pkt then begin
            incr pkts;
            worked := true;
            cost := !cost + costs.Sim.Costs.pony_tx_per_packet;
            idle_rounds := 0
          end
        end
        else incr idle_rounds
      end
    done;
    (* Bare acks for flows that owe one and sent nothing. *)
    let i = ref (Sim.Bitset.next active 0) in
    while !i >= 0 do
      let f = flows.(!i) in
      (if Flow.ack_owed f && Nic.tx_slots_free t.nic > 0 then
         match Flow.make_ack f ~now ~gen:t.gen with
         | Some pkt ->
             if Nic.try_transmit t.nic pkt then begin
               worked := true;
               cost := !cost + Time.scale costs.Sim.Costs.pony_tx_per_packet 0.4
             end
         | None -> ());
      i := Sim.Bitset.next active (!i + 1)
    done
  end;
  (* 5. Re-arm the pacing/retransmit timer. *)
  arm_timer eng;
  if not !worked then Engine.no_work
  else begin
    (* Batching discount on per-packet work (§3.1: "opportunistically
       exploits batching for efficiency"). *)
    let discount =
      Float.min costs.Sim.Costs.batch_max_saving
        (costs.Sim.Costs.batch_amortization *. float_of_int (Int.max 0 (!pkts - 1)))
    in
    Engine.worked (Time.scale !cost (1.0 -. discount))
  end

(* -- Module / engine construction ---------------------------------------- *)

let engine_queue_delay eng now =
  let ring_age =
    Squeue.Spsc.oldest_age (Nic.rx_ring eng.e_host.nic ~queue:eng.rxq) ~now
  in
  (* Empty queues have age 0, so members are all that can raise the
     max.  Transmit backlog counts too: a flow with queued segments it
     cannot drain is just as CPU-bottlenecked as a full receive ring. *)
  let age = ref ring_age in
  let i = ref (Sim.Bitset.next eng.busy_clients 0) in
  while !i >= 0 do
    age := Time.max !age (Squeue.Spsc.oldest_age eng.eclients.(!i).cmd_q ~now);
    i := Sim.Bitset.next eng.busy_clients (!i + 1)
  done;
  let i = ref (Sim.Bitset.next eng.active_flows 0) in
  while !i >= 0 do
    age := Time.max !age (Flow.queue_age eng.flow_arr.(!i) ~now);
    i := Sim.Bitset.next eng.active_flows (!i + 1)
  done;
  !age

let new_engine t =
  let eid = List.length t.engs in
  let nq = (Nic.config t.nic).Nic.num_rx_queues in
  if eid >= nq then failwith "Pony: more engines than NIC rx queues";
  (* Tie the knot between the engine record and its run closure. *)
  let eng_ref = ref None in
  let ename = Flow.engine_name ~host:(Nic.addr t.nic) ~engine:eid in
  let core =
    Engine.create ~name:ename
      ~run:(fun () ->
        match !eng_ref with Some e -> engine_run e | None -> Engine.no_work)
      ~queue_delay:(fun now ->
        match !eng_ref with Some e -> engine_queue_delay e now | None -> 0)
      ~state_bytes:(fun () ->
        match !eng_ref with
        | Some e -> (2048 * Array.length e.flow_arr) + (512 * Array.length e.eclients)
        | None -> 0)
      ()
  in
  let eng =
    {
      eid;
      e_host = t;
      core;
      e_acct = Memory.Pool.account t.op_pool ~owner:ename;
      rxq = eid;
      eclients = [||];
      flows = [||];
      flow_arr = [||];
      active_flows = Sim.Bitset.create ();
      busy_clients = Sim.Bitset.create ();
      halves = [||];
      n_halves = 0;
      half_index = [| -1 |];
      index_bits = 0;
      open_asms = 0;
      wheel = Sim.Wheel.create ~loop:t.lp ();
      deadline_due = Queue.create ();
      ka_due = Queue.create ();
      timer = Loop.none;
      wake = (fun () -> Engine.notify core);
      pass_cost = ref 0;
      served_one_sided = 0;
      tx_rr = 0;
      last_epoch = 0;
      pressure = Overload.Pressure.create ~loop:t.lp ~name:ename ();
    }
  in
  eng_ref := Some eng;
  t.engs <- t.engs @ [ eng ];
  Engine.add t.group eng.core;
  eng.last_epoch <- Engine.epoch eng.core;
  (* Engine state-machine legality: epochs only move forward, a
     wedged/migrating instance must not make batch progress, and the
     depth-1 control mailbox never runs a deficit. *)
  let seen_epoch = ref (Engine.epoch core) in
  let frozen_steps = ref None in
  Check.Invariant.register ~name:(ename ^ ".legal") (fun () ->
      let ep = Engine.epoch core in
      if ep < !seen_epoch then
        Some (Printf.sprintf "epoch moved backwards: %d -> %d" !seen_epoch ep)
      else begin
        seen_epoch := ep;
        let mb = Engine.mailbox core in
        let posted = Squeue.Mailbox.posted mb
        and serviced = Squeue.Mailbox.serviced mb in
        if serviced > posted then
          Some
            (Printf.sprintf "mailbox serviced %d exceeds posted %d" serviced
               posted)
        else if Engine.is_wedged core || Engine.is_migrating core then begin
          let steps = Engine.steps core in
          match !frozen_steps with
          | Some (fep, fsteps) when fep = ep && steps > fsteps ->
              Some
                (Printf.sprintf
                   "%s engine made progress: %d batches since freeze"
                   (if Engine.is_wedged core then "wedged" else "migrating")
                   (steps - fsteps))
          | Some (fep, _) when fep = ep -> None
          | _ ->
              frozen_steps := Some (ep, steps);
              None
        end
        else begin
          frozen_steps := None;
          None
        end
      end);
  (* Every reassembly closes by quiesce: its message completed, or its
     conn died and dropped it.  A reassembly opened while the op pool
     could not cover its message holds no charge, so the pool-drained
     invariant cannot see it leak; this one counts them. *)
  Check.Invariant.register ~kind:Check.Invariant.Quiesce_only
    ~name:(ename ^ ".reassemblies_closed") (fun () ->
      if eng.open_asms = 0 then None
      else Some (Printf.sprintf "%d reassemblies still open" eng.open_asms));
  (* Receive notification policy depends on the group's scheduling mode
     (§2.4): interrupts for spreading, polling kicks otherwise. *)
  (match Engine.group_mode t.group with
  | Engine.Spreading _ | Engine.Spreading_class _ ->
      Nic.set_rx_notify t.nic ~queue:eng.rxq
        (Nic.Interrupt (fun () -> Engine.notify eng.core))
  | Engine.Dedicating _ | Engine.Compacting _ ->
      Nic.set_rx_notify t.nic ~queue:eng.rxq
        (Nic.Soft (fun () -> Engine.notify eng.core)));
  eng

let create ~directory ~control ~machine ~nic ~group ?(engines = 1)
    ?(use_copy_engine = false) ?(wire_versions = Wire.supported_versions)
    ?(op_pool_bytes = 1 lsl 30) ?keepalive () =
  if engines <= 0 then invalid_arg "Pony.create: engines";
  if op_pool_bytes <= 0 then invalid_arg "Pony.create: op_pool_bytes";
  (match keepalive with
  | Some { ka_interval; ka_miss_budget } ->
      if ka_interval <= 0 || ka_miss_budget < 0 then
        invalid_arg "Pony.create: keepalive"
  | None -> ());
  let lp = Sched.loop machine in
  let labels = [ ("host", string_of_int (Nic.addr nic)) ] in
  let op_pool =
    Memory.Pool.create
      ~name:(Printf.sprintf "pony_op_pool@%d" (Nic.addr nic))
      ~capacity_bytes:op_pool_bytes
  in
  ignore
    (Stats.Registry.gauge_fn ~labels "overload_op_pool_frac" (fun () ->
         float_of_int (Memory.Pool.in_use op_pool)
         /. float_of_int (Memory.Pool.capacity op_pool)));
  let t =
    {
      dir = directory;
      ctl = control;
      mach = machine;
      nic;
      group;
      lp;
      use_ce = use_copy_engine;
      ce = (if use_copy_engine then Some (Nic.Copy_engine.create ~loop:lp ()) else None);
      versions = wire_versions;
      engs = [];
      next_cid = 0;
      next_session = 0;
      clients = [||];
      first_cid = 0;
      gen = Packet.Id_gen.create ();
      rr_assign = 0;
      c_corrupt = Stats.Registry.counter ~labels "pony_corrupt_dropped";
      c_resync = Stats.Registry.counter ~labels "pony_flow_resyncs";
      op_pool;
      c_busy = Stats.Registry.counter ~labels "overload_busy_nacks";
      c_pool_drop = Stats.Registry.counter ~labels "overload_rx_pool_drops";
      incarnation = 0;
      alive = true;
      ka = keepalive;
      peer_inc = [||];
      c_conn_est = Stats.Registry.counter ~labels "conn_established";
      c_conn_closed = Stats.Registry.counter ~labels "conn_closed";
      c_conn_reset = Stats.Registry.counter ~labels "conn_resets";
      c_peer_death = Stats.Registry.counter ~labels "peer_conn_deaths";
      c_peer_dead_op = Stats.Registry.counter ~labels "peer_dead_ops";
      c_stale_drop = Stats.Registry.counter ~labels "peer_stale_drops";
      c_peer_restart = Stats.Registry.counter ~labels "peer_restarts";
      c_ka_probe = Stats.Registry.counter ~labels "peer_keepalive_probes";
    }
  in
  Hashtbl.replace directory.hosts (Nic.addr nic) t;
  (* Op-pool byte conservation: per-owner charges must sum to the live
     total at all times (Cadence), and every byte must be back by
     quiesce — an admission charge or reassembly alloc that never
     returns is a leak. *)
  Check.Invariant.register
    ~name:(Printf.sprintf "pony.pool.%d.consistent" (Nic.addr nic))
    (fun () -> Memory.Pool.check_consistency op_pool);
  Check.Invariant.register ~kind:Check.Invariant.Quiesce_only
    ~name:(Printf.sprintf "pony.pool.%d.drained" (Nic.addr nic))
    (fun () -> Memory.Pool.check_quiesced op_pool);
  (* Orphan-state reclamation (§4.3): no residual transport state may
     be attributable to a dead peer.  The "skip_peer_reclaim" sabotage
     switch proves this check is not vacuous. *)
  Check.Invariant.register
    ~name:(Printf.sprintf "pony.host.%d.peer_reclaim" (Nic.addr nic))
    (fun () -> check_peer_reclaim t);
  (* Attribution conservation: every completed op's per-stage durations
     must sum to its end-to-end latency (checked eagerly at finish; the
     predicate reads the sticky first failure).  "skip_op_attribution"
     proves this one is not vacuous. *)
  Check.Invariant.register
    ~name:(Printf.sprintf "pony.optrace.%d.conserve" (Nic.addr nic))
    Sim.Optrace.conservation_error;
  (* [Sim] cannot depend on [Stats], so the per-stage duration
     histograms ("op_stage_" ^ name) are fed through this hook.
     Re-installed by every host creation: bench sections that clear the
     registry get fresh histograms bound on the next host. *)
  let stage_hists =
    Array.init Sim.Optrace.n_stages (fun i ->
        Stats.Registry.histogram
          ("op_stage_" ^ Sim.Optrace.stage_name (Sim.Optrace.stage_of_index i)))
  in
  Sim.Optrace.set_stage_sink
    (Some (fun si d -> Stats.Histogram.record stage_hists.(si) d));
  (* Steer Pony packets to the destination engine's ring. *)
  Nic.install_steering nic (fun pkt ->
      match pkt.Packet.payload with
      | Wire.Pony { flow; _ } -> flow.Wire.dst_engine
      | _ -> 0);
  Control.register_service control ~service:"pony" (fun msg ->
      match msg with Pony_setup _ -> Pony_ready | other -> other);
  for _ = 1 to engines do
    ignore (new_engine t)
  done;
  t

(* -- Host crash / restart (Fault.Plan.Host_crash) ------------------------ *)

let drain_ring ring =
  let rec go () =
    match Squeue.Spsc.pop ring with Some _ -> go () | None -> ()
  in
  go ()

(* The whole host dies: engines detach, every byte of transport and
   client state is destroyed, and op-pool charges are bulk-reclaimed by
   owner name — late frees from pre-crash allocations become
   generation-checked no-ops.  Parked app threads are kicked so they
   can observe [client_alive] = false and unwind. *)
let crash_host t =
  if t.alive then begin
    t.alive <- false;
    if Sim.Span.enabled () then host_event t "host crashed" ~args:[];
    List.iter
      (fun eng ->
        Loop.cancel t.lp eng.timer;
        eng.timer <- Loop.none;
        if Engine.is_attached eng.core then Engine.remove t.group eng.core;
        (* Packets in the rx ring die with the host's memory. *)
        drain_ring (Nic.rx_ring t.nic ~queue:eng.rxq);
        List.iter drop_asms (halves_with_asms eng);
        eng.flows <- [||];
        install_flows eng [||];
        (* Per-conn wheel timers die with their conns; stale fires on
           timers already past cancellation are checked no-ops. *)
        iter_halves eng cancel_conn_timers;
        eng.halves <- [||];
        eng.n_halves <- 0;
        eng.half_index <- [| -1 |];  (* one vacant slot, as when created *)
        eng.index_bits <- 0;
        Queue.clear eng.deadline_due;
        Queue.clear eng.ka_due;
        eng.eclients <- [||];
        Sim.Bitset.reset eng.busy_clients;
        ignore
          (Memory.Pool.release_owner t.op_pool ~owner:(Engine.name eng.core)))
      t.engs;
    fold_clients t
      (fun () c ->
        c.c_dead <- true;
        c.c_slot <- -1;
        Memory.Int_table.reset c.charges;
        ignore (Memory.Pool.release_owner t.op_pool ~owner:c.c_owner);
        match c.app_task with Some task -> Sched.kick task | None -> ())
      ();
    t.clients <- [||];
    t.first_cid <- t.next_cid;
    (* Host memory is gone — including what it knew of peer
       incarnations. *)
    Array.fill t.peer_inc 0 (Array.length t.peer_inc) (-1)
  end

let restart_host t =
  if not t.alive then begin
    t.incarnation <- t.incarnation + 1;
    t.alive <- true;
    if Sim.Span.enabled () then
      host_event t "host restarted"
        ~args:[ ("incarnation", string_of_int t.incarnation) ];
    List.iter
      (fun eng ->
        (* Packets that arrived while the host was down were never
           received by anyone. *)
        drain_ring (Nic.rx_ring t.nic ~queue:eng.rxq);
        if not (Engine.is_attached eng.core) then Engine.add t.group eng.core;
        eng.last_epoch <- Engine.epoch eng.core;
        Engine.notify eng.core)
      t.engs
  end

(* -- Client library ------------------------------------------------------ *)

let create_client ctx t ~name ?(exclusive_engine = false) ?(max_ops = 65536)
    ?max_bytes () =
  if not t.alive then
    failwith (Printf.sprintf "Pony.create_client: host %d is down" (addr t));
  Control.authenticate ctx;
  (match Control.call ctx t.ctl ~service:"pony" (Pony_setup name) with
  | Pony_ready -> ()
  | _ -> failwith "Pony: module setup failed");
  let eng =
    if exclusive_engine then new_engine t
    else begin
      let n = List.length t.engs in
      let e = List.nth t.engs (t.rr_assign mod n) in
      t.rr_assign <- t.rr_assign + 1;
      e
    end
  in
  let cid = t.next_cid in
  t.next_cid <- cid + 1;
  (* The admission owner doubles as the pool accounting name; qualify
     it with the host so cross-host clients sharing a name stay
     distinguishable in metrics and the pool's leak reports. *)
  let owner = Printf.sprintf "%s@%d" name (addr t) in
  let max_bytes =
    match max_bytes with
    | Some b -> b
    | None -> Memory.Pool.capacity t.op_pool
  in
  let adm =
    Overload.Admission.create ~pool:t.op_pool ~owner ~max_ops ~max_bytes ()
  in
  let labels = [ ("client", owner) ] in
  let client =
    {
      cid;
      cname = name;
      c_host = t;
      c_eng = eng;
      c_slot = Array.length eng.eclients;
      cmd_q = Squeue.Spsc.create ~capacity:cmd_queue_slots ();
      comp_q = Squeue.Spsc.create ~capacity:comp_queue_slots ();
      msg_q = Squeue.Spsc.create ~capacity:comp_queue_slots ();
      regions = [||];
      c_owner = owner;
      c_dead = false;
      adm;
      charges = Memory.Int_table.create ~dummy:None ();
      c_shed = Stats.Registry.counter ~labels "overload_ops_shed";
      c_expired = Stats.Registry.counter ~labels "overload_ops_expired";
      app_task = None;
      on_delivery = None;
      next_op = 0;
    }
  in
  eng.eclients <- Array.append eng.eclients [| client |];
  t.clients <- push t.clients (cid - t.first_cid) client;
  (* Admission accounting bounds and SPSC occupancy: outstanding counts
     stay within quota, every held charge is accounted, and the
     shared-memory queues never report more than their capacity. *)
  Check.Invariant.register ~name:(Printf.sprintf "pony.client.%s" owner)
    (fun () ->
      let ops = Overload.Admission.outstanding_ops adm in
      let bytes = Overload.Admission.outstanding_bytes adm in
      let q_bad (name, len, cap) =
        if len < 0 || len > cap then
          Some (Printf.sprintf "%s occupancy %d outside [0,%d]" name len cap)
        else None
      in
      if ops < 0 || ops > Overload.Admission.op_quota adm then
        Some
          (Printf.sprintf "outstanding ops %d outside [0,%d]" ops
             (Overload.Admission.op_quota adm))
      else if bytes < 0 || bytes > Overload.Admission.byte_quota adm then
        Some
          (Printf.sprintf "outstanding bytes %d outside [0,%d]" bytes
             (Overload.Admission.byte_quota adm))
      else if Memory.Int_table.length client.charges > ops then
        Some
          (Printf.sprintf "%d held charges exceed %d outstanding ops"
             (Memory.Int_table.length client.charges) ops)
      else
        List.fold_left
          (fun acc q -> match acc with Some _ -> acc | None -> q_bad q)
          None
          [
            ("cmd_q", Squeue.Spsc.length client.cmd_q,
             Squeue.Spsc.capacity client.cmd_q);
            ("comp_q", Squeue.Spsc.length client.comp_q,
             Squeue.Spsc.capacity client.comp_q);
            ("msg_q", Squeue.Spsc.length client.msg_q,
             Squeue.Spsc.capacity client.msg_q);
          ]);
  client

let register_region ctx client region =
  let t = client.c_host in
  (match Control.call ctx t.ctl ~service:"pony" (Pony_setup client.cname) with
  | Pony_ready -> ()
  | _ -> failwith "Pony: region registration failed");
  let rid = Memory.Region.id region in
  client.regions <-
    (if Array.exists (fun r -> Memory.Region.id r = rid) client.regions then
       Array.map (fun r -> if Memory.Region.id r = rid then region else r) client.regions
     else Array.append client.regions [| region |])

let connect ctx client ~dst_host ~dst_client =
  let t = client.c_host in
  (* Out-of-band connection setup and version negotiation (§3.1). *)
  Cpu.Thread.syscall ctx costs.Sim.Costs.syscall;
  Cpu.Thread.sleep ctx oob_setup_latency;
  if dst_host = addr t then invalid_arg "Pony.connect: loopback not supported";
  if addr t lsr slot_host_bits <> 0 then
    invalid_arg "Pony.connect: host address too large for the conn table";
  if client.c_dead || not t.alive then
    failwith (Printf.sprintf "Pony.connect: local host %d is down" (addr t));
  let remote_t =
    match Hashtbl.find_opt t.dir.hosts dst_host with
    | Some r -> r
    | None -> failwith "Pony.connect: unknown host"
  in
  if not remote_t.alive then
    failwith (Printf.sprintf "Pony.connect: host %d is down" dst_host);
  let remote_client =
    match find_client remote_t dst_client with
    | Some c -> c
    | None -> failwith "Pony.connect: unknown client"
  in
  (* Out-of-band setup reveals each side's current incarnation; a newer
     stamp than previously recorded tears stale state down before the
     new conn is installed. *)
  let setup_cost = ref 0 in
  ignore (note_peer_inc setup_cost t ~peer:dst_host ~inc:remote_t.incarnation);
  ignore (note_peer_inc setup_cost remote_t ~peer:(addr t) ~inc:t.incarnation);
  let session = t.next_session in
  t.next_session <- session + 1;
  let ckey =
    {
      Wire.initiator_host = addr t;
      initiator_client = client.cid;
      target_host = dst_host;
      target_client = dst_client;
      session;
    }
  in
  let local_eng = client.c_eng in
  let remote_eng = remote_client.c_eng in
  let local_flow = get_flow local_eng ~host:dst_host ~engine:remote_eng.eid in
  let remote_flow = get_flow remote_eng ~host:(addr t) ~engine:local_eng.eid in
  let half ~we_are_initiator local c_flow =
    {
      ckey;
      we_are_initiator;
      local;
      c_flow;
      credit = initial_credit_bytes;
      state = Established;
      ext = no_ext;
    }
  in
  let local_conn = half ~we_are_initiator:true client local_flow in
  let remote_conn = half ~we_are_initiator:false remote_client remote_flow in
  add_conn local_eng local_conn;
  add_conn remote_eng remote_conn;
  (* Start the dead-peer watch on both halves right away: a conn whose
     peer dies before any traffic must still be detected. *)
  ensure_ka local_eng local_conn ~now:(Loop.now t.lp);
  ensure_ka remote_eng remote_conn ~now:(Loop.now remote_t.lp);
  Stats.Counter.incr t.c_conn_est;
  Stats.Counter.incr remote_t.c_conn_est;
  (* Credit conservation: sends consume, grants and Busy-NACKs return.
     Credit going negative means an over-consume; exceeding the initial
     grant means a double-return (e.g. a Busy-NACK for an op whose
     credit a grant already refunded). *)
  if Check.Invariant.enabled () then begin
    let conn_label c =
      Printf.sprintf "pony.conn.%d.%d->%d.%d%s" ckey.Wire.initiator_host
        ckey.Wire.initiator_client ckey.Wire.target_host
        ckey.Wire.target_client
        (if c.we_are_initiator then ".init" else ".tgt")
    in
    List.iter
      (fun c ->
        Check.Invariant.register ~name:(conn_label c ^ ".credit") (fun () ->
            if c.credit < 0 then
              Some (Printf.sprintf "credit %d went negative" c.credit)
            else if c.credit > initial_credit_bytes then
              Some
                (Printf.sprintf "credit %d exceeds initial grant %d" c.credit
                   initial_credit_bytes)
            else None))
      [ local_conn; remote_conn ]
  end;
  local_conn

(* Client ids are assigned in creation order, and apps spawned at the
   same instant race for them — the perturbation sweep caught an
   overload-workload victim dialing client 0 and reaching the wrong
   server under a perturbed tie-break.  Resolving by name instead makes
   the destination independent of registration order. *)
let connect_by_name ctx client ~dst_host ~dst_name =
  let t = client.c_host in
  let remote_t =
    match Hashtbl.find_opt t.dir.hosts dst_host with
    | Some r -> r
    | None -> failwith "Pony.connect: unknown host"
  in
  let matches =
    fold_clients remote_t
      (fun acc c -> if c.cname = dst_name then c.cid :: acc else acc)
      []
  in
  match matches with
  | [ cid ] -> connect ctx client ~dst_host ~dst_client:cid
  | [] ->
      failwith
        (Printf.sprintf "Pony.connect: no client named %S on host %d" dst_name
           dst_host)
  | _ ->
      failwith
        (Printf.sprintf "Pony.connect: client name %S ambiguous on host %d"
           dst_name dst_host)

(* Reconnect helper: [connect_by_name] raises [Failure] while the peer
   host is down or its service has not re-registered; retry on the same
   backoff policy shape as [send_with_retry].  [None] when attempts run
   out.  With session incarnations underneath, a successful reconnect
   can never be confused with the pre-crash conn. *)
let connect_with_retry ctx client ~dst_host ~dst_name
    ?(policy = Overload.Retry.default_policy) () =
  if policy.Overload.Retry.max_attempts <= 0 then
    invalid_arg "Pony.connect_with_retry: max_attempts";
  let rec attempt n =
    if Overload.Retry.attempts_exhausted policy ~attempt:n then None
    else begin
      let backoff = Overload.Retry.delay_before policy ~attempt:n in
      if backoff > 0 then Cpu.Thread.sleep ctx backoff;
      match connect_by_name ctx client ~dst_host ~dst_name with
      | conn -> Some conn
      | exception Failure _ -> attempt (n + 1)
    end
  in
  attempt 1

(* Every push onto a [cmd_q] marks its client for the engine's next
   pass. *)
let mark_busy client =
  if client.c_slot >= 0 then Sim.Bitset.set client.c_eng.busy_clients client.c_slot

(* Post a command into the shared-memory command queue (§3.1). *)
let post_command ctx conn cmd =
  let client = conn.local in
  let t = client.c_host in
  if client.app_task = None then client.app_task <- Some (Cpu.Thread.task ctx);
  Cpu.Thread.compute ctx costs.Sim.Costs.client_command_post;
  let rec push () =
    if not (Squeue.Spsc.push client.cmd_q ~now:(Loop.now t.lp) cmd) then begin
      Cpu.Thread.sleep ctx (Time.us 2);
      push ()
    end
  in
  push ();
  mark_busy client;
  Engine.notify client.c_eng.core

let fresh_op client =
  let id = client.next_op in
  client.next_op <- id + 1;
  id

(* Refusal status for new work on a conn that can no longer carry it;
   [None] means go ahead.  Dead conns answer [Peer_dead] so callers can
   distinguish peer failure (reconnect) from flow-control rejection
   (back off and retry). *)
let conn_refusal conn =
  if conn.local.c_dead || not conn.local.c_host.alive then Some Wire.Rejected
  else
    match conn.state with
    | Established -> None
    | Dead -> Some Wire.Peer_dead
    | Draining | Closed -> Some Wire.Rejected

(* -- Engine-side (vhost backend) interface ------------------------------ *)
(* These run on engine cores (no thread ctx, no blocking): the guest mux
   drains tenant rings from an engine pass and feeds Pony directly. *)

let set_delivery_hook client f = client.on_delivery <- Some f

let conn_cmd_free conn =
  Squeue.Spsc.capacity conn.local.cmd_q - Squeue.Spsc.length conn.local.cmd_q

let engine_post_send conn ~now ~bytes () =
  let client = conn.local in
  let op_id = fresh_op client in
  ot_start conn op_id ~kind:"guest_send" ~bytes;
  match conn_refusal conn with
  | Some status ->
      (* Lifecycle refusal, completed inline (no thread ctx here). *)
      if
        Squeue.Spsc.push client.comp_q ~now
          (completion conn ~ends:true ~op_id ~status ~bytes ~value:None
             ~issued:now ~now)
      then (match client.on_delivery with Some f -> f () | None -> ());
      op_id
  | None ->
      let cmd =
        C_send
          { cmd_conn = conn; op_id; stream = 0; bytes; issued = now;
            deadline = None }
      in
      (* No admission here: the submitting backend owns accounting (the
         guest mux charges the tenant's quota before posting), and no entry
         lands in [charges], so the completion-side release is a no-op. *)
      if not (Squeue.Spsc.push client.cmd_q ~now cmd) then
        invalid_arg
          (Printf.sprintf
             "Pony.engine_post_send(%s): command queue full (check \
              conn_cmd_free first)"
             client.cname);
      mark_busy client;
      Engine.notify client.c_eng.core;
      op_id

let engine_poll_completion client = Squeue.Spsc.pop client.comp_q
let engine_poll_message client = Squeue.Spsc.pop client.msg_q

let engine_queues_empty client =
  Squeue.Spsc.is_empty client.comp_q && Squeue.Spsc.is_empty client.msg_q

(* Admission rejections and lifecycle refusals complete locally on the
   submitting thread — the op never reaches an engine, the app sees a
   completion, never an exception. *)
let complete_locally ctx conn ~op_id ~bytes ~status =
  let now = Cpu.Thread.now ctx in
  ignore
    (Squeue.Spsc.push conn.local.comp_q ~now
       (completion conn ~ends:true ~op_id ~status ~bytes ~value:None ~issued:now
          ~now))

(* The one submission path of a thread's op [op_id] moving [bytes]: true
   once admission charged it, so the caller posts its command; a refused
   or rejected op has completed locally. *)
let admit_op ctx conn ~op_id ~kind ~bytes =
  let client = conn.local in
  ot_start conn op_id ~kind ~bytes;
  match conn_refusal conn with
  | Some status ->
      complete_locally ctx conn ~op_id ~bytes ~status;
      false
  | None -> (
      match
        Overload.Admission.admit client.adm ~now:(Cpu.Thread.now ctx) ~bytes
      with
      | Overload.Admission.Rejected _ ->
          complete_locally ctx conn ~op_id ~bytes ~status:Wire.Rejected;
          false
      | Overload.Admission.Admitted charge ->
          Memory.Int_table.replace client.charges op_id charge;
          ot_stamp conn ~remote:false op_id Sim.Optrace.Admitted;
          true)

let send_message ctx conn ?(stream = 0) ?deadline ~bytes () =
  if bytes < 0 then invalid_arg "Pony.send_message";
  let op_id = fresh_op conn.local in
  if admit_op ctx conn ~op_id ~kind:"send" ~bytes then
    post_command ctx conn
      (C_send
         { cmd_conn = conn; op_id; stream; bytes; issued = Cpu.Thread.now ctx;
           deadline });
  op_id

(* Payload bytes an op will move — what admission charges for it. *)
let one_sided_bytes = function
  | Wire.Read { len; _ } | Wire.Write { len; _ } | Wire.Scan_read { len; _ } ->
      len
  | Wire.Indirect_read { indices; len; _ } -> len * List.length indices

let one_sided ?deadline ctx conn op =
  let op_id = fresh_op conn.local in
  if admit_op ctx conn ~op_id ~kind:"one_sided" ~bytes:(one_sided_bytes op) then
    post_command ctx conn
      (C_one_sided
         { cmd_conn = conn; op_id; op; issued = Cpu.Thread.now ctx; deadline });
  op_id

let one_sided_read ctx conn ~region ~off ~len =
  one_sided ctx conn (Wire.Read { region; off; len })

let one_sided_write ctx conn ~region ~off ~len =
  one_sided ctx conn (Wire.Write { region; off; len })

let indirect_read ctx conn ~table_region ~data_region ~indices ~len =
  one_sided ctx conn (Wire.Indirect_read { table_region; data_region; indices; len })

let scan_read ctx conn ~region ~scan_limit ~needle ~len =
  one_sided ctx conn (Wire.Scan_read { region; scan_limit; needle; len })

(* A thread reads its client's completion or message queue [q]. *)
let poll ctx client q =
  if client.app_task = None then client.app_task <- Some (Cpu.Thread.task ctx);
  Cpu.Thread.compute ctx costs.Sim.Costs.client_completion_poll;
  Squeue.Spsc.pop q

let rec await ctx client q =
  match poll ctx client q with
  | Some v -> v
  | None ->
      Cpu.Thread.wait ctx;
      await ctx client q

let poll_completion ctx client = poll ctx client client.comp_q
let await_completion ctx client = await ctx client client.comp_q
let poll_message ctx client = poll ctx client client.msg_q
let await_message ctx client = await ctx client client.msg_q

(* Deadline-bounded awaits: [None] on expiry.  The wake-up at the
   deadline is a one-shot loop timer (cancelled once the wait ends);
   nothing can be lost because the queue is re-polled after every
   wake. *)
let await_until ctx client q ~deadline =
  let t = client.c_host in
  let rec go () =
    match poll ctx client q with
    | Some v -> Some v
    | None ->
        if Cpu.Thread.now ctx >= deadline then None
        else begin
          let task = Cpu.Thread.task ctx in
          let h = Loop.at t.lp deadline (fun () -> Sched.kick task) in
          Cpu.Thread.wait ctx;
          Loop.cancel t.lp h;
          go ()
        end
  in
  go ()

let await_completion_until ctx client ~deadline =
  await_until ctx client client.comp_q ~deadline

let await_message_until ctx client ~deadline =
  await_until ctx client client.msg_q ~deadline

(* Graceful close: the conn stops accepting new sends immediately;
   credit-waiting ops still drain, then the engine sends [Conn_reset]
   and tombstones the conn as [Closed]. *)
let close ctx conn =
  match conn.state with
  | Dead | Closed | Draining -> ()
  | Established ->
      conn.state <- Draining;
      post_command ctx conn (C_close { cmd_conn = conn })

(* Bounded-retry send: backoff on Rejected / Timed_out / Busy, a
   deadline per attempt from the policy.  The helper owns the
   completion queue while it runs (completions of other outstanding
   ops are discarded), so it suits closed-loop callers. *)
let send_with_retry ctx conn ?(policy = Overload.Retry.default_policy) ~bytes
    () =
  if policy.Overload.Retry.max_attempts <= 0 then
    invalid_arg "Pony.send_with_retry: max_attempts";
  let client = conn.local in
  let rec attempt n last =
    if Overload.Retry.attempts_exhausted policy ~attempt:n then
      Error (Option.get last)
    else begin
      let backoff = Overload.Retry.delay_before policy ~attempt:n in
      if backoff > 0 then Cpu.Thread.sleep ctx backoff;
      let deadline =
        Option.map
          (fun budget -> Time.add (Cpu.Thread.now ctx) budget)
          policy.Overload.Retry.op_timeout
      in
      let op = send_message ctx conn ?deadline ~bytes () in
      let rec wait_for_op () =
        let c = await_completion ctx client in
        if c.comp_op = op then c else wait_for_op ()
      in
      let c = wait_for_op () in
      match c.status with
      | Wire.Ok -> Ok c
      | Wire.Rejected | Wire.Timed_out | Wire.Busy -> attempt (n + 1) (Some c)
      | _ -> Error c
    end
  in
  attempt 1 None
