type state = Attached | Detaching | Detached

type health = Healthy | Suspect | Quarantined

let health_to_string = function
  | Healthy -> "healthy"
  | Suspect -> "suspect"
  | Quarantined -> "quarantined"

type violation =
  | Bad_range
  | Empty_slot
  | Rollback
  | Overcommit
  | Dup_id
  | Spurious_kick

let violation_to_string = function
  | Bad_range -> "bad-range"
  | Empty_slot -> "empty-slot"
  | Rollback -> "rollback"
  | Overcommit -> "overcommit"
  | Dup_id -> "dup-id"
  | Spurious_kick -> "spurious-kick"

let violation_index = function
  | Bad_range -> 0
  | Empty_slot -> 1
  | Rollback -> 2
  | Overcommit -> 3
  | Dup_id -> 4
  | Spurious_kick -> 5

let all_violations =
  [ Bad_range; Empty_slot; Rollback; Overcommit; Dup_id; Spurious_kick ]

let of_ring_fault : Ring.fault_reason -> violation = function
  | Ring.Bad_range -> Bad_range
  | Ring.Empty_slot -> Empty_slot
  | Ring.Rollback -> Rollback
  | Ring.Overcommit -> Overcommit

type t = {
  tname : string;
  tid : int;
  owner : string;
  region : Memory.Region.t;
  tx : Ring.t;
  rx : Ring.t;
  adm : Overload.Admission.t;
  pool : Memory.Pool.t;
  buf_bytes : int;
  mutable state : state;
  mutable health : health;
  mutable quarantined_at : Sim.Time.t option;
  (* Misbehavior score: per-reason [guest_violations] counters, each
     made at its reason's first violation, feed the mux's
     Suspect/Quarantined escalation. *)
  viols : Stats.Counter.t option array;
  c_tx_done : Stats.Counter.t;
  c_tx_rejected : Stats.Counter.t;
  c_tx_failed : Stats.Counter.t;
  c_tx_cancelled : Stats.Counter.t;
  c_rx_delivered : Stats.Counter.t;
  c_rx_drops : Stats.Counter.t;
  c_reclaimed : Stats.Counter.t;
}

(* Guest regions live in their own id space, above the range functional
   tests use for one-sided-op regions. *)
let region_id_base = 1_000_000

let create ~pool ~host_addr ~name ~id ?(ring_slots = 64) ?(buf_bytes = 4096)
    ?rate_ops_per_sec ?burst_ops () =
  if ring_slots <= 0 then invalid_arg "Guest.Tenant.create: ring_slots";
  if buf_bytes <= 0 then invalid_arg "Guest.Tenant.create: buf_bytes";
  let owner = Printf.sprintf "tenant:%s@%d" name host_addr in
  (* Unbacked: the region only bounds each descriptor's buffer, and
     nothing reads or writes a guest buffer's bytes.  The mux charges
     the rx copy per byte without touching one, so backing bytes would
     cost a tenant its whole region in heap and add no fidelity. *)
  let region =
    Memory.Region.create ~backed:false
      ~id:(region_id_base + id)
      ~size:(2 * ring_slots * buf_bytes)
      ~owner ()
  in
  let tx = Ring.create ~name:(owner ^ ".tx") ~region ~slots:ring_slots () in
  let rx = Ring.create ~name:(owner ^ ".rx") ~region ~slots:ring_slots () in
  let adm =
    Overload.Admission.create ~pool ~owner ?rate_ops_per_sec ?burst_ops ()
  in
  let labels = [ ("tenant", owner) ] in
  let c name = Stats.Registry.counter ~labels name in
  let t =
    {
      tname = name;
      tid = id;
      owner;
      region;
      tx;
      rx;
      adm;
      pool;
      buf_bytes;
      state = Attached;
      health = Healthy;
      quarantined_at = None;
      viols = Array.make 6 None;
      c_tx_done = c "tenant_tx_completed";
      c_tx_rejected = c "tenant_tx_rejected";
      c_tx_failed = c "tenant_tx_failed";
      c_tx_cancelled = c "tenant_tx_cancelled";
      c_rx_delivered = c "tenant_rx_delivered";
      c_rx_drops = c "tenant_rx_drops";
      c_reclaimed = c "tenant_reclaimed_bytes";
    }
  in
  ignore
    (Stats.Registry.gauge_fn ~labels "tenant_ring_backlog" (fun () ->
         float_of_int (Ring.backlog t.tx)));
  t

let tx_buf_off t i = i mod Ring.capacity t.tx * t.buf_bytes
let rx_buf_off t i = (Ring.capacity t.rx + (i mod Ring.capacity t.rx)) * t.buf_bytes
let state t = t.state
let outstanding_ops t = Overload.Admission.outstanding_ops t.adm
let outstanding_bytes t = Overload.Admission.outstanding_bytes t.adm
let pool_usage t = Memory.Pool.owner_usage t.pool t.owner
let tx_completed t = Stats.Counter.value t.c_tx_done
let tx_rejected t = Stats.Counter.value t.c_tx_rejected
let tx_failed t = Stats.Counter.value t.c_tx_failed
let tx_cancelled t = Stats.Counter.value t.c_tx_cancelled
let rx_delivered t = Stats.Counter.value t.c_rx_delivered
let rx_drops t = Stats.Counter.value t.c_rx_drops
let reclaimed_bytes t = Stats.Counter.value t.c_reclaimed

let note_tx t (status : Ring.status) =
  match status with
  | Ring.Complete -> Stats.Counter.incr t.c_tx_done
  | Ring.Rejected -> Stats.Counter.incr t.c_tx_rejected
  | Ring.Cancelled -> Stats.Counter.incr t.c_tx_cancelled
  | Ring.Timed_out | Ring.Busy | Ring.Failed -> Stats.Counter.incr t.c_tx_failed

let note_rx t bytes =
  ignore bytes;
  Stats.Counter.incr t.c_rx_delivered

let note_rx_drop t = Stats.Counter.incr t.c_rx_drops
let note_reclaimed t bytes = Stats.Counter.incr ~by:bytes t.c_reclaimed

let health t = t.health
let quarantined_at t = t.quarantined_at
let count = function Some c -> Stats.Counter.value c | None -> 0
let violations t = Array.fold_left (fun n c -> n + count c) 0 t.viols
let violations_by t v = count t.viols.(violation_index v)

let note_violation t v =
  let i = violation_index v in
  let c =
    match t.viols.(i) with
    | Some c -> c
    | None ->
        let c =
          Stats.Registry.counter
            ~labels:[ ("tenant", t.owner); ("reason", violation_to_string v) ]
            "guest_violations"
        in
        t.viols.(i) <- Some c;
        c
  in
  Stats.Counter.incr c;
  violations t
