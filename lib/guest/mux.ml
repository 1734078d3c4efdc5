module Time = Sim.Time
module Loop = Sim.Loop
module PE = Pony.Express

let batch = 16
let per_desc_cost = Time.ns 180
let per_comp_cost = Time.ns 120

(* {1 In-flight ops}

   A binding's Pony ops from submit to first completion, as parallel
   arrays: entry [i < n] is op [op.(i)] for descriptor [did.(i)] of
   [bytes.(i)] bytes, holding admission charge [charge.(i)].  Entries
   sit in no order (a removal moves the last into the hole), and a
   lookup is a linear scan: outside the guest_skip_release sabotage
   there are at most the tx ring's capacity of them (taken - used), so
   nothing is hashed and nothing is allocated per op.  Descriptor ids
   are any int the guest picks, so no value can mark a free entry.

   [live.(i)] says whether entry [i]'s descriptor id is in flight: a
   second take of a live id is the Dup_id violation (virtio drivers
   never alias a live id).  At most one entry holds a given live id.
   A completion clears it even when the sabotage keeps the entry. *)
module Inflight = struct
  type t = {
    mutable op : int array;
    mutable did : int array;
    mutable bytes : int array;
    mutable charge : Memory.Pool.alloc option array;
    mutable live : bool array;
    mutable n : int;
  }

  let create () =
    { op = [||]; did = [||]; bytes = [||]; charge = [||]; live = [||]; n = 0 }

  let length t = t.n

  (* The entry of op [op], or -1. *)
  let find t op =
    let i = ref 0 in
    while !i < t.n && t.op.(!i) <> op do
      incr i
    done;
    if !i < t.n then !i else -1

  let live_entry t did =
    let i = ref 0 in
    while !i < t.n && not (t.live.(!i) && t.did.(!i) = did) do
      incr i
    done;
    if !i < t.n then !i else -1

  let is_live t did = live_entry t did >= 0

  let retire_id t did =
    let i = live_entry t did in
    if i >= 0 then t.live.(i) <- false

  let grow t =
    let cap = Int.max 8 (2 * t.n) in
    let extend a fill =
      let fresh = Array.make cap fill in
      Array.blit a 0 fresh 0 t.n;
      fresh
    in
    t.op <- extend t.op 0;
    t.did <- extend t.did 0;
    t.bytes <- extend t.bytes 0;
    t.charge <- extend t.charge None;
    t.live <- extend t.live false

  let add t ~op ~did ~bytes ~charge =
    if t.n = Array.length t.op then grow t;
    let i = t.n in
    t.op.(i) <- op;
    t.did.(i) <- did;
    t.bytes.(i) <- bytes;
    t.charge.(i) <- charge;
    t.live.(i) <- true;
    t.n <- i + 1

  let remove t i =
    let last = t.n - 1 in
    t.op.(i) <- t.op.(last);
    t.did.(i) <- t.did.(last);
    t.bytes.(i) <- t.bytes.(last);
    t.charge.(i) <- t.charge.(last);
    t.live.(i) <- t.live.(last);
    t.charge.(last) <- None;
    t.n <- last

  (* Abandon every entry (quarantine, forced detach). *)
  let clear t =
    Array.fill t.charge 0 t.n None;
    t.n <- 0
end

type binding = {
  tenant : Tenant.t;
  client : PE.client;
  conn : PE.conn;
  (* Held until each op's first completion; survives engine epochs. *)
  inflight : Inflight.t;
  (* Host indices (tx taken/used, rx taken/used) captured at
     quarantine; the guest.quarantine invariant asserts they never move
     again. *)
  mutable frozen : (int * int * int * int) option;
  b_meng : meng;
  b_slot : int;  (* index in [b_meng.bound] *)
}

and meng = {
  core : Engine.t;
  mutable bound : binding array;  (* attach order *)
  (* Slots of the bindings that may have work: a pass visits members
     only, in slot order (see [run_meng]). *)
  busy : Sim.Bitset.t;
  mutable last_epoch : int;
}

type t = {
  lp : Loop.t;
  pony : PE.t;
  pool : Memory.Pool.t;
  addr : int;
  copy_ns_per_byte : float;
  group : Engine.group;
  suspect_after : int;
  quarantine_after : int;
  mutable engs : meng list;
  mutable rr : int;
  mutable bindings : binding list;
  by_name : (string, binding) Hashtbl.t;
  mutable next_tid : int;
  mutable n_resyncs : int;
  c_suspects : Stats.Counter.t;
  c_quarantines : Stats.Counter.t;
  c_unmatched : Stats.Counter.t;
}

let status_of : Pony.Wire.status -> Ring.status = function
  | Pony.Wire.Ok -> Ring.Complete
  | Pony.Wire.Rejected -> Ring.Rejected
  | Pony.Wire.Timed_out -> Ring.Timed_out
  | Pony.Wire.Busy -> Ring.Busy
  | Pony.Wire.Bad_region | Pony.Wire.Bad_range | Pony.Wire.No_match
  | Pony.Wire.Not_permitted | Pony.Wire.Peer_dead ->
      Ring.Failed

(* {1 Misbehavior escalation}

   Trust-boundary violations accumulate on the tenant; past
   [suspect_after] the mux throttles its tx drain to a quarter batch per
   pass, past [quarantine_after] the tenant is quarantined: in-flight
   ops abandoned, pool charges bulk-reclaimed through the
   generation-tagged owner release, rings cancelled and never served
   again.  Modeled on the watchdog's engine quarantine — the offender
   is ejected, the victims keep their engines. *)

let cancel_ring tn ring ~count_ops =
  let rec go n =
    match Ring.take_checked ring with
    | Ring.Take_ok d | Ring.Take_bad (_, d) ->
        if count_ops then Tenant.note_tx tn Ring.Cancelled;
        Ring.complete ring ~id:d.Ring.d_id ~len:0 ~status:Ring.Cancelled;
        go (n + 1)
    | Ring.Take_drop _ -> go n  (* consumed, nothing to publish *)
    | Ring.Take_empty | Ring.Take_stop _ -> n
  in
  go 0

let quarantine t b =
  let tn = b.tenant in
  tn.Tenant.health <- Tenant.Quarantined;
  tn.Tenant.quarantined_at <- Some (Loop.now t.lp);
  Stats.Counter.incr t.c_quarantines;
  Sim.Span.emit t.lp ~cat:"guest" ~track:"quarantine"
    ~args:
      [
        ("tenant", tn.Tenant.owner);
        ("violations", string_of_int (Tenant.violations tn));
      ]
    "tenant-quarantine";
  (* Abandon in-flight ops: their straggler completions surface in the
     unmatched counter, their pool charges are reclaimed in bulk below
     and the generation bump turns any late per-alloc free into a
     no-op. *)
  Inflight.clear b.inflight;
  if tn.Tenant.state <> Tenant.Detached then begin
    tn.Tenant.state <- Tenant.Detaching;
    ignore (cancel_ring tn tn.Tenant.tx ~count_ops:true);
    ignore (cancel_ring tn tn.Tenant.rx ~count_ops:false);
    let freed = Memory.Pool.release_owner t.pool ~owner:tn.Tenant.owner in
    if freed > 0 then Tenant.note_reclaimed tn freed;
    tn.Tenant.state <- Tenant.Detached
  end;
  b.frozen <-
    Some
      ( Ring.taken_idx tn.Tenant.tx,
        Ring.used_idx tn.Tenant.tx,
        Ring.taken_idx tn.Tenant.rx,
        Ring.used_idx tn.Tenant.rx )

let violate t b reason =
  let tn = b.tenant in
  let total = Tenant.note_violation tn reason in
  if tn.Tenant.health <> Tenant.Quarantined then begin
    if tn.Tenant.health = Tenant.Healthy && total >= t.suspect_after then begin
      tn.Tenant.health <- Tenant.Suspect;
      Stats.Counter.incr t.c_suspects;
      Sim.Span.emit t.lp ~cat:"guest" ~track:"quarantine"
        ~args:
          [
            ("tenant", tn.Tenant.owner);
            ("reason", Tenant.violation_to_string reason);
          ]
        "tenant-suspect"
    end;
    (* Sabotage point: with "skip_tenant_quarantine" armed the score
       crosses the threshold but the ejection never happens, so the
       sweep can prove the guest.quarantine invariant is not vacuous
       (never armed outside the checker's own non-vacuity test). *)
    if
      total >= t.quarantine_after
      && not (Check.Invariant.sabotage "skip_tenant_quarantine")
    then quarantine t b
  end

let rec drain_completions t b cost work n =
  if n < batch then
    match PE.engine_poll_completion b.client with
    | Some c ->
        incr work;
        cost := Time.add !cost per_comp_cost;
        let fl = b.inflight in
        let i = Inflight.find fl c.PE.comp_op in
        if i >= 0 then begin
          let did = fl.Inflight.did.(i) and bytes = fl.Inflight.bytes.(i) in
          Inflight.retire_id fl did;
          (* Sabotage point: with "guest_skip_release" armed the
             backend forgets the op's bookkeeping — the in-flight entry
             and the tenant's admission charge both leak — so the sweep
             can prove the detach-quiesce reclaim invariant fires (never
             armed outside the checker's own non-vacuity test). *)
          if not (Check.Invariant.sabotage "guest_skip_release") then begin
            let charge = fl.Inflight.charge.(i) in
            Inflight.remove fl i;
            Overload.Admission.release b.tenant.Tenant.adm charge
          end;
          let st = status_of c.PE.status in
          Tenant.note_tx b.tenant st;
          Ring.complete b.tenant.Tenant.tx ~id:did ~len:bytes ~status:st
        end
        else
          (* No in-flight entry: the second completion of the same op
             (a Busy NACK following the Ok), or a straggler of an op
             abandoned by force-detach/quarantine.  Counted so
             genuinely-orphaned completions are visible. *)
          Stats.Counter.incr t.c_unmatched;
        drain_completions t b cost work (n + 1)
    | None -> ()

let rec drain_messages t b cost work n =
  if n < batch then
    match PE.engine_poll_message b.client with
    | Some m ->
        incr work;
        let tn = b.tenant in
        (match Ring.take_checked tn.Tenant.rx with
        | Ring.Take_ok d ->
            let len = Int.min m.PE.msg_bytes d.Ring.d_len in
            cost :=
              Time.add !cost
                (Time.ns
                   (int_of_float (t.copy_ns_per_byte *. float_of_int len)));
            Tenant.note_rx tn len;
            Ring.complete tn.Tenant.rx ~id:d.Ring.d_id ~len
              ~status:Ring.Complete
        | Ring.Take_bad (r, d) ->
            (* Complete before scoring: scoring may quarantine, and the
               frozen-index snapshot must postdate every publication. *)
            Tenant.note_rx_drop tn;
            Ring.complete tn.Tenant.rx ~id:d.Ring.d_id ~len:0
              ~status:Ring.Failed;
            violate t b (Tenant.of_ring_fault r)
        | Ring.Take_drop r ->
            Tenant.note_rx_drop tn;
            violate t b (Tenant.of_ring_fault r)
        | Ring.Take_stop r ->
            (* rx ring corrupt: the message is shed. *)
            Tenant.note_rx_drop tn;
            violate t b (Tenant.of_ring_fault r)
        | Ring.Take_empty ->
            (* No posted rx buffer: the message is shed, like a virtio
               rx-ring overflow. *)
            Tenant.note_rx_drop tn);
        drain_messages t b cost work (n + 1)
    | None -> ()

let rec drain_tx t b cost work ~limit n =
  let tn = b.tenant in
  if
    n < limit
    && tn.Tenant.health <> Tenant.Quarantined
    && PE.conn_cmd_free b.conn > 0
  then
    match Ring.take_checked tn.Tenant.tx with
    | Ring.Take_empty -> ()
    | Ring.Take_stop r ->
        (* No progress possible (avail rollback or overcommit): score
           once and stop the pass. *)
        incr work;
        violate t b (Tenant.of_ring_fault r)
    | Ring.Take_drop r ->
        incr work;
        cost := Time.add !cost per_desc_cost;
        violate t b (Tenant.of_ring_fault r);
        drain_tx t b cost work ~limit (n + 1)
    | Ring.Take_bad (r, d) ->
        incr work;
        cost := Time.add !cost per_desc_cost;
        Tenant.note_tx tn Ring.Failed;
        Ring.complete tn.Tenant.tx ~id:d.Ring.d_id ~len:0 ~status:Ring.Failed;
        violate t b (Tenant.of_ring_fault r);
        drain_tx t b cost work ~limit (n + 1)
    | Ring.Take_ok d ->
        incr work;
        cost := Time.add !cost per_desc_cost;
        if Inflight.is_live b.inflight d.Ring.d_id then begin
          Tenant.note_tx tn Ring.Failed;
          Ring.complete tn.Tenant.tx ~id:d.Ring.d_id ~len:0
            ~status:Ring.Failed;
          violate t b Tenant.Dup_id
        end
        else
          (match
             Overload.Admission.admit tn.Tenant.adm ~now:(Loop.now t.lp)
               ~bytes:d.Ring.d_len
           with
          | Overload.Admission.Rejected _ ->
              Tenant.note_tx tn Ring.Rejected;
              Ring.complete tn.Tenant.tx ~id:d.Ring.d_id ~len:0
                ~status:Ring.Rejected
          | Overload.Admission.Admitted charge ->
              let op =
                PE.engine_post_send b.conn ~now:(Loop.now t.lp)
                  ~bytes:d.Ring.d_len ()
              in
              Inflight.add b.inflight ~op ~did:d.Ring.d_id ~bytes:d.Ring.d_len
                ~charge);
        drain_tx t b cost work ~limit (n + 1)

let finalize t b =
  let tn = b.tenant in
  ignore (cancel_ring tn tn.Tenant.tx ~count_ops:true);
  (* Posted rx buffers are returned, not counted as ops. *)
  ignore (cancel_ring tn tn.Tenant.rx ~count_ops:false);
  let freed = Memory.Pool.release_owner t.pool ~owner:tn.Tenant.owner in
  if freed > 0 then Tenant.note_reclaimed tn freed;
  tn.Tenant.state <- Tenant.Detached

let service t b cost work =
  let tn = b.tenant in
  match tn.Tenant.state with
  | Tenant.Detached ->
      (* Stragglers for a finalized binding (graceful detach, forced
         detach, or quarantine): completions find no in-flight entry
         and are counted unmatched; the rings are never touched
         again. *)
      drain_completions t b cost work 0
  | Tenant.Attached ->
      drain_completions t b cost work 0;
      drain_messages t b cost work 0;
      (* A Suspect tenant is throttled to a quarter batch per pass —
         damage control while the score settles.  Not all the way to
         one: passes can be hundreds of microseconds apart, and a
         single take per pass would stretch the evidence-gathering
         window (and quarantine latency) by that same factor. *)
      let limit =
        if tn.Tenant.health = Tenant.Suspect then Int.max 1 (batch / 4) else batch
      in
      drain_tx t b cost work ~limit 0
  | Tenant.Detaching ->
      drain_completions t b cost work 0;
      drain_messages t b cost work 0;
      let cancelled = cancel_ring tn tn.Tenant.tx ~count_ops:true in
      if cancelled > 0 then work := !work + cancelled;
      if Inflight.length b.inflight = 0 then begin
        incr work;
        finalize t b
      end

(* {1 Busy set}

   A binding joins its engine's busy set when it may have gained work:
   its Pony delivery hook (every completion or message pushed to its
   client), its tx and rx kick handlers, and a graceful detach.  After a
   visit it stays only while [has_work] holds.  Outside that rule
   [service] pops two empty queues and gets a [Take_empty] with no side
   effect, so skipping it changes nothing.  Every guest write to [avail]
   or a slot kicks; the one unsignalled write, [reaped], matters only
   while a take is already pending.  A guest that writes without
   kicking would only delay its own service: host safety rests on
   [take_checked], not on the visit. *)

let mark b = Sim.Bitset.set b.b_meng.busy b.b_slot

(* The 16-item caps can leave queued completions or messages behind; a
   Detaching binding is visited until it finalizes; a pending take
   covers a backlog, an index runahead, and a rolled-back [avail],
   which is re-scored every pass. *)
let has_work b =
  (not (PE.engine_queues_empty b.client))
  ||
  match b.tenant.Tenant.state with
  | Tenant.Detaching -> true
  | Tenant.Attached -> Ring.take_pending b.tenant.Tenant.tx
  | Tenant.Detached -> false

let run_meng t m =
  let ep = Engine.epoch m.core in
  if ep <> m.last_epoch then begin
    (* Ring contents and in-flight state live in the bindings, outside
       the engine incarnation: the new instance resumes where the old
       one stopped, so a tenant observes only the blackout window.  The
       busy set lives there too, so work that landed during the
       blackout is served now. *)
    m.last_epoch <- ep;
    t.n_resyncs <- t.n_resyncs + 1
  end;
  let cost = ref Time.zero in
  let work = ref 0 in
  let i = ref (Sim.Bitset.next m.busy 0) in
  while !i >= 0 do
    let b = m.bound.(!i) in
    service t b cost work;
    if not (has_work b) then Sim.Bitset.clear m.busy !i;
    i := Sim.Bitset.next m.busy (!i + 1)
  done;
  if !work = 0 then Engine.no_work else Engine.worked !cost

(* A binding with an untaken descriptor has a take pending, so it is a
   member: members are all that can raise the max. *)
let meng_queue_delay m now =
  let age = ref 0 in
  let i = ref (Sim.Bitset.next m.busy 0) in
  while !i >= 0 do
    let tn = m.bound.(!i).tenant in
    if tn.Tenant.state <> Tenant.Detached then
      age := Time.max !age (Ring.oldest_pending_age tn.Tenant.tx ~now);
    i := Sim.Bitset.next m.busy (!i + 1)
  done;
  !age

(* Guest-owned indices can make occupancy negative (rollback) or
   absurd (runahead); clamp to what the ring can physically hold. *)
let clamped_occ ring =
  Int.min (Ring.capacity ring) (Int.max 0 (Ring.occupancy ring))

let meng_state_bytes m =
  Array.fold_left
    (fun acc b ->
      acc + 512
      + 64 * (clamped_occ b.tenant.Tenant.tx + clamped_occ b.tenant.Tenant.rx)
      + 48 * Inflight.length b.inflight)
    0 m.bound

let create ~loop ~pony ?(engines = 1) ~mode ?(suspect_after = 3)
    ?(quarantine_after = 12) () =
  if engines <= 0 then invalid_arg "Guest.Mux.create: engines";
  if suspect_after <= 0 then invalid_arg "Guest.Mux.create: suspect_after";
  if quarantine_after < suspect_after then
    invalid_arg "Guest.Mux.create: quarantine_after < suspect_after";
  let machine = PE.machine pony in
  let addr = PE.addr pony in
  let group =
    Engine.create_group ~machine ~name:(Printf.sprintf "guest%d" addr) ~mode
  in
  let labels = [ ("host", string_of_int addr) ] in
  let t =
    {
      lp = loop;
      pony;
      pool = PE.op_pool pony;
      addr;
      copy_ns_per_byte = Sim.Costs.default.snap_copy_per_byte_ns;
      group;
      suspect_after;
      quarantine_after;
      engs = [];
      rr = 0;
      bindings = [];
      by_name = Hashtbl.create 64;
      next_tid = 0;
      n_resyncs = 0;
      c_suspects = Stats.Registry.counter ~labels "tenant_quarantine_suspects";
      c_quarantines = Stats.Registry.counter ~labels "tenant_quarantines";
      c_unmatched =
        Stats.Registry.counter ~labels "guest_unmatched_completions";
    }
  in
  for i = 0 to engines - 1 do
    let m_ref = ref None in
    let core =
      Engine.create
        ~name:(Printf.sprintf "mux%d" i)
        ~run:(fun () ->
          match !m_ref with Some m -> run_meng t m | None -> Engine.no_work)
        ~queue_delay:(fun now ->
          match !m_ref with Some m -> meng_queue_delay m now | None -> 0)
        ~state_bytes:(fun () ->
          match !m_ref with Some m -> meng_state_bytes m | None -> 0)
        ()
    in
    let m =
      { core; bound = [||]; busy = Sim.Bitset.create (); last_epoch = 0 }
    in
    m_ref := Some m;
    Engine.add group core;
    m.last_epoch <- Engine.epoch core;
    t.engs <- t.engs @ [ m ]
  done;
  if Check.Invariant.enabled () then begin
    (* Every binding the keep rule says has work is in its engine's
       busy set, or a pass would skip it (what the mux_skip_kick_mark
       sabotage breaks). *)
    Check.Invariant.register ~name:"guest.mux.busy" (fun () ->
        let member b = Sim.Bitset.next b.b_meng.busy b.b_slot = b.b_slot in
        match
          List.find_opt (fun b -> has_work b && not (member b)) t.bindings
        with
        | Some b ->
            Some
              (Printf.sprintf "tenant %s has work but is not in %s's busy set"
                 b.tenant.Tenant.owner (Engine.name b.b_meng.core))
        | None -> None);
    (* The containment invariant: a tenant over the quarantine
       threshold must actually be quarantined (this is what the
       skip_tenant_quarantine sabotage breaks), and a quarantined
       tenant must make no further ring progress and hold no pool
       bytes — its damage is fully contained. *)
    Check.Invariant.register ~name:"guest.quarantine" (fun () ->
        let rec scan = function
          | [] -> None
          | b :: rest -> (
              let tn = b.tenant in
              if
                tn.Tenant.health <> Tenant.Quarantined
                && Tenant.violations tn >= t.quarantine_after
              then
                Some
                  (Printf.sprintf
                     "tenant %s has %d violations (threshold %d) but is %s"
                     tn.Tenant.owner (Tenant.violations tn) t.quarantine_after
                     (Tenant.health_to_string tn.Tenant.health))
              else
                match (tn.Tenant.health, b.frozen) with
                | Tenant.Quarantined, Some (ttx, utx, trx, urx) ->
                    if
                      Ring.taken_idx tn.Tenant.tx <> ttx
                      || Ring.used_idx tn.Tenant.tx <> utx
                      || Ring.taken_idx tn.Tenant.rx <> trx
                      || Ring.used_idx tn.Tenant.rx <> urx
                    then
                      Some
                        (Printf.sprintf
                           "quarantined tenant %s made ring progress"
                           tn.Tenant.owner)
                    else if Tenant.pool_usage tn <> 0 then
                      Some
                        (Printf.sprintf
                           "quarantined tenant %s holds %d pool bytes"
                           tn.Tenant.owner (Tenant.pool_usage tn))
                    else scan rest
                | Tenant.Quarantined, None ->
                    Some
                      (Printf.sprintf
                         "quarantined tenant %s has no frozen snapshot"
                         tn.Tenant.owner)
                | (Tenant.Healthy | Tenant.Suspect), _ -> scan rest)
        in
        scan t.bindings)
  end;
  t

let register_invariants b =
  let tn = b.tenant in
  let owner = tn.Tenant.owner in
  let mon_tx = Ring.monitor tn.Tenant.tx in
  let mon_rx = Ring.monitor tn.Tenant.rx in
  (* Host-safety only: guest-owned indices are attacker-controlled and
     deliberately unchecked here — their abuse is scored and escalated
     by the mux, not treated as a host invariant violation. *)
  Check.Invariant.register
    ~name:(Printf.sprintf "guest.%s.rings" owner)
    (fun () ->
      match mon_tx () with Some _ as e -> e | None -> mon_rx ());
  (* The cross-tenant leak detector: all pool charges under this owner
     come from this tenant's admission handle, so the two totals must
     agree at every instant.  A byte charged to the wrong tenant breaks
     the equality on both tenants at once. *)
  Check.Invariant.register
    ~name:(Printf.sprintf "guest.%s.accounting" owner)
    (fun () ->
      let usage = Tenant.pool_usage tn in
      if tn.Tenant.state = Tenant.Detached then
        if usage <> 0 then
          Some (Printf.sprintf "detached tenant holds %d pool bytes" usage)
        else None
      else
        let out_bytes = Tenant.outstanding_bytes tn in
        let out_ops = Tenant.outstanding_ops tn in
        if usage <> out_bytes then
          Some
            (Printf.sprintf
               "pool charge %d B disagrees with admission outstanding %d B \
                (cross-tenant leak)"
               usage out_bytes)
        else if Inflight.length b.inflight > out_ops then
          Some
            (Printf.sprintf "%d in-flight ops exceed %d outstanding admissions"
               (Inflight.length b.inflight) out_ops)
        else None);
  Check.Invariant.register ~kind:Check.Invariant.Quiesce_only
    ~name:(Printf.sprintf "guest.%s.drained" owner)
    (fun () ->
      if Inflight.length b.inflight <> 0 then
        Some
          (Printf.sprintf "%d ops still in flight" (Inflight.length b.inflight))
      else
        let usage = Tenant.pool_usage tn in
        if usage <> 0 then
          Some (Printf.sprintf "%d op-pool bytes never released" usage)
        else None)

let attach ctx t ~name ~dst_host ~dst_name ?ring_slots ?buf_bytes
    ?rate_ops_per_sec ?burst_ops () =
  if Hashtbl.mem t.by_name name then
    invalid_arg (Printf.sprintf "Guest.Mux.attach: tenant %s exists" name);
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  let tenant =
    Tenant.create ~pool:t.pool ~host_addr:t.addr ~name ~id:tid ?ring_slots
      ?buf_bytes ?rate_ops_per_sec ?burst_ops ()
  in
  (* The backend's Pony handle for this tenant.  Its client-side
     admission stays permissive on purpose: the tenant's handle is the
     accounting authority, and the engine-side submit path bypasses
     client admission entirely. *)
  let client = PE.create_client ctx t.pony ~name:("mux:" ^ name) () in
  let conn = PE.connect_by_name ctx client ~dst_host ~dst_name in
  let n = List.length t.engs in
  let m = List.nth t.engs (t.rr mod n) in
  t.rr <- t.rr + 1;
  let b =
    {
      tenant;
      client;
      conn;
      inflight = Inflight.create ();
      frozen = None;
      b_meng = m;
      b_slot = Array.length m.bound;
    }
  in
  m.bound <- Array.append m.bound [| b |];
  t.bindings <- t.bindings @ [ b ];
  Hashtbl.replace t.by_name name b;
  (* Wakeups: completions/messages landing at the pony client, and
     guest kicks on either ring, all mark the binding busy and nudge the
     owning mux engine.  A kick with nothing behind it (empty or
     rolled-back backlog) is scored as a spurious kick, and a
     quarantined tenant's notifier is never rearmed — kick storms stop
     waking the engine. *)
  PE.set_delivery_hook client (fun () ->
      mark b;
      Engine.notify m.core);
  let rec rearm ring =
    Ring.arm_kick ring (fun () ->
        if tenant.Tenant.health <> Tenant.Quarantined then begin
          (* Sabotage point: with "mux_skip_kick_mark" armed the engine
             is still woken but the binding never joins its busy set,
             so the sweep can prove the guest.mux.busy invariant fires
             (never armed outside the checker's own non-vacuity
             test). *)
          if not (Check.Invariant.sabotage "mux_skip_kick_mark") then mark b;
          if Ring.backlog ring <= 0 then violate t b Tenant.Spurious_kick;
          if tenant.Tenant.health <> Tenant.Quarantined then begin
            Engine.notify m.core;
            rearm ring
          end
        end)
  in
  rearm tenant.Tenant.tx;
  rearm tenant.Tenant.rx;
  if Check.Invariant.enabled () then register_invariants b;
  tenant

let detach ?(force = false) t tenant =
  match Hashtbl.find_opt t.by_name tenant.Tenant.tname with
  | None ->
      invalid_arg
        (Printf.sprintf "Guest.Mux.detach: unknown tenant %s"
           tenant.Tenant.tname)
  | Some b ->
      if tenant.Tenant.state <> Tenant.Detached then begin
        tenant.Tenant.state <- Tenant.Detaching;
        if force then begin
          (* Abandon in-flight ops.  Their straggler completions find
             no in-flight entry and are counted unmatched; their pool
             charges are reclaimed in bulk right here, and the
             generation bump in [release_owner] turns any late
             per-alloc free into a no-op. *)
          Inflight.clear b.inflight;
          finalize t b
        end
        else begin
          mark b;
          Engine.notify b.b_meng.core
        end
      end

let group t = t.group
let engines t = List.map (fun m -> m.core) t.engs
let resyncs t = t.n_resyncs
let tenants t = List.map (fun b -> b.tenant) t.bindings

let suspects t = Stats.Counter.value t.c_suspects
let unmatched_completions t = Stats.Counter.value t.c_unmatched
