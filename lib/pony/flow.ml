module Time = Sim.Time
module Loop = Sim.Loop
module Packet = Memory.Packet

let max_flight = 128
let min_rto = Time.us 100
let gbn_window = 8
let dupack_threshold = 3

(* How long a quenched sender (advertised window zero, nothing in
   flight) waits before probing with one packet so the window can
   reopen.  Without the probe a zero window would livelock: no data
   means no acks, no acks means no window update. *)
let zero_window_probe_interval = Time.us 200

type flight_entry = {
  f_seq : int;
  f_item : Wire.item;
  f_payload : int;
  mutable sent_at : Time.t;
}

(* Flight ring capacity: a power of two ≥ [max_flight] so the index
   math is a mask.  The flight never exceeds [max_flight] (fresh sends
   are window-gated; retransmissions reuse their slots). *)
let flight_cap = 256
let flight_mask = flight_cap - 1

let dummy_fe = { f_seq = -1; f_item = Wire.Bare_ack; f_payload = 0; sent_at = 0 }

type t = {
  lp : Loop.t;
  fkey : Wire.flow_key;
  ver : int;
  (* Sender host incarnation stamped on every outgoing packet.  Fixed
     at creation: a host crash destroys its flows, so a flow never
     outlives the incarnation it was born under. *)
  f_inc : int;
  timely : Timely.t;
  (* Transmit. *)
  queue : (Wire.item * int * Time.t) Queue.t;  (* item, payload, enqueued *)
  retx : flight_entry Queue.t;
  mutable snd_nxt : int;
  (* Flight as a preallocated circular buffer of [flight_cap] slots:
     entries live at ring indices [fl_head, fl_head + flight_len) mod
     [flight_cap], in ascending (contiguous) seq order.  Appending a
     fresh send and dropping the acked prefix are O(1) and allocate
     nothing — the old list representation rebuilt the whole flight on
     every send ([flight @ [fe]]) and every cumulative ack
     ([List.filter]), which dominated per-packet allocation. *)
  fl_ring : flight_entry array;
  mutable fl_head : int;
  mutable flight_len : int;
  mutable next_release : Time.t;
  mutable dup_acks : int;
  mutable last_ack_seen : int;
  (* Receiver back-pressure: the peer's latest advertised window (in
     packets) caps new flight; [wnd_provider] supplies the window we
     advertise on every outgoing packet. *)
  mutable peer_wnd : int;
  mutable wnd_update_at : Time.t;
  mutable wnd_provider : unit -> int;
  mutable n_zw_probes : int;
  (* Engine membership (see [set_activity_hook]): [marked] goes up at
     the first transition that can take an idle flow busy (an enqueue, a
     retransmit scheduled, an ack owed) and down when the engine
     [settle]s the flow idle, so [on_active] runs once per busy spell,
     not once per packet. *)
  mutable on_active : unit -> unit;
  mutable marked : bool;
  (* Receive. *)
  mutable rcv_cum : int;
  mutable rcv_ooo : int list;  (* sorted ascending, all >= rcv_cum *)
  mutable owe_ack : bool;
  mutable latest_rx_ts : Time.t;
  (* RTT / RTO. *)
  mutable srtt_ns : float;
  mutable rto : Time.t;
  (* Stats. *)
  mutable n_retx : int;
  mutable n_delivered : int;
  mutable n_acked : int;
  fl_label : string;  (* "srcHost.srcEng->dstHost.dstEng" *)
  h_rtt : Stats.Histogram.t;
  h_flight : Stats.Histogram.t;
}

let create ~loop ~key ~max_rate_gbps ?(version = Wire.current_version)
    ?(incarnation = 0) () =
  let fl_label =
    Printf.sprintf "%d.%d->%d.%d" key.Wire.src_host key.Wire.src_engine
      key.Wire.dst_host key.Wire.dst_engine
  in
  let labels = [ ("flow", fl_label) ] in
  let t =
  {
    lp = loop;
    fkey = key;
    ver = version;
    f_inc = incarnation;
    timely = Timely.create ~max_rate_gbps ();
    queue = Queue.create ();
    retx = Queue.create ();
    snd_nxt = 0;
    fl_ring = Array.make flight_cap dummy_fe;
    fl_head = 0;
    flight_len = 0;
    next_release = Time.zero;
    dup_acks = 0;
    last_ack_seen = 0;
    peer_wnd = max_flight;
    wnd_update_at = Time.zero;
    wnd_provider = (fun () -> max_flight);
    n_zw_probes = 0;
    on_active = ignore;
    marked = false;
    rcv_cum = 0;
    rcv_ooo = [];
    owe_ack = false;
    latest_rx_ts = Time.zero;
    srtt_ns = 0.0;
    rto = min_rto;
    n_retx = 0;
    n_delivered = 0;
    n_acked = 0;
    fl_label;
    h_rtt = Stats.Registry.histogram ~labels "pony_flow_rtt_ns";
    h_flight = Stats.Registry.histogram ~labels "pony_flow_flight";
  }
  in
  Check.Invariant.register ~name:(Printf.sprintf "pony.flow.%s" fl_label)
    (fun () ->
      if t.flight_len < 0 || t.flight_len > max_flight then
        Some
          (Printf.sprintf "flight %d outside [0, %d]" t.flight_len max_flight)
      else begin
        (* Ring window must hold contiguous ascending seqs (go-back-N
           never punches holes) and no occupied slot may be the dummy. *)
        let bad = ref None in
        for i = 0 to t.flight_len - 1 do
          let fe = t.fl_ring.((t.fl_head + i) land flight_mask) in
          if !bad = None then
            if fe == dummy_fe then
              bad := Some (Printf.sprintf "flight slot %d empty" i)
            else begin
              let base = t.fl_ring.(t.fl_head land flight_mask).f_seq in
              if fe.f_seq <> base + i then
                bad :=
                  Some
                    (Printf.sprintf
                       "flight seqs not contiguous: slot %d holds %d, head %d"
                       i fe.f_seq base)
            end
        done;
        !bad
      end);
  t

let fl_nth t i = t.fl_ring.((t.fl_head + i) land flight_mask)
let fl_head_entry t = t.fl_ring.(t.fl_head land flight_mask)

(* Flow events share one track per flow so chrome://tracing shows each
   flow as its own lane. *)
let span t ~now ?(args = []) name =
  Sim.Span.emit t.lp ~cat:"pony" ~track:("flow " ^ t.fl_label) ~args ~start:now
    name

let key t = t.fkey
let version t = t.ver
let cc t = t.timely
let pending t = Queue.length t.queue + Queue.length t.retx
let in_flight t = t.flight_len

let effective_window t = min max_flight (max 0 t.peer_wnd)

(* A quenched idle flow (zero window, empty flight, data waiting) may
   send one probe packet after an idle interval; the probe's ack
   carries the peer's current window and reopens the flow. *)
let zw_probe_due t ~now =
  effective_window t = 0
  && t.flight_len = 0
  && (not (Queue.is_empty t.queue))
  && Time.sub now t.wnd_update_at >= zero_window_probe_interval

let ready_to_emit t ~now =
  (not (Queue.is_empty t.retx))
  || ((not (Queue.is_empty t.queue))
     && now >= t.next_release
     && (t.flight_len < effective_window t || zw_probe_due t ~now))

(* -- Engine membership ---------------------------------------------------- *)

let is_idle t =
  Queue.is_empty t.queue && Queue.is_empty t.retx && t.flight_len = 0
  && not t.owe_ack

let note_active t =
  if not t.marked then begin
    t.marked <- true;
    t.on_active ()
  end

let set_activity_hook t f =
  t.on_active <- f;
  t.marked <- false;
  if not (is_idle t) then note_active t

let marked t = t.marked

let settle t =
  let idle = is_idle t in
  if idle then t.marked <- false;
  idle

let enqueue t item ~payload_bytes =
  Queue.add (item, payload_bytes, Loop.now t.lp) t.queue;
  note_active t

(* Age of the oldest queued (unsent) item: the transmit-side component
   of the engine's queueing-delay load signal (§2.4).  Only the
   CPU-bottlenecked portion counts: time spent waiting for the rate
   pacer (or the flight window) is congestion control at work, not CPU
   starvation, so the age is measured from the moment the pacer would
   have allowed the send. *)
let queue_age t ~now =
  match Queue.peek_opt t.queue with
  | Some (_, _, enq) ->
      if t.flight_len >= max_flight then 0
      else Time.max 0 (Time.sub now (Time.max enq t.next_release))
  | None -> 0

let item_wire item payload = Wire.header_bytes + Wire.item_wire_bytes item + payload

let build_packet t ~now ~gen ~seq ~item ~payload =
  let wire = item_wire item payload in
  Packet.make
    ~id:(Packet.Id_gen.next gen)
    ~src:t.fkey.Wire.src_host ~dst:t.fkey.Wire.dst_host
    ~flow_hash:(Hashtbl.hash t.fkey)
    ~qos:1 ~wire_bytes:wire ~payload_bytes:payload
    (Wire.Pony
       {
         flow = t.fkey;
         seq;
         ack = t.rcv_cum;
         wnd = max 0 (t.wnd_provider ());
         ts = now;
         ts_echo = t.latest_rx_ts;
         version = t.ver;
         inc = t.f_inc;
         item;
       })
    ()

let advance_pacer t ~now wire_bytes =
  let rate = Timely.rate_bytes_per_ns t.timely in
  let gap =
    int_of_float (Float.round (float_of_int wire_bytes /. Float.max 1e-6 rate))
  in
  t.next_release <- Time.add (Time.max now t.next_release) gap

(* Latency-attribution hooks: transmissions stamp the op's first-tx
   stage; retransmissions, RTO recoveries, and zero-window probes count
   as stalls against whatever op the packet carries. *)
let op_key t item = Wire.op_key_of_item ~src_host:t.fkey.Wire.src_host item

let op_stall t item which =
  if Sim.Optrace.enabled () then
    match op_key t item with
    | Some k -> Sim.Optrace.stall k which
    | None -> ()

let op_first_tx t item =
  if Sim.Optrace.enabled () then
    match op_key t item with
    | Some k -> Sim.Optrace.stamp t.lp k Sim.Optrace.First_tx
    | None -> ()

let rec emit t ~now ~gen =
  (* Retransmissions go first and bypass the window check (their slots
     are already accounted in the flight). *)
  match Queue.take_opt t.retx with
  | Some fe when fe.f_seq < t.last_ack_seen ->
      (* Acked while queued for retransmission: skip it. *)
      emit t ~now ~gen
  | Some fe ->
      fe.sent_at <- now;
      t.owe_ack <- false;
      let pkt = build_packet t ~now ~gen ~seq:fe.f_seq ~item:fe.f_item ~payload:fe.f_payload in
      advance_pacer t ~now pkt.Packet.wire_bytes;
      Stats.Histogram.record t.h_flight t.flight_len;
      if Sim.Span.enabled () then
        span t ~now ~args:[ ("seq", string_of_int fe.f_seq) ] "retx";
      op_stall t fe.f_item Sim.Optrace.Retx;
      Some pkt
  | None ->
      let probe = zw_probe_due t ~now in
      if
        Queue.is_empty t.queue
        || now < t.next_release
        || (t.flight_len >= effective_window t && not probe)
      then None
      else begin
        if probe then begin
          t.n_zw_probes <- t.n_zw_probes + 1;
          (* Restart the idle clock so at most one probe is in flight
             per interval even if the probe itself is lost. *)
          t.wnd_update_at <- now;
          if Sim.Span.enabled () then span t ~now "zw_probe"
        end;
        let item, payload, _enq = Queue.take t.queue in
        if probe then op_stall t item Sim.Optrace.Zero_window;
        op_first_tx t item;
        let seq = t.snd_nxt in
        t.snd_nxt <- seq + 1;
        let fe = { f_seq = seq; f_item = item; f_payload = payload; sent_at = now } in
        t.fl_ring.((t.fl_head + t.flight_len) land flight_mask) <- fe;
        t.flight_len <- t.flight_len + 1;
        t.owe_ack <- false;
        if Check.Invariant.enabled () && not probe then
          (* Window legality at send time: a fresh (non-retransmitted,
             non-probe) packet must fit under the peer's advertised
             window.  Retransmissions are exempt — their slots were
             charged when first sent. *)
          (if t.flight_len > effective_window t then
             raise
               (Check.Invariant.Violation
                  (Printf.sprintf
                     "flow %s: flight %d exceeds advertised window %d on fresh send"
                     t.fl_label t.flight_len (effective_window t))));
        let pkt = build_packet t ~now ~gen ~seq ~item ~payload in
        advance_pacer t ~now pkt.Packet.wire_bytes;
        Stats.Histogram.record t.h_flight t.flight_len;
        if Sim.Span.enabled () then
          span t ~now ~args:[ ("seq", string_of_int seq) ] "tx";
        Some pkt
      end

let ack_owed t = t.owe_ack

let make_ack t ~now ~gen =
  if not t.owe_ack then None
  else begin
    t.owe_ack <- false;
    if Sim.Span.enabled () then
      span t ~now ~args:[ ("ack", string_of_int t.rcv_cum) ] "ack";
    Some (build_packet t ~now ~gen ~seq:(-1) ~item:Wire.Bare_ack ~payload:0)
  end

let schedule_retransmit t n =
  (* Requeue up to [n] unacked head packets (bounded go-back-N). *)
  let count = min n t.flight_len in
  for i = 0 to count - 1 do
    t.n_retx <- t.n_retx + 1;
    Queue.add (fl_nth t i) t.retx
  done;
  if count > 0 then note_active t;
  count

let resync t ~now =
  (* Engine-restart resynchronization (§4.3): after a crash or upgrade
     rollback the peer may have missed anything we had in flight during
     the outage, and our RTO may have backed off far into the future.
     Requeue the whole flight for immediate retransmission and reset the
     timers so recovery does not wait out a stale RTO.  Receive-side
     sequencing state survives the restart (queues persist), so the
     peer's dedup absorbs any duplicates this creates. *)
  t.dup_acks <- 0;
  t.rto <- min_rto;
  t.next_release <- now;
  if Sim.Span.enabled () then
    span t ~now
      ~args:[ ("flight", string_of_int t.flight_len) ]
      "resync";
  if Queue.is_empty t.retx then schedule_retransmit t t.flight_len
  else 0

let sample_rtt t ~now ~ts_echo =
  if ts_echo > 0 then begin
    let rtt = Time.sub now ts_echo in
    if rtt > 0 then begin
      Stats.Histogram.record t.h_rtt rtt;
      Timely.on_rtt_sample t.timely rtt;
      t.srtt_ns <-
        (if t.srtt_ns = 0.0 then float_of_int rtt
         else (0.875 *. t.srtt_ns) +. (0.125 *. float_of_int rtt));
      t.rto <- Time.max min_rto (int_of_float (3.0 *. t.srtt_ns))
    end
  end

let process_ack t ~now ~ack ~ts_echo ~pure =
  sample_rtt t ~now ~ts_echo;
  if t.flight_len > 0 then begin
    if ack > t.last_ack_seen then begin
      t.last_ack_seen <- ack;
      t.dup_acks <- 0;
      (* The flight holds contiguous ascending seqs, so a cumulative
         ack always strips a prefix: pop head slots in place.  Slots
         are reset to the dummy so acked wire items are not retained. *)
      while
        t.flight_len > 0 && (fl_head_entry t).f_seq < ack
      do
        t.fl_ring.(t.fl_head land flight_mask) <- dummy_fe;
        t.fl_head <- (t.fl_head + 1) land flight_mask;
        t.flight_len <- t.flight_len - 1;
        t.n_acked <- t.n_acked + 1
      done
    end
    else if ack = t.last_ack_seen && pure then begin
      (* Only bare acks count as duplicates: every data packet
         piggybacks the (possibly stale) cumulative ack, which says
         nothing about loss. *)
      t.dup_acks <- t.dup_acks + 1;
      if t.dup_acks = dupack_threshold then begin
        if Sim.Span.enabled () then
          span t ~now
            ~args:[ ("seq", string_of_int t.last_ack_seen) ]
            "fast_retx";
        ignore (schedule_retransmit t 1);
        Timely.on_loss t.timely;
        t.dup_acks <- 0
      end
    end
  end

(* Receiver-side sequencing: advance the cumulative counter over any
   now-contiguous out-of-order arrivals. *)
let absorb_ooo t =
  let rec go () =
    match t.rcv_ooo with
    | s :: rest when s = t.rcv_cum ->
        t.rcv_cum <- t.rcv_cum + 1;
        t.rcv_ooo <- rest;
        go ()
    | s :: rest when s < t.rcv_cum ->
        t.rcv_ooo <- rest;
        go ()
    | _ -> ()
  in
  go ()

let on_receive t ~now pkt =
  match pkt.Packet.payload with
  | Wire.Pony { flow = _; seq; ack; wnd; ts; ts_echo; version = _; inc = _; item }
    -> (
      t.peer_wnd <- wnd;
      t.wnd_update_at <- now;
      process_ack t ~now ~ack ~ts_echo ~pure:(item = Wire.Bare_ack);
      match item with
      | Wire.Bare_ack -> None
      | _ ->
          if seq < t.rcv_cum || List.mem seq t.rcv_ooo then begin
            (* Duplicate: re-ack so the sender advances. *)
            t.owe_ack <- true;
            note_active t;
            None
          end
          else begin
            t.latest_rx_ts <- ts;
            if seq = t.rcv_cum then begin
              t.rcv_cum <- t.rcv_cum + 1;
              absorb_ooo t
            end
            else t.rcv_ooo <- List.sort compare (seq :: t.rcv_ooo);
            t.owe_ack <- true;
            note_active t;
            t.n_delivered <- t.n_delivered + 1;
            Some item
          end)
  | _ -> None

let next_deadline t =
  let pace =
    if Queue.is_empty t.queue && Queue.is_empty t.retx then None
    else if effective_window t = 0 && t.flight_len = 0 && Queue.is_empty t.retx
    then
      (* Quenched: the next useful service time is the window probe,
         not the pacer release.  Without this the engine timer never
         fires and a zero window livelocks an otherwise idle flow. *)
      Some
        (Time.max t.next_release
           (Time.add t.wnd_update_at zero_window_probe_interval))
    else Some t.next_release
  in
  let rto =
    if t.flight_len = 0 then None
    else Some (Time.add (fl_head_entry t).sent_at t.rto)
  in
  match (pace, rto) with
  | None, None -> None
  | Some a, None -> Some a
  | None, Some b -> Some b
  | Some a, Some b -> Some (Time.min a b)

let check_timeout t ~now =
  if t.flight_len = 0 then 0
  else
    let fe = fl_head_entry t in
      if Time.sub now fe.sent_at >= t.rto && Queue.is_empty t.retx then begin
        let n = schedule_retransmit t gbn_window in
        if Sim.Span.enabled () then
          span t ~now
            ~args:
              [ ("n", string_of_int n); ("seq", string_of_int fe.f_seq) ]
            "rto_gbn";
        op_stall t fe.f_item Sim.Optrace.Rto;
        Timely.on_loss t.timely;
        (* Back off the timer so a stalled peer is not hammered. *)
        t.rto <- Time.min (Time.ms 50) (2 * t.rto);
        n
      end
      else 0

let retransmits t = t.n_retx
let delivered t = t.n_delivered
let acked_packets t = t.n_acked
let srtt t = int_of_float t.srtt_ns

let set_window_provider t f = t.wnd_provider <- f
let peer_window t = t.peer_wnd
let zero_window_probes t = t.n_zw_probes
let incarnation t = t.f_inc

let purge_queue t ~drop =
  (* Remove not-yet-sent items the upper layer no longer wants (ops for
     a dead connection).  Flight and retransmission entries are left
     alone: removing them would punch holes in the go-back-N sequence
     space.  Returns the dropped items with their payload sizes so the
     caller can settle their ops. *)
  let kept = Queue.create () in
  let dropped = ref [] in
  Queue.iter
    (fun ((item, payload, _enq) as e) ->
      if drop item then dropped := (item, payload) :: !dropped
      else Queue.add e kept)
    t.queue;
  Queue.clear t.queue;
  Queue.transfer kept t.queue;
  List.rev !dropped
