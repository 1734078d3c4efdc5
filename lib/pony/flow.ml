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

let engine_name ~host ~engine = Printf.sprintf "pony%d@%d" engine host

(* What a vacated send-queue or flight slot holds, so the ring retains
   no dead wire item.  Compared with [==]: no real item is this value. *)
let vacant =
  Wire.Conn_reset
    {
      conn =
        {
          Wire.initiator_host = -1;
          initiator_client = -1;
          target_host = -1;
          target_client = -1;
          session = -1;
        };
    }

(* Floats a flow updates per packet live in an all-float record, so a
   store does not box. *)
type rtt = { mutable srtt_ns : float }

type t = {
  lp : Loop.t;
  fkey : Wire.flow_key;
  ver : int;
  (* Sender host incarnation stamped on every outgoing packet.  Fixed
     at creation: a host crash destroys its flows, so a flow never
     outlives the incarnation it was born under. *)
  f_inc : int;
  timely : Timely.t;
  f_hash : int;  (* NIC steering hash of [fkey] *)
  (* Transmit.  The send queue is a ring of parallel arrays: item,
     payload bytes and enqueue time of the [q_len] entries from
     [q_head], with a power-of-two length that doubles when full. *)
  mutable q_item : Wire.item array;
  mutable q_payload : int array;
  mutable q_enq : Time.t array;
  mutable q_head : int;
  mutable q_len : int;
  retx : int Queue.t;  (* seqs awaiting retransmission *)
  mutable snd_nxt : int;
  (* The flight is the contiguous seqs [snd_nxt - flight_len, snd_nxt):
     seq [s] lives in slot [s land (length - 1)] of parallel arrays
     whose power-of-two length doubles whenever the flight would
     outgrow it.  A fresh send and a cumulative ack's prefix pop are a
     few stores, and a retransmission names its entry by seq. *)
  mutable fl_item : Wire.item array;
  mutable fl_payload : int array;
  mutable fl_sent : Time.t array;
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
  rtt : rtt;
  mutable rto : Time.t;
  (* Stats.  RTT samples go to the source engine's histogram, shared
     by all of its flows: nothing reads them flow by flow. *)
  mutable n_retx : int;
  mutable n_delivered : int;
  h_rtt : Stats.Histogram.t;
  (* The span track, "flow " ^ [label], built at the first span. *)
  mutable track : string;
}

(* "srcHost.srcEng->dstHost.dstEng", built only to name the flow in
   spans and invariant reports. *)
let label t =
  let k = t.fkey in
  Printf.sprintf "%d.%d->%d.%d" k.Wire.src_host k.Wire.src_engine
    k.Wire.dst_host k.Wire.dst_engine

let create ~loop ~key ~max_rate_gbps ?(version = Wire.current_version)
    ?(incarnation = 0) () =
  let engine = engine_name ~host:key.Wire.src_host ~engine:key.Wire.src_engine in
  let t =
  {
    lp = loop;
    fkey = key;
    ver = version;
    f_inc = incarnation;
    timely = Timely.create ~max_rate_gbps ();
    f_hash = Hashtbl.hash key;
    q_item = [||];
    q_payload = [||];
    q_enq = [||];
    q_head = 0;
    q_len = 0;
    retx = Queue.create ();
    snd_nxt = 0;
    fl_item = [||];
    fl_payload = [||];
    fl_sent = [||];
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
    rtt = { srtt_ns = 0.0 };
    rto = min_rto;
    n_retx = 0;
    n_delivered = 0;
    h_rtt =
      Stats.Registry.histogram ~labels:[ ("engine", engine) ] "pony_flow_rtt_ns";
    track = "";
  }
  in
  (* Guarded like [Pony.Express.connect]'s per-conn invariants, so an
     unchecked run builds neither the name nor the closure. *)
  if Check.Invariant.enabled () then
    Check.Invariant.register ~name:("pony.flow." ^ label t)
      (fun () ->
        if t.flight_len < 0 || t.flight_len > max_flight then
          Some
            (Printf.sprintf "flight %d outside [0, %d]" t.flight_len max_flight)
        else begin
          (* Seqs map to slots, so the flight is contiguous by
             construction; every seq in it must still hold its item. *)
          let bad = ref None in
          for i = 0 to t.flight_len - 1 do
            let seq = t.snd_nxt - t.flight_len + i in
            if !bad = None && t.fl_item.(seq land (Array.length t.fl_item - 1)) == vacant
            then bad := Some (Printf.sprintf "flight slot %d (seq %d) empty" i seq)
          done;
          !bad
        end);
  t

(* Slot of in-flight seq [seq], and the oldest unacked seq. *)
let fl_slot t seq = seq land (Array.length t.fl_item - 1)
let fl_una t = t.snd_nxt - t.flight_len

(* Double the flight arrays, re-slotting the in-flight seqs. *)
let fl_grow t =
  let cap = Int.max 8 (2 * Array.length t.fl_item) in
  let item = Array.make cap vacant in
  let payload = Array.make cap 0 and sent = Array.make cap 0 in
  for seq = fl_una t to t.snd_nxt - 1 do
    let j = fl_slot t seq and j' = seq land (cap - 1) in
    item.(j') <- t.fl_item.(j);
    payload.(j') <- t.fl_payload.(j);
    sent.(j') <- t.fl_sent.(j)
  done;
  t.fl_item <- item;
  t.fl_payload <- payload;
  t.fl_sent <- sent

(* Double the send-queue arrays, unwrapping the ring to start at 0. *)
let q_grow t =
  let old = Array.length t.q_item in
  let cap = Int.max 8 (2 * old) in
  let item = Array.make cap vacant in
  let payload = Array.make cap 0 and enq = Array.make cap 0 in
  for i = 0 to t.q_len - 1 do
    let j = (t.q_head + i) land (old - 1) in
    item.(i) <- t.q_item.(j);
    payload.(i) <- t.q_payload.(j);
    enq.(i) <- t.q_enq.(j)
  done;
  t.q_item <- item;
  t.q_payload <- payload;
  t.q_enq <- enq;
  t.q_head <- 0

(* Drop the queue's head entry (its fields already read). *)
let q_drop_head t =
  t.q_item.(t.q_head) <- vacant;
  t.q_head <- (t.q_head + 1) land (Array.length t.q_item - 1);
  t.q_len <- t.q_len - 1

(* Flow events share one track per flow so chrome://tracing shows each
   flow as its own lane. *)
let span t ~now ?(args = []) name =
  if String.length t.track = 0 then t.track <- "flow " ^ label t;
  Sim.Span.emit t.lp ~cat:"pony" ~track:t.track ~args ~start:now name

let key t = t.fkey
let version t = t.ver
let pending t = t.q_len + Queue.length t.retx
let in_flight t = t.flight_len

let effective_window t = Int.min max_flight (Int.max 0 t.peer_wnd)

(* A quenched idle flow (zero window, empty flight, data waiting) may
   send one probe packet after an idle interval; the probe's ack
   carries the peer's current window and reopens the flow. *)
let zw_probe_due t ~now =
  effective_window t = 0
  && t.flight_len = 0
  && t.q_len > 0
  && Time.sub now t.wnd_update_at >= zero_window_probe_interval

let ready_to_emit t ~now =
  (not (Queue.is_empty t.retx))
  || (t.q_len > 0
     && now >= t.next_release
     && (t.flight_len < effective_window t || zw_probe_due t ~now))

(* -- Engine membership ---------------------------------------------------- *)

let is_idle t =
  t.q_len = 0 && Queue.is_empty t.retx && t.flight_len = 0 && not t.owe_ack

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
  if t.q_len = Array.length t.q_item then q_grow t;
  let j = (t.q_head + t.q_len) land (Array.length t.q_item - 1) in
  t.q_item.(j) <- item;
  t.q_payload.(j) <- payload_bytes;
  t.q_enq.(j) <- Loop.now t.lp;
  t.q_len <- t.q_len + 1;
  note_active t

(* Age of the oldest queued (unsent) item: the transmit-side component
   of the engine's queueing-delay load signal (§2.4).  Only the
   CPU-bottlenecked portion counts: time spent waiting for the rate
   pacer (or the flight window) is congestion control at work, not CPU
   starvation, so the age is measured from the moment the pacer would
   have allowed the send. *)
let queue_age t ~now =
  if t.q_len = 0 || t.flight_len >= max_flight then 0
  else Time.max 0 (Time.sub now (Time.max t.q_enq.(t.q_head) t.next_release))

let item_wire item payload = Wire.header_bytes + Wire.item_wire_bytes item + payload

(* The record is built directly: [Packet.make]'s optional arguments
   would box three ints per packet. *)
let build_packet t ~now ~gen ~seq ~item ~payload =
  {
    Packet.id = Packet.Id_gen.next gen;
    src = t.fkey.Wire.src_host;
    dst = t.fkey.Wire.dst_host;
    flow_hash = t.f_hash;
    qos = 1;
    wire_bytes = item_wire item payload;
    payload_bytes = payload;
    payload =
      Wire.Pony
        {
          flow = t.fkey;
          seq;
          ack = t.rcv_cum;
          wnd = Int.max 0 (t.wnd_provider ());
          ts = now;
          ts_echo = t.latest_rx_ts;
          version = t.ver;
          inc = t.f_inc;
          item;
        };
    sent_at = 0;
    corrupted = false;
  }

let advance_pacer t ~now wire_bytes =
  t.next_release <-
    Time.add (Time.max now t.next_release) (Timely.pacing_gap t.timely wire_bytes)

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

let rec transmit t ~now ~gen =
  (* Retransmissions go first and bypass the window check (their slots
     are already accounted in the flight). *)
  if not (Queue.is_empty t.retx) then begin
    let seq = Queue.take t.retx in
    if seq < t.last_ack_seen then
      (* Acked while queued for retransmission: skip it. *)
      transmit t ~now ~gen
    else begin
      let j = fl_slot t seq in
      let item = t.fl_item.(j) in
      t.fl_sent.(j) <- now;
      t.owe_ack <- false;
      let pkt = build_packet t ~now ~gen ~seq ~item ~payload:t.fl_payload.(j) in
      advance_pacer t ~now pkt.Packet.wire_bytes;
      if Sim.Span.enabled () then
        span t ~now ~args:[ ("seq", string_of_int seq) ] "retx";
      op_stall t item Sim.Optrace.Retx;
      pkt
    end
  end
  else begin
    let probe = zw_probe_due t ~now in
    if
      t.q_len = 0
      || now < t.next_release
      || (t.flight_len >= effective_window t && not probe)
    then Packet.none
    else begin
      if probe then begin
        t.n_zw_probes <- t.n_zw_probes + 1;
        (* Restart the idle clock so at most one probe is in flight per
           interval even if the probe itself is lost. *)
        t.wnd_update_at <- now;
        if Sim.Span.enabled () then span t ~now "zw_probe"
      end;
      let item = t.q_item.(t.q_head) and payload = t.q_payload.(t.q_head) in
      q_drop_head t;
      if probe then op_stall t item Sim.Optrace.Zero_window;
      op_first_tx t item;
      let seq = t.snd_nxt in
      if t.flight_len = Array.length t.fl_item then fl_grow t;
      let j = fl_slot t seq in
      t.fl_item.(j) <- item;
      t.fl_payload.(j) <- payload;
      t.fl_sent.(j) <- now;
      t.snd_nxt <- seq + 1;
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
                   (label t) t.flight_len (effective_window t))));
      let pkt = build_packet t ~now ~gen ~seq ~item ~payload in
      advance_pacer t ~now pkt.Packet.wire_bytes;
      if Sim.Span.enabled () then
        span t ~now ~args:[ ("seq", string_of_int seq) ] "tx";
      pkt
    end
  end

let emit t ~now ~gen =
  let pkt = transmit t ~now ~gen in
  if pkt == Packet.none then None else Some pkt

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
  let count = Int.min n t.flight_len in
  let una = fl_una t in
  for i = 0 to count - 1 do
    t.n_retx <- t.n_retx + 1;
    Queue.add (una + i) t.retx
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
      let r = t.rtt in
      r.srtt_ns <-
        (if r.srtt_ns = 0.0 then float_of_int rtt
         else (0.875 *. r.srtt_ns) +. (0.125 *. float_of_int rtt));
      t.rto <- Time.max min_rto (int_of_float (3.0 *. r.srtt_ns))
    end
  end

let process_ack t ~now ~ack ~ts_echo ~pure =
  sample_rtt t ~now ~ts_echo;
  if t.flight_len > 0 then begin
    if ack > t.last_ack_seen then begin
      t.last_ack_seen <- ack;
      t.dup_acks <- 0;
      (* The flight holds contiguous ascending seqs, so a cumulative
         ack always strips a prefix.  Slots are reset to [vacant] so
         acked wire items are not retained. *)
      while t.flight_len > 0 && fl_una t < ack do
        t.fl_item.(fl_slot t (fl_una t)) <- vacant;
        t.flight_len <- t.flight_len - 1
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
let rec absorb_ooo t =
  match t.rcv_ooo with
  | s :: rest when s = t.rcv_cum ->
      t.rcv_cum <- t.rcv_cum + 1;
      t.rcv_ooo <- rest;
      absorb_ooo t
  | s :: rest when s < t.rcv_cum ->
      t.rcv_ooo <- rest;
      absorb_ooo t
  | _ -> ()

let receive t ~now pkt =
  match pkt.Packet.payload with
  | Wire.Pony { flow = _; seq; ack; wnd; ts; ts_echo; version = _; inc = _; item }
    -> (
      t.peer_wnd <- wnd;
      t.wnd_update_at <- now;
      process_ack t ~now ~ack ~ts_echo
        ~pure:(match item with Wire.Bare_ack -> true | _ -> false);
      match item with
      | Wire.Bare_ack -> Wire.Bare_ack
      | _ ->
          if seq < t.rcv_cum || List.mem seq t.rcv_ooo then begin
            (* Duplicate: re-ack so the sender advances. *)
            t.owe_ack <- true;
            note_active t;
            Wire.Bare_ack
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
            item
          end)
  | _ -> Wire.Bare_ack

let on_receive t ~now pkt =
  match receive t ~now pkt with Wire.Bare_ack -> None | item -> Some item

let next_deadline t =
  let pace =
    if t.q_len = 0 && Queue.is_empty t.retx then max_int
    else if effective_window t = 0 && t.flight_len = 0 && Queue.is_empty t.retx
    then
      (* Quenched: the next useful service time is the window probe,
         not the pacer release.  Without this the engine timer never
         fires and a zero window livelocks an otherwise idle flow. *)
      Time.max t.next_release
        (Time.add t.wnd_update_at zero_window_probe_interval)
    else t.next_release
  in
  if t.flight_len = 0 then pace
  else Time.min pace (Time.add t.fl_sent.(fl_slot t (fl_una t)) t.rto)

let check_timeout t ~now =
  if t.flight_len = 0 then 0
  else
    let una = fl_una t in
    let j = fl_slot t una in
      if Time.sub now t.fl_sent.(j) >= t.rto && Queue.is_empty t.retx then begin
        let n = schedule_retransmit t gbn_window in
        if Sim.Span.enabled () then
          span t ~now
            ~args:
              [ ("n", string_of_int n); ("seq", string_of_int una) ]
            "rto_gbn";
        op_stall t t.fl_item.(j) Sim.Optrace.Rto;
        Timely.on_loss t.timely;
        (* Back off the timer so a stalled peer is not hammered. *)
        t.rto <- Time.min (Time.ms 50) (2 * t.rto);
        n
      end
      else 0

let retransmits t = t.n_retx
let delivered t = t.n_delivered

let set_window_provider t f = t.wnd_provider <- f
let zero_window_probes t = t.n_zw_probes

let purge_queue t ~drop =
  (* Remove not-yet-sent items the upper layer no longer wants (ops for
     a dead connection).  Flight and retransmission entries are left
     alone: removing them would punch holes in the go-back-N sequence
     space. *)
  let n = t.q_len in
  let mask = Array.length t.q_item - 1 in
  let kept = ref 0 in
  for i = 0 to n - 1 do
    let j = (t.q_head + i) land mask in
    let item = t.q_item.(j) in
    if not (drop item) then begin
      (* Compact in place: the kept entry moves to the [kept]-th slot,
         never ahead of one not yet read. *)
      let k = (t.q_head + !kept) land mask in
      t.q_item.(k) <- item;
      t.q_payload.(k) <- t.q_payload.(j);
      t.q_enq.(k) <- t.q_enq.(j);
      incr kept
    end
  done;
  for i = !kept to n - 1 do
    t.q_item.((t.q_head + i) land mask) <- vacant
  done;
  t.q_len <- !kept
