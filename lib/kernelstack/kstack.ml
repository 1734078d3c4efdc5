module Time = Sim.Time
module Loop = Sim.Loop
module Packet = Memory.Packet

type seg_kind = Syn | Syn_ack | Data | Pure_ack

type Packet.payload +=
  | Tcp of {
      src_port : int;
      dst_port : int;
      kind : seg_kind;
      seq : int;  (** First byte sequence number for [Data]. *)
      len : int;  (** Payload bytes for [Data]; 0 otherwise. *)
      ack : int;  (** Cumulative acknowledgement (piggybacked on data). *)
      wnd : int;  (** Advertised receive window, bytes. *)
    }

(* Ethernet + IPv4 + TCP with timestamps. *)
let header_bytes = 66
let snd_buf_cap = 4 * 1024 * 1024
let rcv_buf_cap = 6 * 1024 * 1024
let initial_cwnd = 10.0
let min_rto = Time.ms 5
let max_rto = Time.ms 200
let softirq_budget = 16

type sock_state = Syn_sent | Established

type in_flight = { seq : int; len : int; mutable sent_at : Time.t }

type socket = {
  stack : t;
  local_port : int;
  peer_addr : Packet.addr;
  mutable peer_port : int;
  mutable state : sock_state;
  (* Send side. *)
  mutable snd_queued : int;
  mutable snd_nxt : int;
  mutable snd_una : int;
  mutable flight : in_flight list;  (* ascending seq *)
  mutable cwnd : float;
  mutable ssthresh : float;
  mutable dupacks : int;
  mutable recover : int;  (* NewReno: highest seq outstanding when loss was detected *)
  mutable peer_wnd : int;
  mutable srtt : float;
  mutable rttvar : float;
  mutable rto : Time.t;
  mutable rto_handle : Loop.handle option;
  mutable writer : Cpu.Sched.task option;
  mutable connecter : Cpu.Sched.task option;
  (* Receive side. *)
  mutable rcv_nxt : int;
  mutable ooo : (int * int) list;  (* disjoint, ascending *)
  mutable rx_avail : int;
  mutable reader : Cpu.Sched.task option;
  (* Stats. *)
}

and t = {
  lp : Loop.t;
  mach : Cpu.Sched.machine;
  nic : Nic.t;
  busy_poll : bool;
  conns : (int * Packet.addr * int, socket) Hashtbl.t;
  listeners : (int, socket -> unit) Hashtbl.t;
  mutable next_port : int;
  mutable n_established : int;
  gen : Packet.Id_gen.t;
  (* Sockets with queued data that could not transmit (NIC ring full). *)
  pending_push : socket Queue.t;
  (* Busy-poll mode: tasks parked waiting for network progress. *)
  mutable pollers : Cpu.Sched.task list;
  (* Tasks woken on the next activity edge: any socket becoming
     readable or writable. *)
  mutable epoll_waiters : Cpu.Sched.task list;
}

(* How one unit of protocol work is paid for: in the calling thread
   (syscall or busy-poll context) or accumulated for a softirq charge. *)
type charge = App of Cpu.Thread.ctx | Softirq of int ref

let pay chg ns =
  match chg with
  | App ctx -> Cpu.Thread.compute ctx ns
  | Softirq acc -> acc := !acc + ns

let addr t = Nic.addr t.nic
let costs = Sim.Costs.default
let mss t = Nic.mtu t.nic - header_bytes

(* Per-packet cost multiplier from cache/locality degradation with many
   simultaneously active connections (Table 1). *)
let locality_mult t =
  1.0
  +. costs.Sim.Costs.tcp_locality_factor
     *. Float.max 0.0 (log (float_of_int (Int.max 1 t.n_established)))

let scaled t base = Time.scale base (locality_mult t)

let tx_cost t = scaled t costs.Sim.Costs.tcp_tx_per_packet
let rx_cost t = scaled t costs.Sim.Costs.tcp_rx_per_packet

(* Control segments (pure ACK, SYN) are cheaper than full data-path
   processing. *)
let rx_ctl_cost t = Time.scale (rx_cost t) 0.4

let copy_cost bytes =
  Time.ns
    (int_of_float
       (Float.round (costs.Sim.Costs.tcp_copy_per_byte_ns *. float_of_int bytes)))

let in_flight_bytes sock =
  List.fold_left (fun acc f -> acc + f.len) 0 sock.flight

let rcv_window sock = Int.max 0 (rcv_buf_cap - sock.rx_avail)

let send_segment sock ~kind ~seq ~len =
  let t = sock.stack in
  let wire = header_bytes + len in
  let pkt =
    Packet.make
      ~id:(Packet.Id_gen.next t.gen)
      ~src:(addr t) ~dst:sock.peer_addr
      ~flow_hash:(Hashtbl.hash (sock.local_port, sock.peer_addr, sock.peer_port))
      ~qos:2 ~wire_bytes:wire ~payload_bytes:len
      (Tcp
         {
           src_port = sock.local_port;
           dst_port = sock.peer_port;
           kind;
           seq;
           len;
           ack = sock.rcv_nxt;
           wnd = rcv_window sock;
         })
      ()
  in
  Nic.try_transmit t.nic pkt

(* -- Retransmission ---------------------------------------------------- *)

let cancel_rto sock =
  match sock.rto_handle with
  | Some h ->
      Loop.cancel sock.stack.lp h;
      sock.rto_handle <- None
  | None -> ()

let rec arm_rto sock =
  cancel_rto sock;
  if sock.flight <> [] then
    sock.rto_handle <-
      Some
        (Loop.after sock.stack.lp sock.rto (fun () ->
             sock.rto_handle <- None;
             on_rto sock))

and on_rto sock =
  match sock.flight with
  | [] -> ()
  | flight ->
      sock.ssthresh <- Float.max 2.0 (sock.cwnd /. 2.0);
      sock.cwnd <- 1.0;
      sock.dupacks <- 0;
      sock.recover <- sock.snd_nxt;
      sock.rto <- Time.min max_rto (2 * sock.rto);
      (* Go-back-N: without SACK, a timeout retransmits the outstanding
         window (bounded), not just the head, so burst losses recover in
         one round trip instead of one RTO each. *)
      let now = Loop.now sock.stack.lp in
      List.iteri
        (fun i f ->
          if i < 16 then begin
            f.sent_at <- now;
            ignore (send_segment sock ~kind:Data ~seq:f.seq ~len:f.len)
          end)
        flight;
      arm_rto sock

let retransmit_head sock =
  match sock.flight with
  | [] -> ()
  | head :: _ ->
      head.sent_at <- Loop.now sock.stack.lp;
      ignore (send_segment sock ~kind:Data ~seq:head.seq ~len:head.len)

(* NewReno entry on the third duplicate ACK. *)
let fast_retransmit sock =
  if sock.snd_una >= sock.recover then begin
    sock.ssthresh <- Float.max 2.0 (sock.cwnd /. 2.0);
    sock.cwnd <- sock.ssthresh;
    sock.recover <- sock.snd_nxt;
    retransmit_head sock
  end

(* -- Transmit path ----------------------------------------------------- *)

let bump_activity t =
  match t.epoll_waiters with
  | [] -> ()
  | waiters ->
      t.epoll_waiters <- [];
      List.iter Cpu.Sched.wake waiters


(* Segment as much queued data as congestion and flow control allow,
   paying per-packet cost in the given context. *)
let rec push_out sock chg =
  let t = sock.stack in
  let m = mss t in
  let progressed = ref false in
  let continue = ref true in
  while !continue do
    let fl_bytes = in_flight_bytes sock in
    let fl_segs = List.length sock.flight in
    if
      sock.snd_queued > 0
      && float_of_int fl_segs < sock.cwnd
      && fl_bytes + m <= Int.max m sock.peer_wnd
      && Nic.tx_slots_free t.nic > 0
    then begin
      pay chg (tx_cost t);
      (* Paying in app context suspends the thread, and a softirq may
         have transmitted for this socket meanwhile: re-read the state
         before committing to a segment. *)
      let len = Int.min m sock.snd_queued in
      if
        len > 0
        && float_of_int (List.length sock.flight) < sock.cwnd
        && Nic.tx_slots_free t.nic > 0
        && send_segment sock ~kind:Data ~seq:sock.snd_nxt ~len
      then begin
        sock.flight <-
          sock.flight @ [ { seq = sock.snd_nxt; len; sent_at = Loop.now t.lp } ];
        sock.snd_nxt <- sock.snd_nxt + len;
        sock.snd_queued <- sock.snd_queued - len;
        progressed := true
      end
      else continue := false
    end
    else continue := false
  done;
  if !progressed then arm_rto sock;
  (* If data remains purely because the NIC ring was full, retry when a
     slot frees. *)
  if
    sock.snd_queued > 0
    && float_of_int (List.length sock.flight) < sock.cwnd
    && Nic.tx_slots_free t.nic = 0
  then Queue.add sock t.pending_push;
  (* Writers blocked on a full send buffer can make progress once the
     queue drains below capacity. *)
  if sock.snd_queued < snd_buf_cap then begin
    bump_activity t;
    match sock.writer with
    | Some task ->
        sock.writer <- None;
        Cpu.Sched.wake task
    | None -> ()
  end

and service_pending_charged t acc =
  let n = Queue.length t.pending_push in
  for _ = 1 to n do
    match Queue.take_opt t.pending_push with
    | Some sock -> push_out sock (Softirq acc)
    | None -> ()
  done

and service_pending t =
  let acc = ref 0 in
  service_pending_charged t acc;
  Cpu.Sched.softirq_charge t.mach !acc

(* -- Receive path ------------------------------------------------------ *)

let wake_reader sock =
  bump_activity sock.stack;
  match sock.reader with
  | Some task ->
      sock.reader <- None;
      Cpu.Sched.wake task
  | None -> ()

(* Insert an out-of-order segment, keeping the list disjoint and sorted;
   overlapping duplicates are ignored wholesale (a simplification: real
   TCP trims, but our senders retransmit whole segments). *)
let insert_ooo sock seq len =
  let overlaps (s, l) = not (seq + len <= s || s + l <= seq) in
  if not (List.exists overlaps sock.ooo) then
    sock.ooo <-
      List.sort (fun (a, _) (b, _) -> compare a b) ((seq, len) :: sock.ooo)

(* Advance rcv_nxt over any now-contiguous out-of-order data. *)
let absorb_ooo sock =
  let rec go () =
    match sock.ooo with
    | (s, l) :: rest when s <= sock.rcv_nxt ->
        let advance = Int.max 0 (s + l - sock.rcv_nxt) in
        sock.rcv_nxt <- sock.rcv_nxt + advance;
        sock.rx_avail <- sock.rx_avail + advance;
        sock.ooo <- rest;
        go ()
    | _ -> ()
  in
  go ()

let sample_rtt sock sent_at =
  let rtt = float_of_int (Time.sub (Loop.now sock.stack.lp) sent_at) in
  if sock.srtt = 0.0 then begin
    sock.srtt <- rtt;
    sock.rttvar <- rtt /. 2.0
  end
  else begin
    sock.rttvar <-
      (0.75 *. sock.rttvar) +. (0.25 *. Float.abs (sock.srtt -. rtt));
    sock.srtt <- (0.875 *. sock.srtt) +. (0.125 *. rtt)
  end;
  let rto = int_of_float (sock.srtt +. (4.0 *. sock.rttvar)) in
  sock.rto <- Time.min max_rto (Time.max min_rto rto)

let process_ack sock ~ack ~wnd chg =
  sock.peer_wnd <- wnd;
  if ack > sock.snd_una then begin
    let acked_bytes = ack - sock.snd_una in
    let acked_segs = ref 0 in
    let rec strip = function
      | f :: rest when f.seq + f.len <= ack ->
          incr acked_segs;
          sample_rtt sock f.sent_at;
          strip rest
      | rest -> rest
    in
    sock.flight <- strip sock.flight;
    sock.snd_una <- ack;
    sock.dupacks <- 0;
    ignore acked_bytes;
    if ack < sock.recover then
      (* NewReno partial ack: another segment from the same loss window
         is missing; retransmit it immediately. *)
      retransmit_head sock
    else begin
      (* Congestion window growth: slow start then AIMD. *)
      let segs = float_of_int !acked_segs in
      if sock.cwnd < sock.ssthresh then sock.cwnd <- sock.cwnd +. segs
      else sock.cwnd <- sock.cwnd +. (segs /. sock.cwnd)
    end;
    arm_rto sock;
    push_out sock chg
  end
  else if sock.flight <> [] && ack = sock.snd_una then begin
    sock.dupacks <- sock.dupacks + 1;
    if sock.dupacks = 3 then fast_retransmit sock
  end

let rec handle_segment t pkt chg =
  match pkt.Packet.payload with
  | Tcp seg -> (
      let key = (seg.dst_port, pkt.Packet.src, seg.src_port) in
      match seg.kind with
      | Syn -> (
          match Hashtbl.find_opt t.listeners seg.dst_port with
          | None -> pay chg (rx_ctl_cost t)
          | Some on_accept ->
              pay chg (rx_ctl_cost t);
              if not (Hashtbl.mem t.conns key) then begin
                let sock = make_socket t ~local_port:seg.dst_port
                    ~peer_addr:pkt.Packet.src ~peer_port:seg.src_port in
                sock.state <- Established;
                Hashtbl.replace t.conns key sock;
                t.n_established <- t.n_established + 1;
                ignore (send_segment sock ~kind:Syn_ack ~seq:0 ~len:0);
                on_accept sock
              end)
      | Syn_ack -> (
          match Hashtbl.find_opt t.conns key with
          | None -> pay chg (rx_ctl_cost t)
          | Some sock ->
              pay chg (rx_ctl_cost t);
              if sock.state = Syn_sent then begin
                sock.state <- Established;
                sock.peer_wnd <- seg.wnd;
                t.n_established <- t.n_established + 1;
                ignore (send_segment sock ~kind:Pure_ack ~seq:0 ~len:0);
                match sock.connecter with
                | Some task ->
                    sock.connecter <- None;
                    Cpu.Sched.wake task
                | None -> ()
              end)
      | Pure_ack -> (
          match Hashtbl.find_opt t.conns key with
          | None -> pay chg (rx_ctl_cost t)
          | Some sock ->
              pay chg (rx_ctl_cost t);
              process_ack sock ~ack:seg.ack ~wnd:seg.wnd chg)
      | Data -> (
          match Hashtbl.find_opt t.conns key with
          | None -> pay chg (rx_ctl_cost t)
          | Some sock ->
              pay chg (rx_cost t);
              process_ack sock ~ack:seg.ack ~wnd:seg.wnd chg;
              let advanced = ref false in
              if seg.seq = sock.rcv_nxt then begin
                if sock.rx_avail + seg.len <= rcv_buf_cap then begin
                  sock.rcv_nxt <- sock.rcv_nxt + seg.len;
                  sock.rx_avail <- sock.rx_avail + seg.len;
                  absorb_ooo sock;
                  advanced := true
                end
              end
              else if seg.seq > sock.rcv_nxt then insert_ooo sock seg.seq seg.len;
              (* Immediate ACK per segment. *)
              pay chg (Time.scale (tx_cost t) 0.4);
              ignore (send_segment sock ~kind:Pure_ack ~seq:0 ~len:0);
              if !advanced then wake_reader sock))
  | _ -> ()

and make_socket t ~local_port ~peer_addr ~peer_port =
  {
    stack = t;
    local_port;
    peer_addr;
    peer_port;
    state = Syn_sent;
    snd_queued = 0;
    snd_nxt = 0;
    snd_una = 0;
    flight = [];
    cwnd = initial_cwnd;
    ssthresh = 1e9;
    dupacks = 0;
    recover = 0;
    peer_wnd = rcv_buf_cap;
    srtt = 0.0;
    rttvar = 0.0;
    rto = Time.ms 10;
    rto_handle = None;
    writer = None;
    connecter = None;
    rcv_nxt = 0;
    ooo = [];
    rx_avail = 0;
    reader = None;
  }

(* -- Softirq / busy-poll ring processing -------------------------------- *)

let process_ring t qi chg =
  let ring = Nic.rx_ring t.nic ~queue:qi in
  let n = ref 0 in
  let continue = ref true in
  while !continue && !n < softirq_budget do
    match Squeue.Spsc.pop ring with
    | Some pkt ->
        incr n;
        handle_segment t pkt chg
    | None -> continue := false
  done;
  !n

(* NAPI-style kernel receive processing: a real scheduled task so that
   protocol work is rate-limited by CPU, not just accounted.  A worker
   services every rx ring congruent to its index; the NIC interrupt
   wakes it; it polls until all its rings are empty, then re-arms their
   interrupts and sleeps. *)
let spawn_softirq_worker t ~worker ~stride ~queues =
  let step () =
    let acc = ref 0 in
    let n = ref 0 in
    let qi = ref worker in
    while !qi < queues do
      n := !n + process_ring t !qi (Softirq acc);
      qi := !qi + stride
    done;
    service_pending_charged t acc;
    if !n = 0 then begin
      let qi = ref worker in
      while !qi < queues do
        Nic.rearm_rx_interrupt t.nic ~queue:!qi;
        qi := !qi + stride
      done;
      Cpu.Sched.idle
    end
    else Cpu.Sched.ran !acc
  in
  Cpu.Sched.spawn t.mach
    ~name:(Printf.sprintf "ksoftirqd/%d" worker)
    ~account:"softirq"
    ~klass:(Cpu.Sched.Micro_quanta { runtime_pct = 1.0 })
    ~idle:Cpu.Sched.Block ~step

let poll_all_rings_app t ctx =
  let total = ref 0 in
  for qi = 0 to (Nic.config t.nic).Nic.num_rx_queues - 1 do
    total := !total + process_ring t qi (App ctx)
  done;
  service_pending t;
  !total

let kick_pollers t = List.iter Cpu.Sched.kick t.pollers

let park_poller t ctx =
  let task = Cpu.Thread.task ctx in
  if not (List.memq task t.pollers) then t.pollers <- task :: t.pollers;
  Cpu.Thread.wait ctx;
  (* Deregister on resume: while this thread runs (or after it exits),
     notifications must fall back to the softirq path. *)
  t.pollers <- List.filter (fun x -> not (x == task)) t.pollers

(* -- Construction ------------------------------------------------------ *)

let create ~loop ~machine ~nic ?(busy_poll = false) ?(softirq_workers = 1) () =
  if softirq_workers <= 0 then invalid_arg "Kstack.create: softirq_workers";
  let t =
    {
      lp = loop;
      mach = machine;
      nic;
      busy_poll;
      conns = Hashtbl.create 64;
      listeners = Hashtbl.create 8;
      next_port = 10_000;
      n_established = 0;
      gen = Packet.Id_gen.create ();
      pending_push = Queue.create ();
      pollers = [];
      epoll_waiters = [];
    }
  in
  let nq = (Nic.config nic).Nic.num_rx_queues in
  (* RFS-style affinity: transport processing for an application's flows
     stays local to that application's core (see section 3 of the
     paper), so softirq work serializes per worker rather than scaling
     with the number of rx queues.  One worker per application job. *)
  let workers =
    Array.init (Int.min softirq_workers nq) (fun w ->
        spawn_softirq_worker t ~worker:w ~stride:(Int.min softirq_workers nq) ~queues:nq)
  in
  for qi = 0 to nq - 1 do
    let task = workers.(qi mod Array.length workers) in
    if busy_poll then
      (* SO_BUSY_POLL: a parked application thread polls from its own
         context; the softirq task is the fallback when no one polls
         (e.g. before the first accept). *)
      Nic.set_rx_notify nic ~queue:qi
        (Nic.Soft
           (fun () ->
             if t.pollers <> [] then kick_pollers t else Cpu.Sched.wake task))
    else
      Nic.set_rx_notify nic ~queue:qi
        (Nic.Interrupt (fun () -> Cpu.Sched.wake task))
  done;
  Nic.set_tx_drain_hook nic (fun () -> service_pending t);
  t

let listen t ~port ~on_accept = Hashtbl.replace t.listeners port on_accept

let connect ctx t ~dst ~port =
  let local_port = t.next_port in
  t.next_port <- t.next_port + 1;
  let sock = make_socket t ~local_port ~peer_addr:dst ~peer_port:port in
  Hashtbl.replace t.conns (local_port, dst, port) sock;
  Cpu.Thread.syscall ctx costs.Sim.Costs.tcp_per_syscall;
  ignore (send_segment sock ~kind:Syn ~seq:0 ~len:0);
  while sock.state <> Established do
    if t.busy_poll then begin
      ignore (poll_all_rings_app t ctx);
      if sock.state <> Established then park_poller t ctx
    end
    else begin
      sock.connecter <- Some (Cpu.Thread.task ctx);
      Cpu.Thread.wait ctx
    end
  done;
  sock

let send ctx sock ~bytes =
  if bytes <= 0 then invalid_arg "Kstack.send: bytes";
  let t = sock.stack in
  Cpu.Thread.syscall ctx costs.Sim.Costs.tcp_per_syscall;
  (* Block while the send buffer cannot take this write. *)
  while sock.snd_queued + bytes > snd_buf_cap do
    if t.busy_poll then begin
      ignore (poll_all_rings_app t ctx);
      if sock.snd_queued + bytes > snd_buf_cap then park_poller t ctx
    end
    else begin
      sock.writer <- Some (Cpu.Thread.task ctx);
      Cpu.Thread.wait ctx
    end
  done;
  Cpu.Thread.compute ctx (copy_cost bytes);
  sock.snd_queued <- sock.snd_queued + bytes;
  push_out sock (App ctx)

let recv ctx sock ~max =
  if max <= 0 then invalid_arg "Kstack.recv: max";
  let t = sock.stack in
  Cpu.Thread.syscall ctx costs.Sim.Costs.tcp_per_syscall;
  while sock.rx_avail = 0 do
    if t.busy_poll then begin
      ignore (poll_all_rings_app t ctx);
      if sock.rx_avail = 0 then park_poller t ctx
    end
    else begin
      sock.reader <- Some (Cpu.Thread.task ctx);
      Cpu.Thread.wait ctx
    end
  done;
  let n = Int.min max sock.rx_avail in
  sock.rx_avail <- sock.rx_avail - n;
  Cpu.Thread.compute ctx (copy_cost n);
  n

let try_send ctx sock ~bytes =
  if bytes <= 0 then invalid_arg "Kstack.try_send: bytes";
  let t = sock.stack in
  Cpu.Thread.syscall ctx (scaled t costs.Sim.Costs.tcp_per_syscall);
  if sock.snd_queued + bytes > snd_buf_cap then false
  else begin
    Cpu.Thread.compute ctx (copy_cost bytes);
    sock.snd_queued <- sock.snd_queued + bytes;
    push_out sock (App ctx);
    true
  end

let try_recv ctx sock ~max =
  if max <= 0 then invalid_arg "Kstack.try_recv: max";
  let t = sock.stack in
  Cpu.Thread.syscall ctx (scaled t costs.Sim.Costs.tcp_per_syscall);
  if sock.rx_avail = 0 then 0
  else begin
    let n = Int.min max sock.rx_avail in
    sock.rx_avail <- sock.rx_avail - n;
    Cpu.Thread.compute ctx (copy_cost n);
    n
  end

let arm_activity_wake t task =
  if not (List.memq task t.epoll_waiters) then
    t.epoll_waiters <- task :: t.epoll_waiters

let readable sock = sock.rx_avail > 0
let writable sock = sock.snd_queued < snd_buf_cap
