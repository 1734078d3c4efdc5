(* Per-op latency attribution.

   One record per Pony Express op, keyed by (origin host, origin
   client, peer, conn session, direction, op id) — enough to name an op
   uniquely across hosts and across reconnects.  Layers stamp stage
   transitions; each stamp charges the time since the previous stamp to
   the stage being entered and advances a cursor, so the charged
   durations of a completed op telescope to exactly [r_end - r_start].
   That equality is the conservation invariant: it is checked eagerly
   when an op finishes and the first failure is held for the checker.

   Shapes follow [Span]: capture globally off behind one bool, bounded
   storage, drop-oldest, no wall clock, no randomness. *)

type key = {
  k_origin : int;
  k_origin_client : int;
  k_peer : int;
  k_session : int;
  k_origin_init : bool;
  k_op : int;
}

type stage =
  | Submitted
  | Admitted
  | Dequeued
  | Credit
  | First_tx
  | Rx_first
  | Rx_done
  | Delivered
  | Completed

type stall = Retx | Rto | Zero_window

let n_stages = 9

let stage_index = function
  | Submitted -> 0
  | Admitted -> 1
  | Dequeued -> 2
  | Credit -> 3
  | First_tx -> 4
  | Rx_first -> 5
  | Rx_done -> 6
  | Delivered -> 7
  | Completed -> 8

let stage_of_index = function
  | 0 -> Submitted
  | 1 -> Admitted
  | 2 -> Dequeued
  | 3 -> Credit
  | 4 -> First_tx
  | 5 -> Rx_first
  | 6 -> Rx_done
  | 7 -> Delivered
  | 8 -> Completed
  | i -> invalid_arg (Printf.sprintf "Optrace.stage_of_index: %d" i)

let stage_name = function
  | Submitted -> "submitted"
  | Admitted -> "admitted"
  | Dequeued -> "dequeued"
  | Credit -> "credit"
  | First_tx -> "first_tx"
  | Rx_first -> "rx_first"
  | Rx_done -> "rx_done"
  | Delivered -> "delivered"
  | Completed -> "completed"

type record = {
  r_key : key;
  r_kind : string;
  r_bytes : int;
  r_start : Time.t;
  mutable r_end : Time.t;
  mutable r_status : string;
  durs : int array;
  stamps : Time.t array;
  mutable r_last : Time.t;
  mutable r_retx : int;
  mutable r_rto : int;
  mutable r_zw : int;
  r_seq : int;
}

type state = {
  inflight : (key, record) Hashtbl.t;
  (* Start order of in-flight keys (with their seq), so over-cap
     eviction finds the oldest without scanning the table. *)
  order : (key * int) Queue.t;
  ring : record Queue.t;
  cap : int;
  mutable n_dropped : int;
  mutable next_seq : int;
  mutable violation : string option;
}

let state : state option ref = ref None
let active = ref false
let sink : (int -> int -> unit) option ref = ref None

let enabled () = !active
let set_stage_sink f = sink := f

let set_capture = function
  | None ->
      active := false;
      state := None
  | Some cap ->
      if cap <= 0 then invalid_arg "Optrace.set_capture: capacity";
      active := true;
      state :=
        Some
          {
            inflight = Hashtbl.create (Int.min cap 1024);
            order = Queue.create ();
            ring = Queue.create ();
            cap;
            n_dropped = 0;
            next_seq = 0;
            violation = None;
          }

let clear () =
  match !state with
  | None -> ()
  | Some s ->
      Hashtbl.reset s.inflight;
      Queue.clear s.order;
      Queue.clear s.ring;
      s.n_dropped <- 0;
      s.next_seq <- 0;
      s.violation <- None

let in_flight () =
  match !state with None -> 0 | Some s -> Hashtbl.length s.inflight

let completed () =
  match !state with None -> [] | Some s -> List.of_seq (Queue.to_seq s.ring)

let dropped () = match !state with None -> 0 | Some s -> s.n_dropped
let conservation_error () = match !state with None -> None | Some s -> s.violation

let pp_key buf k =
  Printf.bprintf buf "%d.%d->%d s%d%s #%d" k.k_origin k.k_origin_client
    k.k_peer k.k_session
    (if k.k_origin_init then "i" else "t")
    k.k_op

let key_string k =
  let buf = Buffer.create 32 in
  pp_key buf k;
  Buffer.contents buf

(* Evict the oldest in-flight record while the table is over capacity.
   Queue entries for records that already finished are skipped by
   comparing sequence numbers. *)
let evict_over_cap s =
  while Hashtbl.length s.inflight > s.cap && not (Queue.is_empty s.order) do
    let k, seq = Queue.take s.order in
    match Hashtbl.find_opt s.inflight k with
    | Some r when r.r_seq = seq ->
        Hashtbl.remove s.inflight k;
        s.n_dropped <- s.n_dropped + 1
    | _ -> ()
  done

let start loop key ~kind ~bytes =
  match !state with
  | None -> ()
  | Some s ->
      if not (Hashtbl.mem s.inflight key) then begin
        let now = Loop.now loop in
        let r =
          {
            r_key = key;
            r_kind = kind;
            r_bytes = bytes;
            r_start = now;
            r_end = -1;
            r_status = "";
            durs = Array.make n_stages 0;
            stamps = Array.make n_stages (-1);
            r_last = now;
            r_retx = 0;
            r_rto = 0;
            r_zw = 0;
            r_seq = s.next_seq;
          }
        in
        s.next_seq <- s.next_seq + 1;
        r.stamps.(stage_index Submitted) <- now;
        Hashtbl.replace s.inflight key r;
        Queue.add (key, r.r_seq) s.order;
        evict_over_cap s
      end

let charge_stage r si ~charge now =
  if r.stamps.(si) < 0 then begin
    r.stamps.(si) <- now;
    let d = now - r.r_last in
    r.r_last <- now;
    if charge then begin
      r.durs.(si) <- r.durs.(si) + d;
      match !sink with None -> () | Some f -> f si d
    end
  end

let stamp loop ?(charge = true) key stage =
  match !state with
  | None -> ()
  | Some s -> (
      match Hashtbl.find_opt s.inflight key with
      | None -> ()
      | Some r ->
          let now = Loop.now loop in
          let si = stage_index stage in
          let fresh = r.stamps.(si) < 0 in
          charge_stage r si ~charge now;
          (* First transmission: open the cross-host flow arrow on the
             origin's op track.  The zero-length span anchors it. *)
          if fresh && stage = First_tx && Span.enabled () then begin
            let track = Printf.sprintf "host%d ops" key.k_origin in
            let name = key_string key in
            Span.emit loop ~cat:"op" ~track ~dur:0 name;
            Span.emit_flow loop ~cat:"op" ~track ~id:r.r_seq ~first:true name
          end)

let stall key which =
  match !state with
  | None -> ()
  | Some s -> (
      match Hashtbl.find_opt s.inflight key with
      | None -> ()
      | Some r -> (
          match which with
          | Retx -> r.r_retx <- r.r_retx + 1
          | Rto -> r.r_rto <- r.r_rto + 1
          | Zero_window -> r.r_zw <- r.r_zw + 1))

let finish loop key ~host ~status =
  match !state with
  | None -> ()
  | Some s -> (
      match Hashtbl.find_opt s.inflight key with
      | None -> ()
      | Some r ->
          let now = Loop.now loop in
          charge_stage r (stage_index Completed) ~charge:true now;
          r.r_end <- now;
          r.r_status <- status;
          Hashtbl.remove s.inflight key;
          Queue.add r s.ring;
          if Queue.length s.ring > s.cap then begin
            ignore (Queue.take s.ring);
            s.n_dropped <- s.n_dropped + 1
          end;
          (* Conservation: charged stage time must equal end-to-end
             latency.  Checked here, once per op, so the invariant
             predicate is a field read. *)
          (if s.violation = None then
             let total = Array.fold_left ( + ) 0 r.durs in
             if total <> r.r_end - r.r_start then
               s.violation <-
                 Some
                   (Printf.sprintf
                      "op %s: stage durations sum to %dns, end-to-end %dns"
                      (key_string r.r_key) total (r.r_end - r.r_start)));
          (* Close the flow arrow where the op finished. *)
          if r.stamps.(stage_index First_tx) >= 0 && Span.enabled () then begin
            let track = Printf.sprintf "host%d ops" host in
            let name = key_string key in
            Span.emit loop ~cat:"op" ~track ~dur:0 name;
            Span.emit_flow loop ~cat:"op" ~track ~id:r.r_seq ~first:false name
          end)

let iter_in_flight f =
  match !state with
  | None -> ()
  | Some s ->
      let all = Hashtbl.fold (fun _ r acc -> r :: acc) s.inflight [] in
      let all = List.sort (fun a b -> compare a.r_seq b.r_seq) all in
      List.iter f all

(* -- Slowest-op exemplar export ----------------------------------------- *)

let slow_ops_json ?(k = 32) () =
  let lat r = r.r_end - r.r_start in
  let slowest =
    List.sort
      (fun a b ->
        match compare (lat b) (lat a) with
        | 0 -> compare a.r_seq b.r_seq
        | c -> c)
      (completed ())
  in
  let slowest = List.filteri (fun i _ -> i < k) slowest in
  let buf = Buffer.create 4096 in
  Printf.bprintf buf
    "{\"completed\":%d,\"dropped\":%d,\"in_flight\":%d,\"slow_ops\":["
    (List.length (completed ()))
    (dropped ()) (in_flight ());
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf
        "{\"op\":\"%s\",\"kind\":\"%s\",\"bytes\":%d,\"status\":\"%s\",\
         \"start_ns\":%d,\"end_ns\":%d,\"latency_ns\":%d,\"retx\":%d,\
         \"rto\":%d,\"zero_window\":%d,\"stages\":["
        (key_string r.r_key) r.r_kind r.r_bytes r.r_status r.r_start r.r_end
        (lat r) r.r_retx r.r_rto r.r_zw;
      let first = ref true in
      for si = 0 to n_stages - 1 do
        if r.stamps.(si) >= 0 then begin
          if !first then first := false else Buffer.add_char buf ',';
          Printf.bprintf buf "{\"stage\":\"%s\",\"at_ns\":%d,\"dur_ns\":%d}"
            (stage_name (stage_of_index si))
            r.stamps.(si) r.durs.(si)
        end
      done;
      Buffer.add_string buf "]}")
    slowest;
  Buffer.add_string buf "]}\n";
  Buffer.contents buf
