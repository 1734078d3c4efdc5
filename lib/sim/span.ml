(* Virtual-time span tracing.

   Records structured events — engine batches, flow transmissions,
   upgrade phases, fault injections, host and watchdog lifecycle
   decisions — on the virtual clock, for export as Chrome trace-event
   JSON (chrome://tracing or ui.perfetto.dev).

   Capture is off by default and guarded by one mutable bool, so
   instrumented hot paths pay a single load+branch when disabled.  The
   ring is bounded and drops the oldest events first; [dropped] reports
   how many fell off, so exports can say so instead of silently
   truncating.  Everything here is driven by the sim clock — no
   wall-clock reads, no randomness — so same-seed runs capture
   byte-identical traces. *)

type event = {
  ev_name : string;
  ev_cat : string;
  ev_ts : Time.t;
  ev_dur : Time.t option;  (* [None] renders as an instant event *)
  ev_track : string;
  ev_args : (string * string) list;
  ev_flow : (int * bool) option;
      (* flow-event binding: (id, is_start); renders as ph "s"/"f" *)
}

type ring = {
  events : event Queue.t;
  cap : int;
  mutable n_dropped : int;
}

let ring : ring option ref = ref None
let active = ref false

let enabled () = !active

let set_capture = function
  | None ->
      active := false;
      ring := None
  | Some cap ->
      if cap <= 0 then invalid_arg "Span.set_capture: capacity";
      active := true;
      ring := Some { events = Queue.create (); cap; n_dropped = 0 }

let events () =
  match !ring with None -> [] | Some r -> List.of_seq (Queue.to_seq r.events)

let dropped () = match !ring with None -> 0 | Some r -> r.n_dropped

let push r ev =
  Queue.add ev r.events;
  if Queue.length r.events > r.cap then begin
    ignore (Queue.take r.events);
    r.n_dropped <- r.n_dropped + 1
  end

let emit loop ?(cat = "sim") ?(track = "main") ?(args = []) ?start ?dur name =
  match !ring with
  | None -> ()
  | Some r ->
      let ts = match start with Some t -> t | None -> Loop.now loop in
      push r
        { ev_name = name; ev_cat = cat; ev_ts = ts; ev_dur = dur;
          ev_track = track; ev_args = args; ev_flow = None }

let emit_flow loop ?(cat = "sim") ?(track = "main") ~id ~first name =
  match !ring with
  | None -> ()
  | Some r ->
      push r
        { ev_name = name; ev_cat = cat; ev_ts = Loop.now loop; ev_dur = None;
          ev_track = track; ev_args = []; ev_flow = Some (id, first) }

(* -- Chrome trace-event export ------------------------------------------ *)

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let add_string buf s =
  Buffer.add_char buf '"';
  escape buf s;
  Buffer.add_char buf '"'

(* Timestamps are microseconds in the trace-event format; printing
   ns/1000 with three decimals is exact and deterministic. *)
let add_us buf ns = Printf.bprintf buf "%d.%03d" (ns / 1000) (abs ns mod 1000)

let to_chrome_json () =
  let evs = events () in
  let buf = Buffer.create 4096 in
  (* Tracks become integer tids in order of first appearance, each named
     via a thread_name metadata record. *)
  let tids = Hashtbl.create 16 in
  let next = ref 0 in
  let order = ref [] in
  List.iter
    (fun ev ->
      if not (Hashtbl.mem tids ev.ev_track) then begin
        incr next;
        Hashtbl.add tids ev.ev_track !next;
        order := ev.ev_track :: !order
      end)
    evs;
  Buffer.add_string buf "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  let first = ref true in
  let sep () = if !first then first := false else Buffer.add_char buf ',' in
  List.iter
    (fun track ->
      sep ();
      Printf.bprintf buf
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":"
        (Hashtbl.find tids track);
      add_string buf track;
      Buffer.add_string buf "}}")
    (List.rev !order);
  List.iter
    (fun ev ->
      sep ();
      Buffer.add_string buf "{\"name\":";
      add_string buf ev.ev_name;
      Buffer.add_string buf ",\"cat\":";
      add_string buf ev.ev_cat;
      Printf.bprintf buf ",\"pid\":1,\"tid\":%d,\"ts\":"
        (Hashtbl.find tids ev.ev_track);
      add_us buf ev.ev_ts;
      (match ev.ev_flow with
      | Some (id, first) ->
          (* Chrome flow events: "s" opens an arrow, "f" with
             "bp":"e" closes it at the enclosing slice's end.  Both
             ends must share name, cat, and id. *)
          if first then Printf.bprintf buf ",\"ph\":\"s\",\"id\":%d" id
          else Printf.bprintf buf ",\"ph\":\"f\",\"bp\":\"e\",\"id\":%d" id
      | None -> (
          match ev.ev_dur with
          | Some d ->
              Buffer.add_string buf ",\"ph\":\"X\",\"dur\":";
              add_us buf d
          | None -> Buffer.add_string buf ",\"ph\":\"i\",\"s\":\"t\""));
      if ev.ev_args <> [] then begin
        Buffer.add_string buf ",\"args\":{";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            add_string buf k;
            Buffer.add_char buf ':';
            add_string buf v)
          ev.ev_args;
        Buffer.add_char buf '}'
      end;
      Buffer.add_char buf '}')
    evs;
  Printf.bprintf buf "],\"otherData\":{\"dropped_events\":\"%d\"}}\n"
    (dropped ());
  Buffer.contents buf
