(* Opt-in self-checking (the correctness harness).

   Checking is off by default.  Once enabled, every layer registers
   named predicates over its own live state at construction time; the
   checker evaluates them every [period] (50 us) of virtual time on the
   simulation loop while the run has events pending, and again (plus
   quiesce-only predicates) when a workload quiesces.  Registration is
   a no-op while checking is disabled, so unchecked runs pay nothing —
   not even registry growth.

   A run is scoped with {!begin_run}: it clears every registration from
   the previous run so predicate closures never probe dead objects.
   Violations raise {!Violation} carrying the invariant name, the
   virtual time, a caller-supplied detail string, and — when span
   capture is on — the tail of the span trace as context. *)

exception Violation of string

type kind = Cadence | Quiesce_only

type entry = { inv_name : string; inv_kind : kind; pred : unit -> string option }

let enabled_flag = ref false
let entries : entry list ref = ref []
let n_evals = ref 0
let cur_loop : Sim.Loop.t option ref = ref None

(* Deliberate-bug switches, used to prove the checker is not vacuous:
   production code consults [sabotage] at a fault point and skips some
   bookkeeping when the named flag is armed.  Test-only. *)
let sabotage_flags : (string, unit) Hashtbl.t = Hashtbl.create 4

let set_sabotage name armed =
  if armed then Hashtbl.replace sabotage_flags name ()
  else Hashtbl.remove sabotage_flags name

let sabotage name = Hashtbl.mem sabotage_flags name

let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

let begin_run () =
  entries := [];
  cur_loop := None;
  n_evals := 0

let register ?(kind = Cadence) ~name pred =
  if !enabled_flag then
    entries := { inv_name = name; inv_kind = kind; pred } :: !entries

let registered () = List.length !entries
let evaluations () = !n_evals

(* Recent span events give the violation report a "what was the system
   doing" tail without any extra bookkeeping of our own. *)
let span_context () =
  match Sim.Span.events () with
  | [] -> ""
  | evs ->
      let tail =
        let n = List.length evs in
        if n <= 8 then evs
        else List.filteri (fun i _ -> i >= n - 8) evs
      in
      "\n  recent spans:"
      ^ String.concat ""
          (List.map
             (fun (e : Sim.Span.event) ->
               Printf.sprintf "\n    %d %s/%s %s" e.Sim.Span.ev_ts
                 e.Sim.Span.ev_cat e.Sim.Span.ev_track e.Sim.Span.ev_name)
             tail)

let violation ~name ~now detail =
  raise
    (Violation
       (Printf.sprintf "invariant %s violated at t=%d: %s%s" name now detail
          (span_context ())))

let eval_entry ~now e =
  incr n_evals;
  match e.pred () with
  | None -> ()
  | Some detail -> violation ~name:e.inv_name ~now detail

let now_of_loop () =
  match !cur_loop with Some lp -> Sim.Loop.now lp | None -> 0

let check_now () =
  if !enabled_flag then begin
    let now = now_of_loop () in
    List.iter
      (fun e -> if e.inv_kind = Cadence then eval_entry ~now e)
      !entries
  end

let quiesce () =
  if !enabled_flag then begin
    let now = now_of_loop () in
    List.iter (fun e -> eval_entry ~now e) !entries
  end

let period = Sim.Time.us 50

let install ~loop () =
  if !enabled_flag then begin
    cur_loop := Some loop;
    (* The simulator's own invariants: virtual time never moves
       backwards, and the pending-event heap stays a heap. *)
    let last_now = ref (Sim.Loop.now loop) in
    register ~name:"sim.time_monotonic" (fun () ->
        let now = Sim.Loop.now loop in
        if now < !last_now then
          Some (Printf.sprintf "clock moved backwards: %d -> %d" !last_now now)
        else begin
          last_now := now;
          None
        end);
    register ~name:"sim.heap_order" (fun () -> Sim.Loop.validate_heap loop);
    (* The tick re-arms only while another event is pending: once a run
       drains, nothing changes until [quiesce] checks everything again,
       and a tick that re-armed forever would keep simulating idle time
       to the run's cap. *)
    let rec tick () =
      check_now ();
      if Sim.Loop.pending_events loop > 0 then
        ignore (Sim.Loop.after loop period tick)
    in
    ignore (Sim.Loop.after loop period tick)
  end
