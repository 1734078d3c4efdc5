module Time = Sim.Time

type event =
  | Link_blackout of {
      a : int;
      b : int;
      start : Time.t;
      duration : Time.t;
    }
  | Link_blackout_oneway of {
      src : int;
      dst : int;
      start : Time.t;
      duration : Time.t;
    }
  | Burst_loss of {
      port : int;
      start : Time.t;
      duration : Time.t;
      loss_pct : float;
    }
  | Reorder of {
      port : int;
      start : Time.t;
      duration : Time.t;
      reorder_pct : float;
      max_delay : Time.t;
    }
  | Corrupt of {
      port : int;
      start : Time.t;
      duration : Time.t;
      corrupt_pct : float;
    }
  | Rx_stall of {
      host : int;
      queue : int;
      start : Time.t;
      duration : Time.t;
    }
  | Engine_crash of {
      host : int;
      engine : int;
      start : Time.t;
      restart_after : Time.t;
    }
  | Straggler of {
      host : int;
      start : Time.t;
      duration : Time.t;
      slowdown : float;
    }
  | Engine_wedge of { host : int; engine : int; start : Time.t }
  | Host_crash of { host : int; start : Time.t; restart_after : Time.t }
  | Guest_byzantine of {
      host : int;
      tenant : string;
      start : Time.t;
      duration : Time.t;
      behaviors : byzantine list;
    }

and byzantine =
  | Bad_desc_range
  | Desc_id_alias
  | Avail_rollback
  | Avail_runahead
  | Reap_withhold
  | Kick_storm of { hz : float }

let byzantine_to_string = function
  | Bad_desc_range -> "bad-desc-range"
  | Desc_id_alias -> "desc-id-alias"
  | Avail_rollback -> "avail-rollback"
  | Avail_runahead -> "avail-runahead"
  | Reap_withhold -> "reap-withhold"
  | Kick_storm { hz } -> Printf.sprintf "kick-storm@%.0fHz" hz

type t = { seed : int; evs : event list }

let pct_ok p = p >= 0.0 && p <= 100.0

let validate = function
  | Link_blackout { a; b; start; duration } ->
      if a < 0 || b < 0 || a = b then invalid_arg "Fault.Plan: blackout hosts";
      if start < 0 || duration <= 0 then invalid_arg "Fault.Plan: blackout window"
  | Link_blackout_oneway { src; dst; start; duration } ->
      if src < 0 || dst < 0 || src = dst then
        invalid_arg "Fault.Plan: oneway blackout hosts";
      if start < 0 || duration <= 0 then
        invalid_arg "Fault.Plan: oneway blackout window"
  | Burst_loss { port; start; duration; loss_pct } ->
      if port < 0 then invalid_arg "Fault.Plan: loss port";
      if start < 0 || duration <= 0 then invalid_arg "Fault.Plan: loss window";
      if not (pct_ok loss_pct) then invalid_arg "Fault.Plan: loss_pct"
  | Reorder { port; start; duration; reorder_pct; max_delay } ->
      if port < 0 then invalid_arg "Fault.Plan: reorder port";
      if start < 0 || duration <= 0 then invalid_arg "Fault.Plan: reorder window";
      if not (pct_ok reorder_pct) then invalid_arg "Fault.Plan: reorder_pct";
      if max_delay <= 0 then invalid_arg "Fault.Plan: reorder max_delay"
  | Corrupt { port; start; duration; corrupt_pct } ->
      if port < 0 then invalid_arg "Fault.Plan: corrupt port";
      if start < 0 || duration <= 0 then invalid_arg "Fault.Plan: corrupt window";
      if not (pct_ok corrupt_pct) then invalid_arg "Fault.Plan: corrupt_pct"
  | Rx_stall { host; queue; start; duration } ->
      if host < 0 || queue < 0 then invalid_arg "Fault.Plan: rx_stall target";
      if start < 0 || duration <= 0 then invalid_arg "Fault.Plan: rx_stall window"
  | Engine_crash { host; engine; start; restart_after } ->
      if host < 0 || engine < 0 then invalid_arg "Fault.Plan: crash target";
      if start < 0 || restart_after <= 0 then invalid_arg "Fault.Plan: crash times"
  | Straggler { host; start; duration; slowdown } ->
      if host < 0 then invalid_arg "Fault.Plan: straggler host";
      if start < 0 || duration <= 0 then
        invalid_arg "Fault.Plan: straggler window";
      if slowdown < 1.0 then invalid_arg "Fault.Plan: straggler slowdown"
  | Engine_wedge { host; engine; start } ->
      if host < 0 || engine < 0 then invalid_arg "Fault.Plan: wedge target";
      if start < 0 then invalid_arg "Fault.Plan: wedge start"
  | Host_crash { host; start; restart_after } ->
      if host < 0 then invalid_arg "Fault.Plan: host crash target";
      if start < 0 || restart_after <= 0 then
        invalid_arg "Fault.Plan: host crash times"
  | Guest_byzantine { host; tenant; start; duration; behaviors } ->
      if host < 0 then invalid_arg "Fault.Plan: byzantine host";
      if tenant = "" then invalid_arg "Fault.Plan: byzantine tenant";
      if start < 0 || duration <= 0 then
        invalid_arg "Fault.Plan: byzantine window";
      if behaviors = [] then invalid_arg "Fault.Plan: byzantine behaviors";
      List.iter
        (function
          | Kick_storm { hz } ->
              if hz <= 0.0 then invalid_arg "Fault.Plan: kick_storm hz"
          | Bad_desc_range | Desc_id_alias | Avail_rollback | Avail_runahead
          | Reap_withhold ->
              ())
        behaviors

let make ?(seed = 42) events =
  List.iter validate events;
  { seed; evs = events }

let empty = { seed = 42; evs = [] }
let seed t = t.seed
let events t = t.evs
