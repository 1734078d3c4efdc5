type level = Nominal | Pressured | Saturated

let level_to_string = function
  | Nominal -> "nominal"
  | Pressured -> "pressured"
  | Saturated -> "saturated"

let level_to_int = function Nominal -> 0 | Pressured -> 1 | Saturated -> 2

(* Occupancy fractions, ordered
   0 < pressured_exit <= pressured_enter <= saturated_exit
     <= saturated_enter <= 1. *)
type thresholds = {
  pressured_enter : float;
  pressured_exit : float;  (* must fall below this to leave Pressured *)
  saturated_enter : float;
  saturated_exit : float;
}

let default_thresholds =
  {
    pressured_enter = 0.50;
    pressured_exit = 0.35;
    saturated_enter = 0.80;
    saturated_exit = 0.60;
  }

type t = {
  lp : Sim.Loop.t;
  p_name : string;
  mutable lvl : level;
  c_transitions : Stats.Counter.t;
}

let create ~loop ~name () =
  let labels = [ ("engine", name) ] in
  let t =
    {
      lp = loop;
      p_name = name;
      lvl = Nominal;
      c_transitions =
        Stats.Registry.counter ~labels "overload_pressure_transitions";
    }
  in
  ignore
    (Stats.Registry.gauge_fn ~labels "overload_pressure_level" (fun () ->
         float_of_int (level_to_int t.lvl)));
  t

(* Hysteresis: climbing uses the enter thresholds, descending the exit
   thresholds, and a level can only move one step per update so a load
   spike walks Nominal -> Pressured -> Saturated across batches rather
   than teleporting (each step is observable in the span stream). *)
let next_level th lvl occupancy =
  match lvl with
  | Nominal -> if occupancy >= th.pressured_enter then Pressured else Nominal
  | Pressured ->
      if occupancy >= th.saturated_enter then Saturated
      else if occupancy < th.pressured_exit then Nominal
      else Pressured
  | Saturated -> if occupancy < th.saturated_exit then Pressured else Saturated

let update t ~occupancy =
  let occupancy = Float.min 1.0 (Float.max 0.0 occupancy) in
  let next = next_level default_thresholds t.lvl occupancy in
  if next <> t.lvl then begin
    let prev = t.lvl in
    t.lvl <- next;
    Stats.Counter.incr t.c_transitions;
    if Sim.Span.enabled () then
      Sim.Span.emit t.lp ~cat:"overload"
        ~track:("pressure " ^ t.p_name)
        ~args:
          [
            ("from", level_to_string prev);
            ("occupancy", Printf.sprintf "%.2f" occupancy);
          ]
        (level_to_string next)
  end;
  t.lvl

let level t = t.lvl

let transitions t = Stats.Counter.value t.c_transitions
