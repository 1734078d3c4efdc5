module Time = Sim.Time
module Loop = Sim.Loop
module Packet = Memory.Packet

let batch = 16

type t = {
  lp : Loop.t;
  nic : Nic.t;
  input : Packet.t Squeue.Spsc.t;
  pipeline : Engine.Element.Pipeline.t;
  eng : Engine.t;
  mutable n_forwarded : int;
  mutable n_policy_drops : int;
}

let run t () =
  let cost = ref Time.zero in
  let n = ref 0 in
  let continue = ref true in
  while !continue && !n < batch do
    match Squeue.Spsc.pop t.input with
    | Some pkt -> (
        incr n;
        let survivor, c = Engine.Element.Pipeline.push t.pipeline pkt in
        cost := Time.add !cost c;
        match survivor with
        | Some pkt ->
            if Nic.try_transmit t.nic pkt then t.n_forwarded <- t.n_forwarded + 1
            else t.n_policy_drops <- t.n_policy_drops + 1
        | None -> t.n_policy_drops <- t.n_policy_drops + 1)
    | None -> continue := false
  done;
  if !n = 0 then Engine.no_work else Engine.worked !cost

let create ~loop ~nic ~group ?(rate_gbps = 10.0) ?(burst_bytes = 1 lsl 20) () =
  let input = Squeue.Spsc.create ~capacity:4096 () in
  let pipeline =
    Engine.Element.Pipeline.of_list
      [
        Engine.Element.counter ~name:"ingress";
        Engine.Element.acl ~name:"policy" ~allow:(fun _ -> true);
        Engine.Element.token_bucket ~name:"shape" ~loop ~rate_gbps ~burst_bytes;
      ]
  in
  let t_ref = ref None in
  let eng =
    Engine.create ~name:"shaper"
      ~run:(fun () ->
        match !t_ref with Some t -> run t () | None -> Engine.no_work)
      ~queue_delay:(fun now ->
        match !t_ref with
        | Some t -> Squeue.Spsc.oldest_age t.input ~now
        | None -> 0)
      ()
  in
  let t =
    {
      lp = loop;
      nic;
      input;
      pipeline;
      eng;
      n_forwarded = 0;
      n_policy_drops = 0;
    }
  in
  t_ref := Some t;
  Engine.add group eng;
  t


let submit t pkt =
  let ok = Squeue.Spsc.push t.input ~now:(Loop.now t.lp) pkt in
  if ok then Engine.notify t.eng;
  ok

let forwarded t = t.n_forwarded
let shaped_drops t = t.n_policy_drops
