module Time = Sim.Time
module Loop = Sim.Loop
module Rng = Sim.Rng
module Ring = Guest.Ring
module Tenant = Guest.Tenant

(* A hostile guest driver: abuses a tenant's tx ring through the
   unchecked raw surface on a fixed tick until the attack window
   closes.  Lives in Snap (not Fault) for the same layering reason as
   the host crash hooks: the fault library cannot depend on the guest
   edge, so [Host.fault_host] wires [launch] into the injector's
   byzantine hook.

   The driver deliberately keeps attacking a quarantined tenant — that
   is the point of the containment invariant: host-owned ring indices
   must stay frozen no matter what the guest writes afterwards. *)

let tick = Time.us 20

let buf_len tn = Int.min 64 (Memory.Region.size tn.Tenant.region)

let strike ~loop ~rng tn behavior =
  let tx = tn.Tenant.tx in
  let now = Loop.now loop in
  let region_size = Memory.Region.size tn.Tenant.region in
  match (behavior : Fault.Plan.byzantine) with
  | Fault.Plan.Bad_desc_range ->
      (* Garbage geometry: negative offsets, runs past the end of the
         region, negative lengths. *)
      let off, len =
        match Rng.int rng 3 with
        | 0 -> (-64 - Rng.int rng 4096, 64)
        | 1 -> (region_size - 8, 64 + Rng.int rng 4096)
        | _ -> (Rng.int rng (Int.max 1 region_size), -(1 + Rng.int rng 512))
      in
      Ring.post_raw tx ~now ~id:(Rng.int rng 1024) ~off ~len
  | Fault.Plan.Desc_id_alias ->
      (* Well-formed descriptor pairs sharing an id drawn from a tiny
         space: the first take of each id goes in flight, every other
         take aliases a live op.  Two pairs per tick, so a single
         batched drain meets a dense run of aliases. *)
      let len = buf_len tn in
      for _ = 1 to 2 do
        let id = Rng.int rng 2 in
        Ring.post_raw tx ~now ~id ~off:(Tenant.tx_buf_off tn 0) ~len;
        Ring.post_raw tx ~now ~id ~off:(Tenant.tx_buf_off tn 0) ~len
      done
  | Fault.Plan.Avail_rollback ->
      Ring.set_avail_raw tx (Ring.avail_idx tx - (1 + Rng.int rng 4))
  | Fault.Plan.Avail_runahead ->
      Ring.set_avail_raw tx
        (Ring.avail_idx tx + Ring.capacity tx + 1 + Rng.int rng 8)
  | Fault.Plan.Reap_withhold ->
      (* Well-formed descriptors, used entries never reaped: the ring
         overcommits until the host refuses to take. *)
      Ring.post_raw tx ~now ~id:(Ring.avail_idx tx)
        ~off:(Tenant.tx_buf_off tn 0) ~len:(buf_len tn)
  | Fault.Plan.Kick_storm _ ->
      (* Driven by its own timer; nothing per tick. *)
      ()

let launch ~loop ~rng ~tenant:tn ~behaviors ~until =
  let rec step () =
    if Loop.now loop < until then begin
      List.iter (fun b -> strike ~loop ~rng tn b) behaviors;
      ignore (Loop.after loop tick step)
    end
  in
  step ();
  List.iter
    (fun b ->
      match (b : Fault.Plan.byzantine) with
      | Fault.Plan.Kick_storm { hz } ->
          let period = Time.ns (Int.max 1 (int_of_float (1e9 /. hz))) in
          let rec storm () =
            if Loop.now loop < until then begin
              Ring.kick_raw tn.Tenant.tx;
              ignore (Loop.after loop period storm)
            end
          in
          storm ()
      | Fault.Plan.Bad_desc_range | Fault.Plan.Desc_id_alias
      | Fault.Plan.Avail_rollback | Fault.Plan.Avail_runahead
      | Fault.Plan.Reap_withhold ->
          ())
    behaviors
