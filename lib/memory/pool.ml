type t = {
  pool_name : string;
  capacity_bytes : int;
  mutable used : int;
  mutable watermark : int;
  per_owner : (string, int) Hashtbl.t;
  (* Bumped by [release_owner]: allocations minted under an older
     generation were already reclaimed in bulk, so their individual
     [free]s must not subtract again. *)
  owner_gen : (string, int) Hashtbl.t;
  mutable n_released : int;
}

type alloc = {
  pool : t;
  owner : string;
  bytes : int;
  mutable live : bool;
  gen : int;
}

exception Exhausted of string

let create ~name ~capacity_bytes =
  if capacity_bytes <= 0 then invalid_arg "Pool.create";
  {
    pool_name = name;
    capacity_bytes;
    used = 0;
    watermark = 0;
    per_owner = Hashtbl.create 16;
    owner_gen = Hashtbl.create 16;
    n_released = 0;
  }

let name t = t.pool_name
let capacity t = t.capacity_bytes
let in_use t = t.used

let gen_of t owner =
  Option.value ~default:0 (Hashtbl.find_opt t.owner_gen owner)

let try_alloc t ~owner ~bytes =
  if bytes <= 0 then invalid_arg "Pool.alloc: bytes"
  else if t.used + bytes > t.capacity_bytes then None
  else begin
    t.used <- t.used + bytes;
    if t.used > t.watermark then t.watermark <- t.used;
    let prev = Option.value ~default:0 (Hashtbl.find_opt t.per_owner owner) in
    Hashtbl.replace t.per_owner owner (prev + bytes);
    Some { pool = t; owner; bytes; live = true; gen = gen_of t owner }
  end

let try_hold t ~bytes =
  if bytes <= 0 then invalid_arg "Pool.try_hold: bytes"
  else if t.used + bytes > t.capacity_bytes then false
  else begin
    t.used <- t.used + bytes;
    if t.used > t.watermark then t.watermark <- t.used;
    true
  end

let unhold t ~bytes = t.used <- t.used - bytes

let alloc t ~owner ~bytes =
  match try_alloc t ~owner ~bytes with
  | Some a -> a
  | None -> raise (Exhausted t.pool_name)

let free a =
  if not a.live then invalid_arg "Pool.free: double free";
  a.live <- false;
  let t = a.pool in
  (* A stale-generation allocation was already reclaimed in bulk by
     [release_owner]; subtracting again would corrupt the accounting. *)
  if a.gen = gen_of t a.owner then begin
    t.used <- t.used - a.bytes;
    let prev = Option.value ~default:0 (Hashtbl.find_opt t.per_owner a.owner) in
    let next = prev - a.bytes in
    if next <= 0 then Hashtbl.remove t.per_owner a.owner
    else Hashtbl.replace t.per_owner a.owner next
  end

let release_owner t ~owner =
  match Hashtbl.find_opt t.per_owner owner with
  | None ->
      (* Nothing charged; still bump the generation so allocations
         handed out earlier (and already freed to zero) stay invalid. *)
      Hashtbl.replace t.owner_gen owner (gen_of t owner + 1);
      0
  | Some bytes ->
      Hashtbl.remove t.per_owner owner;
      Hashtbl.replace t.owner_gen owner (gen_of t owner + 1);
      t.used <- t.used - bytes;
      t.n_released <- t.n_released + bytes;
      bytes

let released_bytes t = t.n_released

let owner_usage t owner =
  Option.value ~default:0 (Hashtbl.find_opt t.per_owner owner)

let owners t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.per_owner []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let high_watermark t = t.watermark

let check_consistency t =
  let owner_sum = Hashtbl.fold (fun _ b acc -> acc + b) t.per_owner 0 in
  if t.used < 0 then Some (Printf.sprintf "pool %s used %d < 0" t.pool_name t.used)
  else if t.used > t.capacity_bytes then
    Some
      (Printf.sprintf "pool %s used %d exceeds capacity %d" t.pool_name t.used
         t.capacity_bytes)
  else if owner_sum <> t.used then
    Some
      (Printf.sprintf
         "pool %s per-owner charges sum to %d but used is %d (%s)" t.pool_name
         owner_sum t.used
         (String.concat ", "
            (List.map (fun (o, b) -> Printf.sprintf "%s=%d" o b) (owners t))))
  else if t.watermark < t.used then
    Some
      (Printf.sprintf "pool %s watermark %d below used %d" t.pool_name
         t.watermark t.used)
  else if Hashtbl.fold (fun _ b acc -> acc || b <= 0) t.per_owner false then
    Some (Printf.sprintf "pool %s holds a non-positive owner charge" t.pool_name)
  else None

let check_quiesced t =
  if t.used = 0 then None
  else
    Some
      (Printf.sprintf "pool %s not quiesced: %d bytes live (%s)" t.pool_name
         t.used
         (String.concat ", "
            (List.map (fun (o, b) -> Printf.sprintf "%s=%d" o b) (owners t))))

let assert_quiesced t =
  match check_quiesced t with None -> () | Some msg -> failwith msg
