type account = {
  a_pool : t;
  a_owner : string;
  mutable charged : int;
  (* Bumped by [release_owner]: allocations minted under an older
     generation were already reclaimed in bulk, so their individual
     [free]s must not subtract again. *)
  mutable a_gen : int;
}

and t = {
  pool_name : string;
  capacity_bytes : int;
  mutable used : int;
  mutable watermark : int;
  (* Every owner ever resolved, charged or not: an account outlives a
     zero charge, so its generation survives too. *)
  accounts : (string, account) Hashtbl.t;
}

type alloc = {
  account : account;
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
    accounts = Hashtbl.create 16;
  }

let capacity t = t.capacity_bytes
let in_use t = t.used

let account t ~owner =
  match Hashtbl.find t.accounts owner with
  | a -> a
  | exception Not_found ->
      let a = { a_pool = t; a_owner = owner; charged = 0; a_gen = 0 } in
      Hashtbl.add t.accounts owner a;
      a

let try_alloc_from a ~bytes =
  let t = a.a_pool in
  if bytes <= 0 then invalid_arg "Pool.alloc: bytes"
  else if t.used + bytes > t.capacity_bytes then None
  else begin
    t.used <- t.used + bytes;
    if t.used > t.watermark then t.watermark <- t.used;
    a.charged <- a.charged + bytes;
    Some { account = a; bytes; live = true; gen = a.a_gen }
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
  match try_alloc_from (account t ~owner) ~bytes with
  | Some a -> a
  | None -> raise (Exhausted t.pool_name)

let free x =
  if not x.live then invalid_arg "Pool.free: double free";
  x.live <- false;
  let a = x.account in
  (* A stale-generation allocation was already reclaimed in bulk by
     [release_owner]; subtracting again would corrupt the accounting. *)
  if x.gen = a.a_gen then begin
    a.a_pool.used <- a.a_pool.used - x.bytes;
    a.charged <- a.charged - x.bytes
  end

let release_owner t ~owner =
  let a = account t ~owner in
  let bytes = a.charged in
  (* Bump the generation even when nothing is charged, so allocations
     handed out earlier (and already freed to zero) stay invalid. *)
  a.a_gen <- a.a_gen + 1;
  a.charged <- 0;
  t.used <- t.used - bytes;
  bytes

let owner_usage t owner =
  match Hashtbl.find t.accounts owner with
  | a -> a.charged
  | exception Not_found -> 0

let owners t =
  Hashtbl.fold
    (fun k a acc -> if a.charged <> 0 then (k, a.charged) :: acc else acc)
    t.accounts []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let high_watermark t = t.watermark

let check_consistency t =
  let owner_sum = Hashtbl.fold (fun _ a acc -> acc + a.charged) t.accounts 0 in
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
  else if Hashtbl.fold (fun _ a acc -> acc || a.charged < 0) t.accounts false
  then
    Some (Printf.sprintf "pool %s holds a negative owner charge" t.pool_name)
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
