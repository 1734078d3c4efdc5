type id = int

type t = {
  region_id : id;
  region_size : int;
  backing : Bytes.t option;
}

let backed_limit = 16 * 1024 * 1024

let create ?backed ~id ~size ~owner:_ () =
  if size <= 0 then invalid_arg "Region.create: size";
  let backed = match backed with Some b -> b | None -> size <= backed_limit in
  let backing = if backed then Some (Bytes.make size '\000') else None in
  { region_id = id; region_size = size; backing }

let id t = t.region_id
let size t = t.region_size
let is_backed t = Option.is_some t.backing

let check_range t off len =
  if off < 0 || len < 0 || off + len > t.region_size then
    invalid_arg "Region: out of range access"

(* Synthetic contents of unbacked regions: a cheap deterministic function
   of the offset, so benchmark reads are still checkable. *)
let synthetic_byte off = Char.chr ((off * 131) land 0xff)

let read_int64 t off =
  check_range t off 8;
  match t.backing with
  | Some b -> Bytes.get_int64_le b off
  | None ->
      Bytes.get_int64_le (Bytes.init 8 (fun i -> synthetic_byte (off + i))) 0

let write_int64 t off v =
  check_range t off 8;
  match t.backing with
  | Some b -> Bytes.set_int64_le b off v
  | None -> ()
