type t = {
  mutable pending : (unit -> unit) option;
  mutable n_posted : int;
  mutable n_serviced : int;
}

let create () = { pending = None; n_posted = 0; n_serviced = 0 }

let post t work =
  match t.pending with
  | Some _ -> false
  | None ->
      t.pending <- Some work;
      t.n_posted <- t.n_posted + 1;
      true

let service t =
  match t.pending with
  | None -> false
  | Some work ->
      t.pending <- None;
      t.n_serviced <- t.n_serviced + 1;
      work ();
      true

let posted t = t.n_posted
let serviced t = t.n_serviced
