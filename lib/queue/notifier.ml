type t = { mutable callback : (unit -> unit) option; mutable latched : bool }

let create () = { callback = None; latched = false }

let arm t cb =
  if t.latched then begin
    t.latched <- false;
    cb ()
  end
  else t.callback <- Some cb

let signal t =
  match t.callback with
  | Some cb ->
      t.callback <- None;
      cb ()
  | None -> t.latched <- true
