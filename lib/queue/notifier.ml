type t = {
  mutable callback : (unit -> unit) option;
  mutable latched : bool;
  mutable n_signals : int;
}

let create () = { callback = None; latched = false; n_signals = 0 }

let arm t cb =
  if t.latched then begin
    t.latched <- false;
    cb ()
  end
  else t.callback <- Some cb

let signal t =
  t.n_signals <- t.n_signals + 1;
  match t.callback with
  | Some cb ->
      t.callback <- None;
      cb ()
  | None -> t.latched <- true

let signals t = t.n_signals
