module Time = Sim.Time

type entry = { at : Time.t; kind : string; detail : string }

type t = { mutable entries_rev : entry list; mutable n : int }

let create () = { entries_rev = []; n = 0 }

let record t ~at ~kind ~detail =
  t.entries_rev <- { at; kind; detail } :: t.entries_rev;
  t.n <- t.n + 1

let entries t = List.rev t.entries_rev
let length t = t.n

let count_kind t kind =
  List.fold_left
    (fun acc e -> if String.equal e.kind kind then acc + 1 else acc)
    0 t.entries_rev

let equal a b =
  a.n = b.n
  && List.for_all2
       (fun x y ->
         x.at = y.at && String.equal x.kind y.kind
         && String.equal x.detail y.detail)
       a.entries_rev b.entries_rev
