module Time = Sim.Time

type entry = { at : Time.t; kind : string; detail : string }

type t = { mutable entries_rev : entry list }

let create () = { entries_rev = [] }

let record t ~at ~kind ~detail =
  t.entries_rev <- { at; kind; detail } :: t.entries_rev

let entries t = List.rev t.entries_rev
