let ns () =
  List.fold_left
    (fun acc m ->
      match m.Stats.Registry.m_kind with
      | Stats.Registry.Histogram h
        when String.equal m.Stats.Registry.m_name "engine_batch_cost_ns" ->
          acc + Stats.Histogram.sum h
      | _ -> acc)
    0
    (Stats.Registry.snapshot ())
