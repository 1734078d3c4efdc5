(* Process-wide metric registry.

   One global table keyed by (metric name, canonically sorted labels).
   A counter belongs to the component that made it: each registration
   makes a fresh one and points the key at it.  The other kinds are
   create-or-get, so instrumentation sites never need to thread their
   handles through module boundaries.  Everything here is deterministic
   — snapshots are sorted, floats render through one fixed formatter,
   and nothing reads wall-clock state. *)

type labels = (string * string) list

type kind =
  | Counter of Counter.t
  | Gauge of Gauge.t
  | Histogram of Histogram.t

type metric = { m_name : string; m_labels : labels; m_kind : kind }

let table : (string * labels, metric) Hashtbl.t = Hashtbl.create 128

let canon labels = List.sort compare labels

let kind_label = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let mismatch fn name k =
  invalid_arg
    (Printf.sprintf "Registry.%s: %s is already a %s" fn name (kind_label k))

(* Create-or-get: return the existing kind under this key, or install
   one made by [make] — called only on a miss.  Callers pattern-match
   the result and reject kind mismatches with [mismatch]. *)
let add_metric name labels make =
  let key = (name, canon labels) in
  match Hashtbl.find_opt table key with
  | Some m -> m.m_kind
  | None ->
      let kind = make () in
      Hashtbl.add table key { m_name = name; m_labels = snd key; m_kind = kind };
      kind

(* Last registration wins: the key follows the newest counter, and every
   earlier handle keeps counting for its own component alone. *)
let counter ?(labels = []) name =
  let key = (name, canon labels) in
  (match Hashtbl.find_opt table key with
  | Some { m_kind = Counter _; _ } | None -> ()
  | Some m -> mismatch "counter" name m.m_kind);
  let c = Counter.create () in
  Hashtbl.replace table key
    { m_name = name; m_labels = snd key; m_kind = Counter c };
  c

let gauge_fn ?(labels = []) name f =
  match add_metric name labels (fun () -> Gauge (Gauge.create f)) with
  | Gauge g ->
      (* Last registration wins: components re-created under the same
         name (a fresh machine per bench section) re-point the gauge at
         the live instance instead of sampling a stale closure. *)
      Gauge.set_sampler g f;
      g
  | k -> mismatch "gauge" name k

let histogram ?(labels = []) name =
  match add_metric name labels (fun () -> Histogram (Histogram.create ())) with
  | Histogram h -> h
  | k -> mismatch "histogram" name k

let find ?(labels = []) name =
  Hashtbl.find_opt table (name, canon labels)

let snapshot () =
  let all = Hashtbl.fold (fun _ m acc -> m :: acc) table [] in
  List.sort
    (fun a b ->
      match compare a.m_name b.m_name with
      | 0 -> compare a.m_labels b.m_labels
      | c -> c)
    all

let clear () = Hashtbl.reset table

(* -- JSON rendering ----------------------------------------------------- *)

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let add_string buf s =
  Buffer.add_char buf '"';
  escape buf s;
  Buffer.add_char buf '"'

(* One fixed float format everywhere so same-seed runs are byte-identical. *)
let add_float buf f =
  if not (Float.is_finite f) then Buffer.add_string buf "0"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" f)
  else Buffer.add_string buf (Printf.sprintf "%.9g" f)

let add_labels buf labels =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      add_string buf k;
      Buffer.add_char buf ':';
      add_string buf v)
    labels;
  Buffer.add_char buf '}'

let add_kind buf = function
  | Counter c -> Printf.bprintf buf "\"type\":\"counter\",\"value\":%d" (Counter.value c)
  | Gauge g ->
      Buffer.add_string buf "\"type\":\"gauge\",\"value\":";
      add_float buf (Gauge.value g)
  | Histogram h ->
      Printf.bprintf buf
        "\"type\":\"histogram\",\"count\":%d,\"sum\":%d,\"min\":%d,\"max\":%d,\"mean\":"
        (Histogram.count h) (Histogram.sum h) (Histogram.min_value h)
        (Histogram.max_value h);
      add_float buf (Histogram.mean h);
      Printf.bprintf buf ",\"p50\":%d,\"p90\":%d,\"p99\":%d,\"p999\":%d"
        (Histogram.percentile h 50.) (Histogram.percentile h 90.)
        (Histogram.percentile h 99.)
        (Histogram.percentile h 99.9)

let to_json () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"metrics\":[";
  List.iteri
    (fun i m ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "{\"name\":";
      add_string buf m.m_name;
      Buffer.add_string buf ",\"labels\":";
      add_labels buf m.m_labels;
      Buffer.add_char buf ',';
      add_kind buf m.m_kind;
      Buffer.add_char buf '}')
    (snapshot ());
  Buffer.add_string buf "]}\n";
  Buffer.contents buf
