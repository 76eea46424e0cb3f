type kind =
  | Gauge of (unit -> int)
  | Gauge_f of (unit -> float)
  | Histogram of Stats.Histogram.t

type t = { table : (string, kind) Hashtbl.t }

let create () = { table = Hashtbl.create 64 }

(* Canonical series key: name{k1=v1,k2=v2} with labels sorted by key, so
   the same (name, labels) always lands on the same series. *)
let key name labels =
  match labels with
  | [] -> name
  | labels ->
      let labels =
        List.sort (fun (a, _) (b, _) -> String.compare a b) labels
      in
      name ^ "{"
      ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
      ^ "}"

let register t k kind = Hashtbl.replace t.table k kind

let histogram t ?(labels = []) name =
  let k = key name labels in
  match Hashtbl.find_opt t.table k with
  | Some (Histogram h) -> h
  | Some _ -> invalid_arg ("Metrics: " ^ k ^ " registered with another kind")
  | None ->
      let h = Stats.Histogram.create () in
      register t k (Histogram h);
      h

let gauge t ?(labels = []) name read = register t (key name labels) (Gauge read)

let gauge_f t ?(labels = []) name read =
  register t (key name labels) (Gauge_f read)

let value_json = function
  | Gauge read -> Json.Int (read ())
  | Gauge_f read -> Json.Float (read ())
  | Histogram h ->
      let p q = Json.Int (Stats.Histogram.percentile h q) in
      Json.Obj
        [
          ("count", Json.Int (Stats.Histogram.count h));
          ("mean", Json.Float (Stats.Histogram.mean h));
          ("min", Json.Int (Stats.Histogram.min_value h));
          ("p50", p 50.);
          ("p90", p 90.);
          ("p99", p 99.);
          ("max", Json.Int (Stats.Histogram.max_value h));
        ]

let snapshot t =
  Hashtbl.fold (fun k kind acc -> (k, value_json kind) :: acc) t.table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* A hand loop: [String.starts_with] builds a closure per call, and [sum]
   must not allocate per series. *)
let rec same_prefix name k i =
  i = String.length name
  || (name.[i] = k.[i] && same_prefix name k (i + 1))

(* [k] is a series of [name] when it is [name] itself or [name{...}]. *)
let names_series name k =
  let n = String.length name and len = String.length k in
  (len = n || (len > n && k.[n] = '{')) && same_prefix name k 0

let sum t name =
  (Hashtbl.fold
     (fun k kind acc ->
       match kind with
       | Gauge read when names_series name k -> acc + read ()
       | Gauge _ | Gauge_f _ | Histogram _ -> acc)
     t.table 0
   [@cdna.unordered_ok "an integer sum is the same in any visiting order"])

let to_json t = Json.Obj (snapshot t)
let to_string t = Json.to_string (to_json t)
let size t = Hashtbl.length t.table
