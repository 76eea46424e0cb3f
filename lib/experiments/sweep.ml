type t = {
  title : string;
  configs : Config.t list;
  header : string list;
  rows : Run.measurement list -> string list list;
  footer : Run.measurement list -> string;
  csv : (string list * (Run.measurement list -> string list list)) option;
}

let run ?quick cfgs = List.map (Run.run ?quick) cfgs

let render t ms =
  t.title ^ "\n" ^ Report.render ~header:t.header (t.rows ms) ^ t.footer ms

let render_csv t ms =
  match t.csv with
  | Some (header, rows) -> Report.csv ~header (rows ms)
  | None -> invalid_arg ("Sweep.render_csv: no CSV form for " ^ t.title)

let print ?quick ?(csv = false) ts =
  List.iteri
    (fun i t ->
      if i > 0 then print_newline ();
      let ms = run ?quick t.configs in
      print_string (if csv then render_csv t ms else render t ms))
    ts
