type t = {
  title : string;
  configs : Config.t list;
  header : string list;
  rows : Run.measurement list -> string list list;
  footer : Run.measurement list -> string;
  csv : (string list * (Run.measurement list -> string list list)) option;
}

(* Workers and the caller take indices off one atomic counter and each
   writes only its own slots of [results]; [Domain.join] publishes them.
   The trace sink is domain-local, so a traced sweep stays on the caller
   where the sink is installed. *)
let map f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  let workers = Int.min n (Domain.recommended_domain_count ()) - 1 in
  if workers <= 0 || Sim.Trace.enabled () then List.map f xs
  else begin
    let results = Array.make n None and next = Atomic.make 0 in
    let rec work () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <-
          Some
            (match f items.(i) with
            | y -> Ok y
            | exception e -> Error (e, Printexc.get_raw_backtrace ()));
        work ()
      end
    in
    let domains = List.init workers (fun _ -> Domain.spawn work) in
    work ();
    List.iter Domain.join domains;
    Array.to_list results
    |> List.map (function
         | Some (Ok y) -> y
         | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
         | None -> assert false)
  end

let run ?quick cfgs = map (fun cfg -> Run.run ?quick cfg) cfgs

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
