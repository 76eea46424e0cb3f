let render ~header rows =
  let all = header :: rows in
  let cols = List.fold_left (fun m r -> max m (List.length r)) 0 all in
  let width = Array.make cols 0 in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell -> width.(i) <- max width.(i) (String.length cell))
        row)
    all;
  let buf = Buffer.create 1024 in
  let emit row =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf cell;
        if i < cols - 1 then
          Buffer.add_string buf (String.make (width.(i) - String.length cell) ' '))
      row;
    Buffer.add_char buf '\n'
  in
  emit header;
  emit
    (List.mapi (fun i _ -> String.make width.(i) '-')
       (List.init cols Fun.id));
  List.iter emit rows;
  Buffer.contents buf

let print ~header rows = print_string (render ~header rows)

let csv ~header rows =
  let line row = String.concat "," row in
  String.concat "\n" (line header :: List.map line rows) ^ "\n"

let mbps v = Printf.sprintf "%.0f" v
let pct v = Printf.sprintf "%.1f%%" v
let verdict b = if b then "yes" else "NO"
let ratio got expected = Printf.sprintf "%d/%d" got expected

let rate v =
  let n = int_of_float (Float.round v) in
  let s = string_of_int n in
  let len = String.length s in
  let buf = Buffer.create (len + 4) in
  String.iteri
    (fun i c ->
      if i > 0 && (len - i) mod 3 = 0 then Buffer.add_char buf ',';
      Buffer.add_char buf c)
    s;
  Buffer.contents buf

let ascii_chart ~x_label ~y_label ~series ~xs =
  let height = 16 in
  let buf = Buffer.create 2048 in
  let all_ys = List.concat_map (fun (_, _, ys) -> ys) series in
  let y_max = List.fold_left Float.max 1. all_ys in
  (* Column position of each x sample, spread over a fixed width. *)
  let n = List.length xs in
  let width = max 24 (n * 8) in
  let col i = if n <= 1 then 0 else i * (width - 1) / (n - 1) in
  let grid = Array.make_matrix (height + 1) width ' ' in
  List.iter
    (fun (_, marker, ys) ->
      List.iteri
        (fun i y ->
          if i < n then begin
            let row =
              height - int_of_float (Float.round (y /. y_max *. float_of_int height))
            in
            let row = max 0 (min height row) in
            grid.(row).(col i) <- marker
          end)
        ys)
    series;
  Buffer.add_string buf (Printf.sprintf "%s\n" y_label);
  Array.iteri
    (fun r line ->
      let y_val = y_max *. float_of_int (height - r) /. float_of_int height in
      Buffer.add_string buf (Printf.sprintf "%7.0f |" y_val);
      Buffer.add_string buf (String.init width (Array.get line));
      Buffer.add_char buf '\n')
    grid;
  Buffer.add_string buf (Printf.sprintf "%7s +%s\n" "" (String.make width '-'));
  (* x tick labels *)
  let labels = Array.make width ' ' in
  List.iteri
    (fun i x ->
      let s = string_of_int x in
      let c = min (width - String.length s) (col i) in
      String.iteri (fun j ch -> labels.(c + j) <- ch) s)
    xs;
  Buffer.add_string buf (Printf.sprintf "%8s%s  (%s)\n" "" (String.init width (Array.get labels)) x_label);
  List.iter
    (fun (name, marker, _) ->
      Buffer.add_string buf (Printf.sprintf "%8s%c = %s\n" "" marker name))
    series;
  Buffer.contents buf

let versus_chart ~x_label points =
  match points with
  | [] -> ""
  | _ ->
      ascii_chart ~x_label ~y_label:"Mb/s"
        ~series:
          [
            ("CDNA", '#', List.map (fun (_, cdna, _) -> cdna) points);
            ("Xen", 'o', List.map (fun (_, _, xen) -> xen) points);
          ]
        ~xs:(List.map (fun (x, _, _) -> x) points)
