(* Chain — vocabulary shared by every [.cmt]-typedtree verification pass
   ([cdna_flow], [cdna_dom], [cdna_proto]): the hop/violation report
   types with their deterministic ordering and rendering, identifier
   canonicalization (dune wrapping prefixes, module aliases, functor
   instances), attribute, location and layer helpers, and the JSON
   encoders consumed by [main.exe --stats]. The loaded program those
   passes analyze is [Program].

   What lives here is exactly the code that must agree byte-for-byte
   across passes so that a chain rendered by one pass reads like a chain
   rendered by another and the combined stats artifact stays stable. *)

module SSet = Set.Make (String)
module SMap = Map.Make (String)
module ISet = Set.Make (Int)
module IdentMap = Map.Make (Ident)

(* ------------------------------------------------------------------ *)
(* Diagnostics                                                         *)
(* ------------------------------------------------------------------ *)

type hop = { hop_what : string; hop_file : string; hop_line : int }

type violation = {
  rule : string;
  file : string;
  line : int;
  msg : string;
  chain : hop list; (* source -> ... -> sink, oldest first *)
  suppress : string option; (* [Some reason] when suppressed *)
}

let violation_compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = String.compare a.rule b.rule in
      if c <> 0 then c else String.compare a.msg b.msg

let violation_to_string v =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf "%s:%d: [%s] %s" v.file v.line v.rule v.msg);
  List.iteri
    (fun i h ->
      Buffer.add_string b
        (Printf.sprintf "\n    %d. %s at %s:%d" (i + 1) h.hop_what h.hop_file
           h.hop_line))
    v.chain;
  Buffer.contents b

(* [--only RULE] filtering: accept either the full rule name or its
   prefix up to the first dash ("PR1" matches "PR1-leak-on-path"). *)
let rule_matches ~only rule =
  match only with
  | None -> true
  | Some o ->
      rule = o
      || String.length rule > String.length o
         && String.sub rule 0 (String.length o) = o
         && rule.[String.length o] = '-'

(* ------------------------------------------------------------------ *)
(* Name canonicalization                                               *)
(* ------------------------------------------------------------------ *)

(* "Nic__Dp" -> "Dp": strip the dune wrapping prefix. *)
let strip_wrap comp =
  let n = String.length comp in
  let rec scan i =
    if i + 1 >= n then comp
    else if comp.[i] = '_' && comp.[i + 1] = '_' then
      String.sub comp (i + 2) (n - i - 2)
    else scan (i + 1)
  in
  if n = 0 then comp else scan 0

let split_on_dot s = String.split_on_char '.' s

(* Module aliases and functor instances harvested during collection:
   "H" -> "Hashtbl", "SSet" -> "Stdlib.Set". *)
let expand_alias aliases comps =
  let rec go fuel comps =
    if fuel = 0 then comps
    else
      match comps with
      | first :: rest -> (
          match SMap.find_opt first aliases with
          | Some target when target <> first ->
              go (fuel - 1) (split_on_dot target @ rest)
          | _ -> comps)
      | [] -> comps
  in
  go 5 comps

(* Canonical identifier: alias-expanded, wrap-stripped, reduced to its
   last two components so [Memory.Phys_mem.read], [Env.Phys_mem.read]
   and [Stdlib.Hashtbl.fold] normalize to stable keys. *)
let canon_of aliases name =
  let comps = split_on_dot name |> List.map strip_wrap in
  let comps =
    if List.length comps > 1 then expand_alias aliases comps else comps
  in
  let comps = List.map strip_wrap comps in
  match List.rev comps with
  | [] -> ""
  | [ x ] -> x
  | x :: m :: _ -> m ^ "." ^ x

let last_comp name =
  match List.rev (split_on_dot name) with [] -> "" | x :: _ -> x

(* ------------------------------------------------------------------ *)
(* Attribute helpers (compiler-libs Parsetree)                         *)
(* ------------------------------------------------------------------ *)

let attr_name (a : Parsetree.attribute) = a.Parsetree.attr_name.Location.txt

let attr_reason (a : Parsetree.attribute) =
  match a.Parsetree.attr_payload with
  | Parsetree.PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
      Some s
  | _ -> None

let find_attr name attrs =
  List.find_opt (fun a -> attr_name a = name) attrs

let has_attr name attrs = find_attr name attrs <> None

(* ------------------------------------------------------------------ *)
(* Location helpers                                                    *)
(* ------------------------------------------------------------------ *)

let loc_file (loc : Location.t) = loc.loc_start.Lexing.pos_fname
let loc_line (loc : Location.t) = loc.loc_start.Lexing.pos_lnum

let hop what loc =
  { hop_what = what; hop_file = loc_file loc; hop_line = loc_line loc }

let normalize_path p = String.map (fun c -> if c = '\\' then '/' else c) p

let path_has_dir path dir =
  let path = normalize_path path in
  let needle = dir ^ "/" in
  let nl = String.length needle and pl = String.length path in
  let rec scan i =
    if i + nl > pl then false
    else if String.sub path i nl = needle then i = 0 || path.[i - 1] = '/'
    else scan (i + 1)
  in
  scan 0

(* The simulator layer a source file belongs to, from its lib/ path. *)
let layer_dirs =
  [
    ("lib/nic", "nic"); ("lib/guestos", "guestos"); ("lib/xen", "xen");
    ("lib/host", "host"); ("lib/memory", "memory"); ("lib/bus", "bus");
    ("lib/core", "core"); ("lib/ethernet", "ethernet");
    ("lib/workload", "workload"); ("lib/cdna", "cdna-ext"); ("lib/sim", "sim");
    ("lib/experiments", "experiments");
  ]

let layer_of_file file =
  List.find_map
    (fun (dir, layer) -> if path_has_dir file dir then Some layer else None)
    layer_dirs
  |> Option.value ~default:""

(* ------------------------------------------------------------------ *)
(* JSON export                                                         *)
(* ------------------------------------------------------------------ *)

let hop_to_json h =
  Sim.Json.Obj
    [
      ("what", Sim.Json.String h.hop_what);
      ("file", Sim.Json.String h.hop_file);
      ("line", Sim.Json.Int h.hop_line);
    ]

let violation_to_json v =
  Sim.Json.Obj
    ([
       ("file", Sim.Json.String v.file);
       ("line", Sim.Json.Int v.line);
       ("rule", Sim.Json.String v.rule);
       ("msg", Sim.Json.String v.msg);
       ("chain", Sim.Json.List (List.map hop_to_json v.chain));
     ]
    @
    match v.suppress with
    | Some r -> [ ("suppressed", Sim.Json.String r) ]
    | None -> [])

let rule_counts_json vs =
  let counts =
    List.fold_left
      (fun acc (v : violation) ->
        let n = try List.assoc v.rule acc with Not_found -> 0 in
        (v.rule, n + 1) :: List.remove_assoc v.rule acc)
      [] vs
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Sim.Json.Obj (List.map (fun (k, n) -> (k, Sim.Json.Int n)) counts)
