(* Chain — vocabulary shared by every [.cmt]-typedtree verification pass
   ([cdna_lint], [cdna_flow], [cdna_dom], [cdna_proto]): the
   hop/violation report types with their deterministic ordering and
   rendering, identifier canonicalization (dune wrapping prefixes, module
   aliases, functor instances), attribute, location and layer helpers,
   the name tables more than one rule reads, the JSON encoders consumed
   by [main.exe --stats] and the drift gate over them. The loaded program
   those passes analyze is [Program].

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
(* Name tables, by canonical name                                      *)
(* ------------------------------------------------------------------ *)

(* Ownership / IOMMU-permission mutation: called directly (P1) or
   reached (P3) from outside the layers below, it breaks the rule that
   only the hypervisor side changes who owns a page. *)
let ownership_fns =
  SSet.of_list
    [
      "Phys_mem.alloc"; "Phys_mem.free"; "Phys_mem.transfer";
      "Phys_mem.get_ref"; "Phys_mem.put_ref"; "Iommu.grant"; "Iommu.revoke";
      "Iommu.revoke_context";
    ]

(* The layers that may mutate ownership: the Xen-like VMM substrate, the
   host model and the memory subsystem itself. *)
let ownership_layers = SSet.of_list [ "xen"; "host"; "memory" ]

(* The device and guest layers: they reach guest memory only through
   [Bus.Dma_engine] (P2), and P3 walks from their entry points. *)
let guest_layers = SSet.of_list [ "nic"; "guestos" ]

(* Non-allocating primitives a hot path may call (A3 directly, A6
   transitively). [ref] is accepted: a local ref that never escapes is
   unboxed by ocamlopt, and its escapes (capture by a closure, storage
   in a structure) are allocation sites of their own. *)
let alloc_allowlist =
  SSet.of_list
    [
      "Bytes.length"; "Bytes.get"; "Bytes.set"; "Bytes.unsafe_get";
      "Bytes.unsafe_set"; "Bytes.blit"; "Bytes.unsafe_blit";
      "Bytes.blit_string"; "Bytes.fill"; "Bytes.unsafe_fill";
      "Bytes.get_uint8"; "Bytes.set_uint8";
      "String.length"; "String.get"; "String.unsafe_get";
      "Array.length"; "Array.get"; "Array.set"; "Array.unsafe_get";
      "Array.unsafe_set"; "Array.blit"; "Array.unsafe_blit"; "Array.fill";
      "Char.code"; "Char.chr"; "Char.unsafe_chr";
      "Int.compare"; "Int.equal"; "Int.min"; "Int.max"; "Int.abs";
      "Int.logand"; "Int.logor"; "Int.logxor"; "Int.shift_left";
      "Int.shift_right"; "Int.shift_right_logical";
      "Lazy.force"; "Sys.opaque_identity";
      (* Per-domain slot read; allocates only on a key's first access on
         a new domain (one-time init, like Lazy.force). *)
      "DLS.get";
      "Hashtbl.mem"; "Hashtbl.remove"; "Hashtbl.length";
      "Stdlib.min"; "Stdlib.max"; "Stdlib.abs"; "Stdlib.succ";
      "Stdlib.pred"; "Stdlib.not"; "Stdlib.ignore"; "Stdlib.fst";
      "Stdlib.snd"; "Stdlib.incr"; "Stdlib.decr"; "Stdlib.ref";
      "Stdlib.invalid_arg"; "Stdlib.failwith"; "Stdlib.raise";
      "Stdlib.raise_notrace"; "Stdlib.compare_lengths";
      (* Project-local: [Sim.Trace.enabled] is a pure flag check. *)
      "Trace.enabled";
    ]

(* Operators that build a new string or list. *)
let alloc_operators = SSet.of_list [ "^"; "@"; "^^" ]

let is_operator_name name =
  String.length name > 0
  && (String.contains "!$%&*+-./:<=>?@^|~" name.[0]
     || List.mem name
          [ "or"; "mod"; "land"; "lor"; "lxor"; "lnot"; "lsl"; "lsr"; "asr" ])

(* Calls that leave the steady-state path: what their arguments
   allocate is an error-path cost, not judged by A1-A6. *)
let cold_exits =
  SSet.of_list
    [
      "Stdlib.raise"; "Stdlib.raise_notrace"; "Stdlib.invalid_arg";
      "Stdlib.failwith";
    ]

(* Sorts: hash-order iteration feeding one is deterministic (D1). *)
let sort_fns =
  SSet.of_list
    [
      "List.sort"; "List.stable_sort"; "List.fast_sort"; "List.sort_uniq";
      "Array.sort"; "Array.stable_sort"; "Array.fast_sort";
    ]

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

(* ------------------------------------------------------------------ *)
(* Suppression-drift gate                                              *)
(* ------------------------------------------------------------------ *)

let rec json_at j = function
  | [] -> Some j
  | k :: rest -> (
      match j with
      | Sim.Json.Obj fields ->
          Option.bind (List.assoc_opt k fields) (fun j -> json_at j rest)
      | _ -> None)

let json_int j path =
  match json_at j path with Some (Sim.Json.Int n) -> n | _ -> 0

(* The counts of a stats document the gate holds: the lint pass's
   violations and each of its suppression annotations on its own, then
   every typedtree pass's violations, suppressions and annotations. *)
let gated_counts current =
  let suppressions =
    match json_at current [ "suppressions" ] with
    | Some (Sim.Json.Obj fields) ->
        List.map (fun (k, _) -> [ "suppressions"; k ]) fields
    | _ -> []
  in
  ([ "violations" ] :: suppressions)
  @ List.concat_map
      (fun (pass, keys) -> List.map (fun k -> [ pass; k ]) keys)
      [
        ("flow", [ "violations"; "suppressions" ]);
        ("dom",
         [ "violations"; "suppressions"; "domain_shared"; "domain_local" ]);
        ("proto",
         [ "violations"; "suppressions"; "acquire_annots"; "release_annots" ]);
        ("reach", [ "unreached"; "internal"; "optional" ]);
      ]

(* The gated counts that grew from [baseline] to [current], as (path,
   baseline, current); a count the baseline lacks reads 0. The [timing]
   block is never consulted. *)
let gate_drift ~baseline current =
  List.filter_map
    (fun path ->
      let base = json_int baseline path and cur = json_int current path in
      if cur > base then Some (String.concat "." path, base, cur) else None)
    (gated_counts current)
