(* cdna_lint — compiler-AST static analysis for the CDNA simulator.

   Enforces, as compile-time properties of every [.ml] under [lib/], the
   three invariant families the runtime test-suite can only spot-check:

   - (D) Determinism: no unordered [Hashtbl] iteration feeding anything
     (unless sorted or justified), no polymorphic compare/hash on
     structured values, no wall-clock / GC / Marshal primitives.
   - (A) Zero-allocation hot paths: functions annotated [@cdna.hot] must
     not syntactically allocate and may only call other hot functions or
     a small allowlist of non-allocating primitives.
   - (P) Protection boundaries: page-ownership and IOMMU-permission
     mutation is confined to the hypervisor-side layers, and the NIC /
     guest-OS layers reach guest memory only through [Bus.Dma_engine]
     (the paper's validated-descriptor rule, PAPER.md §3.2).

   The checker is purely syntactic (ppxlib parsetree): it never needs
   build artifacts, runs on sources that do not typecheck, and is
   conservative — anything it cannot prove safe must either be rewritten
   or carry a justification annotation, which is counted and exported so
   suppressions are tracked over time.

   Annotation contract (see DESIGN.md §9):
     [@cdna.hot]                  marks a top-level function hot (A rules apply)
     [@cdna.unordered_ok "why"]   suppresses D1 on the annotated subtree
     [@cdna.polyeq_ok "why"]      suppresses D2
     [@cdna.nondet_ok "why"]      suppresses D3
     [@cdna.alloc_ok "why"]       suppresses A1-A5
     [@cdna.protection_ok "why"]  suppresses P1-P2
     [@@@cdna.privileged "why"]   (module level) exempts the file from P rules
   A suppression without a non-empty reason string is itself a violation
   (S1). *)

open Ppxlib

(* ------------------------------------------------------------------ *)
(* Diagnostics                                                         *)
(* ------------------------------------------------------------------ *)

type diag = {
  file : string;
  line : int;
  col : int;
  rule : string;
  msg : string;
}

type stats = {
  files_scanned : int;
  hot_functions : int;
  violations : int;
  rule_counts : (string * int) list;
  suppression_counts : (string * int) list;
}

let diag_compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare a.rule b.rule in
        if c <> 0 then c else String.compare a.msg b.msg

let diag_to_string d =
  Printf.sprintf "%s:%d:%d: [%s] %s" d.file d.line d.col d.rule d.msg

(* ------------------------------------------------------------------ *)
(* Rules: names and identifier tables                                  *)
(* ------------------------------------------------------------------ *)

let rule_d1 = "D1-unordered-iter"
let rule_d2 = "D2-poly-compare"
let rule_d3 = "D3-nondet-primitive"
let rule_a1 = "A1-alloc-construct"
let rule_a2 = "A2-alloc-closure"
let rule_a3 = "A3-alloc-call"
let rule_a4 = "A4-partial-app"
let rule_a5 = "A5-boxed-arith"
let rule_p1 = "P1-ownership-boundary"
let rule_p2 = "P2-guest-memory-boundary"
let rule_s1 = "S1-suppression-reason"
let rule_parse = "S0-parse-error"

let all_rules =
  [
    rule_d1; rule_d2; rule_d3; rule_a1; rule_a2; rule_a3; rule_a4; rule_a5;
    rule_p1; rule_p2; rule_s1; rule_parse;
  ]

module SSet = Set.Make (String)
module SMap = Map.Make (String)

(* Suppression kinds, keyed by the attribute that activates them. *)
let suppression_attrs =
  [
    ("cdna.unordered_ok", [ rule_d1 ]);
    ("cdna.polyeq_ok", [ rule_d2 ]);
    ("cdna.nondet_ok", [ rule_d3 ]);
    ("cdna.alloc_ok", [ rule_a1; rule_a2; rule_a3; rule_a4; rule_a5 ]);
    ("cdna.protection_ok", [ rule_p1; rule_p2 ]);
  ]

let unordered_fns =
  SSet.of_list
    [
      "Hashtbl.iter"; "Hashtbl.fold"; "Hashtbl.to_seq"; "Hashtbl.to_seq_keys";
      "Hashtbl.to_seq_values"; "Hashtbl.filter_map_inplace";
    ]

let sort_fns =
  SSet.of_list
    [
      "List.sort"; "List.stable_sort"; "List.fast_sort"; "List.sort_uniq";
      "Array.sort"; "Array.stable_sort"; "Array.fast_sort";
    ]

(* Polymorphic comparison / hashing entry points that are hazardous on any
   structured value; flagged at every occurrence, even as a bare value. *)
let poly_idents =
  SSet.of_list
    [
      "compare"; "Stdlib.compare"; "Pervasives.compare"; "Hashtbl.hash";
      "Hashtbl.hash_param"; "Hashtbl.seeded_hash";
    ]

let cmp_ops = SSet.of_list [ "="; "<>"; "<"; ">"; "<="; ">=" ]

(* Nondeterministic primitives: wall clock, self-seeding, GC observation,
   Marshal (output depends on sharing/flags, and is unreadable in traces). *)
let forbidden_idents =
  SSet.of_list
    [
      "Random.self_init"; "Sys.time"; "Unix.gettimeofday"; "Unix.time";
      "Unix.gmtime"; "Unix.localtime";
    ]

let forbidden_modules = SSet.of_list [ "Gc"; "Marshal" ]

(* P1: ownership / IOMMU-permission mutation. *)
let ownership_fns =
  SSet.of_list
    [
      "Phys_mem.alloc"; "Phys_mem.free"; "Phys_mem.transfer";
      "Phys_mem.get_ref"; "Phys_mem.put_ref"; "Iommu.grant"; "Iommu.revoke";
      "Iommu.revoke_context";
    ]

(* P2: direct byte access to simulated physical memory. *)
let byte_access_fns =
  SSet.of_list
    [
      "Phys_mem.read"; "Phys_mem.write"; "Phys_mem.read_into";
      "Phys_mem.write_sub"; "Phys_mem.read_uint"; "Phys_mem.write_uint";
      "Phys_mem.read_u16"; "Phys_mem.write_u16"; "Phys_mem.read_u32";
      "Phys_mem.write_u32"; "Phys_mem.read_u64"; "Phys_mem.write_u64";
    ]

(* Non-allocating primitives callable from hot code. *)
let allow_qualified =
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
         a new domain (one-time init, like Lazy.force). Both spellings:
         the parsetree sees [Domain.DLS.get], the typedtree [DLS.get]. *)
      "Domain.DLS.get"; "DLS.get";
      "Hashtbl.mem"; "Hashtbl.remove"; "Hashtbl.length";
      "Queue.length"; "Queue.is_empty"; "Queue.pop"; "Queue.take";
      "Stdlib.min"; "Stdlib.max"; "Stdlib.abs"; "Stdlib.succ";
      "Stdlib.pred"; "Stdlib.not"; "Stdlib.ignore"; "Stdlib.fst";
      "Stdlib.snd"; "Stdlib.incr"; "Stdlib.decr"; "Stdlib.invalid_arg";
      "Stdlib.failwith"; "Stdlib.raise"; "Stdlib.compare_lengths";
      (* Project-local: [Sim.Trace.tag_enabled] is a pure flag check. *)
      "Trace.tag_enabled";
    ]

(* [ref] is accepted: a local ref that never escapes is unboxed by
   ocamlopt, and the escape vectors (capture by a closure, storage in a
   structure) are caught by A1/A2 themselves. *)
let allow_bare =
  SSet.of_list
    [
      "min"; "max"; "abs"; "succ"; "pred"; "not"; "ignore"; "fst"; "snd";
      "incr"; "decr"; "ref"; "invalid_arg"; "failwith"; "raise";
      "raise_notrace"; "assert";
    ]

(* Calls that leave the steady-state path: their arguments may allocate
   (exception payloads are error-path only). *)
let cold_exits =
  SSet.of_list
    [ "raise"; "raise_notrace"; "invalid_arg"; "failwith";
      "Stdlib.raise"; "Stdlib.invalid_arg"; "Stdlib.failwith" ]

let alloc_operators = SSet.of_list [ "^"; "@"; "^^" ]

let float_operators =
  SSet.of_list
    [ "+."; "-."; "*."; "/."; "**"; "~-."; "float_of_int"; "abs_float";
      "mod_float"; "Float.of_int" ]

let boxed_arith_modules = SSet.of_list [ "Int64"; "Int32"; "Nativeint" ]

let is_operator_name name =
  String.length name > 0
  && (String.contains "!$%&*+-./:<=>?@^|~" name.[0]
     || SSet.mem name
          (SSet.of_list
             [ "or"; "mod"; "land"; "lor"; "lxor"; "lsl"; "lsr"; "asr" ]))

(* ------------------------------------------------------------------ *)
(* Path classification                                                 *)
(* ------------------------------------------------------------------ *)

let normalize_path p = String.map (fun c -> if c = '\\' then '/' else c) p

let path_has_dir path dir =
  let path = normalize_path path in
  let needle = dir ^ "/" in
  let nl = String.length needle and pl = String.length path in
  let rec scan i =
    if i + nl > pl then false
    else if String.sub path i nl = needle then
      (* Match whole path segments only. *)
      i = 0 || path.[i - 1] = '/'
    else scan (i + 1)
  in
  scan 0

(* Layers allowed to mutate page ownership / IOMMU permissions:
   the Xen-like VMM substrate, the host model, and the memory subsystem
   itself. Everything else needs [@@@cdna.privileged]. *)
let ownership_privileged path =
  path_has_dir path "lib/xen" || path_has_dir path "lib/host"
  || path_has_dir path "lib/memory"

(* Layers that may reach guest memory only through [Bus.Dma_engine]. *)
let guest_restricted path =
  path_has_dir path "lib/nic" || path_has_dir path "lib/guestos"

(* ------------------------------------------------------------------ *)
(* Longident helpers                                                   *)
(* ------------------------------------------------------------------ *)

let flatten_lid lid = try Longident.flatten_exn lid with _ -> []

(* Qualified name reduced to its last two components ("Phys_mem.read"),
   so aliases like [Memory.Phys_mem.read] and [Stdlib.Hashtbl.fold]
   normalize to the same key. *)
let key2 parts =
  match List.rev parts with
  | [] -> ""
  | [ x ] -> x
  | x :: m :: _ -> m ^ "." ^ x

let key1 parts = match List.rev parts with [] -> "" | x :: _ -> x

let owning_module parts =
  match List.rev parts with _ :: m :: _ -> m | _ -> ""

(* ------------------------------------------------------------------ *)
(* Hot-function table (pass 1)                                         *)
(* ------------------------------------------------------------------ *)

let module_of_path path =
  Filename.basename path |> Filename.remove_extension
  |> String.capitalize_ascii

let has_attr name attrs =
  List.exists (fun (a : attribute) -> a.attr_name.txt = name) attrs

let fn_arity (e : expression) =
  match e.pexp_desc with
  | Pexp_function (params, _, body) ->
      List.length params
      + (match body with Pfunction_cases _ -> 1 | Pfunction_body _ -> 0)
  | _ -> 0

(* Maps "Module.fn" -> arity for every [@cdna.hot] binding. Descends into
   submodules, registering under the innermost module name — callers
   reference [Sim.Stats.Histogram.add] and [key2] reduces that to
   "Histogram.add", so the innermost name is the one that resolves. *)
let collect_hot parsed =
  let table = Hashtbl.create 64 in
  let rec scan_items modname items =
    List.iter
      (fun (item : structure_item) ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun (vb : value_binding) ->
                if has_attr "cdna.hot" vb.pvb_attributes then
                  match vb.pvb_pat.ppat_desc with
                  | Ppat_var { txt; _ } ->
                      Hashtbl.replace table
                        (modname ^ "." ^ txt)
                        (fn_arity vb.pvb_expr)
                  | _ -> ())
              vbs
        | Pstr_module mb -> scan_module_binding mb
        | Pstr_recmodule mbs -> List.iter scan_module_binding mbs
        | _ -> ())
      items
  and scan_module_binding (mb : module_binding) =
    match (mb.pmb_name.txt, mb.pmb_expr.pmod_desc) with
    | Some sub, Pmod_structure items -> scan_items sub items
    | _ -> ()
  in
  List.iter
    (fun (path, structure) ->
      match structure with
      | None -> ()
      | Some structure -> scan_items (module_of_path path) structure)
    parsed;
  table

(* ------------------------------------------------------------------ *)
(* Checker (pass 2)                                                    *)
(* ------------------------------------------------------------------ *)

type context = {
  hot_table : (string, int) Hashtbl.t;
  mutable diags : diag list;
  suppressions : (string, int) Hashtbl.t;
}

let bump tbl k = Hashtbl.replace tbl k (1 + try Hashtbl.find tbl k with Not_found -> 0)

class checker (ctx : context) (file : string) (local_toplevel : SSet.t)
  (local_hot : SSet.t) (privileged : bool) =
  object (self)
    inherit Ast_traverse.iter as super

    val mutable in_hot = false
    val mutable suppressed : SSet.t = SSet.empty

    (* Physical identity sets (small, per-file). *)
    val mutable sorted_ok : expression list = []
    val mutable allowed_funs : expression list = []

    (* [module H = Hashtbl] / [let module H = Hashtbl in ...]: local
       name -> flattened target, so aliased calls cannot evade the
       name-keyed rules (D1 etc.). *)
    val mutable mod_aliases : string list SMap.t = SMap.empty

    (* Rewrite the leading component of a qualified name through the
       alias table ([H.iter] -> [Stdlib.Hashtbl.iter]); fuel-bounded in
       case of degenerate self-aliases. *)
    method private expand parts =
      let rec go fuel = function
        | first :: rest when fuel > 0 -> (
            match SMap.find_opt first mod_aliases with
            | Some target -> go (fuel - 1) (target @ rest)
            | None -> first :: rest)
        | parts -> parts
      in
      (* Only multi-component names can be module-qualified. *)
      match parts with [] | [ _ ] -> parts | _ -> go 4 parts

    method private record_alias (name : string option) (m : module_expr) =
      match name with
      | None -> ()
      | Some name -> (
          let rec target (m : module_expr) =
            match m.pmod_desc with
            | Pmod_ident { txt; _ } -> Some (flatten_lid txt)
            | Pmod_constraint (m', _) -> target m'
            | _ -> None
          in
          match target m with
          | Some (_ :: _ as parts) ->
              (* Expand at record time so chained aliases resolve. *)
              mod_aliases <- SMap.add name (self#expand parts) mod_aliases
          | _ -> ())

    method! module_binding mb =
      self#record_alias mb.pmb_name.txt mb.pmb_expr;
      super#module_binding mb

    method private report (loc : Location.t) rule msg =
      if not (SSet.mem rule suppressed) then
        let p = loc.loc_start in
        ctx.diags <-
          {
            file;
            line = p.pos_lnum;
            col = p.pos_cnum - p.pos_bol;
            rule;
            msg;
          }
          :: ctx.diags

    (* Record a suppression attribute: count it, validate its reason, and
       return the rule names it masks. *)
    method private suppression_rules (attrs : attributes) =
      List.concat_map
        (fun (a : attribute) ->
          match List.assoc_opt a.attr_name.txt suppression_attrs with
          | None -> []
          | Some rules ->
              bump ctx.suppressions a.attr_name.txt;
              (match a.attr_payload with
              | PStr
                  [
                    {
                      pstr_desc =
                        Pstr_eval
                          ( {
                              pexp_desc =
                                Pexp_constant (Pconst_string (reason, _, _));
                              _;
                            },
                            _ );
                      _;
                    };
                  ]
                when String.trim reason <> "" ->
                  ()
              | _ ->
                  self#report a.attr_loc rule_s1
                    (Printf.sprintf
                       "[@%s] must carry a non-empty reason string"
                       a.attr_name.txt));
              rules)
        attrs

    method private check_ident (loc : Location.t) parts =
      let k2 = key2 parts and k1 = key1 parts in
      (* D2: polymorphic compare / hash entry points, any occurrence. *)
      if SSet.mem k2 poly_idents || (List.length parts = 1 && SSet.mem k1 poly_idents)
      then
        self#report loc rule_d2
          (Printf.sprintf
             "polymorphic %s: use a typed comparison (Int.compare, \
              String.compare, ...) or annotate [@cdna.polyeq_ok]"
             k2);
      (* D3: nondeterministic primitives. *)
      if SSet.mem k2 forbidden_idents then
        self#report loc rule_d3
          (Printf.sprintf
             "%s is nondeterministic; route randomness through Sim.Rng and \
              time through Sim.Engine, or annotate [@cdna.nondet_ok]"
             k2)
      else if SSet.mem (owning_module parts) forbidden_modules then
        self#report loc rule_d3
          (Printf.sprintf
             "%s: %s is forbidden in lib/ (nondeterministic or \
              representation-dependent); annotate [@cdna.nondet_ok] if this \
              is diagnostics-only"
             k2 (owning_module parts));
      (* P1 / P2: protection boundaries. *)
      if not privileged then begin
        if SSet.mem k2 ownership_fns && not (ownership_privileged file) then
          self#report loc rule_p1
            (Printf.sprintf
               "%s mutates page ownership / DMA permissions; only lib/xen, \
                lib/host and lib/memory may (or declare the module \
                [@@@cdna.privileged \"reason\"])"
               k2);
        if SSet.mem k2 byte_access_fns && guest_restricted file then
          self#report loc rule_p2
            (Printf.sprintf
               "%s bypasses DMA protection: lib/nic and lib/guestos must \
                reach guest memory through Bus.Dma_engine (or justify with \
                [@cdna.protection_ok])"
               k2)
      end

    (* A-rule helper: a constructor payload that the compiler allocates
       statically (structured constant) is not a runtime allocation. *)
    method private static_payload (e : expression) =
      let rec const (e : expression) =
        match e.pexp_desc with
        | Pexp_constant _ -> true
        | Pexp_construct (_, None) -> true
        | Pexp_construct (_, Some arg) -> const arg
        | Pexp_variant (_, None) -> true
        | Pexp_variant (_, Some arg) -> const arg
        | Pexp_tuple es -> List.for_all const es
        | _ -> false
      in
      const e

    method private check_hot_call (loc : Location.t) parts nargs =
      let k2 = key2 parts and k1 = key1 parts in
      let qualified = List.length parts > 1 in
      if qualified then begin
        if SSet.mem k2 allow_qualified then ()
        else if SSet.mem (owning_module parts) boxed_arith_modules then
          self#report loc rule_a5
            (Printf.sprintf "%s works on boxed numbers in a [@cdna.hot] body"
               k2)
        else
          match Hashtbl.find_opt ctx.hot_table k2 with
          | Some arity ->
              if arity > 0 && nargs < arity then
                self#report loc rule_a4
                  (Printf.sprintf
                     "partial application of %s (%d of %d args) builds a \
                      closure in a [@cdna.hot] body"
                     k2 nargs arity)
          | None ->
              self#report loc rule_a3
                (Printf.sprintf
                   "[@cdna.hot] body calls %s, which is neither [@cdna.hot] \
                    nor an allowlisted primitive"
                   k2)
      end
      else if SSet.mem k1 float_operators then
        self#report loc rule_a5
          (Printf.sprintf
             "float operator %s boxes its result in a [@cdna.hot] body" k1)
      else if SSet.mem k1 alloc_operators then
        self#report loc rule_a1
          (Printf.sprintf "%s allocates in a [@cdna.hot] body" k1)
      else if is_operator_name k1 then ()
      else if SSet.mem k1 allow_bare then ()
      else if SSet.mem k1 local_hot then begin
        match
          Hashtbl.find_opt ctx.hot_table (module_of_path file ^ "." ^ k1)
        with
        | Some arity when arity > 0 && nargs < arity ->
            self#report loc rule_a4
              (Printf.sprintf
                 "partial application of %s (%d of %d args) builds a closure \
                  in a [@cdna.hot] body"
                 k1 nargs arity)
        | _ -> ()
      end
      else if SSet.mem k1 local_toplevel then
        self#report loc rule_a3
          (Printf.sprintf
             "[@cdna.hot] body calls %s, a module-level function that is not \
              [@cdna.hot]"
             k1)
      (* Bare non-toplevel idents are parameters or locals (callbacks,
         closures passed in): allowed — the caller is responsible. *)

    method! value_binding vb =
      let saved_hot = in_hot and saved_sup = suppressed in
      let rules = self#suppression_rules vb.pvb_attributes in
      suppressed <- SSet.union suppressed (SSet.of_list rules);
      if has_attr "cdna.hot" vb.pvb_attributes then in_hot <- true;
      (* The binding's own leading [fun] chain is the function itself,
         and a *named* local function is compiled statically when every
         use is a direct call (escapes show up as A1/A2/A3 at the escape
         site) — neither is a closure allocation. *)
      if in_hot then begin
        match vb.pvb_expr.pexp_desc with
        | Pexp_function _ -> allowed_funs <- vb.pvb_expr :: allowed_funs
        | _ -> ()
      end;
      super#value_binding vb;
      in_hot <- saved_hot;
      suppressed <- saved_sup

    method! expression e =
      let saved_hot = in_hot and saved_sup = suppressed in
      let saved_aliases = mod_aliases in
      let rules = self#suppression_rules e.pexp_attributes in
      suppressed <- SSet.union suppressed (SSet.of_list rules);
      (* A let-module alias scopes over the body walked below;
         [saved_aliases] restores it on exit. *)
      (match e.pexp_desc with
      | Pexp_letmodule (name, me, _) -> self#record_alias name.txt me
      | _ -> ());
      (match e.pexp_desc with
      | Pexp_ident { txt; loc } ->
          self#check_ident loc (self#expand (flatten_lid txt))
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> begin
          let parts = self#expand (flatten_lid txt) in
          let k2 = key2 parts and k1 = key1 parts in
          (* Mark arguments fed into a sort as order-safe. *)
          let mark_if_unordered (arg : expression) =
            match arg.pexp_desc with
            | Pexp_apply ({ pexp_desc = Pexp_ident { txt = f; _ }; _ }, _)
              when SSet.mem (key2 (self#expand (flatten_lid f))) unordered_fns
              ->
                sorted_ok <- arg :: sorted_ok
            | _ -> ()
          in
          if SSet.mem k2 sort_fns then
            List.iter (fun (_, a) -> mark_if_unordered a) args
          else if k1 = "|>" then begin
            match args with
            | [ (_, lhs); (_, rhs) ] -> (
                match rhs.pexp_desc with
                | Pexp_apply
                    ({ pexp_desc = Pexp_ident { txt = f; _ }; _ }, _)
                  when SSet.mem (key2 (self#expand (flatten_lid f))) sort_fns ->
                    mark_if_unordered lhs
                | _ -> ())
            | _ -> ()
          end
          else if k1 = "@@" then begin
            match args with
            | [ (_, lhs); (_, rhs) ] -> (
                match lhs.pexp_desc with
                | Pexp_apply
                    ({ pexp_desc = Pexp_ident { txt = f; _ }; _ }, _)
                  when SSet.mem (key2 (self#expand (flatten_lid f))) sort_fns ->
                    mark_if_unordered rhs
                | _ -> ())
            | _ -> ()
          end;
          (* D1: unordered iteration, unless sorted or annotated. *)
          if
            SSet.mem k2 unordered_fns
            && not (List.memq e sorted_ok)
          then
            self#report e.pexp_loc rule_d1
              (Printf.sprintf
                 "%s iterates in hash order; sort the result by a stable key \
                  (List.sort around the fold) or annotate [@cdna.unordered_ok \
                  \"reason\"]"
                 k2);
          (* D2: comparison operators on syntactically structured operands. *)
          if SSet.mem k1 cmp_ops && List.length parts = 1 then begin
            let compound (arg : expression) =
              match arg.pexp_desc with
              | Pexp_tuple _ | Pexp_record _ | Pexp_array _ | Pexp_lazy _ ->
                  true
              | Pexp_construct ({ txt = Lident "()"; _ }, None) -> false
              | Pexp_construct (_, Some _) -> true
              | Pexp_variant (_, Some _) -> true
              | _ -> false
            in
            if List.exists (fun (_, a) -> compound a) args then
              self#report e.pexp_loc rule_d2
                (Printf.sprintf
                   "polymorphic (%s) on a structured value; compare the \
                    fields explicitly or use a typed equal"
                   k1)
          end;
          (* A: hot-path call discipline. *)
          if in_hot then
            if SSet.mem k2 cold_exits || (List.length parts = 1 && SSet.mem k1 cold_exits)
            then begin
              (* Error exits leave the steady-state path: skip allocation
                 checks inside their payload, but keep D/P checks. *)
              in_hot <- false
            end
            else self#check_hot_call e.pexp_loc parts (List.length args)
        end
      | Pexp_tuple _ when in_hot && not (self#static_payload e) ->
          self#report e.pexp_loc rule_a1
            "tuple construction allocates in a [@cdna.hot] body"
      | Pexp_record _ when in_hot ->
          self#report e.pexp_loc rule_a1
            "record construction allocates in a [@cdna.hot] body"
      | Pexp_array _ when in_hot ->
          self#report e.pexp_loc rule_a1
            "array literal allocates in a [@cdna.hot] body"
      | Pexp_construct (_, Some _) when in_hot && not (self#static_payload e)
        ->
          self#report e.pexp_loc rule_a1
            "constructor application allocates in a [@cdna.hot] body \
             (return bare values, or annotate [@cdna.alloc_ok])"
      | Pexp_variant (_, Some _) when in_hot && not (self#static_payload e) ->
          self#report e.pexp_loc rule_a1
            "polymorphic-variant payload allocates in a [@cdna.hot] body"
      | Pexp_lazy _ when in_hot ->
          self#report e.pexp_loc rule_a1
            "lazy suspension allocates in a [@cdna.hot] body"
      | (Pexp_object _ | Pexp_pack _ | Pexp_letmodule _) when in_hot ->
          self#report e.pexp_loc rule_a1
            "first-class module / object allocates in a [@cdna.hot] body"
      | Pexp_constant (Pconst_float _) when in_hot ->
          self#report e.pexp_loc rule_a5
            "float literal in a [@cdna.hot] body (float results are boxed)"
      | Pexp_function _ when in_hot && not (List.memq e allowed_funs) ->
          self#report e.pexp_loc rule_a2
            "anonymous function captures its environment (closure \
             allocation) in a [@cdna.hot] body; name it with [let] or \
             annotate [@cdna.alloc_ok]"
      | _ -> ());
      super#expression e;
      in_hot <- saved_hot;
      suppressed <- saved_sup;
      mod_aliases <- saved_aliases
  end

(* ------------------------------------------------------------------ *)
(* Per-file driver                                                     *)
(* ------------------------------------------------------------------ *)

let parse_file path contents =
  let lexbuf = Lexing.from_string contents in
  lexbuf.lex_curr_p <-
    { pos_fname = path; pos_lnum = 1; pos_bol = 0; pos_cnum = 0 };
  Parse.implementation lexbuf

let toplevel_names structure =
  List.fold_left
    (fun (all, hot) (item : structure_item) ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.fold_left
            (fun (all, hot) (vb : value_binding) ->
              match vb.pvb_pat.ppat_desc with
              | Ppat_var { txt; _ } ->
                  ( SSet.add txt all,
                    if has_attr "cdna.hot" vb.pvb_attributes then
                      SSet.add txt hot
                    else hot )
              | _ -> (all, hot))
            (all, hot) vbs
      | _ -> (all, hot))
    (SSet.empty, SSet.empty) structure

let file_privileged ctx structure =
  List.exists
    (fun (item : structure_item) ->
      match item.pstr_desc with
      | Pstr_attribute a when a.attr_name.txt = "cdna.privileged" ->
          bump ctx.suppressions "cdna.privileged";
          true
      | _ -> false)
    structure

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(* [run files] lints [(path, contents)] pairs. [path] determines both
   diagnostics and which boundary rules apply. *)
let run (files : (string * string) list) : diag list * stats =
  let ctx =
    { hot_table = Hashtbl.create 64; diags = []; suppressions = Hashtbl.create 8 }
  in
  let parsed =
    List.map
      (fun (path, contents) ->
        match parse_file path contents with
        | structure -> (path, Some structure)
        | exception exn ->
            let msg =
              match Location.Error.of_exn exn with
              | Some e -> Location.Error.message e
              | None -> Printexc.to_string exn
            in
            ctx.diags <-
              { file = path; line = 1; col = 0; rule = rule_parse; msg }
              :: ctx.diags;
            (path, None))
      files
  in
  let hot_table = collect_hot parsed in
  Hashtbl.iter (fun k v -> Hashtbl.replace ctx.hot_table k v) hot_table;
  List.iter
    (fun (path, structure) ->
      match structure with
      | None -> ()
      | Some structure ->
          let all, hot = toplevel_names structure in
          let privileged = file_privileged ctx structure in
          let c = new checker ctx path all hot privileged in
          c#structure structure)
    parsed;
  let diags = List.sort diag_compare ctx.diags in
  let rule_counts =
    List.filter_map
      (fun r ->
        match List.length (List.filter (fun d -> d.rule = r) diags) with
        | 0 -> None
        | n -> Some (r, n))
      all_rules
  in
  let suppression_counts =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) ctx.suppressions []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  ( diags,
    {
      files_scanned = List.length files;
      hot_functions = Hashtbl.length ctx.hot_table;
      violations = List.length diags;
      rule_counts;
      suppression_counts;
    } )

let diags_to_json diags =
  Sim.Json.List
    (List.map
       (fun d ->
         Sim.Json.Obj
           [
             ("file", Sim.Json.String d.file);
             ("line", Sim.Json.Int d.line);
             ("col", Sim.Json.Int d.col);
             ("rule", Sim.Json.String d.rule);
             ("msg", Sim.Json.String d.msg);
           ])
       diags)

let stats_to_json s =
  Sim.Json.Obj
    [
      ("files_scanned", Sim.Json.Int s.files_scanned);
      ("hot_functions", Sim.Json.Int s.hot_functions);
      ("violations", Sim.Json.Int s.violations);
      ( "rules",
        Sim.Json.Obj
          (List.map (fun (r, n) -> (r, Sim.Json.Int n)) s.rule_counts) );
      ( "suppressions",
        Sim.Json.Obj
          (List.map
             (fun (r, n) -> (r, Sim.Json.Int n))
             s.suppression_counts) );
    ]
