(* Program — one loaded [.cmt] corpus, shared by every typedtree pass
   ([cdna_lint], [cdna_flow], [cdna_dom], [cdna_proto]).

   [load] reads each implementation [.cmt] once, walks its modules once
   and builds the model the passes layer their rules over: the module
   list (with [@@@cdna.layer] / [@@@cdna.privileged] applied), every
   module-level value binding in walk order, the module-alias map that
   callee names canonicalize against ([let module] aliases included),
   and one function table. On top of
   the model sit the pieces every pass used to re-implement: the callee
   resolver, the site classifier behind the expression-level and
   zero-alloc rules, the round-robin summary fixpoint, the witness-path
   DFS and the violation de-dup/sort/split.

   [load_with ~entries] also walks the executables under [entries]
   (their bindings, aliases and module-level items) into fields of their
   own, so the reach report can start from them while every other pass
   still sees only the analysed tree.

   The model is immutable. A pass keeps its facts and summaries in
   arrays indexed by [f_idx], so one loaded program can feed any number
   of passes in any order without one pass seeing another's state. *)

open Chain

exception Load_error of string

type modl = {
  m_name : string;
  m_file : string;
  m_layer : string; (* path-derived, or [@@@cdna.layer "..."] *)
  m_privileged : bool; (* [@@@cdna.privileged], inherited by submodules *)
  m_attrs : Parsetree.attribute list; (* this structure's own [@@@...] *)
  m_entry : bool; (* walked from an [entries] root *)
}

type binding = { b_mod : modl; b_vb : Typedtree.value_binding }

(* One parameter of a function. A defaulted optional [?(x = d)] is
   [x] itself with [p_default] set, not the [*opt*] it types as. *)
type param = {
  p_arg : Asttypes.arg_label;
  p_pat : Typedtree.pattern;
  p_default : bool;
}

type fn = {
  f_idx : int; (* dense index in [f_id] order, for per-pass arrays *)
  f_id : string; (* "Mod.name" *)
  f_module : string;
  f_file : string;
  f_line : int;
  f_layer : string;
  f_privileged : bool;
  f_attrs : Parsetree.attributes;
  f_params : param list;
  f_body : Typedtree.expression; (* below the peeled parameters *)
  f_expr : Typedtree.expression; (* the whole bound expression *)
  f_plain : bool;
      (* [let f = fun ..] bound by a plain variable. The others — a
         let-spine closure [let f = let c = .. in fun ..] or a
         constrained [let f : t = ..] — only cdna_dom analyzes. *)
}

(* A module-level item that is neither a value binding nor a walked
   submodule: an [include], a functor application, a toplevel
   expression. *)
type item = { i_mod : modl; i_item : Typedtree.structure_item }

(* A [val] of an analysed module's interface ([.cmti]). *)
type export = {
  e_id : string; (* "Mod.name" *)
  e_file : string; (* the [.mli] *)
  e_line : int;
}

type t = {
  files : int; (* implementation .cmt files read *)
  modules : modl list;
  bindings : binding list; (* walk order *)
  aliases : string SMap.t;
      (* module aliases, [let module] ones included, and functor
         instances *)
  fns : fn SMap.t; (* every function *)
  plain_fns : fn SMap.t; (* the [f_plain] ones *)
  exports : export list; (* by file, then interface order *)
  items : item list; (* analysed and entry trees, walk order *)
  entries : binding list; (* the [entries] trees' bindings, walk order *)
  entry_aliases : string SMap.t;
}

(* ------------------------------------------------------------------ *)
(* Typedtree shapes                                                    *)
(* ------------------------------------------------------------------ *)

(* Typing turns [fun ?(x = d) -> body] into [fun *opt* -> let x = match
   *opt* with Some v -> v | None -> d in body], the [let] marked
   [#default]. For a case body [e] of that shape, the binding of [x] and
   [body]. *)
let default_let (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_let (Nonrecursive, [ vb ], body)
    when List.exists
           (fun (a : Parsetree.attribute) -> a.attr_name.txt = "#default")
           e.exp_attributes ->
      Some (vb, body)
  | _ -> None

(* The parameters and body as written: a default's [let] is looked
   through. *)
let rec peel_params (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function { arg_label; cases = [ { c_lhs; c_guard = None; c_rhs } ]; _ }
    ->
      let p_pat, p_default, rest =
        match default_let c_rhs with
        | Some (vb, rest) -> (vb.vb_pat, true, rest)
        | None -> (c_lhs, false, c_rhs)
      in
      let params, body = peel_params rest in
      ({ p_arg = arg_label; p_pat; p_default } :: params, body)
  | _ -> ([], e)

(* Peel the [let a = .. in let b = .. in fun x -> ..] spine of a
   toplevel closure: the captured bindings, if the spine ends in a
   function. *)
let rec closure_spine (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function _ -> Some []
  | Texp_let (_, vbs, body) ->
      Option.map (fun captured -> vbs @ captured) (closure_spine body)
  | _ -> None

(* [let x = ..] and [let x : t = ..] bind through different pattern
   constructors. *)
let pat_var (p : Typedtree.pattern) =
  match p.pat_desc with
  | Tpat_var (id, { txt; _ }) -> Some (id, txt)
  | Tpat_alias ({ pat_desc = Tpat_any; _ }, id, { txt; _ }) -> Some (id, txt)
  | _ -> None

(* The alias target recorded for [module M = <mexpr>], if any:
   [module L = List] yields "List"; [module S = Set.Make (O)] resolves
   against the functor's parent module ("Set"), which is where the API
   semantics live. Structures and unpackings yield [None] — the walk
   recurses into those itself. *)
let module_alias_target (me : Typedtree.module_expr) =
  let rec functor_path (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_ident (p, _) -> Some (Path.name p)
    | Tmod_apply (f, _, _) -> functor_path f
    | Tmod_constraint (m, _, _, _) -> functor_path m
    | _ -> None
  in
  let comps p = List.map strip_wrap (split_on_dot p) in
  match me.mod_desc with
  | Tmod_ident (p, _) -> Some (String.concat "." (comps (Path.name p)))
  | Tmod_apply (f, _, _) -> (
      match Option.map (fun p -> List.rev (comps p)) (functor_path f) with
      | Some (_make :: parent) -> Some (String.concat "." (List.rev parent))
      | _ -> None)
  | _ -> None

(* The [let module M = N in ..] aliases inside an expression, as
   (M, target) pairs in source order. *)
let letmodule_aliases (e : Typedtree.expression) =
  let found = ref [] in
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_letmodule (Some id, _, _, me, _) ->
        Option.iter
          (fun t -> found := (Ident.name id, t) :: !found)
          (module_alias_target me)
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it e;
  List.rev !found

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)
(* ------------------------------------------------------------------ *)

let rec collect_cmts acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.fold_left
         (fun acc e -> collect_cmts acc (Filename.concat path e))
         acc
  else if Filename.check_suffix path ".cmt" then path :: acc
  else acc

(* The [val]s of an interface, nested module signatures included. *)
let rec sig_exports m (sg : Typedtree.signature) =
  List.concat_map
    (fun (it : Typedtree.signature_item) ->
      match it.sig_desc with
      | Tsig_value vd ->
          [ { e_id = m ^ "." ^ vd.val_name.txt; e_file = loc_file vd.val_loc;
              e_line = loc_line vd.val_loc } ]
      | Tsig_module
          { md_name = { txt = Some n; _ };
            md_type = { mty_desc = Tmty_signature sg; _ }; _ } ->
          sig_exports n sg
      | _ -> [])
    sg.sig_items

let load_with ~entries roots =
  let per_root =
    List.map
      (fun root ->
        if not (Sys.file_exists root) then
          raise (Load_error ("no such cmt root: " ^ root));
        (root, collect_cmts [] root))
      (roots @ entries)
  in
  let analysed =
    List.filteri (fun i _ -> i < List.length roots) per_root
    |> List.concat_map snd |> SSet.of_list
  in
  let paths = List.concat_map snd per_root |> List.sort_uniq String.compare in
  (* Envs stored in cmt files are summaries; rehydrating them (cdna_dom's
     mutable-record check) loads .cmi files, so the load path must cover
     the cmt dirs and the stdlib. *)
  Load_path.init ~auto_include:Load_path.no_auto_include
    (List.sort_uniq String.compare (List.map Filename.dirname paths)
    @ [ Config.standard_library ]);
  let modules = ref [] and bindings = ref [] and entry_bindings = ref [] in
  let aliases = ref SMap.empty and entry_aliases = ref SMap.empty in
  let fns = ref SMap.empty and impls = ref SSet.empty and items = ref [] in
  let exports = ref [] in
  let add_binding m (vb : Typedtree.value_binding) =
    if m.m_entry then
      entry_bindings := { b_mod = m; b_vb = vb } :: !entry_bindings
    else bindings := { b_mod = m; b_vb = vb } :: !bindings;
    (* A [let module] alias joins the map like a module-level one, so a
       pass that resolves names through the map alone (the reach
       report) sees calls through it. *)
    let aliases = if m.m_entry then entry_aliases else aliases in
    List.iter
      (fun (name, target) -> aliases := SMap.add name target !aliases)
      (letmodule_aliases vb.vb_expr);
    match (pat_var vb.vb_pat, closure_spine vb.vb_expr) with
    | Some (_, name), Some _ when not m.m_entry ->
        let params, body = peel_params vb.vb_expr in
        let f =
          {
            f_idx = 0;
            f_id = m.m_name ^ "." ^ name;
            f_module = m.m_name;
            f_file = m.m_file;
            f_line = loc_line vb.vb_loc;
            f_layer = m.m_layer;
            f_privileged = m.m_privileged;
            f_attrs = vb.vb_attributes;
            f_params = params;
            f_body = body;
            f_expr = vb.vb_expr;
            f_plain =
              (match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
              | Tpat_var _, Texp_function _ -> true
              | _ -> false);
          }
        in
        fns := SMap.add f.f_id f !fns
    | _ -> ()
  in
  let rec walk_structure m (str : Typedtree.structure) =
    let attrs =
      List.filter_map
        (fun (it : Typedtree.structure_item) ->
          match it.str_desc with Tstr_attribute a -> Some a | _ -> None)
        str.str_items
    in
    let m =
      List.fold_left
        (fun m a ->
          match (attr_name a, attr_reason a) with
          | "cdna.privileged", _ -> { m with m_privileged = true }
          | "cdna.layer", Some l -> { m with m_layer = l }
          | _ -> m)
        { m with m_attrs = attrs } attrs
    in
    if not m.m_entry then modules := m :: !modules;
    let rec applies (me : Typedtree.module_expr) =
      match me.mod_desc with
      | Tmod_apply _ -> true
      | Tmod_constraint (me, _, _, _) -> applies me
      | _ -> false
    in
    List.iter
      (fun (it : Typedtree.structure_item) ->
        match it.str_desc with
        | Tstr_value (_, vbs) -> List.iter (add_binding m) vbs
        | Tstr_module mb ->
            walk_module m mb;
            if applies mb.mb_expr then
              items := { i_mod = m; i_item = it } :: !items
        | Tstr_recmodule mbs -> List.iter (walk_module m) mbs
        | Tstr_include _ | Tstr_eval _ ->
            items := { i_mod = m; i_item = it } :: !items
        | _ -> ())
      str.str_items
  and walk_module parent (mb : Typedtree.module_binding) =
    let name =
      match (mb.mb_id, mb.mb_name.txt) with
      | Some id, _ -> Ident.name id
      | None, Some n -> n
      | None, None -> "_"
    in
    let aliases = if parent.m_entry then entry_aliases else aliases in
    let rec of_mexpr (me : Typedtree.module_expr) =
      match module_alias_target me with
      | Some target -> aliases := SMap.add name target !aliases
      | None -> (
          match me.mod_desc with
          | Tmod_structure s -> walk_structure { parent with m_name = name } s
          | Tmod_constraint (m, _, _, _) -> of_mexpr m
          | _ -> ())
    in
    of_mexpr mb.mb_expr
  in
  let toplevel name file entry =
    {
      m_name = name;
      m_file = file;
      m_layer = layer_of_file file;
      m_privileged = false;
      m_attrs = [];
      m_entry = entry;
    }
  in
  let read path =
    try Cmt_format.read_cmt path
    with e ->
      raise
        (Load_error
           (Printf.sprintf "cannot read %s: %s" path (Printexc.to_string e)))
  in
  List.iter
    (fun path ->
      let cmt = read path and entry = not (SSet.mem path analysed) in
      match (cmt.cmt_annots, cmt.cmt_sourcefile) with
      | Implementation str, Some src
        when not (Filename.check_suffix src ".ml-gen") ->
          impls := SSet.add path !impls;
          let m = toplevel (strip_wrap cmt.cmt_modname) src entry in
          walk_structure m str;
          let intf = Filename.remove_extension path ^ ".cmti" in
          if (not entry) && Sys.file_exists intf then (
            match (read intf).cmt_annots with
            | Interface sg -> exports := sig_exports m.m_name sg :: !exports
            | _ -> ())
      | Implementation str, Some _ ->
          (* dune alias modules: harvest [module X = Lib__X] only. *)
          List.iter
            (fun (it : Typedtree.structure_item) ->
              match it.str_desc with
              | Tstr_module mb -> walk_module (toplevel "" "" entry) mb
              | _ -> ())
            str.str_items
      | _ -> ())
    paths;
  List.iter
    (fun (root, ps) ->
      if not (List.exists (fun p -> SSet.mem p !impls) ps) then
        raise (Load_error ("no implementation .cmt under " ^ root)))
    per_root;
  let fns =
    SMap.to_seq !fns
    |> Seq.mapi (fun i (id, f) -> (id, { f with f_idx = i }))
    |> SMap.of_seq
  in
  {
    files = SSet.cardinal (SSet.inter !impls analysed);
    modules = List.rev !modules;
    bindings = List.rev !bindings;
    aliases = !aliases;
    fns;
    plain_fns = SMap.filter (fun _ f -> f.f_plain) fns;
    exports = List.concat (List.rev !exports);
    items = List.rev !items;
    entries = List.rev !entry_bindings;
    entry_aliases = !entry_aliases;
  }

let load roots = load_with ~entries:[] roots

(* ------------------------------------------------------------------ *)
(* Callee resolution                                                   *)
(* ------------------------------------------------------------------ *)

(* The canonical name of an identifier in callee position. *)
let callee p (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (path, _, _) -> Some (canon_of p.aliases (Path.name path))
  | _ -> None

(* Intra-module references are bare [Pident]s: qualify [c] against
   [modname] when that names an entry of [tbl] and [c] itself does
   not. *)
let qualify tbl ~modname c =
  if SMap.mem c tbl || String.contains c '.' then c
  else
    let local = modname ^ "." ^ c in
    if SMap.mem local tbl then local else c

let find tbl ~modname c = SMap.find_opt (qualify tbl ~modname c) tbl

(* ------------------------------------------------------------------ *)
(* Expression sites                                                    *)
(* ------------------------------------------------------------------ *)

(* Runtime allocations a rule can see in the source. *)
type alloc =
  | Tuple
  | Record
  | Array
  | Constructor
  | Variant
  | Lazy
  | Module (* first-class module, object or [let module] *)
  | Closure (* an anonymous function *)
  | Float (* a float literal, boxed *)

type kind =
  | Ref of string (* a value identifier outside callee position *)
  | Call of {
      callee : string; (* canonical, unqualified for same-module names *)
      nargs : int;
      sorted : bool; (* an argument of a sort *)
      structured : bool; (* an argument is a syntactic tuple, record, .. *)
    }
  | Alloc of alloc
  | Attr of Parsetree.attribute

type site = {
  kind : kind;
  loc : Location.t;
  sup : string list; (* names of the attributes in scope *)
  cold : bool; (* inside the arguments of a [cold_exits] call *)
}

(* The leading [fun] chain of a function is one closure, not one per
   parameter. *)
let rec fun_chain (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function { cases = [ { c_rhs; c_guard = None; _ } ]; _ } ->
      e
      :: fun_chain
           (match default_let c_rhs with Some (_, b) -> b | None -> c_rhs)
  | Texp_function _ -> [ e ]
  | _ -> []

(* A structured constant: ocamlopt emits it statically. *)
let rec static (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_constant _ | Texp_variant (_, None) -> true
  | Texp_construct (_, _, es) | Texp_tuple es -> List.for_all static es
  | Texp_variant (_, Some e) -> static e
  | _ -> false

let alloc_of (e : Typedtree.expression) =
  match e.exp_desc with
  | _ when static e -> None
  | Texp_tuple _ -> Some Tuple
  | Texp_construct (_, _, _ :: _) -> Some Constructor
  | Texp_variant (_, Some _) -> Some Variant
  | Texp_record _ -> Some Record
  | Texp_array (_ :: _) -> Some Array
  | Texp_lazy _ -> Some Lazy
  | Texp_object _ | Texp_pack _ | Texp_letmodule _ -> Some Module
  | Texp_constant (Const_float _) -> Some Float
  | _ -> None

let structured (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_tuple _ | Texp_record _ | Texp_array _ | Texp_lazy _
  | Texp_variant (_, Some _) | Texp_construct (_, _, _ :: _) ->
      true
  | _ -> false

(* Every site of the binding [attrs]/[e], in source order. A named
   function ([let f x = ..], local or not) is compiled to direct calls
   and is no closure site; [let module M = N] aliases scope over their
   body. *)
let sites p ~attrs (e : Typedtree.expression) =
  let out = ref [] and sup = ref [] and cold = ref false in
  let aliases = ref p.aliases and named = ref (fun_chain e) in
  let sorted = ref [] in
  let emit kind loc = out := { kind; loc; sup = !sup; cold = !cold } :: !out in
  let enter attrs =
    List.iter (fun a -> emit (Attr a) a.Parsetree.attr_loc) attrs;
    sup := List.map attr_name attrs @ !sup
  in
  let name path = canon_of !aliases (Path.name path) in
  (* Typing rewrites [x |> f a] and [f a @@ x] to [(f a) x]: a call
     is the innermost [f a] with every argument applied to it. *)
  let rec call (f : Typedtree.expression) loc args =
    match f.exp_desc with
    | Texp_ident (path, _, _) -> Some (name path, loc, args)
    | Texp_apply (g, args') ->
        call g f.exp_loc (List.filter_map snd args' @ args)
    | _ -> None
  in
  let expr it (e : Typedtree.expression) =
    let sup0 = !sup and cold0 = !cold and aliases0 = !aliases in
    enter
      (e.exp_attributes @ List.concat_map (fun (_, _, a) -> a) e.exp_extra);
    Option.iter (fun a -> emit (Alloc a) e.exp_loc) (alloc_of e);
    (match e.exp_desc with
    | Texp_ident (path, _, _) -> emit (Ref (name path)) e.exp_loc
    | Texp_function _ when not (List.memq e !named) ->
        emit (Alloc Closure) e.exp_loc;
        named := fun_chain e @ !named
    | Texp_letmodule (Some id, _, _, me, _) ->
        Option.iter
          (fun t -> aliases := SMap.add (Ident.name id) t !aliases)
          (module_alias_target me)
    | _ -> ());
    (match e.exp_desc with
    | Texp_apply (f, args) -> (
        match call f e.exp_loc (List.filter_map snd args) with
        | Some (c, loc, args) ->
            if SSet.mem c sort_fns then sorted := args @ !sorted;
            if SSet.mem c cold_exits then cold := true;
            emit
              (Call
                 {
                   callee = c;
                   nargs = List.length args;
                   sorted = List.memq e !sorted;
                   structured = List.exists structured args;
                 })
              loc;
            List.iter (it.Tast_iterator.expr it) args
        | None -> Tast_iterator.default_iterator.expr it e)
    | _ -> Tast_iterator.default_iterator.expr it e);
    sup := sup0;
    cold := cold0;
    aliases := aliases0
  in
  let value_binding it (vb : Typedtree.value_binding) =
    let saved = !sup in
    enter vb.vb_attributes;
    named := fun_chain vb.vb_expr @ !named;
    Tast_iterator.default_iterator.value_binding it vb;
    sup := saved
  in
  let it = { Tast_iterator.default_iterator with expr; value_binding } in
  enter attrs;
  it.expr it e;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Shared analysis drivers                                             *)
(* ------------------------------------------------------------------ *)

(* A per-function table for a pass's facts. *)
let table p init = Array.make (SMap.cardinal p.fns) init

(* Interprocedural summaries: round-robin over [fns] in order, each
   [eval get f] reading callee summaries through [get] and seeing the
   ones computed so far, until no summary's canonical [image] changes
   (at most 20 rounds). [eval] must be a function of the summaries it
   reads: a function none of whose reads changed since its last
   evaluation would return the same summary again, so it is skipped. *)
let fixpoint p ~empty ~image ~eval fns =
  let summ = table p empty and images = table p (image empty) in
  (* Per function: the step it last changed at, the step it was last
     evaluated at (-1: never) and the summaries that evaluation read. *)
  let changed_at = table p 0 and evaluated_at = table p (-1) in
  let reads = table p [] in
  let step = ref 0 and changed = ref true and rounds = ref 0 in
  let stale i =
    evaluated_at.(i) < 0
    || List.exists (fun d -> changed_at.(d) > evaluated_at.(i)) reads.(i)
  in
  while !changed && !rounds < 20 do
    incr rounds;
    changed := false;
    List.iter
      (fun f ->
        let i = f.f_idx in
        if stale i then begin
          let read = ref [] in
          let get g =
            read := g.f_idx :: !read;
            summ.(g.f_idx)
          in
          let s = eval get f in
          evaluated_at.(i) <- !step;
          reads.(i) <- !read;
          incr step;
          let img = image s in
          if img <> images.(i) then begin
            summ.(i) <- s;
            images.(i) <- img;
            changed_at.(i) <- !step;
            changed := true
          end
        end)
      fns
  done;
  summ

(* Depth-first call-graph walk from [root], entering each function at
   most once. [step path f c] judges call [c] of [f] (reached along
   [path]) and names the callee to descend into; [enter path g] runs on
   first entry, with [path] ending in the "f calls g" hop. *)
let dfs ~calls ~line ?(enter = fun _ _ -> ()) ~step root_hop root =
  let visited = Hashtbl.create 16 in
  let rec walk path f =
    List.iter
      (fun c ->
        match step path f c with
        | Some g when not (Hashtbl.mem visited g.f_idx) ->
            Hashtbl.add visited g.f_idx ();
            let path =
              path
              @ [
                  {
                    hop_what = Printf.sprintf "%s calls %s" f.f_id g.f_id;
                    hop_file = f.f_file;
                    hop_line = line c;
                  };
                ]
            in
            enter path g;
            walk path g
        | _ -> ())
      (calls f)
  in
  walk [ root_hop ] root

(* Breadth-first search from [roots], in order. [succ k l] lists the
   (key, label) pairs that key [k], reached with label [l], leads to;
   the first label to reach a key is the one kept. *)
let bfs ~succ roots =
  let seen = ref SMap.empty and queue = Queue.create () in
  let visit (k, l) =
    if not (SMap.mem k !seen) then begin
      seen := SMap.add k l !seen;
      Queue.push (k, l) queue
    end
  in
  List.iter visit roots;
  while not (Queue.is_empty queue) do
    let k, l = Queue.pop queue in
    List.iter visit (succ k l)
  done;
  !seen

(* De-duplicate on (rule, file, line, msg), keeping the first
   occurrence in [vs], sort, and split into (unsuppressed, suppressed). *)
let finish vs =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun v ->
      let k = (v.rule, v.file, v.line, v.msg) in
      (not (Hashtbl.mem seen k)) && (Hashtbl.add seen k (); true))
    vs
  |> List.sort violation_compare
  |> List.partition (fun v -> v.suppress = None)
