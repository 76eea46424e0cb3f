(* Cdna_reach — the reach report: which exported values of the analysed
   library the entry executables reach ([Program.load_with ~entries]).

   Nodes are module-level values, named as [Program] names functions
   ("Mod.name"). A module-level binding has an edge to every value an
   identifier inside it names: a call, a closure stored in a record, a
   function passed on. Names resolve through the module-alias map; a
   module passed to a functor or packed as a first-class module reaches
   every value it exports. The roots are the entry trees' bindings and
   module-level items, tests excepted, plus the library's own
   module-level items (an [include], a functor application), which run
   at link time. A test is an entry module whose source lies under a
   [test/] directory or is named [test_*]; it roots nothing, and each
   report entry lists the tests that name it.

   Reported:
   - unreached: an exported value no root reaches;
   - internal: a reached exported value that no root and no reached
     binding outside its own compilation unit names;
   - optional: an optional parameter of a reached library function that
     no reached call site supplies. A call forwarding the caller's own
     [?x] supplies it only if the caller's [?x] is supplied; a function
     named outside callee position may be applied anywhere, so each of
     its optional parameters counts as supplied. *)

open Chain
open Program

type entry = {
  kind : string; (* "unreached" | "internal" | "optional" *)
  value : string; (* "Mod.name", or "Mod.name ?x" *)
  file : string;
  line : int;
  tests : string list; (* test modules naming it, sorted *)
}

type report = {
  roots : int; (* entry modules other than tests *)
  tests : int; (* test modules *)
  exported : int;
  entries : entry list; (* by kind, then file and line *)
}

type owner =
  | Lib of string list (* the values a library binding defines *)
  | Root
  | Test of string

let is_test file =
  path_has_dir file "test"
  || String.starts_with ~prefix:"test_" (Filename.basename file)

let unit_of file = Filename.remove_extension (normalize_path file)

(* What one binding or item names: values (in any position), values
   named outside callee position, whole modules, and calls with their
   labelled arguments. *)
type refs = {
  mutable vals : string list;
  mutable loose : string list;
  mutable mods : string list;
  mutable calls :
    (string * (Asttypes.arg_label * Typedtree.expression option) list) list;
}

let scan ~value ~modl walk =
  let r = { vals = []; loose = []; mods = []; calls = [] } in
  let rec mod_path (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_ident (p, _) -> Some p
    | Tmod_constraint (me, _, _, _) -> mod_path me
    | _ -> None
  in
  let whole me =
    Option.iter (fun p -> r.mods <- modl p :: r.mods) (mod_path me)
  in
  (* [x |> f ~a] types as [(f ~a) x]: the call is the innermost head with
     every argument applied to it. *)
  let rec head (f : Typedtree.expression) args =
    match f.exp_desc with
    | Texp_apply (g, a) -> head g (a @ args)
    | Texp_ident (p, _, _) -> Option.map (fun v -> (v, args)) (value p)
    | _ -> None
  in
  let expr it (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_ident (p, _, _) ->
        Option.iter
          (fun v ->
            r.vals <- v :: r.vals;
            r.loose <- v :: r.loose)
          (value p)
    | Texp_apply (f, args) -> (
        match head f args with
        | Some (v, args) ->
            r.vals <- v :: r.vals;
            r.calls <- (v, args) :: r.calls;
            List.iter
              (fun (_, a) -> Option.iter (it.Tast_iterator.expr it) a)
              args
        | None -> Tast_iterator.default_iterator.expr it e)
    | Texp_pack me ->
        whole me;
        Tast_iterator.default_iterator.expr it e
    | _ -> Tast_iterator.default_iterator.expr it e
  in
  let module_expr it (me : Typedtree.module_expr) =
    (match me.mod_desc with Tmod_apply (_, arg, _) -> whole arg | _ -> ());
    Tast_iterator.default_iterator.module_expr it me
  in
  walk { Tast_iterator.default_iterator with expr; module_expr };
  r

(* The optional parameters of a function binding, below any closure
   spine: label, and the parameter's identifier when it has no default
   (a forward passes that identifier on). *)
let rec optionals (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_let (_, _, body) -> optionals body
  | _ ->
      List.filter_map
        (fun p ->
          match p.p_arg with
          | Optional l when p.p_default -> Some (l, None)
          | Optional l -> Some (l, Option.map fst (pat_var p.p_pat))
          | Nolabel | Labelled _ -> None)
        (fst (peel_params e))

(* One binding or module-level item: who it belongs to, where it is,
   what it names and, for a function binding, its optional parameters. *)
type use = {
  owner : owner;
  file : string;
  line : int;
  refs : refs;
  fn : (string * (string * Ident.t option) list) option;
}

let analyze prog =
  let names (b : binding) =
    List.map
      (fun id -> (id, b.b_mod.m_name ^ "." ^ Ident.name id))
      (Typedtree.pat_bound_idents b.b_vb.vb_pat)
  in
  let bindings = prog.bindings @ prog.entries in
  let find tbl k = Option.value ~default:[] (Hashtbl.find_opt tbl k) in
  let add tbl k x = Hashtbl.replace tbl k (x :: find tbl k) in
  (* Module-level identifiers by file (a [Pident] names one of these or a
     local), every node, and each module's exports. *)
  let idents = Hashtbl.create 128 and nodes = Hashtbl.create 1024 in
  let exports_of = Hashtbl.create 128 in
  List.iter
    (fun b ->
      List.iter
        (fun (id, v) ->
          add idents b.b_mod.m_file (id, v);
          Hashtbl.replace nodes v ())
        (names b))
    bindings;
  List.iter
    (fun e ->
      Hashtbl.replace nodes e.e_id ();
      add exports_of (List.hd (split_on_dot e.e_id)) e.e_id)
    prog.exports;
  let scan_in (m : modl) walk =
    let al =
      if not m.m_entry then prog.aliases
      else SMap.union (fun _ e _ -> Some e) prog.entry_aliases prog.aliases
    in
    let local = find idents m.m_file in
    let value (p : Path.t) =
      match p with
      | Pident id ->
          List.find_map
            (fun (id', v) -> if Ident.same id id' then Some v else None)
            local
      | _ ->
          let c = canon_of al (Path.name p) in
          if Hashtbl.mem nodes c then Some c else None
    in
    let modl p =
      split_on_dot (Path.name p) |> List.map strip_wrap |> expand_alias al
      |> String.concat "." |> last_comp
    in
    scan ~value ~modl walk
  in
  let owner (m : modl) names =
    if not m.m_entry then Lib names
    else if is_test m.m_file then Test (Filename.basename (unit_of m.m_file))
    else Root
  in
  let uses =
    List.map
      (fun b ->
        let ns = List.map snd (names b) in
        {
          owner = owner b.b_mod ns;
          file = b.b_mod.m_file;
          line = loc_line b.b_vb.vb_loc;
          refs = scan_in b.b_mod (fun it -> it.expr it b.b_vb.vb_expr);
          fn =
            (match ns with
            | [ v ] -> Some (v, optionals b.b_vb.vb_expr)
            | _ -> None);
        })
      bindings
    @ List.map
        (fun i ->
          {
            owner = (match owner i.i_mod [] with Lib _ -> Root | o -> o);
            file = i.i_mod.m_file;
            line = loc_line i.i_item.str_loc;
            refs = scan_in i.i_mod (fun it -> it.structure_item it i.i_item);
            fn = None;
          })
        prog.items
  in
  let targets r = r.vals @ List.concat_map (find exports_of) r.mods in
  let out = Hashtbl.create 1024 in
  List.iter
    (fun u ->
      match u.owner with
      | Lib ns -> List.iter (fun n -> List.iter (add out n) (targets u.refs)) ns
      | _ -> ())
    uses;
  let unit_edge t = (t, ()) in
  let reached =
    Program.bfs
      ~succ:(fun n () -> List.map unit_edge (find out n))
      (List.concat_map
         (fun u ->
           if u.owner = Root then List.map unit_edge (targets u.refs) else [])
         uses)
  in
  let live u =
    match u.owner with
    | Lib ns -> List.exists (fun n -> SMap.mem n reached) ns
    | Root -> true
    | Test _ -> false
  in
  (* Per value: the tests that name it, and the compilation units whose
     roots or reached bindings name it. Per (function, label): the tests
     that supply it, whether reached code supplies it, and the forwards
     of a caller's own optional parameter to it. *)
  let tests_of = Hashtbl.create 64 and units_of = Hashtbl.create 256 in
  let supply_tests = Hashtbl.create 16 and supplied = Hashtbl.create 64 in
  let forwards = ref [] in
  let params = Hashtbl.create 256 in
  List.iter
    (fun u -> Option.iter (fun (v, ps) -> Hashtbl.replace params v ps) u.fn)
    uses;
  List.iter
    (fun u ->
      let forwarded (e : Typedtree.expression) =
        match (e.exp_desc, u.fn) with
        | Texp_ident (Pident id, _, _), Some (f, ps) ->
            List.find_map
              (function
                | l, Some pid when Ident.same pid id -> Some (f, l) | _ -> None)
              ps
        | _ -> None
      in
      let supply (c, args) =
        List.iter
          (function
            | Asttypes.Optional l, Some (e : Typedtree.expression) -> (
                match (e.exp_desc, u.owner) with
                | Texp_construct (_, { cstr_name = "None"; _ }, []), _ -> ()
                | _, Test t -> add supply_tests (c, l) t
                | _ when live u -> (
                    match forwarded e with
                    | Some src -> forwards := (src, (c, l)) :: !forwards
                    | None -> Hashtbl.replace supplied (c, l) ())
                | _ -> ())
            | _ -> ())
          args
      in
      match u.owner with
      | Test t ->
          List.iter (fun v -> add tests_of v t) (targets u.refs);
          List.iter supply u.refs.calls
      | _ when live u ->
          List.iter (fun v -> add units_of v (unit_of u.file)) (targets u.refs);
          List.iter supply u.refs.calls;
          List.iter
            (fun v ->
              List.iter
                (fun (l, _) -> Hashtbl.replace supplied (v, l) ())
                (find params v))
            u.refs.loose
      | _ -> ())
    uses;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (src, dst) ->
        if Hashtbl.mem supplied src && not (Hashtbl.mem supplied dst) then begin
          Hashtbl.replace supplied dst ();
          changed := true
        end)
      !forwards
  done;
  let tests tbl k = List.sort_uniq String.compare (find tbl k) in
  let export_entries =
    List.filter_map
      (fun e ->
        let entry kind =
          Some
            { kind; value = e.e_id; file = e.e_file; line = e.e_line;
              tests = tests tests_of e.e_id }
        in
        if not (SMap.mem e.e_id reached) then entry "unreached"
        else if List.for_all (( = ) (unit_of e.e_file)) (find units_of e.e_id)
        then entry "internal"
        else None)
      prog.exports
  in
  let optional_entries =
    List.concat_map
      (fun u ->
        match (u.owner, u.fn) with
        | Lib _, Some (v, ps) when live u ->
            List.filter_map
              (fun (l, _) ->
                if Hashtbl.mem supplied (v, l) then None
                else
                  Some
                    { kind = "optional"; value = v ^ " ?" ^ l; file = u.file;
                      line = u.line; tests = tests supply_tests (v, l) })
              ps
        | _ -> [])
      uses
  in
  let files test =
    List.filter_map
      (fun b ->
        if is_test b.b_mod.m_file = test then Some b.b_mod.m_file else None)
      prog.entries
    |> List.sort_uniq String.compare |> List.length
  in
  {
    roots = files false;
    tests = files true;
    exported = List.length prog.exports;
    entries =
      List.sort
        (fun (a : entry) (b : entry) ->
          compare (a.kind, a.file, a.line, a.value)
            (b.kind, b.file, b.line, b.value))
        (export_entries @ optional_entries);
  }

let count r kind =
  List.length (List.filter (fun (e : entry) -> e.kind = kind) r.entries)

let entry_to_string (e : entry) =
  Printf.sprintf "%s:%d: [%s] %s%s" e.file e.line e.kind e.value
    (if e.tests = [] then ""
     else " (tests: " ^ String.concat ", " e.tests ^ ")")

let report_to_json r =
  Sim.Json.Obj
    [
      ("roots", Sim.Json.Int r.roots);
      ("tests", Sim.Json.Int r.tests);
      ("exported", Sim.Json.Int r.exported);
      ("unreached", Sim.Json.Int (count r "unreached"));
      ("internal", Sim.Json.Int (count r "internal"));
      ("optional", Sim.Json.Int (count r "optional"));
      ( "entries",
        Sim.Json.List
          (List.map
             (fun (e : entry) ->
               Sim.Json.Obj
                 [
                   ("kind", Sim.Json.String e.kind);
                   ("value", Sim.Json.String e.value);
                   ("file", Sim.Json.String e.file);
                   ("line", Sim.Json.Int e.line);
                   ( "tests",
                     Sim.Json.List
                       (List.map (fun t -> Sim.Json.String t) e.tests) );
                 ])
             r.entries) );
    ]
