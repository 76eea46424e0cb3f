(* cdna_proto — interprocedural resource-protocol (typestate)
   verification over compiled [.cmt] typedtrees (compiler-libs).

   The fourth static pass (after cdna_lint / cdna_flow / cdna_dom):
   where cdna_flow asks "can guest data reach a DMA sink unsanitized?",
   this pass asks "is every acquired resource released on every exit
   path?" — the leaked-IOMMU-mapping class of bug the Intel ICE audit
   found in a production driver. Resources are declared once in a
   protocol table of acquire/release/use function pairs, seeded from
   the real pairs in lib/ (Iommu.grant->revoke, Hyp.assign_context->
   revoke, Page get_ref->put_ref, Pkt_buf try_reserve->release,
   Mmio map->revoke, Cnic save_context->restore_context_image,
   Mutex lock->unlock) and extensible per-function via annotation.

   Per function, an abstract interpretation over the typedtree tracks
   each resource through an acquired / released / conditionally-
   released / escaped lattice, with fixpoint function summaries
   (returned acquisitions, per-parameter acquires/releases/uses,
   raises) so lifetimes compose across modules. Rules:

   - PR1 leak-on-path: a locally-owned resource reaches a function
     exit — the normal return or a raising call site — still acquired
     (or acquired on some path), unless released by a [Fun.protect]
     finally or a matching exception handler.
   - PR2 double-release: a release on a resource already definitely
     released.
   - PR3 use-after-release: a declared use (e.g. [Mmio.read32])
     whose subject is definitely released.
   - PR4 release-without-acquire: a release whose subject provably
     never held the resource (freshly created and never acquired, or
     on a path where the conditional acquire failed).

   Ownership discipline (the provenance rules that keep ledger-style
   code in lib/ quiet): only *locally owned* resources are leak-checked
   — a resource is locally owned when it is the direct result of a
   declared acquire, or an effect-style acquire whose subject is a
   let-binding of a declared per-protocol creator ([Iommu.create],
   [Pkt_buf.create], [Mutex.create], ...). Acquires/releases on
   *parameter*-rooted subjects are never local leaks; they feed the
   function summary and are netted at call sites instead. Subjects
   that cannot be resolved to a parameter or fresh creator binding
   (projections through unknown calls, container reads) are ignored.

   Escape points (tracking stops, never reported): stored into a
   mutable field / array / container primitive, embedded in a record,
   captured by a closure used as a value, or passed to an unknown
   external callee. [Ok]/[Some]/tuple wrappers are transparent, so
   returned acquisitions are still seen through result types.

   Soundness envelope (documented, deliberate, one-sided — may miss
   leaks, never invents them): raising *exit paths* are direct
   raise-family call sites ([raise]/[failwith]/[invalid_arg]/[assert])
   only — a callee that merely may raise is not an exit, because
   invalid-argument guards are ubiquitous and flagging every held-
   across-call resource would drown the signal; and escaped resources
   are assumed released by their new owner.

   Annotation contract (DESIGN.md):
     [@cdna.acquires "proto"]    the function acquires [proto]; the
                                 resource is its return value, or its
                                 N-th positional argument with
                                 "proto@N"
     [@cdna.releases "proto"]    the function releases [proto] held by
                                 its 0th positional argument (or @N)
     [@cdna.proto_ok "why"]      suppresses protocol violations on the
                                 binding or subtree; the reason is
                                 mandatory (an empty reason does not
                                 suppress) *)

open Chain
open Program
module IMap = Map.Make (Int)

let rule_pr1 = "PR1-leak-on-path"
let rule_pr2 = "PR2-double-release"
let rule_pr3 = "PR3-use-after-release"
let rule_pr4 = "PR4-release-without-acquire"

(* ------------------------------------------------------------------ *)
(* Protocol table                                                      *)
(* ------------------------------------------------------------------ *)

(* Where the resource lives relative to a protocol function: [Ret] — it
   is the function's result (handle style); [Arg i] — it is the i-th
   positional (unlabelled) argument (effect style: grant tables, packet
   buffers, mutexes). *)
type style = Ret | Arg of int

type proto = {
  p_name : string;
  p_acq : (string * style) list;
  p_rel : (string * style) list;
  p_use : (string * style) list;
  p_creators : string list;
}

let seeded_protocols =
  [
    {
      p_name = "iommu-grant";
      p_acq = [ ("Iommu.grant", Arg 0) ];
      p_rel = [ ("Iommu.revoke", Arg 0); ("Iommu.revoke_context", Arg 0) ];
      p_use = [];
      p_creators = [ "Iommu.create" ];
    };
    {
      p_name = "hyp-context";
      p_acq = [ ("Hyp.assign_context", Ret) ];
      p_rel = [ ("Hyp.revoke", Arg 1) ];
      p_use = [];
      p_creators = [];
    };
    {
      p_name = "page-pin";
      p_acq = [ ("Page.get_ref", Arg 0); ("Phys_mem.get_ref", Arg 0) ];
      p_rel = [ ("Page.put_ref", Arg 0); ("Phys_mem.put_ref", Arg 0) ];
      p_use = [];
      p_creators = [ "Page.create" ];
    };
    {
      p_name = "pkt-buf";
      p_acq = [ ("Pkt_buf.try_reserve", Arg 0) ];
      p_rel = [ ("Pkt_buf.release", Arg 0) ];
      p_use = [];
      p_creators = [ "Pkt_buf.create" ];
    };
    {
      p_name = "mmio-map";
      p_acq = [ ("Mmio.map", Ret) ];
      p_rel = [ ("Mmio.revoke", Arg 0) ];
      p_use = [ ("Mmio.read32", Arg 0); ("Mmio.write32", Arg 0) ];
      p_creators = [];
    };
    {
      p_name = "cnic-image";
      p_acq = [ ("Cnic.save_context", Ret) ];
      p_rel = [ ("Cnic.restore_context_image", Arg 1) ];
      p_use = [];
      p_creators = [];
    };
    {
      p_name = "mutex";
      p_acq = [ ("Mutex.lock", Arg 0) ];
      p_rel = [ ("Mutex.unlock", Arg 0) ];
      p_use = [];
      p_creators = [ "Mutex.create" ];
    };
  ]

(* Higher-order combinators whose literal lambda arguments run inline
   on the current path. *)
let hof_fns =
  SSet.of_list
    [
      "List.iter"; "List.iteri"; "List.map"; "List.mapi"; "List.fold_left";
      "List.filter"; "List.exists"; "List.for_all"; "Array.iter";
      "Array.iteri"; "Array.map"; "Queue.iter"; "Hashtbl.iter";
      "Option.iter"; "Option.map"; "Seq.iter";
    ]

(* ------------------------------------------------------------------ *)
(* Summaries and program representation                                *)
(* ------------------------------------------------------------------ *)

type psum = {
  ps_ret : (string * hop list) list; (* proto, acquire chain *)
  ps_param_acq : (int * string * hop list) list;
  ps_param_rel : (int * string * hop list) list;
  ps_param_use : (int * string * hop list) list;
  ps_param_esc : int list; (* parameters (index among all) that escape *)
  ps_raises : bool;
}

let empty_psum =
  {
    ps_ret = [];
    ps_param_acq = [];
    ps_param_rel = [];
    ps_param_use = [];
    ps_param_esc = [];
    ps_raises = false;
  }

let hops_image hs =
  String.concat ","
    (List.map
       (fun h -> Printf.sprintf "%s@%s:%d" h.hop_what h.hop_file h.hop_line)
       hs)

let psum_image s =
  let ret =
    List.map (fun (p, hs) -> p ^ "<" ^ hops_image hs) s.ps_ret
    |> List.sort String.compare
  in
  let tr tag l =
    List.map
      (fun (i, p, hs) -> Printf.sprintf "%s%d:%s<%s" tag i p (hops_image hs))
      l
    |> List.sort String.compare
  in
  String.concat "|"
    (ret @ tr "a" s.ps_param_acq @ tr "r" s.ps_param_rel
   @ tr "u" s.ps_param_use
    @ List.map (Printf.sprintf "e%d") s.ps_param_esc
    @ [ (if s.ps_raises then "!" else "") ])

(* The protocol tables: seeded pairs plus per-function annotations. *)
type tables = {
  mutable acq_tbl : (string * style) list SMap.t; (* canon fn -> protos *)
  mutable rel_tbl : (string * style) list SMap.t;
  mutable use_tbl : (string * style) list SMap.t;
  mutable creators : string SMap.t; (* canon creator fn -> proto *)
  mutable acq_annots : int;
  mutable rel_annots : int;
}

let tbl_add tbl key v =
  let cur = match SMap.find_opt key tbl with Some l -> l | None -> [] in
  SMap.add key (cur @ [ v ]) tbl

(* "proto" -> (proto, default); "proto@2" -> (proto, Arg 2). *)
let parse_proto_payload ~default s =
  match String.index_opt s '@' with
  | None -> (s, default)
  | Some i -> (
      let name = String.sub s 0 i in
      let idx = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt idx with
      | Some n -> (name, Arg n)
      | None -> (name, default))

let tables (prog : Program.t) =
  let t =
    {
      acq_tbl = SMap.empty;
      rel_tbl = SMap.empty;
      use_tbl = SMap.empty;
      creators = SMap.empty;
      acq_annots = 0;
      rel_annots = 0;
    }
  in
  List.iter
    (fun p ->
      List.iter
        (fun (k, s) -> t.acq_tbl <- tbl_add t.acq_tbl k (p.p_name, s))
        p.p_acq;
      List.iter
        (fun (k, s) -> t.rel_tbl <- tbl_add t.rel_tbl k (p.p_name, s))
        p.p_rel;
      List.iter
        (fun (k, s) -> t.use_tbl <- tbl_add t.use_tbl k (p.p_name, s))
        p.p_use;
      List.iter
        (fun k -> t.creators <- SMap.add k p.p_name t.creators)
        p.p_creators)
    seeded_protocols;
  List.iter
    (fun { b_mod = m; b_vb = vb } ->
      match vb.vb_pat.pat_desc with
      | Tpat_var (_, { txt = name; _ }) ->
          let f_id = m.m_name ^ "." ^ name in
          (match find_attr "cdna.acquires" vb.vb_attributes with
          | Some a -> (
              t.acq_annots <- t.acq_annots + 1;
              match attr_reason a with
              | Some payload ->
                  let proto, st = parse_proto_payload ~default:Ret payload in
                  t.acq_tbl <- tbl_add t.acq_tbl f_id (proto, st)
              | None -> ())
          | None -> ());
          (match find_attr "cdna.releases" vb.vb_attributes with
          | Some a -> (
              t.rel_annots <- t.rel_annots + 1;
              match attr_reason a with
              | Some payload ->
                  let proto, st =
                    parse_proto_payload ~default:(Arg 0) payload
                  in
                  t.rel_tbl <- tbl_add t.rel_tbl f_id (proto, st)
              | None -> ())
          | None -> ())
      | _ -> ())
    prog.bindings;
  t

(* [@cdna.proto_ok "why"] on the binding; an empty reason does not
   suppress. *)
let proto_ok attrs =
  match find_attr "cdna.proto_ok" attrs with
  | Some a -> (
      match attr_reason a with Some r when r <> "" -> Some r | _ -> None)
  | None -> None

(* ------------------------------------------------------------------ *)
(* Abstract domain                                                     *)
(* ------------------------------------------------------------------ *)

(* Per-resource status; [Vac] marks a path on which the conditional
   acquire did not happen (failed reservation, [Error]/[None] branch of
   an acquire result). *)
type status =
  | Acq
  | Rel of hop (* released; the hop is the release site *)
  | CondRel of hop (* released on some path, still held on another *)
  | Vac of hop (* vacuously clean: not acquired on this path *)
  | Esc

type res = {
  r_id : int;
  r_proto : string;
  r_hops : hop list; (* acquire chain, oldest first *)
  r_what : string; (* display name of the acquire *)
  r_param : int option; (* [Some i]: subject rooted at parameter i *)
}

(* Abstract values flowing through the evaluator. *)
type aval =
  | Nothing
  | Res of ISet.t (* carries these resources *)
  | CondRes of int * bool (* bool acquire result; true = negated *)
  | PVal of int * int
      (* parameter-rooted: position among the positional parameters (-1
         for labelled ones), and index among all parameters *)
  | FreshVal of string * hop (* creator result: proto, creation site *)

let join_status a b =
  match (a, b) with
  | Esc, _ | _, Esc -> Esc
  | Acq, Acq -> Acq
  | Rel h, Rel _ -> Rel h
  | Vac h, Vac _ -> Vac h
  | Rel h, Vac _ | Vac _, Rel h -> Rel h
  | Acq, Rel h | Rel h, Acq -> CondRel h
  | Acq, Vac h | Vac h, Acq -> CondRel h
  | CondRel h, _ | _, CondRel h -> CondRel h

let join_state a b =
  IMap.union (fun _ x y -> Some (join_status x y)) a b

let res_ids = function Res ids -> ids | _ -> ISet.empty

let join_aval a b =
  match (a, b) with
  | Nothing, x | x, Nothing -> x
  | Res a, Res b -> Res (ISet.union a b)
  | (Res _ as r), _ | _, (Res _ as r) -> r
  | x, _ -> x

(* ------------------------------------------------------------------ *)
(* Evaluation context                                                  *)
(* ------------------------------------------------------------------ *)

type frame = {
  fr_rel : ISet.t; (* released by the handler / finally *)
  fr_absorbs : bool; (* handler catches without reraising *)
}

type ctx = {
  prog : Program.t;
  tbls : tables;
  summary : fn -> psum; (* a callee's current summary *)
  cur : fn;
  report : bool;
  viols : violation list ref;
  mutable next_id : int;
  mutable resources : res list; (* newest first *)
  subjects : (string, int) Hashtbl.t; (* "root.path#proto" -> r_id *)
  escaped_fresh : (string, unit) Hashtbl.t; (* fresh idents gone shared *)
  mutable frames : frame list; (* innermost first *)
  mutable sum_param_rel : (int * string * hop list) list;
  mutable sum_param_use : (int * string * hop list) list;
  mutable sum_param_esc : int list;
  mutable raises : bool;
}

let new_res ctx ~proto ~hops ~what ~param =
  let id = ctx.next_id in
  ctx.next_id <- id + 1;
  let r = { r_id = id; r_proto = proto; r_hops = hops; r_what = what;
            r_param = param } in
  ctx.resources <- r :: ctx.resources;
  r

let find_res ctx id = List.find (fun r -> r.r_id = id) ctx.resources

let record_violation ctx ~sup ~rule ~file ~line ~msg ~chain =
  if ctx.report then
    ctx.viols := { rule; file; line; msg; chain; suppress = sup } :: !(ctx.viols)

(* Resolve a canonical callee against a table, trying the local-module
   qualification for bare intra-module names. *)
let tbl_find ctx tbl name = find tbl ~modname:ctx.cur.f_module name

let is_bool_type (e : Typedtree.expression) =
  match Types.get_desc e.Typedtree.exp_type with
  | Types.Tconstr (p, _, _) -> last_comp (Path.name p) = "bool"
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Subjects and patterns                                               *)
(* ------------------------------------------------------------------ *)

(* The root-ident[.field]* path of an effect-style subject expression. *)
let rec subject_of (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_ident (Path.Pident id, _, _) -> Some (id, Ident.name id)
  | Typedtree.Texp_field (e', _, ld) ->
      Option.map
        (fun (root, p) -> (root, p ^ "." ^ ld.Types.lbl_name))
        (subject_of e')
  | _ -> None

type subj_kind =
  | KTracked of int (* existing resource *)
  | KFresh of string * hop (* creator-bound local, never acquired *)
  | KParam of int
  | KOther

let classify_subject ctx env ~proto e =
  match subject_of e with
  | None -> (KOther, "")
  | Some (root, path) -> (
      let key = path ^ "#" ^ proto in
      match Hashtbl.find_opt ctx.subjects key with
      | Some id -> (KTracked id, path)
      | None -> (
          match IdentMap.find_opt root env with
          | Some (FreshVal (p, h))
            when p = proto
                 && path = Ident.name root
                 && not (Hashtbl.mem ctx.escaped_fresh (Ident.name root)) ->
              (KFresh (p, h), path)
          | Some (PVal (i, _)) -> (KParam i, path)
          | _ -> (KOther, path)))

let rec bind_pat : type k.
    aval IdentMap.t -> k Typedtree.general_pattern -> aval -> aval IdentMap.t =
 fun env p v ->
  match p.pat_desc with
  | Typedtree.Tpat_var (id, _) -> IdentMap.add id v env
  | Typedtree.Tpat_alias (p', id, _) -> bind_pat (IdentMap.add id v env) p' v
  | Typedtree.Tpat_tuple ps ->
      List.fold_left (fun env p' -> bind_pat env p' v) env ps
  | Typedtree.Tpat_record (fields, _) ->
      List.fold_left (fun env (_, _, p') -> bind_pat env p' v) env fields
  | Typedtree.Tpat_construct (_, _, ps, _) ->
      List.fold_left (fun env p' -> bind_pat env p' v) env ps
  | Typedtree.Tpat_variant (_, Some p', _) -> bind_pat env p' v
  | Typedtree.Tpat_variant (_, None, _) -> env
  | Typedtree.Tpat_array ps ->
      List.fold_left (fun env p' -> bind_pat env p' Nothing) env ps
  | Typedtree.Tpat_lazy p' -> bind_pat env p' v
  | Typedtree.Tpat_or (a, b, _) -> bind_pat (bind_pat env a v) b v
  | Typedtree.Tpat_value arg ->
      bind_pat env (arg :> Typedtree.value Typedtree.general_pattern) v
  | Typedtree.Tpat_exception p' -> bind_pat env p' Nothing
  | Typedtree.Tpat_any | Typedtree.Tpat_constant _ -> env

(* Does the case pattern mean "the acquire did not happen"? *)
let rec failure_pattern : type k. k Typedtree.general_pattern -> bool =
 fun p ->
  match p.pat_desc with
  | Typedtree.Tpat_construct (_, cd, _, _) ->
      cd.Types.cstr_name = "Error" || cd.Types.cstr_name = "None"
  | Typedtree.Tpat_alias (p', _, _) -> failure_pattern p'
  | Typedtree.Tpat_value arg ->
      failure_pattern (arg :> Typedtree.value Typedtree.general_pattern)
  | Typedtree.Tpat_or (a, b, _) -> failure_pattern a && failure_pattern b
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Escapes                                                             *)
(* ------------------------------------------------------------------ *)

let set_status st id s = IMap.add id s st

let esc_ids st ids = ISet.fold (fun id st -> set_status st id Esc) ids st

(* Escape every tracked subject rooted at [path] ("m", "pool.m", ...). *)
let esc_subjects ctx st path =
  Hashtbl.fold
    (fun key id st ->
      let root_matches =
        let pl = String.length path and kl = String.length key in
        kl > pl
        && String.sub key 0 pl = path
        && (key.[pl] = '.' || key.[pl] = '#')
      in
      if root_matches then set_status st id Esc else st)
    ctx.subjects st

(* A parameter-rooted value that escapes makes its parameter escape in
   the summary, so the caller's argument escapes too. *)
let escape_param ctx = function
  | PVal (_, k) -> ctx.sum_param_esc <- k :: ctx.sum_param_esc
  | Nothing | Res _ | CondRes _ | FreshVal _ -> ()

(* A value leaves the function's ownership: stored, captured, or handed
   to an unknown callee. *)
let escape_val ctx env st v (expr : Typedtree.expression option) =
  escape_param ctx v;
  let st = esc_ids st (res_ids v) in
  match expr with
  | Some e -> (
      match subject_of e with
      | Some (root, path) ->
          let st = esc_subjects ctx st path in
          (if path = Ident.name root then
             match IdentMap.find_opt root env with
             | Some (FreshVal _) ->
                 Hashtbl.replace ctx.escaped_fresh (Ident.name root) ()
             | _ -> ());
          st
      | None -> st)
  | None -> st

let escape_ident ctx env st (id : Ident.t) =
  let name = Ident.name id in
  let st =
    match IdentMap.find_opt id env with
    | Some (Res ids) -> esc_ids st ids
    | Some (FreshVal _) ->
        Hashtbl.replace ctx.escaped_fresh name ();
        st
    | Some v ->
        escape_param ctx v;
        st
    | None -> st
  in
  esc_subjects ctx st name

(* Free identifiers of a closure body (for capture escapes). *)
let free_idents (e : Typedtree.expression) =
  let acc = ref [] in
  let visit it (e : Typedtree.expression) =
    (match e.Typedtree.exp_desc with
    | Typedtree.Texp_ident (Path.Pident id, _, _) -> acc := id :: !acc
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr = visit } in
  it.expr it e;
  !acc

(* ------------------------------------------------------------------ *)
(* Protocol actions                                                    *)
(* ------------------------------------------------------------------ *)

let matching_ids ctx ~proto ids =
  ISet.filter (fun id -> (find_res ctx id).r_proto = proto) ids

(* [rel_hops]: the witness chain for this release, last hop = the site
   in the current function. *)
let release_one ctx ~sup st ~rel_hops id =
  let r = find_res ctx id in
  let site = List.nth rel_hops (List.length rel_hops - 1) in
  match IMap.find_opt r.r_id st with
  | Some Acq | Some (CondRel _) -> set_status st id (Rel site)
  | Some (Rel h0) ->
      record_violation ctx ~sup ~rule:rule_pr2 ~file:site.hop_file
        ~line:site.hop_line
        ~msg:
          (Printf.sprintf "'%s' (%s) released again: already released at %s:%d"
             r.r_what r.r_proto h0.hop_file h0.hop_line)
        ~chain:(r.r_hops @ [ h0 ] @ rel_hops);
      st
  | Some (Vac h0) ->
      record_violation ctx ~sup ~rule:rule_pr4 ~file:site.hop_file
        ~line:site.hop_line
        ~msg:
          (Printf.sprintf
             "'%s' (%s) released on a path where the acquire did not happen"
             r.r_what r.r_proto)
        ~chain:(r.r_hops @ [ h0 ] @ rel_hops);
      set_status st id (Rel site)
  | Some Esc | None -> st

let release_at ctx ~sup env st ~proto ~rel_hops arg_expr arg_aval =
  let site = List.nth rel_hops (List.length rel_hops - 1) in
  let ids = matching_ids ctx ~proto (res_ids arg_aval) in
  if not (ISet.is_empty ids) then
    ISet.fold (fun id st -> release_one ctx ~sup st ~rel_hops id) ids st
  else
    match arg_expr with
    | None -> st
    | Some e -> (
        match classify_subject ctx env ~proto e with
        | KTracked id, _ -> release_one ctx ~sup st ~rel_hops id
        | KFresh (_, ch), path ->
            record_violation ctx ~sup ~rule:rule_pr4 ~file:site.hop_file
              ~line:site.hop_line
              ~msg:
                (Printf.sprintf "release of '%s' (%s) which never acquired it"
                   path proto)
              ~chain:(ch :: rel_hops);
            st
        | KParam i, _ when i >= 0 ->
            ctx.sum_param_rel <- (i, proto, rel_hops) :: ctx.sum_param_rel;
            st
        | (KParam _ | KOther), _ -> st)

let use_one ctx ~sup st ~use_hops id =
  let r = find_res ctx id in
  let site = List.nth use_hops (List.length use_hops - 1) in
  (match IMap.find_opt r.r_id st with
  | Some (Rel h0) ->
      record_violation ctx ~sup ~rule:rule_pr3 ~file:site.hop_file
        ~line:site.hop_line
        ~msg:
          (Printf.sprintf "use of '%s' (%s) after release at %s:%d" r.r_what
             r.r_proto h0.hop_file h0.hop_line)
        ~chain:(r.r_hops @ [ h0 ] @ use_hops)
  | _ -> ());
  st

let use_at ctx ~sup env st ~proto ~use_hops arg_expr arg_aval =
  let ids = matching_ids ctx ~proto (res_ids arg_aval) in
  if not (ISet.is_empty ids) then
    ISet.fold (fun id st -> use_one ctx ~sup st ~use_hops id) ids st
  else
    match arg_expr with
    | None -> st
    | Some e -> (
        match classify_subject ctx env ~proto e with
        | KTracked id, _ -> use_one ctx ~sup st ~use_hops id
        | KParam i, _ when i >= 0 ->
            ctx.sum_param_use <- (i, proto, use_hops) :: ctx.sum_param_use;
            st
        | _ -> st)

(* Returns the resource id acquired (for conditional-acquire results)
   and the updated state. *)
let acquire_subject ctx env st ~proto ~acq_hops arg_expr =
  match arg_expr with
  | None -> (None, st)
  | Some e -> (
      match classify_subject ctx env ~proto e with
      | KTracked id, _ -> (Some id, set_status st id Acq)
      | KFresh (_, ch), path ->
          let what =
            match acq_hops with h :: _ -> h.hop_what | [] -> proto
          in
          let r =
            new_res ctx ~proto ~hops:(ch :: acq_hops)
              ~what:(path ^ " " ^ what) ~param:None
          in
          Hashtbl.replace ctx.subjects (path ^ "#" ^ proto) r.r_id;
          (Some r.r_id, set_status st r.r_id Acq)
      | KParam i, path when i >= 0 ->
          let what =
            match acq_hops with h :: _ -> h.hop_what | [] -> proto
          in
          let r =
            new_res ctx ~proto ~hops:acq_hops ~what:(path ^ " " ^ what)
              ~param:(Some i)
          in
          Hashtbl.replace ctx.subjects (path ^ "#" ^ proto) r.r_id;
          (Some r.r_id, set_status st r.r_id Acq)
      | (KParam _ | KOther), _ -> (None, st))

(* A function exit via a raising call: every locally-owned resource
   still (conditionally) held and not protected by an enclosing finally
   or releasing handler leaks. *)
let raise_check ctx ~sup st (loc : Location.t) =
  let rec scan frames protected =
    match frames with
    | [] -> Some protected
    | f :: rest ->
        if f.fr_absorbs then None else scan rest (ISet.union protected f.fr_rel)
  in
  match scan ctx.frames ISet.empty with
  | None -> () (* absorbed by a handler: not a function exit *)
  | Some protected ->
      ctx.raises <- true;
      List.iter
        (fun r ->
          if r.r_param = None && not (ISet.mem r.r_id protected) then
            let leak chain =
              match r.r_hops with
              | h0 :: _ ->
                  record_violation ctx ~sup ~rule:rule_pr1 ~file:h0.hop_file
                    ~line:h0.hop_line
                    ~msg:
                      (Printf.sprintf
                         "'%s' (%s) leaks on a raising path at %s:%d" r.r_what
                         r.r_proto (loc_file loc) (loc_line loc))
                    ~chain
              | [] -> ()
            in
            match IMap.find_opt r.r_id st with
            | Some Acq ->
                leak (r.r_hops @ [ hop "raises without releasing" loc ])
            | Some (CondRel h) ->
                leak (r.r_hops @ [ h; hop "raises without releasing" loc ])
            | _ -> ())
        ctx.resources

(* Syntactic pre-scan of a handler / finally body: which tracked
   resources does it release? *)
let release_targets ctx env (e : Typedtree.expression) =
  let acc = ref ISet.empty in
  let add_expr_target proto (a : Typedtree.expression) =
    (match a.Typedtree.exp_desc with
    | Typedtree.Texp_ident (Path.Pident id, _, _) -> (
        match IdentMap.find_opt id env with
        | Some (Res ids) -> acc := ISet.union (matching_ids ctx ~proto ids) !acc
        | _ -> ())
    | _ -> ());
    match subject_of a with
    | Some (_, path) -> (
        match Hashtbl.find_opt ctx.subjects (path ^ "#" ^ proto) with
        | Some id -> acc := ISet.add id !acc
        | None -> ())
    | None -> ()
  in
  let visit it (e : Typedtree.expression) =
    (match e.Typedtree.exp_desc with
    | Typedtree.Texp_apply (fe, args) -> (
        match fe.Typedtree.exp_desc with
        | Typedtree.Texp_ident (p, _, _) -> (
            let c = canon_of ctx.prog.aliases (Path.name p) in
            match tbl_find ctx ctx.tbls.rel_tbl c with
            | Some entries ->
                List.iter
                  (fun (proto, style) ->
                    match style with
                    | Arg i -> (
                        let pos = ref (-1) in
                        List.iter
                          (fun (lbl, a) ->
                            match (lbl, a) with
                            | Asttypes.Nolabel, Some a ->
                                incr pos;
                                if !pos = i then add_expr_target proto a
                            | _ -> ())
                          args)
                    | Ret -> ())
                  entries
            | None -> ())
        | _ -> ());
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr = visit } in
  it.expr it e;
  !acc

let contains_raise ctx (e : Typedtree.expression) =
  let found = ref false in
  let visit it (e : Typedtree.expression) =
    (match e.Typedtree.exp_desc with
    | Typedtree.Texp_apply (fe, _) -> (
        match fe.Typedtree.exp_desc with
        | Typedtree.Texp_ident (p, _, _) ->
            let c = canon_of ctx.prog.aliases (Path.name p) in
            if SSet.mem c cold_exits then found := true
        | _ -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr = visit } in
  it.expr it e;
  !found

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

let lambda_body (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_function _ ->
      let params, body = peel_params e in
      Some (params, body)
  | _ -> None

let nth_nolabel args i =
  let pos = ref (-1) in
  List.find_map
    (fun (lbl, av, e) ->
      match lbl with
      | None ->
          incr pos;
          if !pos = i then Some (av, e) else None
      | Some _ -> None)
    args

(* The argument a call passes for the callee's [k]-th parameter: by
   label, or by position among the positional ones. *)
let arg_for_param (callee : fn) args k =
  match List.nth_opt callee.f_params k with
  | None -> None
  | Some p -> (
      match p.p_arg with
      | Asttypes.Labelled l | Asttypes.Optional l ->
          List.find_map
            (fun (lbl, av, e) -> if lbl = Some l then Some (av, e) else None)
            args
      | Asttypes.Nolabel ->
          let before = List.filteri (fun i _ -> i < k) callee.f_params in
          nth_nolabel args
            (List.length
               (List.filter (fun q -> q.p_arg = Asttypes.Nolabel) before)))

let rec eval ctx ~(sup : string option) env st (e : Typedtree.expression) :
    aval * status IMap.t =
  let sup = match proto_ok e.exp_attributes with None -> sup | s -> s in
  match e.exp_desc with
  | Typedtree.Texp_ident (Path.Pident id, _, _) -> (
      match IdentMap.find_opt id env with
      | Some v -> (v, st)
      | None -> (Nothing, st))
  | Typedtree.Texp_ident _ | Typedtree.Texp_constant _ -> (Nothing, st)
  | Typedtree.Texp_let (_, vbs, body) ->
      let env, st =
        List.fold_left
          (fun (env, st) (vb : Typedtree.value_binding) ->
            let sup =
              match proto_ok vb.vb_attributes with None -> sup | s -> s
            in
            let v, st = eval ctx ~sup env st vb.vb_expr in
            (bind_pat env vb.vb_pat v, st))
          (env, st) vbs
      in
      eval ctx ~sup env st body
  | Typedtree.Texp_function { cases; _ } ->
      (* A closure used as a value: everything it captures escapes. *)
      let st =
        List.fold_left
          (fun st (c : Typedtree.value Typedtree.case) ->
            List.fold_left
              (fun st id -> escape_ident ctx env st id)
              st
              (free_idents c.c_rhs))
          st cases
      in
      (Nothing, st)
  | Typedtree.Texp_apply (fe, args) -> eval_apply ctx ~sup env st e fe args
  | Typedtree.Texp_match (scrut, cases, _) ->
      let sv, st0 = eval ctx ~sup env st scrut in
      let branches =
        List.map
          (fun (c : Typedtree.computation Typedtree.case) ->
            let env_c = bind_pat env c.c_lhs sv in
            let st_c =
              if failure_pattern c.c_lhs then
                ISet.fold
                  (fun id st ->
                    set_status st id
                      (Vac (hop "acquire did not happen on this branch"
                              c.c_lhs.pat_loc)))
                  (res_ids sv) st0
              else st0
            in
            let st_c =
              match c.c_guard with
              | Some g ->
                  let _, st_c = eval ctx ~sup env_c st_c g in
                  st_c
              | None -> st_c
            in
            eval ctx ~sup env_c st_c c.c_rhs)
          cases
      in
      join_branches branches
  | Typedtree.Texp_try (body, cases) ->
      let rel_ids =
        List.fold_left
          (fun acc (c : Typedtree.value Typedtree.case) ->
            ISet.union acc (release_targets ctx env c.c_rhs))
          ISet.empty cases
      in
      let reraises =
        List.exists
          (fun (c : Typedtree.value Typedtree.case) ->
            contains_raise ctx c.c_rhs)
          cases
      in
      ctx.frames <-
        { fr_rel = rel_ids; fr_absorbs = not reraises } :: ctx.frames;
      let av_b, st_b = eval ctx ~sup env st body in
      (ctx.frames <- (match ctx.frames with _ :: t -> t | [] -> []));
      let branches =
        (av_b, st_b)
        :: List.map
             (fun (c : Typedtree.value Typedtree.case) ->
               let env_c = bind_pat env c.c_lhs Nothing in
               eval ctx ~sup env_c st c.c_rhs)
             cases
      in
      join_branches branches
  | Typedtree.Texp_ifthenelse (cond, th, el) ->
      let cv, st0 = eval ctx ~sup env st cond in
      let st_then, st_else =
        match cv with
        | CondRes (id, false) ->
            ( st0,
              set_status st0 id
                (Vac (hop "conditional acquire failed" cond.exp_loc)) )
        | CondRes (id, true) ->
            ( set_status st0 id
                (Vac (hop "conditional acquire failed" cond.exp_loc)),
              st0 )
        | _ -> (st0, st0)
      in
      let tv, st1 = eval ctx ~sup env st_then th in
      let ev, st2 =
        match el with
        | Some el -> eval ctx ~sup env st_else el
        | None -> (Nothing, st_else)
      in
      (join_aval tv ev, join_state st1 st2)
  | Typedtree.Texp_sequence (a, b) ->
      let _, st = eval ctx ~sup env st a in
      eval ctx ~sup env st b
  | Typedtree.Texp_tuple es | Typedtree.Texp_construct (_, _, es) ->
      (* Constructors ([Ok]/[Some]/...) and tuples are transparent
         wrappers: carried resources stay visible to the caller. *)
      let avs, st =
        List.fold_left
          (fun (avs, st) e ->
            let v, st = eval ctx ~sup env st e in
            (v :: avs, st))
          ([], st) es
      in
      let ids =
        List.fold_left (fun acc v -> ISet.union acc (res_ids v)) ISet.empty avs
      in
      ((if ISet.is_empty ids then Nothing else Res ids), st)
  | Typedtree.Texp_record { fields; extended_expression; _ } ->
      (* Embedding in a record hands ownership to the aggregate. *)
      let st =
        match extended_expression with
        | Some e' ->
            let _, st = eval ctx ~sup env st e' in
            st
        | None -> st
      in
      let st =
        Array.fold_left
          (fun st (_, (def : Typedtree.record_label_definition)) ->
            match def with
            | Typedtree.Kept _ -> st
            | Typedtree.Overridden (_, fe) ->
                let v, st = eval ctx ~sup env st fe in
                escape_val ctx env st v (Some fe))
          st fields
      in
      (Nothing, st)
  | Typedtree.Texp_array es ->
      let st =
        List.fold_left
          (fun st e ->
            let v, st = eval ctx ~sup env st e in
            escape_val ctx env st v (Some e))
          st es
      in
      (Nothing, st)
  | Typedtree.Texp_field (e', _, _) ->
      let v, st = eval ctx ~sup env st e' in
      let v' =
        match v with Res _ | PVal _ -> v | _ -> Nothing
      in
      (v', st)
  | Typedtree.Texp_setfield (e1, _, _, e2) ->
      let _, st = eval ctx ~sup env st e1 in
      let v2, st = eval ctx ~sup env st e2 in
      (Nothing, escape_val ctx env st v2 (Some e2))
  | Typedtree.Texp_while (c, body) ->
      let _, st0 = eval ctx ~sup env st c in
      let _, st1 = eval ctx ~sup env st0 body in
      (Nothing, join_state st0 st1)
  | Typedtree.Texp_for (_, _, lo, hi, _, body) ->
      let _, st = eval ctx ~sup env st lo in
      let _, st0 = eval ctx ~sup env st hi in
      let _, st1 = eval ctx ~sup env st0 body in
      (Nothing, join_state st0 st1)
  | Typedtree.Texp_assert (e', _) ->
      let _, st = eval ctx ~sup env st e' in
      raise_check ctx ~sup st e.exp_loc;
      (Nothing, st)
  | Typedtree.Texp_letmodule (_, _, _, _, body) | Typedtree.Texp_open (_, body)
    ->
      eval ctx ~sup env st body
  | _ ->
      (* Conservative default: evaluate children left-to-right for their
         state effects. *)
      let st_ref = ref st in
      let visit _ (ce : Typedtree.expression) =
        let _, st' = eval ctx ~sup env !st_ref ce in
        st_ref := st'
      in
      let it = { Tast_iterator.default_iterator with expr = visit } in
      Tast_iterator.default_iterator.expr it e;
      (Nothing, !st_ref)

and join_branches = function
  | [] -> (Nothing, IMap.empty)
  | (av, st) :: rest ->
      List.fold_left
        (fun (av, st) (av', st') -> (join_aval av av', join_state st st'))
        (av, st) rest

and eval_apply ctx ~sup env st (e : Typedtree.expression) fe args =
  let loc = e.Typedtree.exp_loc in
  match callee ctx.prog fe with
  | Some c when SSet.mem c cold_exits ->
      let st =
        List.fold_left
          (fun st (_, a) ->
            match a with
            | Some a ->
                let _, st = eval ctx ~sup env st a in
                st
            | None -> st)
          st args
      in
      raise_check ctx ~sup st loc;
      (Nothing, st)
  | Some "Fun.protect" -> eval_protect ctx ~sup env st loc args
  | Some c when last_comp c = "not" -> (
      match args with
      | [ (Asttypes.Nolabel, Some a) ] -> (
          let v, st = eval ctx ~sup env st a in
          match v with
          | CondRes (id, n) -> (CondRes (id, not n), st)
          | _ -> (Nothing, st))
      | _ -> eval_unknown ctx ~sup env st args)
  | Some c when last_comp c = "&&" ->
      let avs, st =
        List.fold_left
          (fun (avs, st) (_, a) ->
            match a with
            | Some a ->
                let v, st = eval ctx ~sup env st a in
                (v :: avs, st)
            | None -> (avs, st))
          ([], st) args
      in
      let cond =
        List.find_opt (function CondRes _ -> true | _ -> false) avs
      in
      ((match cond with Some v -> v | None -> Nothing), st)
  | Some c when last_comp c = "ignore" ->
      let st =
        List.fold_left
          (fun st (_, a) ->
            match a with
            | Some a ->
                let _, st = eval ctx ~sup env st a in
                st
            | None -> st)
          st args
      in
      (Nothing, st)
  | Some c -> (
      let acq = tbl_find ctx ctx.tbls.acq_tbl c in
      let rel = tbl_find ctx ctx.tbls.rel_tbl c in
      let use = tbl_find ctx ctx.tbls.use_tbl c in
      let creator = tbl_find ctx ctx.tbls.creators c in
      let is_hof = SSet.mem c hof_fns in
      (* Evaluate arguments; literal lambdas to HOF combinators run
         inline instead of escaping their captures. *)
      let eargs, st =
        List.fold_left
          (fun (acc, st) (lbl, a) ->
            match a with
            | None -> (acc, st)
            | Some a -> (
                let lbl =
                  match lbl with
                  | Asttypes.Nolabel -> None
                  | Asttypes.Labelled s | Asttypes.Optional s -> Some s
                in
                match (is_hof, lambda_body a) with
                | true, Some (params, body) ->
                    let env' =
                      List.fold_left
                        (fun env p -> bind_pat env p.p_pat Nothing)
                        env params
                    in
                    let _, st = eval ctx ~sup env' st body in
                    (acc @ [ (lbl, Nothing, a) ], st)
                | _ ->
                    let v, st = eval ctx ~sup env st a in
                    (acc @ [ (lbl, v, a) ], st)))
          ([], st) args
      in
      let apply_style st entries mk =
        List.fold_left
          (fun st (proto, style) ->
            match style with
            | Arg i -> (
                match nth_nolabel eargs i with
                | Some (av, ae) -> mk st proto (Some ae) av
                | None -> st)
            | Ret -> st)
          st entries
      in
      let st =
        match rel with
        | Some entries ->
            apply_style st entries (fun st proto ae av ->
                release_at ctx ~sup env st ~proto
                  ~rel_hops:[ hop ("released by " ^ c) loc ]
                  ae av)
        | None -> st
      in
      let st =
        match use with
        | Some entries ->
            apply_style st entries (fun st proto ae av ->
                use_at ctx ~sup env st ~proto
                  ~use_hops:[ hop ("used by " ^ c) loc ]
                  ae av)
        | None -> st
      in
      match acq with
      | Some entries ->
          let ret_ids = ref ISet.empty in
          let cond_id = ref None in
          let st =
            List.fold_left
              (fun st (proto, style) ->
                let acq_hops = [ hop ("acquired by " ^ c) loc ] in
                match style with
                | Ret ->
                    let r =
                      new_res ctx ~proto ~hops:acq_hops ~what:c ~param:None
                    in
                    ret_ids := ISet.add r.r_id !ret_ids;
                    set_status st r.r_id Acq
                | Arg i -> (
                    match nth_nolabel eargs i with
                    | Some (_, ae) ->
                        let rid, st =
                          acquire_subject ctx env st ~proto ~acq_hops (Some ae)
                        in
                        (match rid with
                        | Some id when is_bool_type e -> cond_id := Some id
                        | _ -> ());
                        st
                    | None -> st))
              st entries
          in
          let av =
            if not (ISet.is_empty !ret_ids) then Res !ret_ids
            else
              match !cond_id with
              | Some id -> CondRes (id, false)
              | None -> Nothing
          in
          (av, st)
      | None -> (
          match creator with
          | Some proto ->
              (FreshVal (proto, hop ("created by " ^ c) loc), st)
          | None -> (
              if rel <> None || use <> None then (Nothing, st)
              else
                match tbl_find ctx ctx.prog.plain_fns c with
                | Some callee -> apply_summary ctx ~sup env st ~loc callee eargs
                | None ->
                    (* A container store or an unknown callee: every
                       argument escapes. *)
                    ( Nothing,
                      List.fold_left
                        (fun st (_, av, ae) ->
                          escape_val ctx env st av (Some ae))
                        st eargs ))))
  | None ->
      let _, st = eval ctx ~sup env st fe in
      eval_unknown ctx ~sup env st args

and eval_unknown ctx ~sup env st args =
  let st =
    List.fold_left
      (fun st (_, a) ->
        match a with
        | Some a ->
            let v, st = eval ctx ~sup env st a in
            escape_val ctx env st v (Some a)
        | None -> st)
      st args
  in
  (Nothing, st)

and eval_protect ctx ~sup env st _loc args =
  let finally =
    List.find_map
      (fun (lbl, a) ->
        match (lbl, a) with
        | Asttypes.Labelled "finally", Some a -> Some a
        | _ -> None)
      args
  in
  let thunk =
    List.fold_left
      (fun acc (lbl, a) ->
        match (lbl, a) with Asttypes.Nolabel, Some a -> Some a | _ -> acc)
      None args
  in
  match (finally, thunk) with
  | Some fin, Some th ->
      let fin_body =
        match lambda_body fin with Some (_, b) -> Some b | None -> None
      in
      let targets =
        match fin_body with
        | Some b -> release_targets ctx env b
        | None -> ISet.empty
      in
      ctx.frames <- { fr_rel = targets; fr_absorbs = false } :: ctx.frames;
      let av, st =
        match lambda_body th with
        | Some (_, b) -> eval ctx ~sup env st b
        | None -> eval ctx ~sup env st th
      in
      (ctx.frames <- (match ctx.frames with _ :: t -> t | [] -> []));
      let st =
        match fin_body with
        | Some b ->
            let _, st = eval ctx ~sup env st b in
            st
        | None -> st
      in
      (av, st)
  | _ -> eval_unknown ctx ~sup env st args

(* Apply a callee's fixpoint summary at the call site, extending hop
   chains through the call so cross-module lifetimes read end to end. *)
and apply_summary ctx ~sup env st ~loc (callee : fn) eargs =
  let s = ctx.summary callee in
  let st =
    List.fold_left
      (fun st (i, proto, hops) ->
        match nth_nolabel eargs i with
        | Some (av, ae) ->
            release_at ctx ~sup env st ~proto
              ~rel_hops:(hops @ [ hop ("released via " ^ callee.f_id) loc ])
              (Some ae) av
        | None -> st)
      st s.ps_param_rel
  in
  let st =
    List.fold_left
      (fun st (i, proto, hops) ->
        match nth_nolabel eargs i with
        | Some (av, ae) ->
            use_at ctx ~sup env st ~proto
              ~use_hops:(hops @ [ hop ("used via " ^ callee.f_id) loc ])
              (Some ae) av
        | None -> st)
      st s.ps_param_use
  in
  let st =
    List.fold_left
      (fun st (i, proto, hops) ->
        match nth_nolabel eargs i with
        | Some (_, ae) ->
            let _, st =
              acquire_subject ctx env st ~proto
                ~acq_hops:(hops @ [ hop ("acquired via " ^ callee.f_id) loc ])
                (Some ae)
            in
            st
        | None -> st)
      st s.ps_param_acq
  in
  let st =
    List.fold_left
      (fun st k ->
        match arg_for_param callee eargs k with
        | Some (av, ae) -> escape_val ctx env st av (Some ae)
        | None -> st)
      st s.ps_param_esc
  in
  let ret_ids, st =
    List.fold_left
      (fun (ids, st) (proto, hops) ->
        let r =
          new_res ctx ~proto
            ~hops:(hops @ [ hop ("acquired via " ^ callee.f_id) loc ])
            ~what:callee.f_id ~param:None
        in
        (ISet.add r.r_id ids, set_status st r.r_id Acq))
      (ISet.empty, st) s.ps_ret
  in
  ((if ISet.is_empty ret_ids then Nothing else Res ret_ids), st)

(* ------------------------------------------------------------------ *)
(* Per-function analysis                                               *)
(* ------------------------------------------------------------------ *)

(* Analyze one function body; returns its (possibly improved) summary.
   With [report=true] also records violations for locally-owned
   resources that fail their protocol on some exit path. *)
let eval_fn prog tbls summary ~report viols (f : fn) : psum =
  let ctx =
    {
      prog;
      tbls;
      summary;
      cur = f;
      report;
      viols;
      next_id = 0;
      resources = [];
      subjects = Hashtbl.create 16;
      escaped_fresh = Hashtbl.create 16;
      frames = [];
      sum_param_rel = [];
      sum_param_use = [];
      sum_param_esc = [];
      raises = false;
    }
  in
  let env, _, _ =
    List.fold_left
      (fun (env, pos, k) p ->
        match p.p_arg with
        | Nolabel -> (bind_pat env p.p_pat (PVal (pos, k)), pos + 1, k + 1)
        | Labelled _ | Optional _ ->
            (bind_pat env p.p_pat (PVal (-1, k)), pos, k + 1))
      (IdentMap.empty, 0, 0) f.f_params
  in
  let sup = proto_ok f.f_attrs in
  let av, st = eval ctx ~sup env IMap.empty f.f_body in
  let returned = res_ids av in
  let exit_hop =
    {
      hop_what = "function exit " ^ f.f_id;
      hop_file = f.f_file;
      hop_line = f.f_line;
    }
  in
  let ps_ret = ref [] and ps_param_acq = ref [] in
  List.iter
    (fun r ->
      let stat = IMap.find_opt r.r_id st in
      if ISet.mem r.r_id returned then (
        match stat with
        | Some Acq | Some (CondRel _) ->
            ps_ret := (r.r_proto, r.r_hops @ [ exit_hop ]) :: !ps_ret
        | _ -> ())
      else
        match (r.r_param, stat) with
        | None, Some Acq -> (
            match r.r_hops with
            | h0 :: _ ->
                record_violation ctx ~sup ~rule:rule_pr1 ~file:h0.hop_file
                  ~line:h0.hop_line
                  ~msg:
                    (Printf.sprintf "'%s' (%s) is never released" r.r_what
                       r.r_proto)
                  ~chain:(r.r_hops @ [ exit_hop ])
            | [] -> ())
        | None, Some (CondRel h) -> (
            match r.r_hops with
            | h0 :: _ ->
                record_violation ctx ~sup ~rule:rule_pr1 ~file:h0.hop_file
                  ~line:h0.hop_line
                  ~msg:
                    (Printf.sprintf
                       "'%s' (%s) is released on some paths but leaks on \
                        others" r.r_what r.r_proto)
                  ~chain:(r.r_hops @ [ h; exit_hop ])
            | [] -> ())
        | Some i, Some Acq when i >= 0 ->
            ps_param_acq := (i, r.r_proto, r.r_hops) :: !ps_param_acq
        | _ -> ())
    (List.rev ctx.resources);
  {
    ps_ret = List.sort_uniq compare !ps_ret;
    ps_param_acq = List.sort_uniq compare !ps_param_acq;
    ps_param_rel = List.sort_uniq compare ctx.sum_param_rel;
    ps_param_use = List.sort_uniq compare ctx.sum_param_use;
    ps_param_esc = List.sort_uniq compare ctx.sum_param_esc;
    ps_raises = ctx.raises;
  }

(* ------------------------------------------------------------------ *)
(* Fixpoint and reporting                                              *)
(* ------------------------------------------------------------------ *)

type report = {
  cmt_files : int;
  functions : int;
  protocols : int;
  acq_fns : int;
  rel_fns : int;
  acq_annots : int;
  rel_annots : int;
  violations : violation list;
  suppressed : violation list;
}

let analyze (prog : Program.t) =
  let tbls = tables prog in
  let fns = SMap.bindings prog.plain_fns |> List.map snd in
  let summ =
    fixpoint prog ~empty:empty_psum ~image:psum_image
      ~eval:(fun get f -> eval_fn prog tbls get ~report:false (ref []) f)
      fns
  in
  (* Report pass with stable summaries. *)
  let viols = ref [] in
  let summary g = summ.(g.f_idx) in
  List.iter
    (fun f -> ignore (eval_fn prog tbls summary ~report:true viols f))
    fns;
  (* [!viols] is newest first: de-dup keeps the last-recorded report. *)
  let violations, suppressed = finish !viols in
  let protocols =
    SMap.fold
      (fun _ entries acc ->
        List.fold_left (fun acc (p, _) -> SSet.add p acc) acc entries)
      tbls.acq_tbl SSet.empty
  in
  {
    cmt_files = prog.files;
    functions = List.length fns;
    protocols = SSet.cardinal protocols;
    acq_fns = SMap.cardinal tbls.acq_tbl;
    rel_fns = SMap.cardinal tbls.rel_tbl;
    acq_annots = tbls.acq_annots;
    rel_annots = tbls.rel_annots;
    violations;
    suppressed;
  }

(* ------------------------------------------------------------------ *)
(* JSON export                                                         *)
(* ------------------------------------------------------------------ *)

let report_to_json (r : report) =
  Sim.Json.Obj
    [
      ("cmt_files", Sim.Json.Int r.cmt_files);
      ("functions", Sim.Json.Int r.functions);
      ("protocols", Sim.Json.Int r.protocols);
      ("acquire_fns", Sim.Json.Int r.acq_fns);
      ("release_fns", Sim.Json.Int r.rel_fns);
      ("acquire_annots", Sim.Json.Int r.acq_annots);
      ("release_annots", Sim.Json.Int r.rel_annots);
      ("violations", Sim.Json.Int (List.length r.violations));
      ("suppressions", Sim.Json.Int (List.length r.suppressed));
      ("rules", rule_counts_json r.violations);
      ( "reports",
        Sim.Json.List (List.map violation_to_json r.violations) );
      ( "suppressed",
        Sim.Json.List (List.map violation_to_json r.suppressed) );
    ]
