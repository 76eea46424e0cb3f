(* cdna_flow — interprocedural guest-taint and DMA-safety verification
   over compiled [.cmt] typedtrees (compiler-libs).

   Complements the expression-level [cdna_lint] with three whole-program
   analyses sharing one call graph built across every module of the
   loaded [Program]:

   - (T1/T2) guest-taint: values originating from guest-readable memory
     ([Phys_mem.read_*], descriptor reads via [Desc_layout.read],
     [Mailbox] PIO payloads, [Xchan] messages) are tainted and must pass
     through a declared sanitizer ([Iommu.allowed], [Seqno.continuous],
     or any function marked [@cdna.sanitizer]) before flowing into an
     address/length argument of a DMA sink ([Bus.Dma_engine.*],
     [Phys_mem] writes, [Desc_layout.write], [Iommu.grant],
     [Phys_mem.get_ref]) or into the addr/len fields of a
     [Memory.Dma_desc.t] record under construction. Violations carry the
     full source -> call chain -> sink path with file:line per hop.
   - (A6) transitive zero-alloc: a [@cdna.hot] function may only
     (transitively) reach allocation-free functions. A1-A5 vet a hot
     body itself; A6 closes the loophole of a hot function calling a
     quietly-allocating non-hot helper, judging each reached helper's
     sites ([Program.sites]) by the same verdicts.
   - (P3) privilege reachability: no call path from a lib/nic or
     lib/guestos entry point reaches an ownership-mutating operation
     ([Phys_mem.alloc/free/transfer/get_ref/put_ref], [Iommu.grant/
     revoke/revoke_context]) except through the declared hypercall
     surface (a [@@@cdna.privileged] module, e.g. [Hyp], or the
     xen/host/memory layers).

   Annotation contract (DESIGN.md section 10):
     [@cdna.sanitizer]       the function validates guest data; applying
                             it to a variable cleanses that binding for
                             the rest of the enclosing function
     [@cdna.source]          the function returns guest-controlled data
     [@cdna.flow_ok "why"]   suppresses a flow violation on the subtree
     [@@@cdna.layer "nic"]   (module level) overrides the path-derived
                             layer, for fixtures compiled out of tree

   Soundness envelope (documented, deliberate): taint does not propagate
   through mutable state (Queue/Hashtbl/mutable fields act as cuts — the
   datapath drains them under its own sequencing discipline), and a
   local closure analyzed at its binding site assumes clean parameters.
   Both limits are one-sided: they can miss flows, never invent them. *)

open Chain
open Program

type report = {
  cmt_files : int;
  functions : int;
  violations : violation list; (* unsuppressed, sorted *)
  suppressed : violation list;
  sanitizer_fns : int;
}

let rule_t1 = "T1-guest-taint"
let rule_t2 = "T2-desc-construct"
let rule_a6 = "A6-transitive-alloc"
let rule_p3 = "P3-priv-reachability"

(* ------------------------------------------------------------------ *)
(* Source / sink / sanitizer contract                                  *)
(* ------------------------------------------------------------------ *)

let declared_sources =
  SSet.of_list
    [
      "Phys_mem.read"; "Phys_mem.read_uint"; "Phys_mem.read_u16";
      "Phys_mem.read_u32"; "Phys_mem.read_u64"; "Desc_layout.read";
      "Mailbox.value"; "Xchan.tx_peek"; "Xchan.tx_pop"; "Xchan.rx_pop";
      "Xchan.take_tx_completions"; "Xchan.take_returned_pages";
    ]

let declared_sanitizers = SSet.of_list [ "Iommu.allowed"; "Seqno.continuous" ]

(* Sensitive arguments per sink: labelled args by label, positional args
   by 0-based index among the [Nolabel] arguments. *)
type sens = Lab of string | Pos of int

let declared_sinks : sens list SMap.t =
  SMap.of_seq
    (List.to_seq
       [
         ("Dma_engine.read", [ Lab "addr"; Lab "len" ]);
         ("Dma_engine.read_into", [ Lab "addr"; Lab "len" ]);
         ("Dma_engine.write", [ Lab "addr" ]);
         ("Dma_engine.write_from", [ Lab "addr"; Lab "len" ]);
         ("Dma_engine.access", [ Lab "addr"; Lab "len" ]);
         ("Phys_mem.write", [ Lab "addr" ]);
         ("Phys_mem.write_sub", [ Lab "addr"; Lab "len" ]);
         ("Phys_mem.write_uint", [ Lab "addr" ]);
         ("Phys_mem.write_u16", [ Lab "addr" ]);
         ("Phys_mem.write_u32", [ Lab "addr" ]);
         ("Phys_mem.write_u64", [ Lab "addr" ]);
         ("Desc_layout.write", [ Lab "at" ]);
         ("Iommu.grant", [ Pos 1 ]);
         ("Phys_mem.get_ref", [ Pos 1 ]);
       ])

(* Modules modeled purely by the contract above: their bodies implement
   the primitives (bounds checks, IOMMU walks) and are exempt from taint
   evaluation — analyzing them would re-flag the very validation code
   the contract declares trusted. Call/alloc facts are still collected
   for the A6 and P3 graphs. *)
let contract_modules =
  SSet.of_list
    [
      "Phys_mem"; "Iommu"; "Dma_engine"; "Desc_layout"; "Mailbox"; "Xchan";
      "Addr"; "Dma_desc"; "Seqno";
    ]

(* Higher-order stdlib combinators: a literal lambda argument has its
   parameters bound to the joined taint of the other (collection)
   arguments, so element flows survive [List.iter (fun e -> ...) xs]. *)
let hof_fns =
  SSet.of_list
    [
      "List.iter"; "List.iteri"; "List.map"; "List.mapi"; "List.rev_map";
      "List.concat_map"; "List.filter_map"; "List.filter"; "List.fold_left";
      "List.fold_right"; "List.exists"; "List.for_all"; "List.find";
      "List.find_opt"; "List.partition"; "Array.iter"; "Array.iteri";
      "Array.map"; "Array.mapi"; "Array.fold_left"; "Queue.iter";
      "Queue.fold"; "Hashtbl.iter"; "Hashtbl.fold"; "Option.iter";
      "Option.map"; "Option.bind"; "Option.fold"; "Seq.iter"; "Seq.map";
      "Seq.fold_left";
    ]

let contract f = SSet.mem f.f_module contract_modules

(* ------------------------------------------------------------------ *)
(* Facts and summaries                                                 *)
(* ------------------------------------------------------------------ *)

type call = {
  c_callee : string; (* canonical *)
  c_line : int;
  c_nargs : int;
  c_susp : bool; (* under [@cdna.alloc_ok] / [@cdna.flow_ok] *)
}

type origin = {
  o_src : string;
  o_hops : hop list; (* head = the source read itself *)
}

type taint =
  | Clean
  | Fn of string * taint (* known function value, return taint *)
  | T of origin option * ISet.t (* source- and/or parameter-tainted *)
  | Fields of taint SMap.t

type flow = { fl_param : int; fl_sink : string; fl_hops : hop list }

type summary = { s_ret : taint; s_flows : flow list }

let empty_summary = { s_ret = Clean; s_flows = [] }

(* ------------------------------------------------------------------ *)
(* Taint lattice                                                       *)
(* ------------------------------------------------------------------ *)

let norm = function T (None, s) when ISet.is_empty s -> Clean | t -> t

let rec collapse = function
  | Fields m -> SMap.fold (fun _ v acc -> join (collapse v) acc) m Clean
  | Fn _ -> Clean
  | t -> t

and join a b =
  match (norm a, norm b) with
  | Clean, x | x, Clean -> x
  | Fn _, x | x, Fn _ -> x
  | Fields f, Fields g ->
      Fields
        (SMap.union (fun _ x y -> Some (join x y)) f g)
  | (Fields _ as f), x | x, (Fields _ as f) -> join (collapse f) x
  | T (o1, p1), T (o2, p2) ->
      T ((match o1 with Some _ -> o1 | None -> o2), ISet.union p1 p2)

let proj t lbl =
  match t with
  | Fields m -> ( match SMap.find_opt lbl m with Some x -> x | None -> Clean)
  | t -> collapse t

(* Canonical image for fixpoint comparison (Set internals are not
   structurally stable across construction orders). *)
let rec taint_image = function
  | Clean -> "c"
  | Fn (n, t) -> "f(" ^ n ^ "," ^ taint_image t ^ ")"
  | T (o, ps) ->
      Printf.sprintf "t(%s;%s)"
        (match o with
        | None -> "-"
        | Some o ->
            o.o_src ^ ":"
            ^ String.concat ","
                (List.map
                   (fun h ->
                     Printf.sprintf "%s@%s:%d" h.hop_what h.hop_file h.hop_line)
                   o.o_hops))
        (String.concat "," (List.map string_of_int (ISet.elements ps)))
  | Fields m ->
      "{"
      ^ String.concat ";"
          (List.map
             (fun (k, v) -> k ^ "=" ^ taint_image v)
             (SMap.bindings m))
      ^ "}"

let flow_image f =
  Printf.sprintf "%d>%s:%s" f.fl_param f.fl_sink
    (String.concat ","
       (List.map
          (fun h -> Printf.sprintf "%s@%s:%d" h.hop_what h.hop_file h.hop_line)
          f.fl_hops))

let summary_image s =
  taint_image s.s_ret ^ "|"
  ^ String.concat "|" (List.sort String.compare (List.map flow_image s.s_flows))

(* ------------------------------------------------------------------ *)
(* Facts: call edges and allocation sites, for all modules             *)
(* ------------------------------------------------------------------ *)

(* Calls (and references to functions passed as values) and allocation
   sites from [Program.sites], outside error exits; allocations under a
   suppression are dropped, calls keep [c_susp]. *)
let collect_facts p (f : fn) =
  let resolve c = qualify p.plain_fns ~modname:f.f_module c in
  let calls, allocs =
    List.fold_left
      (fun (calls, allocs) s ->
        let susp =
          List.mem "cdna.alloc_ok" s.sup || List.mem "cdna.flow_ok" s.sup
        in
        let call c n =
          { c_callee = c; c_line = loc_line s.loc; c_nargs = n; c_susp = susp }
        in
        match s.kind with
        | _ when s.cold -> (calls, allocs)
        | Call { callee; nargs; _ } ->
            (call (resolve callee) nargs :: calls, allocs)
        | Ref c when SMap.mem c p.plain_fns -> (call c 0 :: calls, allocs)
        | Alloc a when not susp -> (calls, (a, loc_line s.loc) :: allocs)
        | _ -> (calls, allocs))
      ([], [])
      (sites p ~attrs:f.f_attrs f.f_expr)
  in
  (List.rev calls, List.rev allocs)

(* ------------------------------------------------------------------ *)
(* Taint evaluation (passes 3-4)                                       *)
(* ------------------------------------------------------------------ *)

type ctx = {
  prog : Program.t;
  summary : fn -> summary; (* a callee's current summary *)
  cur : fn;
  report : bool;
  viols : violation list ref;
  flows : flow list ref;
}

let fn_of_name ctx name = find ctx.prog.plain_fns ~modname:ctx.cur.f_module name

let is_source ctx name =
  SSet.mem name declared_sources
  || match fn_of_name ctx name with
     | Some f -> has_attr "cdna.source" f.f_attrs
     | None -> false

let is_sanitizer ctx name =
  SSet.mem name declared_sanitizers
  || match fn_of_name ctx name with
     | Some f -> has_attr "cdna.sanitizer" f.f_attrs
     | None -> false

let record_violation ctx ~sup ~rule ~loc ~msg ~chain =
  let v =
    {
      rule;
      file = loc_file loc;
      line = loc_line loc;
      msg;
      chain;
      suppress = sup;
    }
  in
  ctx.viols := v :: !(ctx.viols)

(* The root variable of an access path ([desc], [e] in [e.Xchan.pfn]),
   used to cleanse bindings when a sanitizer inspects them. *)
let rec root_ident (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_ident (Path.Pident id, _, _) -> Some id
  | Typedtree.Texp_field (e, _, _) -> root_ident e
  | _ -> None

let rec bind_pat : type k. taint IdentMap.t -> k Typedtree.general_pattern
    -> taint -> taint IdentMap.t =
 fun env p t ->
  match p.pat_desc with
  | Typedtree.Tpat_var (id, _) -> IdentMap.add id t env
  | Typedtree.Tpat_alias (p', id, _) -> bind_pat (IdentMap.add id t env) p' t
  | Typedtree.Tpat_tuple ps ->
      List.fold_left
        (fun env (i, p') -> bind_pat env p' (proj t (string_of_int i)))
        env
        (List.mapi (fun i p' -> (i, p')) ps)
  | Typedtree.Tpat_record (fields, _) ->
      List.fold_left
        (fun env (_, (ld : Types.label_description), p') ->
          bind_pat env p' (proj t ld.lbl_name))
        env
        (List.map (fun (a, b, c) -> (a, b, c)) fields)
  | Typedtree.Tpat_construct (_, _, ps, _) ->
      List.fold_left (fun env p' -> bind_pat env p' (collapse t)) env ps
  | Typedtree.Tpat_variant (_, Some p', _) -> bind_pat env p' (collapse t)
  | Typedtree.Tpat_variant (_, None, _) -> env
  | Typedtree.Tpat_array ps ->
      List.fold_left (fun env p' -> bind_pat env p' (collapse t)) env ps
  | Typedtree.Tpat_lazy p' -> bind_pat env p' t
  | Typedtree.Tpat_or (a, b, _) -> bind_pat (bind_pat env a t) b t
  | Typedtree.Tpat_value arg ->
      bind_pat env (arg :> Typedtree.value Typedtree.general_pattern) t
  | Typedtree.Tpat_exception p' -> bind_pat env p' Clean
  | Typedtree.Tpat_any | Typedtree.Tpat_constant _ -> env

let env_join a b = IdentMap.union (fun _ x y -> Some (join x y)) a b

(* Instantiate a callee origin at a call site: extend its hop chain with
   the call itself so cross-module paths read end to end. *)
let extend_origin o ~callee ~caller loc =
  {
    o with
    o_hops =
      o.o_hops
      @ [ hop (Printf.sprintf "return of %s flows into %s" callee caller) loc ];
  }

let sens_args args specs =
  (* [args]: (label string option, taint, expr option) in call order. *)
  let pos = ref (-1) in
  List.filter_map
    (fun (lbl, t, e) ->
      (match lbl with None -> incr pos | Some _ -> ());
      let hit =
        List.exists
          (function
            | Lab l -> Some l = lbl
            | Pos i -> lbl = None && i = !pos)
          specs
      in
      if hit then Some (lbl, t, e) else None)
    args

let dma_desc_record (e : Typedtree.expression) =
  match Types.get_desc e.exp_type with
  | Types.Tconstr (p, _, _) ->
      let n = Path.name p in
      let n = canon_of SMap.empty n in
      n = "Dma_desc.t"
  | _ -> false

let rec eval ctx ~(sup : string option) env (e : Typedtree.expression) :
    taint * taint IdentMap.t =
  let sup =
    match find_attr "cdna.flow_ok" e.exp_attributes with
    | Some a -> Some (match attr_reason a with Some r -> r | None -> "")
    | None -> sup
  in
  match e.exp_desc with
  | Typedtree.Texp_ident (Path.Pident id, _, _) -> (
      match IdentMap.find_opt id env with
      | Some t -> (t, env)
      | None -> (
          let name = Ident.name id in
          match fn_of_name ctx name with
          | Some f -> (Fn (f.f_id, Clean), env)
          | None -> (Clean, env)))
  | Typedtree.Texp_ident (p, _, _) ->
      let c = canon_of ctx.prog.aliases (Path.name p) in
      if SMap.mem c ctx.prog.plain_fns then (Fn (c, Clean), env)
      else (Clean, env)
  | Typedtree.Texp_constant _ -> (Clean, env)
  | Typedtree.Texp_let (rf, vbs, body) ->
      let env =
        List.fold_left (fun env vb -> bind_vb ctx ~sup ~rf env vb) env vbs
      in
      eval ctx ~sup env body
  | Typedtree.Texp_function _ ->
      (* Anonymous closure: analyze the body now, in the capturing
         environment, with unknown (clean) parameters. *)
      let ret = eval_closure ctx ~sup env e Clean in
      (Fn ("<closure>", ret), env)
  | Typedtree.Texp_apply (fe, args) -> eval_apply ctx ~sup env e fe args
  | Typedtree.Texp_match (scrut, cases, _) ->
      let t, env = eval ctx ~sup env scrut in
      eval_cases ctx ~sup env t cases
  | Typedtree.Texp_try (body, cases) ->
      let t, env = eval ctx ~sup env body in
      let t2, env2 = eval_cases ctx ~sup env Clean cases in
      (join t t2, env_join env env2)
  | Typedtree.Texp_tuple es ->
      let env, fields =
        List.fold_left
          (fun (env, acc) e' ->
            let t, env = eval ctx ~sup env e' in
            (env, acc @ [ t ]))
          (env, []) es
      in
      ( Fields
          (SMap.of_seq
             (List.to_seq
                (List.mapi (fun i t -> (string_of_int i, t)) fields))),
        env )
  | Typedtree.Texp_construct (_, _, es) ->
      let env, t =
        List.fold_left
          (fun (env, acc) e' ->
            let t, env = eval ctx ~sup env e' in
            (env, join acc (collapse t)))
          (env, Clean) es
      in
      (t, env)
  | Typedtree.Texp_variant (_, Some e') ->
      let t, env = eval ctx ~sup env e' in
      (collapse t, env)
  | Typedtree.Texp_variant (_, None) -> (Clean, env)
  | Typedtree.Texp_record { fields; extended_expression; _ } ->
      let base, env =
        match extended_expression with
        | Some e' -> eval ctx ~sup env e'
        | None -> (Clean, env)
      in
      let env = ref env in
      let m =
        Array.fold_left
          (fun m ((ld : Types.label_description), def) ->
            let t =
              match def with
              | Typedtree.Overridden (_, e') ->
                  let t, env' = eval ctx ~sup !env e' in
                  env := env';
                  t
              | Typedtree.Kept _ -> proj base ld.lbl_name
            in
            SMap.add ld.lbl_name t m)
          SMap.empty fields
      in
      (* T2: a DMA descriptor built from guest-controlled addr/len is a
         forged descriptor in the making. *)
      if dma_desc_record e then
        List.iter
          (fun fld ->
            match SMap.find_opt fld m with
            | Some (T (Some o, _)) when ctx.report ->
                record_violation ctx ~sup ~rule:rule_t2 ~loc:e.exp_loc
                  ~msg:
                    (Printf.sprintf
                       "Dma_desc.%s built from guest-tainted value (source %s) \
                        without sanitization"
                       fld o.o_src)
                  ~chain:
                    (o.o_hops
                    @ [ hop ("Dma_desc." ^ fld ^ " construction") e.exp_loc ])
            | _ -> ())
          [ "addr"; "len" ];
      (Fields m, !env)
  | Typedtree.Texp_field (e', _, ld) ->
      let t, env = eval ctx ~sup env e' in
      (proj t ld.lbl_name, env)
  | Typedtree.Texp_setfield (e1, _, _, e2) ->
      (* Mutable store: taint is cut here (documented limitation). *)
      let _, env = eval ctx ~sup env e1 in
      let _, env = eval ctx ~sup env e2 in
      (Clean, env)
  | Typedtree.Texp_array es ->
      let env, t =
        List.fold_left
          (fun (env, acc) e' ->
            let t, env = eval ctx ~sup env e' in
            (env, join acc (collapse t)))
          (env, Clean) es
      in
      (t, env)
  | Typedtree.Texp_ifthenelse (c, th, el) ->
      let _, env = eval ctx ~sup env c in
      let t1, env1 = eval ctx ~sup env th in
      let t2, env2 =
        match el with
        | Some el -> eval ctx ~sup env el
        | None -> (Clean, env)
      in
      (join t1 t2, env_join env1 env2)
  | Typedtree.Texp_sequence (a, b) ->
      let _, env = eval ctx ~sup env a in
      eval ctx ~sup env b
  | Typedtree.Texp_while (c, body) ->
      let _, env = eval ctx ~sup env c in
      let _, env' = eval ctx ~sup env body in
      (Clean, env_join env env')
  | Typedtree.Texp_for (id, _, lo, hi, _, body) ->
      let _, env = eval ctx ~sup env lo in
      let _, env = eval ctx ~sup env hi in
      let _, env' = eval ctx ~sup (IdentMap.add id Clean env) body in
      (Clean, env_join env env')
  | Typedtree.Texp_assert (e', _) ->
      let _, env = eval ctx ~sup env e' in
      (Clean, env)
  | Typedtree.Texp_lazy e' -> eval ctx ~sup env e'
  | Typedtree.Texp_open (_, e') -> eval ctx ~sup env e'
  | Typedtree.Texp_letmodule (_, _, _, _, body) -> eval ctx ~sup env body
  | _ ->
      (* Constructs without a dedicated rule: evaluate children in the
         ambient environment; the result is unknown, hence clean. *)
      let it =
        {
          Tast_iterator.default_iterator with
          expr = (fun _ sub -> ignore (eval ctx ~sup env sub));
        }
      in
      Tast_iterator.default_iterator.expr it e;
      (Clean, env)

and eval_cases : type k. ctx -> sup:string option -> taint IdentMap.t -> taint
    -> k Typedtree.case list -> taint * taint IdentMap.t =
 fun ctx ~sup env scrut_t cases ->
  List.fold_left
    (fun (acc_t, acc_env) (c : k Typedtree.case) ->
      let env_c = bind_pat env c.c_lhs scrut_t in
      let env_c =
        match c.c_guard with
        | Some g ->
            let _, env_c = eval ctx ~sup env_c g in
            env_c
        | None -> env_c
      in
      let t, env' = eval ctx ~sup env_c c.c_rhs in
      (join acc_t t, env_join acc_env env'))
    (Clean, env) cases

(* Analyze a literal lambda in the current (capturing) environment with
   its parameters bound to [param_t]; returns the body's taint. *)
and eval_closure ctx ~sup env (e : Typedtree.expression) param_t =
  let params, body = peel_params e in
  let env =
    List.fold_left (fun env p -> bind_pat env p.p_pat param_t) env params
  in
  match body.exp_desc with
  | Typedtree.Texp_function { cases; _ } ->
      let t, _ = eval_cases ctx ~sup env param_t cases in
      t
  | _ ->
      let t, _ = eval ctx ~sup env body in
      t

and bind_vb ctx ~sup ~rf env (vb : Typedtree.value_binding) =
  let sup =
    match find_attr "cdna.flow_ok" vb.vb_attributes with
    | Some a -> Some (match attr_reason a with Some r -> r | None -> "")
    | None -> sup
  in
  match vb.vb_expr.exp_desc with
  | Typedtree.Texp_function _ -> (
      (* Local function: analyze once at the binding site. Captured
         bindings keep their current taint; parameters are assumed
         clean. The binding carries the body's return taint so
         [let r = f x] at a later call site stays tracked. *)
      let self_env =
        match (rf, vb.vb_pat.pat_desc) with
        | Asttypes.Recursive, Typedtree.Tpat_var (id, _) ->
            IdentMap.add id (Fn ("<local>", Clean)) env
        | _ -> env
      in
      let ret = eval_closure ctx ~sup self_env vb.vb_expr Clean in
      match vb.vb_pat.pat_desc with
      | Typedtree.Tpat_var (id, _) ->
          IdentMap.add id (Fn ("<local>", ret)) env
      | _ -> env)
  | _ ->
      let t, env = eval ctx ~sup env vb.vb_expr in
      bind_pat env vb.vb_pat t

and eval_apply ctx ~sup env (e : Typedtree.expression) fe args =
  let loc = e.Typedtree.exp_loc in
  (* Resolve the callee. *)
  let callee_name, callee_taint =
    match fe.Typedtree.exp_desc with
    | Typedtree.Texp_ident (Path.Pident id, _, _) -> (
        match IdentMap.find_opt id env with
        | Some (Fn (n, r)) -> (Some n, Some (Fn (n, r)))
        | Some _ | None -> (Some (Ident.name id), None))
    | Typedtree.Texp_ident (p, _, _) ->
        (Some (canon_of ctx.prog.aliases (Path.name p)), None)
    | _ ->
        let _, _ = eval ctx ~sup env fe in
        (None, None)
  in
  let is_lambda (e' : Typedtree.expression) =
    match e'.Typedtree.exp_desc with Typedtree.Texp_function _ -> true | _ -> false
  in
  let name = match callee_name with Some n -> n | None -> "" in
  let hofish = SSet.mem name hof_fns in
  (* Evaluate non-lambda arguments first; literal lambdas are deferred so
     HOFs can bind their parameters to the element taint. *)
  let env = ref env in
  let evald =
    List.map
      (fun ((lbl : Asttypes.arg_label), a) ->
        let lbl_s =
          match lbl with
          | Asttypes.Nolabel -> None
          | Asttypes.Labelled s | Asttypes.Optional s -> Some s
        in
        match a with
        | Some a when hofish && is_lambda a -> (lbl_s, None, Some a)
        | Some a ->
            let t, env' = eval ctx ~sup !env a in
            env := env';
            (lbl_s, Some (t, a), None)
        | None -> (lbl_s, None, None))
      args
  in
  let elem_taint =
    List.fold_left
      (fun acc (_, ta, _) ->
        match ta with Some (t, _) -> join acc (collapse t) | None -> acc)
      Clean evald
  in
  (* Now analyze deferred lambdas with parameters bound to the element
     taint of the traversed collection. *)
  List.iter
    (fun (_, _, lam) ->
      match lam with
      | Some l -> ignore (eval_closure ctx ~sup !env l elem_taint)
      | None -> ())
    evald;
  let arg_taints =
    List.filter_map
      (fun (lbl, ta, _) -> match ta with Some (t, a) -> Some (lbl, t, Some a) | None -> None)
      evald
  in
  let joined_args =
    List.fold_left (fun acc (_, t, _) -> join acc (collapse t)) Clean arg_taints
  in
  match callee_name with
  | Some c when is_sanitizer ctx c ->
      (* Sanitizer application cleanses the inspected bindings for the
         rest of the function. *)
      let env' =
        List.fold_left
          (fun env (_, _, a) ->
            match a with
            | Some a -> (
                match root_ident a with
                | Some id -> IdentMap.add id Clean env
                | None -> env)
            | None -> env)
          !env arg_taints
      in
      (Clean, env')
  | Some c when is_source ctx c ->
      ( T
          ( Some
              {
                o_src = c;
                o_hops =
                  [ hop (Printf.sprintf "source %s in %s" c ctx.cur.f_id) loc ];
              },
            ISet.empty ),
        !env )
  | Some c when SMap.mem c declared_sinks ->
      let specs = SMap.find c declared_sinks in
      List.iter
        (fun (lbl, t, _) ->
          match collapse t with
          | T (Some o, _) when ctx.report ->
              let what =
                match lbl with Some l -> "~" ^ l | None -> "argument"
              in
              record_violation ctx ~sup ~rule:rule_t1 ~loc
                ~msg:
                  (Printf.sprintf
                     "guest-tainted value (source %s) reaches DMA sink %s %s \
                      without sanitization"
                     o.o_src c what)
                ~chain:(o.o_hops @ [ hop (Printf.sprintf "sink %s %s" c what) loc ])
          | T (_, ps) when not (ISet.is_empty ps) ->
              ISet.iter
                (fun i ->
                  ctx.flows :=
                    {
                      fl_param = i;
                      fl_sink = c;
                      fl_hops = [ hop (Printf.sprintf "sink %s" c) loc ];
                    }
                    :: !(ctx.flows))
                ps
          | _ -> ())
        (sens_args arg_taints specs);
      (Clean, !env)
  | Some c -> (
      match fn_of_name ctx c with
      | Some callee when not (contract callee) ->
          let summary = ctx.summary callee in
          (* Apply the callee's summary. *)
          let assigned = assign_params callee arg_taints in
          let call_hop =
            hop (Printf.sprintf "call %s from %s" callee.f_id ctx.cur.f_id) loc
          in
          (* Param-to-sink flows recorded in the callee surface here. *)
          List.iter
            (fun fl ->
              match List.assoc_opt fl.fl_param assigned with
              | Some t -> (
                  match collapse t with
                  | T (Some o, _) when ctx.report ->
                      record_violation ctx ~sup ~rule:rule_t1 ~loc
                        ~msg:
                          (Printf.sprintf
                             "guest-tainted value (source %s) reaches DMA \
                              sink %s via %s without sanitization"
                             o.o_src fl.fl_sink callee.f_id)
                        ~chain:(o.o_hops @ (call_hop :: fl.fl_hops))
                  | _ -> ());
                  (match collapse t with
                  | T (_, ps) ->
                      ISet.iter
                        (fun i ->
                          ctx.flows :=
                            {
                              fl_param = i;
                              fl_sink = fl.fl_sink;
                              fl_hops = call_hop :: fl.fl_hops;
                            }
                            :: !(ctx.flows))
                        ps
                  | _ -> ())
              | None -> ())
            summary.s_flows;
          (* Instantiate the return taint. *)
          let ret = instantiate summary.s_ret assigned ~callee:callee.f_id
              ~caller:ctx.cur.f_id loc in
          (ret, !env)
      | _ -> (
          match callee_taint with
          | Some (Fn (_, ret)) ->
              (* Local function value: its return taint was computed at
                 the binding site. *)
              (ret, !env)
          | _ ->
              (* Unknown / external / contract-primitive call: the result
                 conservatively carries the joined argument taint. *)
              (joined_args, !env)))
  | None -> (joined_args, !env)

and assign_params (callee : fn) arg_taints =
  (* Map evaluated arguments to the callee's parameter indices: labelled
     args match labels, positional args fill positional slots in order. *)
  let labels =
    List.mapi
      (fun i p ->
        match p.p_arg with
        | Asttypes.Nolabel -> (i, None)
        | Labelled s | Optional s -> (i, Some s))
      callee.f_params
  in
  let positional =
    List.filter_map (fun (i, l) -> if l = None then Some i else None) labels
  in
  let next_pos = ref positional in
  List.filter_map
    (fun (lbl, t, _) ->
      match lbl with
      | Some l -> (
          match
            List.find_opt (fun (_, pl) -> pl = Some l) labels
          with
          | Some (i, _) -> Some (i, t)
          | None -> None)
      | None -> (
          match !next_pos with
          | i :: rest ->
              next_pos := rest;
              Some (i, t)
          | [] -> None))
    arg_taints

and instantiate ret assigned ~callee ~caller loc =
  let rec go = function
    | Clean -> Clean
    | Fn _ -> Clean
    | Fields m -> Fields (SMap.map go m)
    | T (o, ps) ->
        let from_params =
          ISet.fold
            (fun i acc ->
              match List.assoc_opt i assigned with
              | Some t -> join acc (collapse t)
              | None -> acc)
            ps Clean
        in
        let from_src =
          match o with
          | Some o -> T (Some (extend_origin o ~callee ~caller loc), ISet.empty)
          | None -> Clean
        in
        join from_src from_params
  in
  norm (go ret)

(* One taint pass over a function body; returns the new summary. *)
let eval_fn prog summary ~report viols (f : fn) =
  let ctx = { prog; summary; cur = f; report; viols; flows = ref [] } in
  let env =
    List.fold_left
      (fun (env, i) p ->
        (bind_pat env p.p_pat (T (None, ISet.singleton i)), i + 1))
      (IdentMap.empty, 0) f.f_params
    |> fst
  in
  let ret, _ = eval ctx ~sup:None env f.f_body in
  (* Keep one flow per (param, sink) pair — the first found is the
     shortest chain under our evaluation order. *)
  let seen = Hashtbl.create 8 in
  let flows =
    List.rev !(ctx.flows)
    |> List.filter (fun fl ->
           let k = (fl.fl_param, fl.fl_sink) in
           if Hashtbl.mem seen k then false
           else begin
             Hashtbl.add seen k ();
             true
           end)
  in
  let ret =
    match norm ret with
    | Fields m -> norm (Fields (SMap.map (fun t -> norm (collapse t)) m))
    | t -> t
  in
  { s_ret = ret; s_flows = flows }

(* ------------------------------------------------------------------ *)
(* A6: transitive zero-alloc closure                                   *)
(* ------------------------------------------------------------------ *)

let alloc_name = function
  | Tuple -> "tuple"
  | Record -> "record"
  | Array -> "array"
  | Constructor -> "constructor"
  | Variant -> "variant"
  | Lazy -> "lazy"
  | Module -> "module"
  | Closure -> "closure"
  | Float -> "float"

let hop_at what file line =
  { hop_what = what; hop_file = file; hop_line = line }

let check_transitive_alloc prog ~calls ~allocs viols =
  let reported = Hashtbl.create 16 in
  let report_once key v =
    if not (Hashtbl.mem reported key) then begin
      Hashtbl.add reported key ();
      viols := v :: !viols
    end
  in
  let a6 (h : fn) (g : fn) ~line ~chain what =
    {
      rule = rule_a6;
      file = g.f_file;
      line;
      msg =
        Printf.sprintf "[@cdna.hot] %s transitively reaches %s, which %s"
          h.f_id g.f_id what;
      chain;
      suppress = None;
    }
  in
  SMap.iter
    (fun _ (h : fn) ->
      if Cdna_lint.hot h then
        dfs
          ~calls:(fun f -> calls.(f.f_idx))
          ~line:(fun c -> c.c_line)
          ~enter:(fun path g ->
            let alloc what line =
              report_once
                ("alloc:" ^ g.f_id ^ ":" ^ string_of_int line)
                (a6 h g ~line ~chain:path
                   (Printf.sprintf "allocates (%s)" what))
            in
            List.iter
              (fun (a, line) -> alloc (alloc_name a) line)
              allocs.(g.f_idx);
            (* Calls into the program are the DFS's edges; the rest get
               the verdict A1-A5 would give them in a hot body. *)
            List.iter
              (fun c' ->
                if not (c'.c_susp || SMap.mem c'.c_callee prog.plain_fns) then
                  match
                    Cdna_lint.judge_call prog ~modname:g.f_module
                      ~callee:c'.c_callee ~nargs:c'.c_nargs
                  with
                  | None -> ()
                  | Some (rule, _) when rule = Cdna_lint.rule_a1 ->
                      alloc ("operator " ^ last_comp c'.c_callee) c'.c_line
                  | Some _ ->
                      report_once
                        ("ext:" ^ g.f_id ^ ":" ^ c'.c_callee)
                        (a6 h g ~line:c'.c_line ~chain:path
                           (Printf.sprintf
                              "calls %s (not on the zero-alloc allowlist)"
                              c'.c_callee)))
              calls.(g.f_idx))
          ~step:(fun _ f c ->
            if c.c_susp then None
            else
              match SMap.find_opt c.c_callee prog.plain_fns with
              | Some g when g.f_id = f.f_id || Cdna_lint.hot g ->
                  None (* hot: A1-A5 *)
              | g -> g)
          (hop_at (Printf.sprintf "hot entry %s" h.f_id) h.f_file h.f_line)
          h)
    prog.plain_fns

(* ------------------------------------------------------------------ *)
(* P3: privilege reachability                                          *)
(* ------------------------------------------------------------------ *)

let check_priv_reachability prog ~calls viols =
  let reported = Hashtbl.create 16 in
  SMap.iter
    (fun _ (entry : fn) ->
      if
        SSet.mem entry.f_layer guest_layers
        && (not entry.f_privileged) && not (contract entry)
      then
        dfs
          ~calls:(fun f -> calls.(f.f_idx))
          ~line:(fun c -> c.c_line)
          ~step:(fun path f c ->
            if SSet.mem c.c_callee ownership_fns then begin
              let key =
                f.f_id ^ ":" ^ string_of_int c.c_line ^ ":" ^ c.c_callee
              in
              if not (Hashtbl.mem reported key) then begin
                Hashtbl.add reported key ();
                viols :=
                  {
                    rule = rule_p3;
                    file = f.f_file;
                    line = c.c_line;
                    msg =
                      Printf.sprintf
                        "%s entry point %s reaches ownership-mutating %s \
                         outside the declared hypercall surface"
                        entry.f_layer entry.f_id c.c_callee;
                    chain =
                      path
                      @ [
                          hop_at ("ownership op " ^ c.c_callee) f.f_file
                            c.c_line;
                        ];
                    suppress = (if c.c_susp then Some "annotated" else None);
                  }
                  :: !viols
              end;
              None
            end
            else
              match SMap.find_opt c.c_callee prog.plain_fns with
              | Some g
                when g.f_privileged || contract g
                     || SSet.mem g.f_layer ownership_layers ->
                  None (* the declared privilege boundary *)
              | g -> g)
          (hop_at
             (Printf.sprintf "entry %s (%s layer)" entry.f_id entry.f_layer)
             entry.f_file entry.f_line)
          entry)
    prog.plain_fns

(* ------------------------------------------------------------------ *)
(* Driving                                                             *)
(* ------------------------------------------------------------------ *)

let analyze (prog : Program.t) =
  let fns = SMap.bindings prog.plain_fns |> List.map snd in
  let calls = table prog [] and allocs = table prog [] in
  List.iter
    (fun f ->
      let c, a = collect_facts prog f in
      calls.(f.f_idx) <- c;
      allocs.(f.f_idx) <- a)
    fns;
  (* Taint fixpoint over summaries, then one reporting pass. *)
  let analyzed =
    List.filter (fun f -> (not (contract f)) && not f.f_privileged) fns
  in
  let summ =
    fixpoint prog ~empty:empty_summary ~image:summary_image
      ~eval:(fun get f -> eval_fn prog get ~report:false (ref []) f)
      analyzed
  in
  let viols = ref [] in
  let summary g = summ.(g.f_idx) in
  List.iter
    (fun f -> ignore (eval_fn prog summary ~report:true viols f))
    analyzed;
  check_transitive_alloc prog ~calls ~allocs viols;
  check_priv_reachability prog ~calls viols;
  let violations, suppressed = finish (List.rev !viols) in
  {
    cmt_files = prog.files;
    functions = List.length fns;
    violations;
    suppressed;
    sanitizer_fns =
      List.length
        (List.filter (fun f -> has_attr "cdna.sanitizer" f.f_attrs) fns);
  }

(* ------------------------------------------------------------------ *)
(* JSON export                                                         *)
(* ------------------------------------------------------------------ *)

let report_to_json r =
  Sim.Json.Obj
    [
      ("cmt_files", Sim.Json.Int r.cmt_files);
      ("functions", Sim.Json.Int r.functions);
      ("violations", Sim.Json.Int (List.length r.violations));
      ("rules", rule_counts_json r.violations);
      ("suppressions", Sim.Json.Int (List.length r.suppressed));
      ("sanitizer_fns", Sim.Json.Int r.sanitizer_fns);
    ]
