(* cdna_lint — expression-level rules over the loaded [.cmt] program.

   Enforces, as compile-time properties of every module under [lib/], the
   three invariant families the runtime test-suite can only spot-check:

   - (D) Determinism: no unordered [Hashtbl] iteration feeding anything
     (unless sorted or justified), no polymorphic compare/hash on
     structured values, no wall-clock / GC / Marshal primitives.
   - (A) Zero-allocation hot paths: module-level functions annotated
     [@cdna.hot] must not allocate in their own body and may only call
     other hot functions or the non-allocating primitives of
     [Chain.alloc_allowlist]. [Cdna_flow]'s A6 judges the functions a
     hot one reaches by the same verdicts ([judge_call], [alloc_rule]).
   - (H) Hot-path cost: a [@cdna.hot] body may not call the polymorphic
     [compare], [min] or [max]. Each call is a C call to [compare_val]
     per invocation; [Int.compare], [Int.min] and [Int.max] compile to
     inline integer code. And no module may use [Stdlib.Queue], whose
     popped cells stay linked to the queue's tail: once the tail is
     promoted, every value pushed after it is promoted too ([Sim.Fifo]
     releases what it pops).
   - (P) Protection boundaries: page-ownership and IOMMU-permission
     mutation is confined to the hypervisor-side layers, and the NIC /
     guest-OS layers reach guest memory only through [Bus.Dma_engine]
     (the paper's validated-descriptor rule, PAPER.md §3.2).

   The rules read [Program.sites] of every module-level binding: names
   arrive resolved through module aliases, callees resolve against the
   function table, and a module's layer is its [@@@cdna.layer] or its
   lib/ directory. The pass is conservative — anything it cannot prove
   safe must either be rewritten or carry a justification annotation,
   which is counted and exported so suppressions are tracked over time.

   Annotation contract (see DESIGN.md §9):
     [@cdna.hot]                  marks a module-level function hot (A rules)
     [@cdna.unordered_ok "why"]   suppresses D1 on the annotated subtree
     [@cdna.polyeq_ok "why"]      suppresses D2 and H1
     [@cdna.nondet_ok "why"]      suppresses D3
     [@cdna.alloc_ok "why"]       suppresses A1-A5
     [@cdna.protection_ok "why"]  suppresses P1-P2
     [@@@cdna.privileged "why"]   (module level) exempts the module from P rules
   A suppression without a non-empty reason string is itself a violation
   (S1). *)

open Chain
open Program

type report = {
  cmt_files : int;
  hot_functions : int;
  violations : violation list; (* sorted *)
  suppressions : (string * int) list; (* per annotation, by name *)
}

let rule_d1 = "D1-unordered-iter"
let rule_d2 = "D2-poly-compare"
let rule_d3 = "D3-nondet-primitive"
let rule_a1 = "A1-alloc-construct"
let rule_a2 = "A2-alloc-closure"
let rule_a3 = "A3-alloc-call"
let rule_a4 = "A4-partial-app"
let rule_a5 = "A5-boxed-arith"
let rule_h1 = "H1-hot-poly-compare"
let rule_h2 = "H2-stdlib-queue"
let rule_p1 = "P1-ownership-boundary"
let rule_p2 = "P2-guest-memory-boundary"
let rule_s1 = "S1-suppression-reason"

(* Suppression kinds, keyed by the attribute that activates them. *)
let suppression_attrs =
  [
    ("cdna.unordered_ok", [ rule_d1 ]);
    ("cdna.polyeq_ok", [ rule_d2; rule_h1 ]);
    ("cdna.nondet_ok", [ rule_d3 ]);
    ("cdna.alloc_ok", [ rule_a1; rule_a2; rule_a3; rule_a4; rule_a5 ]);
    ("cdna.protection_ok", [ rule_p1; rule_p2 ]);
  ]

let masked rule sup =
  List.exists
    (fun a ->
      match List.assoc_opt a suppression_attrs with
      | Some rules -> List.mem rule rules
      | None -> false)
    sup

let unordered_fns =
  SSet.of_list
    [
      "Hashtbl.iter"; "Hashtbl.fold"; "Hashtbl.to_seq"; "Hashtbl.to_seq_keys";
      "Hashtbl.to_seq_values"; "Hashtbl.filter_map_inplace";
    ]

(* Polymorphic comparison / hashing entry points that are hazardous on any
   structured value; flagged at every occurrence, even as a bare value. *)
let poly_idents =
  SSet.of_list
    [
      "compare"; "Stdlib.compare"; "Pervasives.compare"; "Hashtbl.hash";
      "Hashtbl.hash_param"; "Hashtbl.seeded_hash";
    ]

(* Polymorphic orderings a hot body may not call (H1). *)
let poly_order_fns =
  SSet.of_list [ "Stdlib.compare"; "Stdlib.min"; "Stdlib.max" ]

let cmp_ops =
  SSet.of_list
    [
      "Stdlib.="; "Stdlib.<>"; "Stdlib.<"; "Stdlib.>"; "Stdlib.<=";
      "Stdlib.>=";
    ]

(* Nondeterministic primitives: wall clock, self-seeding, GC observation,
   Marshal (output depends on sharing/flags, and is unreadable in traces). *)
let forbidden_idents =
  SSet.of_list
    [
      "Random.self_init"; "Sys.time"; "Unix.gettimeofday"; "Unix.time";
      "Unix.gmtime"; "Unix.localtime";
    ]

let forbidden_modules = SSet.of_list [ "Gc"; "Marshal" ]

(* P2: direct byte access to simulated physical memory. *)
let byte_access_fns =
  SSet.of_list
    [
      "Phys_mem.read"; "Phys_mem.write"; "Phys_mem.read_into";
      "Phys_mem.write_sub"; "Phys_mem.read_uint"; "Phys_mem.write_uint";
      "Phys_mem.read_u16"; "Phys_mem.write_u16"; "Phys_mem.read_u32";
      "Phys_mem.write_u32"; "Phys_mem.read_u64"; "Phys_mem.write_u64";
    ]

let float_operators =
  SSet.of_list
    [ "+."; "-."; "*."; "/."; "**"; "~-."; "float_of_int"; "abs_float";
      "mod_float"; "Float.of_int" ]

let boxed_arith_modules = SSet.of_list [ "Int64"; "Int32"; "Nativeint" ]

let hot (f : fn) = has_attr "cdna.hot" f.f_attrs

(* Arguments a full application passes: the peeled parameters, plus one
   for a trailing [function]. *)
let arity (f : fn) =
  List.length f.f_params
  + match f.f_body.exp_desc with Texp_function _ -> 1 | _ -> 0

(* The name a message shows: Stdlib values as written, bare. *)
let shown c =
  if String.starts_with ~prefix:"Stdlib." c then
    String.sub c 7 (String.length c - 7)
  else c

let module_of c =
  match List.rev (split_on_dot c) with _ :: m :: _ -> m | _ -> ""

(* ------------------------------------------------------------------ *)
(* Zero-alloc verdicts, shared with A6                                 *)
(* ------------------------------------------------------------------ *)

(* The A rule a call from a hot body in [modname] breaks, with its
   message, or [None]: allowlisted, an operator on immediates, a full
   application of a hot function, or a local (parameter or let-bound
   closure, which the caller is responsible for). *)
let judge_call p ~modname ~callee ~nargs =
  let c = shown callee in
  let qualified = String.contains callee '.' in
  if SSet.mem callee alloc_allowlist then None
  else if SSet.mem c float_operators then
    Some
      ( rule_a5,
        Printf.sprintf
          "float operator %s boxes its result in a [@cdna.hot] body" c )
  else if SSet.mem (last_comp callee) alloc_operators then
    Some (rule_a1, Printf.sprintf "%s allocates in a [@cdna.hot] body" c)
  else if is_operator_name (last_comp callee) then None
  else if SSet.mem (module_of callee) boxed_arith_modules then
    Some
      ( rule_a5,
        Printf.sprintf "%s works on boxed numbers in a [@cdna.hot] body" c )
  else
    match find p.fns ~modname callee with
    | Some g when hot g ->
        if nargs < arity g then
          Some
            ( rule_a4,
              Printf.sprintf
                "partial application of %s (%d of %d args) builds a closure \
                 in a [@cdna.hot] body"
                c nargs (arity g) )
        else None
    | Some _ when not qualified ->
        Some
          ( rule_a3,
            Printf.sprintf
              "[@cdna.hot] body calls %s, a module-level function that is not \
               [@cdna.hot]"
              c )
    | _ when qualified ->
        Some
          ( rule_a3,
            Printf.sprintf
              "[@cdna.hot] body calls %s, which is neither [@cdna.hot] nor an \
               allowlisted primitive"
              c )
    | _ -> None

let alloc_rule = function
  | Tuple -> (rule_a1, "tuple construction allocates in a [@cdna.hot] body")
  | Record -> (rule_a1, "record construction allocates in a [@cdna.hot] body")
  | Array -> (rule_a1, "array literal allocates in a [@cdna.hot] body")
  | Constructor ->
      ( rule_a1,
        "constructor application allocates in a [@cdna.hot] body (return bare \
         values, or annotate [@cdna.alloc_ok])" )
  | Variant ->
      (rule_a1, "polymorphic-variant payload allocates in a [@cdna.hot] body")
  | Lazy -> (rule_a1, "lazy suspension allocates in a [@cdna.hot] body")
  | Module ->
      (rule_a1, "first-class module / object allocates in a [@cdna.hot] body")
  | Closure ->
      ( rule_a2,
        "anonymous function captures its environment (closure allocation) in \
         a [@cdna.hot] body; name it with [let] or annotate [@cdna.alloc_ok]" )
  | Float ->
      (rule_a5, "float literal in a [@cdna.hot] body (float results are boxed)")

(* ------------------------------------------------------------------ *)
(* The pass                                                            *)
(* ------------------------------------------------------------------ *)

let analyze (p : Program.t) =
  let viols = ref [] and counts = Hashtbl.create 8 in
  let bump k =
    Hashtbl.replace counts k
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  in
  let check (m : modl) ~hot (s : site) =
    let report rule msg =
      if not (masked rule s.sup) then
        viols :=
          { rule; file = m.m_file; line = loc_line s.loc; msg; chain = [];
            suppress = None }
          :: !viols
    in
    let name c =
      let k = shown c in
      if String.equal (module_of c) "Queue" then
        report rule_h2
          (Printf.sprintf
             "%s: Stdlib.Queue keeps popped values reachable and promotes \
              them; use Sim.Fifo"
             k);
      if SSet.mem c poly_idents then
        report rule_d2
          (Printf.sprintf
             "polymorphic %s: use a typed comparison (Int.compare, \
              String.compare, ...) or annotate [@cdna.polyeq_ok]"
             k);
      if SSet.mem c forbidden_idents then
        report rule_d3
          (Printf.sprintf
             "%s is nondeterministic; route randomness through Sim.Rng and \
              time through Sim.Engine, or annotate [@cdna.nondet_ok]"
             k)
      else if SSet.mem (module_of c) forbidden_modules then
        report rule_d3
          (Printf.sprintf
             "%s: %s is forbidden in lib/ (nondeterministic or \
              representation-dependent); annotate [@cdna.nondet_ok] if this \
              is diagnostics-only"
             k (module_of c));
      if not m.m_privileged then begin
        if SSet.mem c ownership_fns && not (SSet.mem m.m_layer ownership_layers)
        then
          report rule_p1
            (Printf.sprintf
               "%s mutates page ownership / DMA permissions; only lib/xen, \
                lib/host and lib/memory may (or declare the module \
                [@@@cdna.privileged \"reason\"])"
               k);
        if SSet.mem c byte_access_fns && SSet.mem m.m_layer guest_layers then
          report rule_p2
            (Printf.sprintf
               "%s bypasses DMA protection: lib/nic and lib/guestos must \
                reach guest memory through Bus.Dma_engine (or justify with \
                [@cdna.protection_ok])"
               k)
      end
    in
    match s.kind with
    | Attr a -> (
        let n = attr_name a in
        if List.mem_assoc n suppression_attrs then begin
          bump n;
          match attr_reason a with
          | Some r when String.trim r <> "" -> ()
          | _ ->
              report rule_s1
                (Printf.sprintf "[@%s] must carry a non-empty reason string" n)
        end)
    | Ref c -> name c
    | Call { callee; nargs; sorted; structured } -> (
        name callee;
        if SSet.mem callee unordered_fns && not sorted then
          report rule_d1
            (Printf.sprintf
               "%s iterates in hash order; sort the result by a stable key \
                (List.sort around the fold) or annotate [@cdna.unordered_ok \
                \"reason\"]"
               callee);
        if SSet.mem callee cmp_ops && structured then
          report rule_d2
            (Printf.sprintf
               "polymorphic (%s) on a structured value; compare the fields \
                explicitly or use a typed equal"
               (shown callee));
        if hot && (not s.cold) && SSet.mem callee poly_order_fns then
          report rule_h1
            (Printf.sprintf
               "polymorphic %s in a [@cdna.hot] body calls compare_val on \
                every use; use Int.%s or another typed version"
               (shown callee) (shown callee));
        if hot && not s.cold then
          match judge_call p ~modname:m.m_name ~callee ~nargs with
          | Some (rule, msg) -> report rule msg
          | None -> ())
    | Alloc a ->
        if hot && not s.cold then
          let rule, msg = alloc_rule a in
          report rule msg
  in
  List.iter
    (fun (m : modl) ->
      if has_attr "cdna.privileged" m.m_attrs then bump "cdna.privileged")
    p.modules;
  List.iter
    (fun { b_mod; b_vb = vb } ->
      List.iter
        (check b_mod ~hot:(has_attr "cdna.hot" vb.vb_attributes))
        (sites p ~attrs:vb.vb_attributes vb.vb_expr))
    p.bindings;
  {
    cmt_files = p.files;
    hot_functions = SMap.cardinal (SMap.filter (fun _ f -> hot f) p.fns);
    violations = List.stable_sort violation_compare !viols;
    suppressions =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
  }

let report_to_json r =
  Sim.Json.Obj
    [
      ("files_scanned", Sim.Json.Int r.cmt_files);
      ("hot_functions", Sim.Json.Int r.hot_functions);
      ("violations", Sim.Json.Int (List.length r.violations));
      ("rules", rule_counts_json r.violations);
      ( "suppressions",
        Sim.Json.Obj
          (List.map (fun (k, n) -> (k, Sim.Json.Int n)) r.suppressions) );
    ]
