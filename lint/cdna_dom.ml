(* cdna_dom: static domain-safety / race detector for testbeds.

   Third verification layer, over the same loaded [Program] as
   [Cdna_flow] and [Cdna_proto]. Testbeds must stay domain-independent,
   so that independent testbeds (sweep points, replica hosts) can run
   on worker domains at the same time; the concurrent-testbed test runs
   two at once and demands byte-identical output. Each testbed is one
   logical process (LP); any mutable value shared between LPs without
   going through [Domain.DLS] or a mutex/condition-guarded path is a
   data race. This pass finds that state statically:

   1. {b Collect} every piece of module-level mutable state in the tree:
      toplevel / submodule bindings of mutable type (ref, array, bytes,
      Hashtbl.t, Queue.t, Stack.t, Buffer.t, lazy_t, mutable-field
      records), plus state captured by toplevel closures
      ([let f = let cache = Hashtbl.create .. in fun x -> ..]) and
      toplevel aliases of such state across modules.

   2. {b Reach}: compute which functions can run inside an LP callback.
      Every function in an LP-resident layer (the simulated hardware and
      OS stack: nic / guestos / xen / host / memory / bus / core /
      ethernet / workload) is LP code by construction; elsewhere (sim,
      experiments) a literal closure passed to [Engine.schedule],
      [Engine.schedule_at] or to any LP-layer function is an LP entry,
      and the set closes over call edges. Witness chains are kept per
      hop, [file:line], like [Cdna_flow]'s taint chains.

   3. {b Classify} each item on the lattice: [dls] (Domain.DLS-backed),
      [sync] (Mutex / Condition / Semaphore / Atomic — synchronization
      primitives, domain-safe by construction), [frozen] (written only by
      its initializer, which runs on the main domain before any
      [Domain.spawn]), [lp-local] (never referenced from LP-capable
      code), [barrier] (every referencing function takes a mutex /
      condition first — a pool's merge path), [domain-local]
      (asserted by annotation), or [shared] — mutable, written, and
      reachable from LP context: a violation.

   Annotation contract (drift-gated like all other suppressions):
   - [[@cdna.domain_local]] on the binding: positive assertion that the
     value, though mutable, is only ever touched by a single LP. No
     reason string required; counted in stats.
   - [[@cdna.domain_shared "reason"]] on the binding (or
     [[@@@cdna.domain_shared "reason"]] for a whole module): suppress the
     violation; the reason string is mandatory (rule DS1).

   Rules:
   - DM1-shared-mutable: toplevel mutable state reachable from LP code.
   - DM2-captured-shared: closure-captured state reachable from LP code.
   - DM3-domain-local-misuse: [@cdna.domain_local] on a non-state binding.
   - DS1-suppression-reason: [@cdna.domain_shared] without a reason. *)

open Chain
open Program

let rule_dm1 = "DM1-shared-mutable"
let rule_dm2 = "DM2-captured-shared"
let rule_dm3 = "DM3-domain-local-misuse"
let rule_ds1 = "DS1-suppression-reason"

(* ------------------------------------------------------------------ *)
(* Classification lattice                                              *)
(* ------------------------------------------------------------------ *)

type cls = Dls | Sync | Frozen | Lp_local | Barrier | Domain_local | Shared

let cls_name = function
  | Dls -> "dls"
  | Sync -> "sync"
  | Frozen -> "frozen"
  | Lp_local -> "lp-local"
  | Barrier -> "barrier"
  | Domain_local -> "domain-local"
  | Shared -> "shared"

(* ------------------------------------------------------------------ *)
(* Program representation                                              *)
(* ------------------------------------------------------------------ *)

type item = {
  i_id : string; (* "Mod.name", or "Mod.fn.name" for captured state *)
  i_kind : string; (* "ref", "Hashtbl.t", "mutable record", ... *)
  i_file : string;
  i_line : int;
  i_captured_in : string option; (* defining function, for closures *)
  i_alias_of : string option; (* [let t = A.t]: canonical target *)
  i_domain_local : bool;
  i_suppress : string option; (* domain_shared reason; Some "" = missing *)
  i_sync : bool;
  i_dls : bool;
  mutable i_class : cls;
}

type use = {
  u_item : string; (* item id as referenced (possibly an alias) *)
  u_fn : string;
  u_what : string;
  u_write : bool;
  u_line : int;
  u_sched : bool; (* inside a closure scheduled onto an engine *)
}

type dcall = { dc_callee : string; dc_line : int; dc_sched : bool }

(* Pass state over one loaded [Program.t]; per-function facts are
   indexed by [f_idx]. *)
type prog = {
  p : Program.t;
  mutable items : item SMap.t;
  mutable uses : use list;
  mutable extra_viols : violation list; (* DM3 / DS1 *)
  mutable n_domain_local : int;
  mutable n_domain_shared : int;
  (* Captured-state idents -> item id, for closure-captured state. *)
  mutable captured : string IdentMap.t;
  calls : dcall list array;
  locks : bool array; (* takes a mutex / waits a condition *)
}

type report = {
  cmt_files : int;
  functions : int;
  state_items : int;
  classes : (string * int) list; (* class name -> count, sorted *)
  violations : violation list; (* unsuppressed, sorted *)
  suppressed : violation list;
  domain_local : int; (* [@cdna.domain_local] assertions *)
  domain_shared : int; (* [@cdna.domain_shared] suppressions *)
}

(* ------------------------------------------------------------------ *)
(* LP layers and scheduling primitives                                 *)
(* ------------------------------------------------------------------ *)

(* Everything in these layers executes inside engine callbacks: the
   simulated hardware/OS stack is driven exclusively by scheduled
   events. [sim] and [experiments] are mixed control-plane/LP code and
   rely on closure reachability instead.
   lib/cdna ("cdna-ext") is the CDNA hypervisor extension: LP-resident
   too. *)
let lp_layers =
  SSet.of_list
    [
      "nic"; "guestos"; "xen"; "host"; "memory"; "bus"; "core"; "ethernet";
      "workload"; "cdna-ext";
    ]

(* A literal closure passed to one of these runs as an engine callback
   on whatever domain the LP lands on. *)
let sched_prims = SSet.of_list [ "Engine.schedule"; "Engine.schedule_at" ]

(* Functions that make the enclosing caller part of the barrier-guarded
   merge path. *)
let lock_fns =
  SSet.of_list
    [ "Mutex.lock"; "Mutex.protect"; "Condition.wait"; "Semaphore.acquire" ]

(* ------------------------------------------------------------------ *)
(* Read / write contract per container                                 *)
(* ------------------------------------------------------------------ *)

(* Canonical ("Mod.fn") or bare operator names that only read their
   container argument. *)
let read_fns =
  SSet.of_list
    [
      "!";
      "Hashtbl.find"; "Hashtbl.find_opt"; "Hashtbl.find_all"; "Hashtbl.mem";
      "Hashtbl.length"; "Hashtbl.iter"; "Hashtbl.fold"; "Hashtbl.to_seq";
      "Hashtbl.to_seq_keys"; "Hashtbl.to_seq_values";
      "Array.get"; "Array.unsafe_get"; "Array.length"; "Array.iter";
      "Array.iteri"; "Array.fold_left"; "Array.fold_right"; "Array.map";
      "Array.mapi"; "Array.to_list"; "Array.mem"; "Array.exists";
      "Array.for_all"; "Array.copy"; "Array.sub";
      "Bytes.get"; "Bytes.unsafe_get"; "Bytes.length"; "Bytes.sub";
      "Bytes.sub_string"; "Bytes.to_string"; "Bytes.copy";
      "Bytes.get_uint8"; "Bytes.get_uint16_le"; "Bytes.get_int32_le";
      "Queue.length"; "Queue.is_empty"; "Queue.peek"; "Queue.peek_opt";
      "Queue.iter"; "Queue.fold"; "Queue.copy";
      "Stack.length"; "Stack.is_empty"; "Stack.top"; "Stack.top_opt";
      "Buffer.contents"; "Buffer.length"; "Buffer.to_bytes"; "Buffer.nth";
      "Lazy.is_val";
      "Atomic.get";
      "DLS.get";
    ]

(* Names that mutate their container argument. [Lazy.force] counts as a
   write: forcing the same suspension from two domains races. *)
let write_fns =
  SSet.of_list
    [
      ":="; "incr"; "decr";
      "Hashtbl.add"; "Hashtbl.replace"; "Hashtbl.remove"; "Hashtbl.reset";
      "Hashtbl.clear"; "Hashtbl.filter_map_inplace";
      "Array.set"; "Array.unsafe_set"; "Array.fill"; "Array.blit";
      "Array.sort"; "Array.fast_sort"; "Array.stable_sort";
      "Bytes.set"; "Bytes.unsafe_set"; "Bytes.fill"; "Bytes.blit";
      "Bytes.blit_string"; "Bytes.unsafe_blit";
      "Bytes.set_uint8"; "Bytes.set_uint16_le"; "Bytes.set_int32_le";
      "Queue.push"; "Queue.add"; "Queue.pop"; "Queue.take";
      "Queue.take_opt"; "Queue.clear"; "Queue.transfer";
      "Stack.push"; "Stack.pop"; "Stack.pop_opt"; "Stack.clear";
      "Buffer.add_string"; "Buffer.add_char"; "Buffer.add_bytes";
      "Buffer.add_subbytes"; "Buffer.clear"; "Buffer.reset";
      "Lazy.force"; "Lazy.force_val";
      "Atomic.set"; "Atomic.incr"; "Atomic.decr"; "Atomic.exchange";
      "Atomic.compare_and_set"; "Atomic.fetch_and_add";
      "DLS.set";
    ]

(* ------------------------------------------------------------------ *)
(* Mutability of a binding, from its type                              *)
(* ------------------------------------------------------------------ *)

(* [Some kind] when a value of type [ty] is module-level mutable state;
   [`Dls] / [`Sync] short-circuit the classification. Record types are
   resolved through [env] so abbreviations of mutable-field records are
   caught too. *)
let rec state_kind aliases env fuel ty =
  if fuel = 0 then None
  else
    match Types.get_desc ty with
    | Types.Tconstr (p, _, _) -> (
        let c = canon_of aliases (Path.name p) in
        let k = last_comp c in
        if c = "DLS.key" then Some `Dls
        else if
          c = "Mutex.t" || c = "Condition.t" || c = "Atomic.t"
          || c = "Semaphore.t" || c = "Binary.t" || c = "Counting.t"
        then Some `Sync
        else if k = "ref" then Some (`Mut "ref")
        else if k = "array" then Some (`Mut "array")
        else if k = "bytes" then Some (`Mut "bytes")
        else if k = "lazy_t" || c = "Lazy.t" then Some (`Mut "lazy")
        else if c = "Hashtbl.t" then Some (`Mut "Hashtbl.t")
        else if c = "Queue.t" then Some (`Mut "Queue.t")
        else if c = "Stack.t" then Some (`Mut "Stack.t")
        else if c = "Buffer.t" then Some (`Mut "Buffer.t")
        else
          (* cmt envs are summaries: a direct lookup misses types the
             summary hasn't materialized, so fall back to rehydrating
             the env through the load path. *)
          let decl =
            match Env.find_type p env with
            | d -> Some d
            | exception Not_found -> (
                match Env.find_type p (Envaux.env_of_only_summary env) with
                | d -> Some d
                | exception _ -> None)
          in
          match decl with
          | None -> None
          | Some decl -> (
              match decl.Types.type_kind with
              | Types.Type_record (lds, _)
                when List.exists
                       (fun ld -> ld.Types.ld_mutable = Asttypes.Mutable)
                       lds ->
                  Some (`Mut "mutable record")
              | _ -> (
                  match decl.Types.type_manifest with
                  | Some ty' -> state_kind aliases env (fuel - 1) ty'
                  | None -> None)))
    | Types.Ttuple tys ->
        List.fold_left
          (fun acc ty' ->
            match acc with
            | Some _ -> acc
            | None -> state_kind aliases env (fuel - 1) ty')
          None tys
    | Types.Tlink ty' | Types.Tsubst (ty', _) ->
        state_kind aliases env (fuel - 1) ty'
    | _ -> None

(* ------------------------------------------------------------------ *)
(* Collection (pass 1): state items and annotations                    *)
(* ------------------------------------------------------------------ *)

let add_item prog it = prog.items <- SMap.add it.i_id it prog.items

(* The reason a [@cdna.domain_shared] gives; [Some ""] when missing. *)
let shared_reason a =
  match attr_reason a with
  | Some r when String.trim r <> "" -> Some r
  | _ -> Some ""

(* Count a [@cdna.domain_shared] and report DS1 if it lacks a reason. *)
let check_shared prog ~file ~line ~what a =
  prog.n_domain_shared <- prog.n_domain_shared + 1;
  if shared_reason a = Some "" then
    prog.extra_viols <-
      {
        rule = rule_ds1;
        file;
        line;
        msg =
          what ^ " needs a reason string explaining why sharing is safe";
        chain = [];
        suppress = None;
      }
      :: prog.extra_viols

(* A module's own [@@@cdna.domain_shared] (the last one wins). *)
let module_shared (m : modl) =
  List.fold_left
    (fun acc a ->
      if attr_name a = "cdna.domain_shared" then shared_reason a else acc)
    None m.m_attrs

let register_binding prog { b_mod = m; b_vb = vb } =
  match pat_var vb.vb_pat with
  | None -> ()
  | Some (_, name) -> (
      let id = m.m_name ^ "." ^ name and file = m.m_file in
      let line = loc_line vb.vb_loc in
      let attrs = vb.vb_attributes in
      let domain_local = has_attr "cdna.domain_local" attrs in
      let suppress =
        match find_attr "cdna.domain_shared" attrs with
        | Some a ->
            check_shared prog ~file ~line a
              ~what:(Printf.sprintf "[@cdna.domain_shared] on '%s'" id);
            shared_reason a
        | None -> module_shared m
      in
      if domain_local then prog.n_domain_local <- prog.n_domain_local + 1;
      let mk ?captured_in ?alias_of ?(sync = false) ?(dls = false) ~id ~line
          kind =
        add_item prog
          {
            i_id = id;
            i_kind = kind;
            i_file = file;
            i_line = line;
            i_captured_in = captured_in;
            i_alias_of = alias_of;
            i_domain_local = domain_local;
            i_suppress = suppress;
            i_sync = sync;
            i_dls = dls;
            i_class = Lp_local;
          }
      in
      let dm3 () =
        prog.extra_viols <-
          {
            rule = rule_dm3;
            file;
            line;
            msg =
              Printf.sprintf
                "[@cdna.domain_local] on '%s' which is not mutable \
                 module-level state"
                id;
            chain = [];
            suppress = None;
          }
          :: prog.extra_viols
      in
      match closure_spine vb.vb_expr with
      | Some captured ->
          (* A function, possibly with captured state in its let-spine. *)
          let n_captured = ref 0 in
          List.iter
            (fun (cvb : Typedtree.value_binding) ->
              match pat_var cvb.vb_pat with
              | Some (cident, cname) -> (
                  match
                    state_kind prog.p.aliases cvb.vb_expr.exp_env 8
                      cvb.vb_expr.exp_type
                  with
                  | Some (`Mut kind) ->
                      incr n_captured;
                      let cid = id ^ "." ^ cname in
                      prog.captured <- IdentMap.add cident cid prog.captured;
                      mk ~id:cid ~line:(loc_line cvb.vb_loc) ~captured_in:id
                        kind
                  | Some `Dls | Some `Sync | None -> ())
              | None -> ())
            captured;
          if domain_local && !n_captured = 0 then dm3 ()
      | None -> (
          (* [let t = A.t]: an alias shares the target's identity, so it
             must win over the mutable-type check; resolved during
             classification. *)
          let alias_target =
            match vb.vb_expr.exp_desc with
            | Texp_ident (Pident i, _, _) ->
                let t = m.m_name ^ "." ^ Ident.name i in
                if SMap.mem t prog.items then Some t else None
            | Texp_ident (path, _, _) ->
                let t = canon_of prog.p.aliases (Path.name path) in
                if String.contains t '.' then Some t else None
            | _ -> None
          in
          match alias_target with
          | Some target -> mk ~id ~line ~alias_of:target "alias"
          | None -> (
              match
                state_kind prog.p.aliases vb.vb_expr.exp_env 8
                  vb.vb_expr.exp_type
              with
              | Some `Dls -> mk ~id ~line ~dls:true "DLS.key"
              | Some `Sync -> mk ~id ~line ~sync:true "sync primitive"
              | Some (`Mut kind) -> mk ~id ~line kind
              | None -> if domain_local then dm3 ())))

(* ------------------------------------------------------------------ *)
(* Facts (pass 2): state uses, call edges, scheduled closures          *)
(* ------------------------------------------------------------------ *)

(* Resolve an expression to an item id: direct reference, same-module
   unqualified reference, closure-captured local, or function-local
   alias ([let t = A.table in .. t ..]). *)
let resolve_item prog ~f (local : string IdentMap.t)
    (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_ident (p, _, _) -> (
      match p with
      | Path.Pident id -> (
          match IdentMap.find_opt id local with
          | Some item -> Some item
          | None -> (
              match IdentMap.find_opt id prog.captured with
              | Some item -> Some item
              | None ->
                  let qualified = f.f_module ^ "." ^ Ident.name id in
                  if SMap.mem qualified prog.items then Some qualified
                  else None))
      | _ ->
          let c = canon_of prog.p.aliases (Path.name p) in
          if SMap.mem c prog.items then Some c else None)
  | _ -> None

let collect_facts prog (f : fn) =
  let calls = ref [] and uses = ref [] in
  let sched_depth = ref 0 in
  let add_call callee line =
    calls :=
      { dc_callee = callee; dc_line = line; dc_sched = !sched_depth > 0 }
      :: !calls
  in
  let add_use item what ~write line =
    uses :=
      {
        u_item = item;
        u_fn = f.f_id;
        u_what = what;
        u_write = write;
        u_line = line;
        u_sched = !sched_depth > 0;
      }
      :: !uses
  in
  (* Is [callee] an LP entry point for literal closure arguments? *)
  let schedules_closures callee =
    SSet.mem callee sched_prims
    ||
    match SMap.find_opt callee prog.p.fns with
    | Some g -> SSet.mem g.f_layer lp_layers
    | None -> false
  in
  let rec visit local (e : Typedtree.expression) =
    (* Generic child traversal that keeps [local] in scope. *)
    let default () =
      let it =
        {
          Tast_iterator.default_iterator with
          expr = (fun _ e' -> visit local e');
        }
      in
      Tast_iterator.default_iterator.expr it e
    in
    match e.Typedtree.exp_desc with
    | Typedtree.Texp_let (_, vbs, body) ->
        let local =
          List.fold_left
            (fun local (vb : Typedtree.value_binding) ->
              match
                (pat_var vb.vb_pat, resolve_item prog ~f local vb.vb_expr)
              with
              | Some (id, _), Some item ->
                  (* Pure local alias: track, don't count as a use. *)
                  IdentMap.add id item local
              | _ ->
                  visit local vb.vb_expr;
                  local)
            local vbs
        in
        visit local body
    | Typedtree.Texp_apply (fe, args) -> (
        match callee prog.p fe with
        | Some c ->
            let op = last_comp c in
            let line = loc_line e.exp_loc in
            add_call c line;
            let sched_arg = schedules_closures c in
            List.iter
              (fun ((_, a) : _ * Typedtree.expression option) ->
                match a with
                | None -> ()
                | Some a -> (
                    match resolve_item prog ~f local a with
                    | Some item ->
                        if SSet.mem c write_fns || SSet.mem op write_fns then
                          add_use item
                            (Printf.sprintf "write (%s)" op)
                            ~write:true line
                        else if SSet.mem c read_fns || SSet.mem op read_fns
                        then
                          add_use item
                            (Printf.sprintf "read (%s)" op)
                            ~write:false line
                        else
                          (* Conservative: once the container escapes to
                             an arbitrary callee we must assume writes. *)
                          add_use item
                            (Printf.sprintf "escapes to %s" c)
                            ~write:true line
                    | None -> (
                        match a.Typedtree.exp_desc with
                        | Typedtree.Texp_function _ when sched_arg ->
                            incr sched_depth;
                            visit local a;
                            decr sched_depth
                        | _ -> visit local a)))
              args
        | None ->
            visit local fe;
            List.iter
              (fun ((_, a) : _ * Typedtree.expression option) ->
                match a with Some a -> visit local a | None -> ())
              args)
    | Typedtree.Texp_setfield (e1, _, ld, e2) ->
        (match resolve_item prog ~f local e1 with
        | Some item ->
            add_use item
              (Printf.sprintf "field write (%s <-)" ld.Types.lbl_name)
              ~write:true (loc_line e.exp_loc)
        | None -> visit local e1);
        visit local e2
    | Typedtree.Texp_field (e1, _, ld) -> (
        match resolve_item prog ~f local e1 with
        | Some item ->
            add_use item
              (Printf.sprintf "field read (%s)" ld.Types.lbl_name)
              ~write:false (loc_line e.exp_loc)
        | None -> visit local e1)
    | Typedtree.Texp_ident _ -> (
        match resolve_item prog ~f local e with
        | Some item ->
            (* A bare reference we can't see through: escape. *)
            add_use item "referenced (escape)" ~write:true
              (loc_line e.exp_loc)
        | None -> ())
    | _ -> default ()
  in
  visit IdentMap.empty f.f_expr;
  let calls =
    List.rev_map
      (fun c ->
        let callee = qualify prog.p.fns ~modname:f.f_module c.dc_callee in
        { c with dc_callee = callee })
      !calls
  in
  prog.calls.(f.f_idx) <- calls;
  prog.locks.(f.f_idx) <-
    List.exists (fun c -> SSet.mem c.dc_callee lock_fns) calls
    || List.exists
         (fun c -> SSet.mem (last_comp c.dc_callee) lock_fns)
         calls;
  prog.uses <- !uses @ prog.uses

(* ------------------------------------------------------------------ *)
(* LP reachability (pass 3)                                            *)
(* ------------------------------------------------------------------ *)

(* BFS over call edges from LP roots; [chains] maps each LP-capable
   function to its witness path (oldest hop first). *)
let lp_reachability prog =
  let chains : hop list SMap.t ref = ref SMap.empty in
  let queue = Queue.create () in
  let enqueue id chain =
    if not (SMap.mem id !chains) then begin
      chains := SMap.add id chain !chains;
      Queue.push id queue
    end
  in
  (* Roots, in deterministic order: layer-resident functions first, then
     closures handed to scheduling primitives. *)
  SMap.iter
    (fun id (f : fn) ->
      if SSet.mem f.f_layer lp_layers then
        enqueue id
          [
            {
              hop_what =
                Printf.sprintf "%s lives in LP-resident layer '%s'" id
                  f.f_layer;
              hop_file = f.f_file;
              hop_line = f.f_line;
            };
          ])
    prog.p.fns;
  SMap.iter
    (fun _ (f : fn) ->
      List.iter
        (fun c ->
          if c.dc_sched then
            match SMap.find_opt c.dc_callee prog.p.fns with
            | Some g ->
                enqueue g.f_id
                  [
                    {
                      hop_what =
                        Printf.sprintf
                          "%s called from a closure scheduled onto the \
                           engine in %s"
                          g.f_id f.f_id;
                      hop_file = f.f_file;
                      hop_line = c.dc_line;
                    };
                  ]
            | None -> ())
        prog.calls.(f.f_idx))
    prog.p.fns;
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    let chain = SMap.find id !chains in
    match SMap.find_opt id prog.p.fns with
    | None -> ()
    | Some f ->
        List.iter
          (fun c ->
            match SMap.find_opt c.dc_callee prog.p.fns with
            | Some g when not (SMap.mem g.f_id !chains) ->
                enqueue g.f_id
                  (chain
                  @ [
                      {
                        hop_what =
                          Printf.sprintf "%s called from %s" g.f_id f.f_id;
                        hop_file = f.f_file;
                        hop_line = c.dc_line;
                      };
                    ])
            | _ -> ())
          prog.calls.(f.f_idx)
  done;
  !chains

(* ------------------------------------------------------------------ *)
(* Classification and reporting (pass 4)                               *)
(* ------------------------------------------------------------------ *)

(* Follow [let t = A.t] alias links to the root item, collecting one hop
   per link. *)
let resolve_alias prog (it : item) =
  let rec go fuel (it : item) hops =
    match it.i_alias_of with
    | Some target when fuel > 0 -> (
        match SMap.find_opt target prog.items with
        | Some root ->
            go (fuel - 1) root
              (hops
              @ [
                  {
                    hop_what =
                      Printf.sprintf "aliased as %s = %s" it.i_id target;
                    hop_file = it.i_file;
                    hop_line = it.i_line;
                  };
                ])
        | None -> None)
    | Some _ -> None
    | None -> Some (it, hops)
  in
  go 5 it []

let analyze (p : Program.t) =
  let prog =
    {
      p;
      items = SMap.empty;
      uses = [];
      extra_viols = [];
      n_domain_local = 0;
      n_domain_shared = 0;
      captured = IdentMap.empty;
      calls = table p [];
      locks = table p false;
    }
  in
  List.iter
    (fun (m : modl) ->
      List.iter
        (fun a ->
          if attr_name a = "cdna.domain_shared" then
            check_shared prog ~file:m.m_file ~line:(loc_line a.attr_loc) a
              ~what:
                (Printf.sprintf "[@@@cdna.domain_shared] on module %s"
                   m.m_name))
        m.m_attrs)
    p.modules;
  List.iter (register_binding prog) p.bindings;
  SMap.iter (fun _ f -> collect_facts prog f) p.fns;
  let lp_chains = lp_reachability prog in
  (* Resolve uses through toplevel aliases onto root items. *)
  let resolved_uses =
    List.filter_map
      (fun u ->
        match SMap.find_opt u.u_item prog.items with
        | None -> None
        | Some it -> (
            match resolve_alias prog it with
            | Some (root, hops) -> Some (root.i_id, hops, u)
            | None -> None))
      prog.uses
  in
  let uses_of id =
    List.filter (fun (rid, _, _) -> rid = id) resolved_uses
    |> List.map (fun (_, hops, u) -> (hops, u))
    |> List.sort (fun (_, a) (_, b) ->
           let c = String.compare a.u_fn b.u_fn in
           if c <> 0 then c else Int.compare a.u_line b.u_line)
  in
  let viols = ref prog.extra_viols in
  let roots =
    SMap.bindings prog.items |> List.map snd
    |> List.filter (fun it -> it.i_alias_of = None)
  in
  List.iter
    (fun (it : item) ->
      if it.i_dls then it.i_class <- Dls
      else if it.i_sync then it.i_class <- Sync
      else begin
        let uses = uses_of it.i_id in
        let writes = List.filter (fun (_, u) -> u.u_write) uses in
        let lp_use (_, u) = u.u_sched || SMap.mem u.u_fn lp_chains in
        let lp_uses = List.filter lp_use uses in
        if it.i_domain_local then it.i_class <- Domain_local
        else if writes = [] then it.i_class <- Frozen
        else if lp_uses = [] then it.i_class <- Lp_local
        else if
          List.for_all
            (fun (_, u) ->
              match SMap.find_opt u.u_fn prog.p.fns with
              | Some f -> prog.locks.(f.f_idx)
              | None -> false)
            uses
        then it.i_class <- Barrier
        else begin
          it.i_class <- Shared;
          (* One violation per (item, LP-referencing function). *)
          let seen = ref SSet.empty in
          List.iter
            (fun (alias_hops, u) ->
              if not (SSet.mem u.u_fn !seen) then begin
                seen := SSet.add u.u_fn !seen;
                let use_file =
                  match SMap.find_opt u.u_fn prog.p.fns with
                  | Some g -> g.f_file
                  | None -> it.i_file
                in
                let witness =
                  match SMap.find_opt u.u_fn lp_chains with
                  | Some chain -> chain
                  | None ->
                      [
                        {
                          hop_what =
                            Printf.sprintf
                              "use sits in a closure %s schedules onto the \
                               engine"
                              u.u_fn;
                          hop_file = use_file;
                          hop_line = u.u_line;
                        };
                      ]
                in
                let decl =
                  {
                    hop_what =
                      Printf.sprintf "%s '%s' defined at module level"
                        it.i_kind it.i_id;
                    hop_file = it.i_file;
                    hop_line = it.i_line;
                  }
                in
                let use_hop =
                  {
                    hop_what = Printf.sprintf "%s in %s" u.u_what u.u_fn;
                    hop_file = use_file;
                    hop_line = u.u_line;
                  }
                in
                let rule =
                  if it.i_captured_in <> None then rule_dm2 else rule_dm1
                in
                let msg =
                  Printf.sprintf
                    "%s '%s'%s is mutable, written, and reachable from LP \
                     context via %s — move it into a per-LP/per-instance \
                     record, back it with Domain.DLS, or suppress with \
                     [@cdna.domain_shared \"reason\"]"
                    it.i_kind it.i_id
                    (match it.i_captured_in with
                    | Some f -> " (captured by " ^ f ^ ")"
                    | None -> "")
                    u.u_fn
                in
                viols :=
                  {
                    rule;
                    file = use_file;
                    line = u.u_line;
                    msg;
                    chain = [ decl ] @ alias_hops @ witness @ [ use_hop ];
                    suppress =
                      (match it.i_suppress with
                      | Some r when r <> "" -> Some r
                      | _ -> None);
                  }
                  :: !viols
              end)
            lp_uses
        end
      end)
    roots;
  (* Items carrying a non-empty [@cdna.domain_shared] that classified
     Shared are accounted as suppressed above; one with an empty reason
     already produced its DS1. *)
  let violations, suppressed = finish !viols in
  let class_counts =
    List.fold_left
      (fun acc (it : item) ->
        let k = cls_name it.i_class in
        let n = try List.assoc k acc with Not_found -> 0 in
        (k, n + 1) :: List.remove_assoc k acc)
      [] roots
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  {
    cmt_files = p.files;
    functions = SMap.cardinal p.fns;
    state_items = List.length roots;
    classes = class_counts;
    violations;
    suppressed;
    domain_local = prog.n_domain_local;
    domain_shared = prog.n_domain_shared;
  }

(* ------------------------------------------------------------------ *)
(* JSON export                                                         *)
(* ------------------------------------------------------------------ *)

let report_to_json r =
  Sim.Json.Obj
    [
      ("cmt_files", Sim.Json.Int r.cmt_files);
      ("functions", Sim.Json.Int r.functions);
      ("state_items", Sim.Json.Int r.state_items);
      ( "classes",
        Sim.Json.Obj (List.map (fun (k, n) -> (k, Sim.Json.Int n)) r.classes)
      );
      ("violations", Sim.Json.Int (List.length r.violations));
      ("rules", rule_counts_json r.violations);
      ("suppressions", Sim.Json.Int (List.length r.suppressed));
      ("domain_local", Sim.Json.Int r.domain_local);
      ("domain_shared", Sim.Json.Int r.domain_shared);
    ]
