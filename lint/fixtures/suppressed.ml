(* Every rule family, silenced by a justified annotation: this file must
   produce zero diagnostics. *)

let[@cdna.unordered_ok "commutative sum: order cannot affect the result"] total
    tbl =
  Hashtbl.fold (fun _ v acc -> acc + v) tbl 0

let[@cdna.nondet_ok "diagnostics only, never in simulated output"] words () =
  Gc.minor_words ()

let[@cdna.polyeq_ok "keys are int pairs, compared structurally on purpose"] same
    a b =
  a = Some b

let[@cdna.hot] wrapped x = Some (x * 2) [@cdna.alloc_ok "boxed result accepted"]

let flip mem pfn dom =
  (Memory.Phys_mem.transfer mem pfn ~to_:dom
  [@cdna.protection_ok "fixture: models a hypervisor-mediated flip"])

[@@@cdna.layer "guestos"]
