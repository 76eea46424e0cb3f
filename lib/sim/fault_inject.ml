type trigger =
  | Always
  | One_shot
  | Nth of int
  | Every_nth of int
  | Probability of float

type plan = {
  trigger : trigger;
  ctx_range : (int * int) option;
  addr_range : (int * int) option;
}

(* A plan armed at a site: match/fire counters plus a private random
   stream so concurrent plans cannot perturb one another's decisions. *)
type armed = {
  plan : plan;
  rng : Rng.t;
  mutable matches : int;
  mutable fired : int;
}

type site_state = {
  mutable plans : armed list; (* in arming order *)
  mutable observed : int;
  mutable injected : int;
}

type t = {
  master : Rng.t;
  sites : (string, site_state) Hashtbl.t;
  mutable total_injected : int;
}

let plan ?ctx ?addr trigger =
  let check_range name = function
    | Some (lo, hi) when lo > hi ->
        invalid_arg ("Fault_inject.plan: empty " ^ name ^ " range")
    | Some _ | None -> ()
  in
  check_range "ctx" ctx;
  check_range "addr" addr;
  (match trigger with
  | Nth n | Every_nth n ->
      if n < 1 then invalid_arg "Fault_inject.plan: n must be >= 1"
  | Probability p ->
      if not (p >= 0. && p <= 1.) then
        invalid_arg "Fault_inject.plan: probability outside [0, 1]"
  | Always | One_shot -> ());
  { trigger; ctx_range = ctx; addr_range = addr }

let create ~seed = { master = Rng.create ~seed; sites = Hashtbl.create 8; total_injected = 0 }

let site_state t site =
  match Hashtbl.find_opt t.sites site with
  | Some s -> s
  | None ->
      let s = { plans = []; observed = 0; injected = 0 } in
      Hashtbl.add t.sites site s;
      s

let arm t ~site p =
  let s = site_state t site in
  let armed = { plan = p; rng = Rng.split t.master; matches = 0; fired = 0 } in
  s.plans <- s.plans @ [ armed ]

let in_range v = function
  | None -> true
  | Some (lo, hi) -> ( match v with None -> false | Some v -> lo <= v && v <= hi)

let decide (a : armed) =
  a.matches <- a.matches + 1;
  let fire =
    match a.plan.trigger with
    | Always -> true
    | One_shot -> a.fired = 0
    | Nth n -> a.matches = n
    | Every_nth n -> a.matches mod n = 0
    | Probability p -> Rng.float a.rng 1.0 < p
  in
  if fire then a.fired <- a.fired + 1;
  fire

let fire t ~site ?ctx ?addr () =
  match Hashtbl.find_opt t.sites site with
  | None -> false
  | Some s ->
      s.observed <- s.observed + 1;
      (* Every matching plan advances its own counters and stream, so a
         plan's decisions do not depend on which other plans are armed. *)
      let hit =
        List.fold_left
          (fun hit a ->
            if
              in_range ctx a.plan.ctx_range && in_range addr a.plan.addr_range
            then decide a || hit
            else hit)
          false s.plans
      in
      if hit then begin
        s.injected <- s.injected + 1;
        t.total_injected <- t.total_injected + 1
      end;
      hit

let observed t ~site =
  match Hashtbl.find_opt t.sites site with Some s -> s.observed | None -> 0

let injected t ~site =
  match Hashtbl.find_opt t.sites site with Some s -> s.injected | None -> 0

let total_injected t = t.total_injected
