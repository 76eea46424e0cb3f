type t = {
  mutable hypervisor : Sim.Time.t;
  (* Per-domain time: domain d's kernel time at [2d], its user time at
     [2d + 1]. Domain ids are small and dense, so an array grown on a
     domain's first charge is both the cheapest lookup and an ordered
     one. *)
  mutable per_domain : Sim.Time.t array;
  mutable explicit_idle : Sim.Time.t;
  (* Time of the last reset; interval charges clamp their start here so a
     slice spanning the reset only contributes its post-reset part. *)
  mutable epoch : Sim.Time.t;
}

let create () =
  {
    hypervisor = Sim.Time.zero;
    per_domain = [||];
    explicit_idle = Sim.Time.zero;
    epoch = Sim.Time.zero;
  }

let grown a i =
  let b = Array.make (Int.max (i + 1) (2 * Array.length a)) Sim.Time.zero in
  Array.blit a 0 b 0 (Array.length a);
  b

let[@cdna.hot] add_slot t i dt =
  if i < 0 then invalid_arg "Profile: negative domain id";
  if i >= Array.length t.per_domain then
    t.per_domain <-
      (grown t.per_domain i [@cdna.alloc_ok "grown once per new domain id"]);
  t.per_domain.(i) <- Sim.Time.add t.per_domain.(i) dt

let[@cdna.hot] add t cat dt =
  match (cat : Category.t) with
  | Hypervisor -> t.hypervisor <- Sim.Time.add t.hypervisor dt
  | Kernel d -> add_slot t (2 * d) dt
  | User d -> add_slot t ((2 * d) + 1) dt
  | Idle -> t.explicit_idle <- Sim.Time.add t.explicit_idle dt

let cell t i = if i >= 0 && i < Array.length t.per_domain then t.per_domain.(i) else 0

let total t cat =
  match (cat : Category.t) with
  | Hypervisor -> t.hypervisor
  | Kernel d -> cell t (2 * d)
  | User d -> cell t ((2 * d) + 1)
  | Idle -> t.explicit_idle

let busy t = Array.fold_left Sim.Time.add t.hypervisor t.per_domain

let[@cdna.hot] charge t cat ~start ~stop =
  let start = Sim.Time.max start t.epoch in
  if Sim.Time.compare stop start > 0 then add t cat (Sim.Time.sub stop start)

let reset ?(now = Sim.Time.zero) t =
  t.hypervisor <- Sim.Time.zero;
  t.per_domain <- [||];
  t.explicit_idle <- Sim.Time.zero;
  t.epoch <- now

type report = {
  hyp : float;
  driver_kernel : float;
  driver_user : float;
  guest_kernel : float;
  guest_user : float;
  idle : float;
}

let report t ~window ~driver_domain =
  if window <= 0 then invalid_arg "Profile.report: non-positive window";
  let w = Sim.Time.to_sec_f window in
  let pct dt = Sim.Time.to_sec_f dt /. w *. 100. in
  let is_driver dom =
    match driver_domain with Some d -> Int.equal d dom | None -> false
  in
  (* Driver and guest time, each split into kernel and user. *)
  let drv = [| 0; 0 |] and guest = [| 0; 0 |] in
  Array.iteri
    (fun i dt ->
      let acc = if is_driver (i / 2) then drv else guest in
      acc.(i mod 2) <- Sim.Time.add acc.(i mod 2) dt)
    t.per_domain;
  let idle = Float.max 0. (100. -. pct (busy t)) in
  {
    hyp = pct t.hypervisor;
    driver_kernel = pct drv.(0);
    driver_user = pct drv.(1);
    guest_kernel = pct guest.(0);
    guest_user = pct guest.(1);
    idle;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "hyp=%.1f%% drv-os=%.1f%% drv-user=%.1f%% guest-os=%.1f%% guest-user=%.1f%% idle=%.1f%%"
    r.hyp r.driver_kernel r.driver_user r.guest_kernel r.guest_user r.idle
