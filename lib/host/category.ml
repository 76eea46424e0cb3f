type domain_id = int

type t =
  | Hypervisor
  | Kernel of domain_id
  | User of domain_id
  | Idle

let equal a b =
  match a, b with
  | Hypervisor, Hypervisor | Idle, Idle -> true
  | Kernel a, Kernel b | User a, User b -> a = b
  | (Hypervisor | Kernel _ | User _ | Idle), _ -> false

let domain = function
  | Kernel d | User d -> Some d
  | Hypervisor | Idle -> None

let pp ppf = function
  | Hypervisor -> Format.pp_print_string ppf "hyp"
  | Kernel d -> Format.fprintf ppf "dom%d/kernel" d
  | User d -> Format.fprintf ppf "dom%d/user" d
  | Idle -> Format.pp_print_string ppf "idle"
