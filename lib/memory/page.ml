type domain_id = int
type state = Free | Owned of domain_id | Quarantined of domain_id

(* State codes: 0 is Free, d + 2 is Owned d, -(d + 2) is Quarantined d.
   Domain ids start at -1, so every owned code is positive and every
   quarantined one negative. *)
type t = { codes : int array; refs : int array }

let create ~pages = { codes = Array.make pages 0; refs = Array.make pages 0 }

let state t pfn =
  let c = t.codes.(pfn) in
  if c = 0 then Free else if c > 0 then Owned (c - 2) else Quarantined (-c - 2)

let refcount t pfn = t.refs.(pfn)

let owned_code fn dom =
  if dom < -1 then invalid_arg (fn ^ ": domain id below -1");
  dom + 2

let set_owned t pfn dom =
  if t.codes.(pfn) <> 0 then invalid_arg "Page.set_owned: page not free";
  t.codes.(pfn) <- owned_code "Page.set_owned" dom

let release t pfn =
  let c = t.codes.(pfn) in
  if c <= 0 then invalid_arg "Page.release: page not owned";
  t.codes.(pfn) <- (if t.refs.(pfn) = 0 then 0 else -c)

let transfer t pfn dom =
  if t.codes.(pfn) <= 0 then invalid_arg "Page.transfer: page not owned";
  if t.refs.(pfn) > 0 then Error `Pinned
  else begin
    t.codes.(pfn) <- owned_code "Page.transfer" dom;
    Ok ()
  end

let get_ref t pfn =
  if t.codes.(pfn) = 0 then invalid_arg "Page.get_ref: free page";
  t.refs.(pfn) <- t.refs.(pfn) + 1

let put_ref t pfn =
  let r = t.refs.(pfn) in
  if r <= 0 then invalid_arg "Page.put_ref: refcount already zero";
  t.refs.(pfn) <- r - 1;
  if r = 1 && t.codes.(pfn) < 0 then begin
    t.codes.(pfn) <- 0;
    `Now_free
  end
  else `Still_held

let is_owned_by t pfn dom =
  let c = t.codes.(pfn) in
  c > 0 && c = dom + 2
