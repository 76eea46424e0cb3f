type domain_id = int
type state = Free | Owned of domain_id | Quarantined of domain_id

(* One int per page: the state code above [ref_bits], the refcount
   below. State codes: 0 is Free, d + 2 is Owned d, -(d + 2) is
   Quarantined d. Domain ids start at -1, so every owned code is
   positive and every quarantined one negative; [asr] keeps the sign. *)
type t = int array

let ref_bits = 24
let ref_max = (1 lsl ref_bits) - 1
let max_domain = (max_int asr ref_bits) - 2
let create ~pages = Array.make pages 0
let code t pfn = t.(pfn) asr ref_bits
let refcount t pfn = t.(pfn) land ref_max
let set_code t pfn c = t.(pfn) <- (c lsl ref_bits) lor refcount t pfn

let state t pfn =
  let c = code t pfn in
  if c = 0 then Free else if c > 0 then Owned (c - 2) else Quarantined (-c - 2)

let owned_code fn dom =
  if dom < -1 then invalid_arg (fn ^ ": domain id below -1");
  if dom > max_domain then invalid_arg (fn ^ ": domain id too large");
  dom + 2

let set_owned t pfn dom =
  if code t pfn <> 0 then invalid_arg "Page.set_owned: page not free";
  set_code t pfn (owned_code "Page.set_owned" dom)

let release t pfn =
  let c = code t pfn in
  if c <= 0 then invalid_arg "Page.release: page not owned";
  set_code t pfn (if refcount t pfn = 0 then 0 else -c)

let transfer t pfn dom =
  if code t pfn <= 0 then invalid_arg "Page.transfer: page not owned";
  if refcount t pfn > 0 then Error `Pinned
  else begin
    set_code t pfn (owned_code "Page.transfer" dom);
    Ok ()
  end

let get_ref t pfn =
  if code t pfn = 0 then invalid_arg "Page.get_ref: free page";
  if refcount t pfn = ref_max then invalid_arg "Page.get_ref: refcount overflow";
  t.(pfn) <- t.(pfn) + 1

(* A quarantined page whose last reference goes is Free: code and count
   both zero. *)
let put_ref t pfn =
  let m = t.(pfn) in
  let r = m land ref_max in
  if r <= 0 then invalid_arg "Page.put_ref: refcount already zero";
  if r = 1 && m < 0 then begin
    t.(pfn) <- 0;
    `Now_free
  end
  else begin
    t.(pfn) <- m - 1;
    `Still_held
  end

let is_owned_by t pfn dom =
  let c = code t pfn in
  c > 0 && c = dom + 2
