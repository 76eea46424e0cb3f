type t = int
type pfn = int

let page_shift = 12
let page_size = 1 lsl page_shift
let pfn_of a = a lsr page_shift
let base_of_pfn p = p lsl page_shift
let offset a = a land (page_size - 1)

let page_count ~addr ~len =
  if len < 0 then invalid_arg "Addr.pages_spanned: negative length";
  if len = 0 then 0 else Int.max 0 (pfn_of (addr + len - 1) - pfn_of addr + 1)

let pages_spanned ~addr ~len =
  let first = pfn_of addr in
  List.init (page_count ~addr ~len) (fun i -> first + i)

let pp ppf a = Format.fprintf ppf "0x%x" a
