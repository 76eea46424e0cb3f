include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k
end)

let iter_sorted t f =
  fold (fun k v acc -> (k, v) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.iter (fun (k, v) -> f k v)
