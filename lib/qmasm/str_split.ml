(** Tiny string helper: index of the first occurrence of a substring. *)

let find_substring haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec matches i k = k = nl || (haystack.[i + k] = needle.[k] && matches i (k + 1)) in
  let rec go i = if i + nl > hl then None else if matches i 0 then Some i else go (i + 1) in
  if nl = 0 then None else go 0
