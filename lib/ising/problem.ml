type spin = int

let spin_of_bool b = if b then 1 else -1
let bool_of_spin s = s > 0

type t = {
  num_vars : int;
  offset : float;
  h : float array;
  couplers : ((int * int) * float) array;
  row_start : int array;
  col : int array;
  weight : float array;
}

(* Compressed-sparse-row adjacency: row [i] occupies
   [row_start.(i), row_start.(i+1)) of [col]/[weight].  Each coupler (i, j)
   appears twice, once per endpoint.  Couplers arrive sorted by (i, j), so
   within a row the neighbor indices come out sorted too: for row [i] the
   couplers (j, i) with j < i precede the couplers (i, j) with j > i. *)
let csr_of_couplers num_vars couplers =
  let degree = Array.make num_vars 0 in
  Array.iter
    (fun ((i, j), _) ->
       degree.(i) <- degree.(i) + 1;
       degree.(j) <- degree.(j) + 1)
    couplers;
  let row_start = Array.make (num_vars + 1) 0 in
  for i = 0 to num_vars - 1 do
    row_start.(i + 1) <- row_start.(i) + degree.(i)
  done;
  let nnz = row_start.(num_vars) in
  let col = Array.make nnz 0 in
  let weight = Array.make nnz 0.0 in
  let cursor = Array.sub row_start 0 num_vars in
  Array.iter
    (fun ((i, j), v) ->
       col.(cursor.(i)) <- j;
       weight.(cursor.(i)) <- v;
       cursor.(i) <- cursor.(i) + 1;
       col.(cursor.(j)) <- i;
       weight.(cursor.(j)) <- v;
       cursor.(j) <- cursor.(j) + 1)
    couplers;
  (row_start, col, weight)

let of_parts ~num_vars ~offset ~h ~couplers =
  let row_start, col, weight = csr_of_couplers num_vars couplers in
  { num_vars; offset; h; couplers; row_start; col; weight }

(* Couplers are keyed by one int, [lo lsl 31 lor hi] for the pair
   [lo < hi], so sorting keys sorts pairs by (i, j). *)
let max_index = (1 lsl 31) - 1

let pack_key ~what i j =
  if i = j then invalid_arg (what ^ ": self-coupler");
  if i < 0 || j < 0 then invalid_arg (what ^ ": negative variable index");
  if i > max_index || j > max_index then invalid_arg (what ^ ": variable index above 2^31 - 1");
  if i < j then (i lsl 31) lor j else (j lsl 31) lor i

(* The first [m] (key, value) terms summed per key and sorted by key.  A
   stable sort keeps each key's terms in arrival order, so every sum is
   [((0.0 +. v1) +. v2) +. ...] exactly as terms arrived; sums equal to
   0.0 are dropped. *)
let couplers_of_terms keys vals m =
  let order = Array.init m Fun.id in
  Array.stable_sort (fun a b -> Int.compare (Array.unsafe_get keys a) (Array.unsafe_get keys b)) order;
  let out = Array.make m ((0, 0), 0.0) in
  let count = ref 0 in
  let k = ref 0 in
  while !k < m do
    let key = keys.(order.(!k)) in
    let sum = ref 0.0 in
    while !k < m && keys.(order.(!k)) = key do
      sum := !sum +. vals.(order.(!k));
      incr k
    done;
    if !sum <> 0.0 then begin
      out.(!count) <- ((key lsr 31, key land max_index), !sum);
      incr count
    end
  done;
  if !count = m then out else Array.sub out 0 !count

let normalize_couplers pairs =
  let m = List.length pairs in
  let keys = Array.make m 0 and vals = Array.make m 0.0 in
  List.iteri
    (fun k ((i, j), v) ->
       keys.(k) <- pack_key ~what:"Problem" i j;
       vals.(k) <- v)
    pairs;
  couplers_of_terms keys vals m

let create ~num_vars ~h ~j ?(offset = 0.0) () =
  if Array.length h <> num_vars then invalid_arg "Problem.create: h length mismatch";
  let couplers = normalize_couplers j in
  Array.iter
    (fun ((i, jj), _) ->
       if jj >= num_vars then invalid_arg "Problem.create: coupler index out of range";
       ignore i)
    couplers;
  of_parts ~num_vars ~offset ~h:(Array.copy h) ~couplers

let empty = of_parts ~num_vars:0 ~offset:0.0 ~h:[||] ~couplers:[||]

module Builder = struct
  type problem = t

  (* [lin] is the dense h accumulator (capacity at least [n]); the first
     [m] slots of [keys]/[vals] log every add_j in arrival order. *)
  type t = {
    mutable n : int;
    mutable off : float;
    mutable lin : float array;
    mutable keys : int array;
    mutable vals : float array;
    mutable m : int;
  }

  let create ?(num_vars = 0) () =
    { n = num_vars;
      off = 0.0;
      lin = Array.make num_vars 0.0;
      keys = Array.make 64 0;
      vals = Array.make 64 0.0;
      m = 0 }

  let grow b i =
    if i >= b.n then begin
      b.n <- i + 1;
      if b.n > Array.length b.lin then begin
        let lin = Array.make (max b.n (2 * Array.length b.lin)) 0.0 in
        Array.blit b.lin 0 lin 0 (Array.length b.lin);
        b.lin <- lin
      end
    end

  let add_offset b v = b.off <- b.off +. v

  let add_h b i v =
    if i < 0 then invalid_arg "Builder.add_h: negative index";
    grow b i;
    b.lin.(i) <- b.lin.(i) +. v

  let add_j b i j v =
    let key = pack_key ~what:"Builder.add_j" i j in
    grow b i;
    grow b j;
    if b.m = Array.length b.keys then begin
      let cap = 2 * b.m in
      let keys = Array.make cap 0 and vals = Array.make cap 0.0 in
      Array.blit b.keys 0 keys 0 b.m;
      Array.blit b.vals 0 vals 0 b.m;
      b.keys <- keys;
      b.vals <- vals
    end;
    b.keys.(b.m) <- key;
    b.vals.(b.m) <- v;
    b.m <- b.m + 1

  let add_problem b (p : problem) ~var_map =
    if Array.length var_map < p.num_vars then invalid_arg "Builder.add_problem: var_map too short";
    add_offset b p.offset;
    Array.iteri (fun i hv -> if hv <> 0.0 then add_h b var_map.(i) hv) p.h;
    Array.iter (fun ((i, j), v) -> add_j b var_map.(i) var_map.(j) v) p.couplers

  let build b =
    of_parts ~num_vars:b.n ~offset:b.off ~h:(Array.sub b.lin 0 b.n)
      ~couplers:(couplers_of_terms b.keys b.vals b.m)
end

let check_spins p sigma =
  if Array.length sigma <> p.num_vars then invalid_arg "Problem: spin vector length mismatch";
  Array.iter (fun s -> if s <> 1 && s <> -1 then invalid_arg "Problem: spin not +-1") sigma

(* Plain loops, not [Array.iter]: a float accumulator captured by a
   closure is a heap cell, and every update would box a fresh float. *)
let energy p sigma =
  check_spins p sigma;
  let e = ref p.offset in
  for i = 0 to p.num_vars - 1 do
    e := !e +. (p.h.(i) *. float_of_int sigma.(i))
  done;
  for k = 0 to Array.length p.couplers - 1 do
    let (i, j), v = p.couplers.(k) in
    e := !e +. (v *. float_of_int (sigma.(i) * sigma.(j)))
  done;
  !e

let local_field p sigma i =
  let f = ref p.h.(i) in
  for k = p.row_start.(i) to p.row_start.(i + 1) - 1 do
    f := !f +. (p.weight.(k) *. float_of_int sigma.(p.col.(k)))
  done;
  !f

let energy_delta p sigma i = -2.0 *. float_of_int sigma.(i) *. local_field p sigma i

let degree p i = p.row_start.(i + 1) - p.row_start.(i)

let iter_neighbors p i f =
  for k = p.row_start.(i) to p.row_start.(i + 1) - 1 do
    f p.col.(k) p.weight.(k)
  done

let add a b =
  let builder = Builder.create ~num_vars:(max a.num_vars b.num_vars) () in
  let identity n = Array.init n (fun i -> i) in
  Builder.add_problem builder a ~var_map:(identity a.num_vars);
  Builder.add_problem builder b ~var_map:(identity b.num_vars);
  Builder.build builder

let scale p factor =
  if factor <= 0.0 then invalid_arg "Problem.scale: factor must be positive";
  (* row_start/col are layout-only; share them and scale the values. *)
  { p with
    offset = p.offset *. factor;
    h = Array.map (fun v -> v *. factor) p.h;
    couplers = Array.map (fun (key, v) -> (key, v *. factor)) p.couplers;
    weight = Array.map (fun v -> v *. factor) p.weight }

let relabel p map ~num_vars =
  if Array.length map < p.num_vars then invalid_arg "Problem.relabel: map too short";
  let b = Builder.create ~num_vars () in
  Builder.add_problem b p ~var_map:map;
  let result = Builder.build b in
  if result.num_vars > num_vars then invalid_arg "Problem.relabel: map exceeds num_vars";
  (* Builder only grows to the largest touched index; pad back out. *)
  if result.num_vars = num_vars then result
  else
    let nnz = Array.length result.col in
    { result with
      num_vars;
      h = Array.init num_vars (fun i -> if i < result.num_vars then result.h.(i) else 0.0);
      row_start =
        Array.init (num_vars + 1) (fun i ->
            if i <= result.num_vars then result.row_start.(i) else nnz) }

let num_interactions p = Array.length p.couplers

let num_terms p =
  let lin = Array.fold_left (fun acc v -> if v <> 0.0 then acc + 1 else acc) 0 p.h in
  lin + Array.length p.couplers

let max_abs_h p = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 p.h

(* Fold from the first coupler, not from 0.0: an all-negative problem must
   report a negative max_j (and symmetrically for min_j), or downstream
   scale/schedule estimates silently include a phantom zero coefficient. *)
let fold_j ~combine p =
  match Array.length p.couplers with
  | 0 -> 0.0
  | _ ->
    let (_, first) = p.couplers.(0) in
    Array.fold_left (fun acc (_, v) -> combine acc v) first p.couplers

let max_j p = fold_j ~combine:Float.max p
let min_j p = fold_j ~combine:Float.min p

let get_j p i j =
  if i = j then invalid_arg "Problem.get_j: same variable";
  let a = min i j and b = max i j in
  let rec binary lo hi =
    if lo >= hi then 0.0
    else
      let mid = (lo + hi) / 2 in
      let (mi, mj), v = p.couplers.(mid) in
      let c = if mi = a then Int.compare mj b else Int.compare mi a in
      if c = 0 then v else if c < 0 then binary (mid + 1) hi else binary lo mid
  in
  binary 0 (Array.length p.couplers)

let equal a b =
  a.num_vars = b.num_vars
  && a.offset = b.offset
  && a.h = b.h
  && a.couplers = b.couplers

let pp fmt p =
  Format.fprintf fmt "@[<v>ising problem: %d vars, %d couplers, offset %g@," p.num_vars
    (Array.length p.couplers) p.offset;
  Array.iteri (fun i v -> if v <> 0.0 then Format.fprintf fmt "  h[%d] = %g@," i v) p.h;
  Array.iter (fun ((i, j), v) -> Format.fprintf fmt "  J[%d,%d] = %g@," i j v) p.couplers;
  Format.fprintf fmt "@]"

let to_string p = Format.asprintf "%a" pp p
