type t = {
  num_vars : int;
  offset : float;
  linear : float array;
  quadratic : ((int * int) * float) array;
}

let create ~num_vars ~linear ~quadratic ?(offset = 0.0) () =
  if Array.length linear <> num_vars then invalid_arg "Qubo.create: linear length mismatch";
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun ((i, j), v) ->
       if i = j then invalid_arg "Qubo.create: self-coupler";
       if i < 0 || j < 0 || i >= num_vars || j >= num_vars then
         invalid_arg "Qubo.create: index out of range";
       let key = if i < j then (i, j) else (j, i) in
       let prev = try Hashtbl.find tbl key with Not_found -> 0.0 in
       Hashtbl.replace tbl key (prev +. v))
    quadratic;
  let quadratic =
    Hashtbl.fold (fun key v acc -> if v = 0.0 then acc else (key, v) :: acc) tbl []
    |> Array.of_list
  in
  Array.sort (fun (a, _) (b, _) -> compare a b) quadratic;
  { num_vars; offset; linear = Array.copy linear; quadratic }

let energy q x =
  if Array.length x <> q.num_vars then invalid_arg "Qubo.energy: length mismatch";
  let e = ref q.offset in
  for i = 0 to q.num_vars - 1 do
    if x.(i) then e := !e +. q.linear.(i)
  done;
  Array.iter (fun ((i, j), v) -> if x.(i) && x.(j) then e := !e +. v) q.quadratic;
  !e

(* x_i = (1 + sigma_i) / 2, so
   a_i x_i           -> a_i/2 sigma_i + a_i/2
   b_ij x_i x_j      -> b_ij/4 (sigma_i sigma_j + sigma_i + sigma_j + 1). *)
let to_ising q =
  let b = Problem.Builder.create ~num_vars:q.num_vars () in
  Problem.Builder.add_offset b q.offset;
  Array.iteri
    (fun i a ->
       Problem.Builder.add_h b i (a /. 2.0);
       Problem.Builder.add_offset b (a /. 2.0))
    q.linear;
  Array.iter
    (fun ((i, j), v) ->
       Problem.Builder.add_j b i j (v /. 4.0);
       Problem.Builder.add_h b i (v /. 4.0);
       Problem.Builder.add_h b j (v /. 4.0);
       Problem.Builder.add_offset b (v /. 4.0))
    q.quadratic;
  let p = Problem.Builder.build b in
  if p.Problem.num_vars = q.num_vars then p
  else Problem.relabel p (Array.init q.num_vars (fun i -> i)) ~num_vars:q.num_vars

(* sigma_i = 2 x_i - 1, so
   h_i sigma_i          -> 2 h_i x_i - h_i
   J_ij sigma_i sigma_j -> 4 J_ij x_i x_j - 2 J_ij x_i - 2 J_ij x_j + J_ij. *)
let of_ising (p : Problem.t) =
  let linear = Array.make p.Problem.num_vars 0.0 in
  let offset = ref p.Problem.offset in
  Array.iteri
    (fun i h ->
       linear.(i) <- linear.(i) +. (2.0 *. h);
       offset := !offset -. h)
    p.Problem.h;
  let quadratic = ref [] in
  Array.iter
    (fun ((i, j), v) ->
       quadratic := ((i, j), 4.0 *. v) :: !quadratic;
       linear.(i) <- linear.(i) -. (2.0 *. v);
       linear.(j) <- linear.(j) -. (2.0 *. v);
       offset := !offset +. v)
    p.Problem.couplers;
  create ~num_vars:p.Problem.num_vars ~linear ~quadratic:!quadratic ~offset:!offset ()

let bools_of_spins sigma = Array.map (fun s -> s > 0) sigma
