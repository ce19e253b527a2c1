open Qac_ising

type result = {
  fixed : (int * bool) list;
  lower_bound : float;
}

(* Literals: node 2i encodes x_i, node 2i+1 encodes the complement.  Nodes
   2n and 2n+1 are the constant-true source and constant-false sink. *)
let lit_true i = 2 * i
let lit_false i = (2 * i) + 1
let negate l = l lxor 1

let solve_qubo (q : Qubo.t) =
  let n = q.Qubo.num_vars in
  let source = 2 * n and sink = (2 * n) + 1 in
  let net = Maxflow.create ((2 * n) + 2) in
  let constant = ref q.Qubo.offset in
  (* Posiform accumulation: linear terms over literals. *)
  let linear = Array.make (2 * n) 0.0 in
  let add_linear lit a =
    (* Combine a*u with any existing b*ū: cancel min(a,b) into constant. *)
    let other = negate lit in
    if linear.(other) > 0.0 then begin
      let cancel = Float.min a linear.(other) in
      linear.(other) <- linear.(other) -. cancel;
      constant := !constant +. cancel;
      let remaining = a -. cancel in
      if remaining > 0.0 then linear.(lit) <- linear.(lit) +. remaining
    end
    else linear.(lit) <- linear.(lit) +. a
  in
  Array.iteri
    (fun i c ->
       if c > 0.0 then add_linear (lit_true i) c
       else if c < 0.0 then begin
         (* c x = c - c x̄ *)
         constant := !constant +. c;
         add_linear (lit_false i) (-.c)
       end)
    q.Qubo.linear;
  (* Quadratic terms as implication arcs of half weight. *)
  let add_quadratic u v a =
    Maxflow.add_edge net u (negate v) (a /. 2.0);
    Maxflow.add_edge net v (negate u) (a /. 2.0)
  in
  Array.iter
    (fun ((i, j), c) ->
       if c > 0.0 then add_quadratic (lit_true i) (lit_true j) c
       else if c < 0.0 then begin
         (* c x y = c x + |c| x ȳ *)
         add_quadratic (lit_true i) (lit_false j) (-.c);
         (* and c x as above *)
         constant := !constant +. c;
         add_linear (lit_false i) (-.c)
       end)
    q.Qubo.quadratic;
  (* Linear terms a*u are quadratic terms with the constant-true literal. *)
  Array.iteri
    (fun lit a ->
       if a > 0.0 then begin
         Maxflow.add_edge net source (negate lit) (a /. 2.0);
         Maxflow.add_edge net lit sink (a /. 2.0)
       end)
    linear;
  let flow = Maxflow.max_flow net ~source ~sink in
  let reachable = Maxflow.reachable net ~source in
  let fixed = ref [] in
  for i = n - 1 downto 0 do
    let t_in = reachable.(lit_true i) and f_in = reachable.(lit_false i) in
    if t_in && not f_in then fixed := (i, true) :: !fixed
    else if f_in && not t_in then fixed := (i, false) :: !fixed
  done;
  { fixed = !fixed; lower_bound = !constant +. flow }

let solve (p : Problem.t) = solve_qubo (Qubo.of_ising p)

type simplified = {
  reduced : Problem.t;
  kept : int array;
  fixed : (int * bool) list;
}

let simplify (p : Problem.t) =
  let (r : result) = solve p in
  let fixed = r.fixed in
  let fixed_spin = Array.make p.Problem.num_vars 0 in
  List.iter (fun (i, b) -> fixed_spin.(i) <- (if b then 1 else -1)) fixed;
  let kept =
    Array.of_list
      (List.filter (fun i -> fixed_spin.(i) = 0) (List.init p.Problem.num_vars (fun i -> i)))
  in
  let new_of_old = Array.make p.Problem.num_vars (-1) in
  Array.iteri (fun k old -> new_of_old.(old) <- k) kept;
  let b = Problem.Builder.create ~num_vars:(Array.length kept) () in
  Problem.Builder.add_offset b p.Problem.offset;
  Array.iteri
    (fun i h ->
       if fixed_spin.(i) = 0 then Problem.Builder.add_h b new_of_old.(i) h
       else Problem.Builder.add_offset b (h *. float_of_int fixed_spin.(i)))
    p.Problem.h;
  Array.iter
    (fun ((i, j), v) ->
       match fixed_spin.(i), fixed_spin.(j) with
       | 0, 0 -> Problem.Builder.add_j b new_of_old.(i) new_of_old.(j) v
       | 0, s -> Problem.Builder.add_h b new_of_old.(i) (v *. float_of_int s)
       | s, 0 -> Problem.Builder.add_h b new_of_old.(j) (v *. float_of_int s)
       | si, sj -> Problem.Builder.add_offset b (v *. float_of_int (si * sj)))
    p.Problem.couplers;
  let reduced = Problem.Builder.build b in
  let reduced =
    if reduced.Problem.num_vars = Array.length kept then reduced
    else
      Problem.relabel reduced
        (Array.init reduced.Problem.num_vars (fun i -> i))
        ~num_vars:(Array.length kept)
  in
  { reduced; kept; fixed }

let restore ~original_num_vars s reduced_spins =
  let full = Array.make original_num_vars 1 in
  List.iter (fun (i, b) -> full.(i) <- (if b then 1 else -1)) s.fixed;
  Array.iteri (fun k old -> full.(old) <- reduced_spins.(k)) s.kept;
  full
