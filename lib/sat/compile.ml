(** Clause → Ising penalty compiler (see compile.mli for the encoding). *)

module Problem = Qac_ising.Problem
module Builder = Qac_ising.Problem.Builder
module Scale = Qac_ising.Scale
module Gen = Qac_cellgen.Gen
module Truthtab = Qac_cellgen.Truthtab

let stage = "sat-compile"
let error ?line fmt = Qac_diag.Diag.error ?line ~stage fmt

type options = {
  range : Scale.range;
  precision_bits : int;
  adjacency : (int -> int -> bool) option;
}

let default_options =
  { range = Scale.dwave_2000q; precision_bits = 30; adjacency = None }

type gadget = {
  derived : Gen.derived;
  effective_gap : float;
  ancilla_for : bool array array;
}

(* The canonical 3-variable OR relation: every row except all-false. *)
let or3_table () =
  Truthtab.create ~num_vars:3
    (List.filter (fun r -> Array.exists Fun.id r) (Truthtab.all_rows ~num_vars:3))

(* For each of the 8 decision rows, the conditional optimum over the 2^a
   ancilla assignments — both the lookup table that [spins_of_assignment]
   uses and the exact violation cost ([effective_gap], row 0). *)
let analyze_derived (d : Gen.derived) =
  let na = d.Gen.num_ancillas in
  let spins = Array.make (3 + na) 1 in
  let best_for idx =
    spins.(0) <- (if idx land 4 <> 0 then 1 else -1);
    spins.(1) <- (if idx land 2 <> 0 then 1 else -1);
    spins.(2) <- (if idx land 1 <> 0 then 1 else -1);
    let best_e = ref infinity and best = ref [||] in
    for m = 0 to (1 lsl na) - 1 do
      for j = 0 to na - 1 do
        spins.(3 + j) <- (if m land (1 lsl (na - 1 - j)) <> 0 then 1 else -1)
      done;
      let e = Problem.energy d.Gen.problem spins in
      if e < !best_e then begin
        best_e := e;
        best := Array.init na (fun j -> spins.(3 + j) = 1)
      end
    done;
    (!best_e, !best)
  in
  let ancilla_for = Array.make 8 [||] in
  let violated_energy = ref infinity in
  for idx = 0 to 7 do
    let e, anc = best_for idx in
    ancilla_for.(idx) <- anc;
    if idx = 0 then violated_energy := e
  done;
  {
    derived = d;
    effective_gap = !violated_energy -. d.Gen.ground_energy;
    ancilla_for;
  }

let derive_gadget options =
  match
    Gen.derive ~range:options.range ?adjacency:options.adjacency (or3_table ())
  with
  | None ->
    error
      "no 3-literal OR gadget exists under the requested coefficient \
       range/adjacency"
  | Some d -> analyze_derived d

(* One LP solve per coefficient range for the process's lifetime; adjacency
   restrictions bypass the cache (closures are not meaningful keys). *)
let gadget_cache : (Scale.range, gadget) Hashtbl.t = Hashtbl.create 4
let gadget_mutex = Mutex.create ()

let clause_gadget ?(options = default_options) () =
  match options.adjacency with
  | Some _ -> derive_gadget options
  | None ->
    Mutex.lock gadget_mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock gadget_mutex)
      (fun () ->
         match Hashtbl.find_opt gadget_cache options.range with
         | Some g -> g
         | None ->
           let g = derive_gadget options in
           Hashtbl.add gadget_cache options.range g;
           g)

type lit = {
  var : int;
  sign : int;
}

type sub_clause = {
  slits : lit array;
  anc : int;
}

type compiled_clause = {
  cweight : float;
  clits : lit array;
  chain : int array;
  subs : sub_clause array;
}

type t = {
  formula : Dimacs.t;
  problem : Problem.t;
  num_formula_vars : int;
  num_ancillas : int;
  hard_weight : float;
  gadget : gadget;
  clauses : compiled_clause array;
}

(* Sum [scale * (H_gadget - ground)] into the builder, gauge-transformed so
   canonical decision variable [i] tracks the TRUTH of literal [i]:
   h_i -> s_i h_i and J_ij -> s_i s_j J_ij leave the spectrum untouched.
   Ancillas (indices >= 3 in the cell) keep sign +1 and land at
   [anc], [anc + 1], ... of the full problem. *)
let add_gadget b (g : gadget) ~scale ~(slits : lit array) ~anc =
  let p = g.derived.Gen.problem in
  let map i = if i < 3 then slits.(i).var else anc + (i - 3) in
  let sgn i = if i < 3 then float_of_int slits.(i).sign else 1.0 in
  Builder.add_offset b (-.scale *. g.derived.Gen.ground_energy);
  Array.iteri
    (fun i hv ->
       if hv <> 0.0 then Builder.add_h b (map i) (scale *. hv *. sgn i))
    p.Problem.h;
  Array.iter
    (fun ((i, j), v) ->
       Builder.add_j b (map i) (map j) (scale *. v *. sgn i *. sgn j))
    p.Problem.couplers

let no_penalty w clits = { cweight = w; clits; chain = [||]; subs = [||] }

let compile_clause b gadget ~next_anc ~hard_weight (c : Dimacs.clause) =
  let w = match c.weight with Hard -> hard_weight | Soft w -> w in
  (* Normalize: merge repeated literals; a variable appearing in both
     polarities makes the clause a tautology, which contributes nothing. *)
  let seen = Hashtbl.create 8 in
  let order = ref [] in
  let tautology = ref false in
  Array.iter
    (fun l ->
       let v = abs l - 1 and s = if l > 0 then 1 else -1 in
       match Hashtbl.find_opt seen v with
       | None ->
         Hashtbl.add seen v s;
         order := v :: !order
       | Some s' -> if s' <> s then tautology := true)
    c.lits;
  if !tautology then no_penalty w [||]
  else begin
    let clits =
      Array.of_list
        (List.rev_map (fun v -> { var = v; sign = Hashtbl.find seen v }) !order)
    in
    let k = Array.length clits in
    let alloc n =
      let a = !next_anc in
      next_anc := a + n;
      a
    in
    let mk_sub slits =
      let anc = alloc gadget.derived.Gen.num_ancillas in
      add_gadget b gadget ~scale:(w /. gadget.effective_gap) ~slits ~anc;
      { slits; anc }
    in
    match k with
    | 0 ->
      (match c.weight with
       | Hard ->
         error
           "formula contains an empty hard clause: trivially unsatisfiable"
       | Soft w ->
         (* Always violated: its cost is a constant of the Hamiltonian. *)
         Builder.add_offset b w;
         no_penalty w [||])
    | 1 ->
      (* w * (1 - s*sigma) / 2: satisfied costs 0, violated exactly w. *)
      let { var; sign } = clits.(0) in
      Builder.add_offset b (w /. 2.0);
      Builder.add_h b var (-.w *. float_of_int sign /. 2.0);
      no_penalty w clits
    | 2 ->
      (* w * (1 - s1*sigma1)(1 - s2*sigma2) / 4. *)
      let l1 = clits.(0) and l2 = clits.(1) in
      let s1 = float_of_int l1.sign and s2 = float_of_int l2.sign in
      Builder.add_offset b (w /. 4.0);
      Builder.add_h b l1.var (-.w *. s1 /. 4.0);
      Builder.add_h b l2.var (-.w *. s2 /. 4.0);
      Builder.add_j b l1.var l2.var (w *. s1 *. s2 /. 4.0);
      no_penalty w clits
    | 3 -> { cweight = w; clits; chain = [||]; subs = [| mk_sub clits |] }
    | _ ->
      (* (l0 l1 y0)(~y0 l2 y1)...(~y_{k-4} l_{k-2} l_{k-1}): with the chain
         at its conditional optimum, a satisfied clause satisfies every
         link and a violated clause excites exactly the last one. *)
      let chain = Array.init (k - 3) (fun _ -> alloc 1) in
      let subs =
        Array.init (k - 2) (fun i ->
            if i = 0 then
              mk_sub [| clits.(0); clits.(1); { var = chain.(0); sign = 1 } |]
            else if i = k - 3 then
              mk_sub
                [| { var = chain.(i - 1); sign = -1 };
                   clits.(k - 2);
                   clits.(k - 1)
                |]
            else
              mk_sub
                [| { var = chain.(i - 1); sign = -1 };
                   clits.(i + 1);
                   { var = chain.(i); sign = 1 }
                |])
      in
      { cweight = w; clits; chain; subs }
  end

let compile ?(options = default_options) (f : Dimacs.t) =
  let soft_sum = Dimacs.soft_weight_sum f in
  if not (Float.is_finite soft_sum) then
    error "soft clause weights sum to %g; not representable" soft_sum;
  let hard_weight = if Dimacs.num_soft f > 0 then soft_sum +. 1.0 else 1.0 in
  let gadget = clause_gadget ~options () in
  let b = Builder.create ~num_vars:f.Dimacs.num_vars () in
  let next_anc = ref f.Dimacs.num_vars in
  let clauses =
    Array.map (compile_clause b gadget ~next_anc ~hard_weight) f.Dimacs.clauses
  in
  let problem = Builder.build b in
  let dr = Scale.dynamic_range problem in
  let budget = Float.of_int 2 ** float_of_int options.precision_bits in
  if dr > budget then
    error
      "clause weight spread demands a coefficient dynamic range of %.3g, \
       beyond the %d-bit budget of %.3g; rescale the soft weights"
      dr options.precision_bits budget;
  {
    formula = f;
    problem;
    num_formula_vars = f.Dimacs.num_vars;
    num_ancillas = !next_anc - f.Dimacs.num_vars;
    hard_weight;
    gadget;
    clauses;
  }

let decode t spins =
  if Array.length spins < t.num_formula_vars then
    invalid_arg "Compile.decode: spin array shorter than the formula";
  Array.init t.num_formula_vars (fun i -> Problem.bool_of_spin spins.(i))

let spins_of_assignment t a =
  if Array.length a <> t.num_formula_vars then
    invalid_arg "Compile.spins_of_assignment: assignment length mismatch";
  let spins = Array.make t.problem.Problem.num_vars 1 in
  Array.iteri (fun i v -> spins.(i) <- Problem.spin_of_bool v) a;
  let lit_true l = spins.(l.var) = l.sign in
  Array.iter
    (fun cc ->
       if Array.length cc.clits >= 3 then begin
         (* Chain ancillas first: y_i = not (l_0 v ... v l_{i+1}).  Sub-
            clause literals then read them through [spins] like any other
            variable. *)
         let prefix = ref (lit_true cc.clits.(0)) in
         Array.iteri
           (fun i y ->
              prefix := !prefix || lit_true cc.clits.(i + 1);
              spins.(y) <- Problem.spin_of_bool (not !prefix))
           cc.chain;
         Array.iter
           (fun sub ->
              let idx =
                (if lit_true sub.slits.(0) then 4 else 0)
                + (if lit_true sub.slits.(1) then 2 else 0)
                + if lit_true sub.slits.(2) then 1 else 0
              in
              Array.iteri
                (fun j v -> spins.(sub.anc + j) <- Problem.spin_of_bool v)
                t.gadget.ancilla_for.(idx))
           cc.subs
       end)
    t.clauses;
  spins

let repair t spins = spins_of_assignment t (decode t spins)

let cost t a =
  let hard, soft = Dimacs.violations t.formula a in
  (t.hard_weight *. float_of_int hard) +. soft
