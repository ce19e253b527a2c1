open Qac_ising

let error fmt = Qac_diag.Diag.error ~stage:"qmasm-assemble" fmt

type options = {
  merge_chains : bool;
  chain_strength : float option;
  pin_strength : float option;
}

let default_options = { merge_chains = false; chain_strength = None; pin_strength = None }

type t = {
  problem : Problem.t;
  symbols_of_var : string list array;
  pins : (string * bool) list;
  chains : (string * string) list;
  assertions : Ast.bexpr list;
  chain_strength : float;
  pin_strength : float;
  index : (string, int) Hashtbl.t;
}

(* Union-find over symbol names. *)
module Uf = struct
  type t = (string, string) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let rec find uf x =
    match Hashtbl.find_opt uf x with
    | None -> x
    | Some parent ->
      let root = find uf parent in
      if root <> parent then Hashtbl.replace uf x root;
      root

  let union uf a b =
    let ra = find uf a and rb = find uf b in
    if ra <> rb then Hashtbl.replace uf rb ra
end

let assemble ?(options = default_options) stmts =
  (* Pass 1: symbol table (first-occurrence order) and merges. *)
  let uf = Uf.create () in
  let order = ref [] in
  (* Symbol -> variable; each symbol enters with a placeholder, filled in
     once merging is done. *)
  let index = Hashtbl.create 64 in
  let touch s =
    if not (Hashtbl.mem index s) then begin
      Hashtbl.replace index s (-1);
      order := s :: !order
    end
  in
  let max_literal_j = ref 0.0 in
  List.iter
    (fun stmt ->
       match stmt with
       | Ast.Weight (a, _) -> touch a
       | Ast.Coupler (a, b, j) ->
         touch a;
         touch b;
         max_literal_j := Float.max !max_literal_j (Float.abs j)
       | Ast.Chain (a, b) ->
         touch a;
         touch b;
         if options.merge_chains then Uf.union uf a b
       | Ast.Anti_chain (a, b) ->
         touch a;
         touch b
       | Ast.Pin pins -> List.iter (fun (name, _) -> touch name) pins
       | Ast.Alias (a, b) ->
         touch a;
         touch b;
         Uf.union uf a b
       | Ast.Assertion b -> List.iter touch (Ast.bexpr_syms b)
       | Ast.Include f -> error "unexpanded !include %s (run Macro.expand first)" f
       | Ast.Begin_macro m | Ast.End_macro m | Ast.Use_macro (m, _) ->
         error "unexpanded macro construct %s (run Macro.expand first)" m)
    stmts;
  let order = List.rev !order in
  let var_of_root = Hashtbl.create 64 in
  let num_vars = ref 0 in
  List.iter
    (fun s ->
       let root = Uf.find uf s in
       let v =
         match Hashtbl.find_opt var_of_root root with
         | Some v -> v
         | None ->
           let v = !num_vars in
           Hashtbl.replace var_of_root root v;
           incr num_vars;
           v
       in
       Hashtbl.replace index s v)
    order;
  let var s = Hashtbl.find index s in
  let symbols_of_var = Array.make !num_vars [] in
  List.iter (fun s -> symbols_of_var.(var s) <- s :: symbols_of_var.(var s)) order;
  Array.iteri (fun i syms -> symbols_of_var.(i) <- List.rev syms) symbols_of_var;
  let chain_strength =
    match options.chain_strength with
    | Some s -> s
    | None -> if !max_literal_j > 0.0 then 2.0 *. !max_literal_j else 2.0
  in
  let pin_strength =
    match options.pin_strength with
    | Some s -> s
    | None -> chain_strength
  in
  (* Pass 2: accumulate the Hamiltonian. *)
  let builder = Problem.Builder.create ~num_vars:!num_vars () in
  let pins = ref [] in
  let chains = ref [] in
  let assertions = ref [] in
  let add_j a b j =
    let va = var a and vb = var b in
    if va = vb then
      (* Both endpoints merged into one variable: sigma^2 = 1. *)
      Problem.Builder.add_offset builder j
    else Problem.Builder.add_j builder va vb j
  in
  List.iter
    (fun stmt ->
       match stmt with
       | Ast.Weight (a, w) -> Problem.Builder.add_h builder (var a) w
       | Ast.Coupler (a, b, j) -> add_j a b j
       | Ast.Chain (a, b) ->
         chains := (a, b) :: !chains;
         if not options.merge_chains then add_j a b (-.chain_strength)
       | Ast.Anti_chain (a, b) ->
         if var a = var b then error "anti-chain between merged symbols %s and %s" a b;
         add_j a b chain_strength
       | Ast.Pin pin_list ->
         List.iter
           (fun (name, value) ->
              pins := (name, value) :: !pins;
              Problem.Builder.add_h builder (var name)
                (if value then -.pin_strength else pin_strength))
           pin_list
       | Ast.Alias _ -> ()
       | Ast.Assertion b -> assertions := b :: !assertions
       | Ast.Include _ | Ast.Begin_macro _ | Ast.End_macro _ | Ast.Use_macro _ ->
         assert false)
    stmts;
  let problem = Problem.Builder.build builder in
  (* The builder only grows to the highest touched variable; pad so every
     symbol has a slot even if it carries no coefficients. *)
  let problem =
    if problem.Problem.num_vars = !num_vars then problem
    else
      Problem.relabel problem
        (Array.init problem.Problem.num_vars (fun i -> i))
        ~num_vars:!num_vars
  in
  { problem;
    symbols_of_var;
    pins = List.rev !pins;
    chains = List.rev !chains;
    assertions = List.rev !assertions;
    chain_strength;
    pin_strength;
    index }

let variable t s = Hashtbl.find_opt t.index s

let num_symbols t = Hashtbl.length t.index

let check_length t spins =
  if Array.length spins <> Array.length t.symbols_of_var then
    error "spin vector length %d does not match %d variables" (Array.length spins)
      (Array.length t.symbols_of_var)

let assignment_of_spins t spins =
  check_length t spins;
  Array.mapi
    (fun v syms -> List.map (fun s -> (s, spins.(v) > 0)) syms)
    t.symbols_of_var
  |> Array.to_list |> List.concat

let visible_assignment t =
  let visible =
    Array.to_list t.symbols_of_var
    |> List.mapi (fun v syms -> List.map (fun s -> (s, v)) syms)
    |> List.concat
    |> List.filter (fun (s, _) -> not (Ast.is_internal_symbol s))
  in
  fun spins ->
    check_length t spins;
    List.map (fun (s, v) -> (s, spins.(v) > 0)) visible

(* --- Assertion evaluation ----------------------------------------------- *)

(* Each assertion compiles to a closure over the spin vector: [var]
   resolves every symbol once, so evaluating a read costs array reads. *)
let rec compile_aexpr var (e : Ast.aexpr) : Problem.spin array -> int =
  let bit v spins = if spins.(v) > 0 then 1 else 0 in
  match e with
  | Ast.Int n -> fun _ -> n
  | Ast.Sym s -> bit (var s)
  | Ast.Sym_bit (s, i) -> bit (var (Ast.bit_symbol s i))
  | Ast.Sym_range (s, msb, lsb) ->
    let vars = List.map var (Ast.range_symbols s msb lsb) in
    fun spins -> List.fold_left (fun acc v -> (acc lsl 1) lor bit v spins) 0 vars
  | Ast.Neg a ->
    let a = compile_aexpr var a in
    fun spins -> -a spins
  | Ast.Bnot a ->
    let a = compile_aexpr var a in
    fun spins -> lnot (a spins)
  | Ast.Lnot b ->
    let b = compile_bexpr var b in
    fun spins -> if b spins then 0 else 1
  | Ast.Arith (op, a, b) ->
    let a = compile_aexpr var a and b = compile_aexpr var b in
    let f : int -> int -> int =
      match op with
      | Ast.A_add -> ( + )
      | Ast.A_sub -> ( - )
      | Ast.A_mul -> ( * )
      | Ast.A_div -> fun x y -> if y = 0 then error "assertion divides by zero" else x / y
      | Ast.A_mod -> fun x y -> if y = 0 then error "assertion modulo by zero" else x mod y
      | Ast.A_and -> ( land )
      | Ast.A_or -> ( lor )
      | Ast.A_xor -> ( lxor )
      | Ast.A_shl -> ( lsl )
      | Ast.A_shr -> ( asr )
    in
    fun spins -> f (a spins) (b spins)

and compile_bexpr var (b : Ast.bexpr) : Problem.spin array -> bool =
  match b with
  | Ast.Cmp (op, a, b') ->
    let a = compile_aexpr var a and b' = compile_aexpr var b' in
    let f : int -> int -> bool =
      match op with
      | Ast.C_eq -> ( = )
      | Ast.C_ne -> ( <> )
      | Ast.C_lt -> ( < )
      | Ast.C_le -> ( <= )
      | Ast.C_gt -> ( > )
      | Ast.C_ge -> ( >= )
    in
    fun spins -> f (a spins) (b' spins)
  | Ast.And (x, y) ->
    let x = compile_bexpr var x and y = compile_bexpr var y in
    fun spins -> x spins && y spins
  | Ast.Or (x, y) ->
    let x = compile_bexpr var x and y = compile_bexpr var y in
    fun spins -> x spins || y spins

let check_assertions t =
  let var s =
    match variable t s with
    | Some v -> v
    | None -> error "assertion references unknown symbol %s" s
  in
  let checks = List.map (fun b -> (b, compile_bexpr var b)) t.assertions in
  fun spins ->
    check_length t spins;
    List.map (fun (b, holds) -> (b, holds spins)) checks
