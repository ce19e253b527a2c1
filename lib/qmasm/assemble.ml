open Qac_ising

let error fmt = Qac_diag.Diag.error ~stage:"qmasm-assemble" fmt

type options = {
  merge_chains : bool;
  chain_strength : float option;
  pin_strength : float option;
}

let default_options = { merge_chains = false; chain_strength = None; pin_strength = None }

(* Symbols are interned to ids in first-occurrence order; union-find and
   variable numbering work on the ids. *)
module Stbl = Hashtbl.Make (String)

type index = {
  ids : int Stbl.t;  (* symbol -> id *)
  var_of_id : int array;
}

type t = {
  problem : Problem.t;
  symbols_of_var : string list array;
  pins : (string * bool) list;
  chains : (string * string) list;
  assertions : Ast.bexpr list;
  chain_strength : float;
  pin_strength : float;
  index : index;
}

(* Growable arrays for the symbol table. *)
let push arr len x =
  let arr =
    if len < Array.length !arr then !arr
    else begin
      let bigger = Array.make (max 64 (2 * len)) x in
      Array.blit !arr 0 bigger 0 len;
      arr := bigger;
      bigger
    end
  in
  arr.(len) <- x

let assemble ?(options = default_options) stmts =
  (* Pass 1: intern every symbol (first-occurrence order) and union merged
     symbols. *)
  let ids = Stbl.create 256 in
  let names = ref [||] and parent = ref [||] and num_symbols = ref 0 in
  let intern s =
    match Stbl.find_opt ids s with
    | Some id -> id
    | None ->
      let id = !num_symbols in
      Stbl.add ids s id;
      push names id s;
      push parent id id;
      incr num_symbols;
      id
  in
  let rec find x =
    let p = !parent.(x) in
    if p = x then x
    else begin
      let root = find p in
      !parent.(x) <- root;
      root
    end
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then !parent.(rb) <- ra
  in
  let max_literal_j = ref 0.0 in
  List.iter
    (fun stmt ->
       match stmt with
       | Ast.Weight (a, _) -> ignore (intern a)
       | Ast.Coupler (a, b, j) ->
         ignore (intern a);
         ignore (intern b);
         max_literal_j := Float.max !max_literal_j (Float.abs j)
       | Ast.Chain (a, b) ->
         let a = intern a in
         let b = intern b in
         if options.merge_chains then union a b
       | Ast.Anti_chain (a, b) ->
         ignore (intern a);
         ignore (intern b)
       | Ast.Pin pins -> List.iter (fun (name, _) -> ignore (intern name)) pins
       | Ast.Alias (a, b) ->
         let a = intern a in
         let b = intern b in
         union a b
       | Ast.Assertion b -> List.iter (fun s -> ignore (intern s)) (Ast.bexpr_syms b)
       | Ast.Include f -> error "unexpanded !include %s (run Macro.expand first)" f
       | Ast.Begin_macro m | Ast.End_macro m | Ast.Use_macro (m, _) ->
         error "unexpanded macro construct %s (run Macro.expand first)" m)
    stmts;
  (* Variables are numbered by the first occurrence of any of their
     symbols. *)
  let num_symbols = !num_symbols and names = !names in
  let var_of_root = Array.make num_symbols (-1) in
  let var_of_id = Array.make num_symbols 0 in
  let num_vars = ref 0 in
  for id = 0 to num_symbols - 1 do
    let root = find id in
    if var_of_root.(root) < 0 then begin
      var_of_root.(root) <- !num_vars;
      incr num_vars
    end;
    var_of_id.(id) <- var_of_root.(root)
  done;
  let num_vars = !num_vars in
  let symbols_of_var = Array.make num_vars [] in
  for id = num_symbols - 1 downto 0 do
    let v = var_of_id.(id) in
    symbols_of_var.(v) <- names.(id) :: symbols_of_var.(v)
  done;
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
  (* Pass 2: accumulate the Hamiltonian over variables. *)
  let var s = var_of_id.(Stbl.find ids s) in
  let builder = Problem.Builder.create ~num_vars () in
  let pins = ref [] in
  let chains = ref [] in
  let assertions = ref [] in
  let add_j va vb j =
    if va = vb then
      (* Both endpoints merged into one variable: sigma^2 = 1. *)
      Problem.Builder.add_offset builder j
    else Problem.Builder.add_j builder va vb j
  in
  List.iter
    (fun stmt ->
       match stmt with
       | Ast.Weight (a, w) -> Problem.Builder.add_h builder (var a) w
       | Ast.Coupler (a, b, j) -> add_j (var a) (var b) j
       | Ast.Chain (a, b) ->
         let va = var a and vb = var b in
         chains := (a, b) :: !chains;
         if not options.merge_chains then add_j va vb (-.chain_strength)
       | Ast.Anti_chain (a, b) ->
         let va = var a and vb = var b in
         if va = vb then error "anti-chain between merged symbols %s and %s" a b;
         add_j va vb chain_strength
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
  { problem = Problem.Builder.build builder;
    symbols_of_var;
    pins = List.rev !pins;
    chains = List.rev !chains;
    assertions = List.rev !assertions;
    chain_strength;
    pin_strength;
    index = { ids; var_of_id } }

let variable t s =
  match Stbl.find_opt t.index.ids s with
  | Some id -> Some t.index.var_of_id.(id)
  | None -> None

let num_symbols t = Array.length t.index.var_of_id

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
