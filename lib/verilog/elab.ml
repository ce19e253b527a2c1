let error fmt = Qac_diag.Diag.error ~stage:"verilog-elab" fmt

let max_width = 62

type net = {
  width : int;
  left : int;
  right : int;
  is_reg : bool;
  dir : Ast.direction option;
}

let storage_bit net i =
  let bit = if net.left >= net.right then i - net.right else net.right - i in
  if bit < 0 || bit >= net.width then error "bit index %d out of range" i;
  bit

let select_bits net a b =
  if (net.left >= net.right) <> (a >= b) then
    error "part-select [%d:%d] direction does not match the declaration" a b;
  let sa = storage_bit net a and sb = storage_bit net b in
  (min sa sb, abs (a - b) + 1)

type t = {
  name : string;
  ports : (string * Ast.direction * int) list;
  nets : (string * net) list;
  assigns : (Ast.lvalue * Ast.expr) list;
  clocked : (Ast.edge * Ast.statement list) list;
  comb : Ast.statement list list;
}

(* --- Constant expressions ---------------------------------------------- *)

let rec eval_const ?(env = []) (e : Ast.expr) =
  let eval e = eval_const ~env e in
  match e with
  | Ast.Number { value; _ } -> value
  | Ast.Ident name ->
    (match List.assoc_opt name env with
     | Some v -> v
     | None -> error "constant expression references non-parameter %s" name)
  | Ast.Unop (op, a) ->
    let va = eval a in
    (match op with
     | Ast.Negate -> -va
     | Ast.Bit_not -> lnot va
     | Ast.Log_not -> if va = 0 then 1 else 0
     | Ast.Reduce_and | Ast.Reduce_or | Ast.Reduce_xor | Ast.Reduce_nand
     | Ast.Reduce_nor | Ast.Reduce_xnor ->
       error "reduction operators not allowed in constant expressions")
  | Ast.Binop (op, a, b) ->
    let va = eval a and vb = eval b in
    (match op with
     | Ast.Add -> va + vb
     | Ast.Sub -> va - vb
     | Ast.Mul -> va * vb
     | Ast.Div -> if vb = 0 then error "division by zero in constant" else va / vb
     | Ast.Mod -> if vb = 0 then error "modulo by zero in constant" else va mod vb
     | Ast.Bit_and -> va land vb
     | Ast.Bit_or -> va lor vb
     | Ast.Bit_xor -> va lxor vb
     | Ast.Bit_xnor -> lnot (va lxor vb)
     | Ast.Log_and -> if va <> 0 && vb <> 0 then 1 else 0
     | Ast.Log_or -> if va <> 0 || vb <> 0 then 1 else 0
     | Ast.Eq -> if va = vb then 1 else 0
     | Ast.Neq -> if va <> vb then 1 else 0
     | Ast.Lt -> if va < vb then 1 else 0
     | Ast.Le -> if va <= vb then 1 else 0
     | Ast.Gt -> if va > vb then 1 else 0
     | Ast.Ge -> if va >= vb then 1 else 0
     | Ast.Shl -> va lsl vb
     | Ast.Shr -> va lsr vb)
  | Ast.Ternary (c, a, b) -> if eval c <> 0 then eval a else eval b
  | Ast.Index _ | Ast.Select _ | Ast.Concat _ | Ast.Replicate _ ->
    error "unsupported construct in constant expression"

(* --- Expression/statement rewriting ------------------------------------ *)

(* Substitute identifiers: parameters to numbers, instance-local names to
   prefixed names.  [subst] returns either a replacement expression or the
   identity. *)
let rec map_expr ~f (e : Ast.expr) : Ast.expr =
  match e with
  | Ast.Number _ -> e
  | Ast.Ident name -> f name
  | Ast.Index (name, i) ->
    let i = map_expr ~f i in
    (match f name with
     | Ast.Ident name' -> Ast.Index (name', i)
     | Ast.Number _ as n ->
       (* Indexing a parameter: fold to the selected bit. *)
       (match i with
        | Ast.Number { value = bit; _ } ->
          (match n with
           | Ast.Number { value; _ } ->
             Ast.Number { width = Some 1; value = (value lsr bit) land 1 }
           | _ -> assert false)
        | _ -> error "bit-select of a parameter requires constant index")
     | _ -> error "bad identifier substitution for %s" name)
  | Ast.Select (name, msb, lsb) ->
    (match f name with
     | Ast.Ident name' -> Ast.Select (name', map_expr ~f msb, map_expr ~f lsb)
     | _ -> error "part-select of a parameter is not supported")
  | Ast.Concat es -> Ast.Concat (List.map (map_expr ~f) es)
  | Ast.Replicate (n, x) -> Ast.Replicate (map_expr ~f n, map_expr ~f x)
  | Ast.Unop (op, a) -> Ast.Unop (op, map_expr ~f a)
  | Ast.Binop (op, a, b) -> Ast.Binop (op, map_expr ~f a, map_expr ~f b)
  | Ast.Ternary (c, a, b) -> Ast.Ternary (map_expr ~f c, map_expr ~f a, map_expr ~f b)

let rec map_lvalue ~f (lv : Ast.lvalue) : Ast.lvalue =
  match lv with
  | Ast.Lident name ->
    (match f name with
     | Ast.Ident name' -> Ast.Lident name'
     | _ -> error "lvalue %s may not be a parameter" name)
  | Ast.Lindex (name, i) ->
    (match f name with
     | Ast.Ident name' -> Ast.Lindex (name', map_expr ~f i)
     | _ -> error "lvalue %s may not be a parameter" name)
  | Ast.Lselect (name, msb, lsb) ->
    (match f name with
     | Ast.Ident name' -> Ast.Lselect (name', map_expr ~f msb, map_expr ~f lsb)
     | _ -> error "lvalue %s may not be a parameter" name)
  | Ast.Lconcat lvs -> Ast.Lconcat (List.map (map_lvalue ~f) lvs)

let rec map_statement ~f (s : Ast.statement) : Ast.statement =
  match s with
  | Ast.Blocking (lv, e) -> Ast.Blocking (map_lvalue ~f lv, map_expr ~f e)
  | Ast.Nonblocking (lv, e) -> Ast.Nonblocking (map_lvalue ~f lv, map_expr ~f e)
  | Ast.If (c, t, e) ->
    Ast.If (map_expr ~f c, List.map (map_statement ~f) t, List.map (map_statement ~f) e)
  | Ast.Case (subject, arms, default) ->
    Ast.Case
      ( map_expr ~f subject,
        List.map
          (fun (labels, body) ->
             (List.map (map_expr ~f) labels, List.map (map_statement ~f) body))
          arms,
        Option.map (List.map (map_statement ~f)) default )
  | Ast.For (v, init, cond, sv, step, body) ->
    (* The loop variable shadows any outer binding. *)
    let f' name = if name = v then Ast.Ident name else f name in
    Ast.For
      ( v,
        map_expr ~f init,
        map_expr ~f:f' cond,
        sv,
        map_expr ~f:f' step,
        List.map (map_statement ~f:f') body )

(* --- Generate-for unrolling --------------------------------------------- *)

let max_generate_iterations = 4096

(* Substitute a genvar (or any identifier) inside a module item; instance
   names gain the standard "label[v]." prefix. *)
let rec map_item ~f ~inst_prefix (item : Ast.item) : Ast.item =
  match item with
  | Ast.Decl _ -> error "declarations inside generate-for are not supported"
  | Ast.Parameter _ -> error "parameters inside generate-for are not supported"
  | Ast.Assign (lv, e) -> Ast.Assign (map_lvalue ~f lv, map_expr ~f e)
  | Ast.Always (edge, body) -> Ast.Always (edge, List.map (map_statement ~f) body)
  | Ast.Instance { module_name; instance_name; parameters; connections } ->
    let map_connection = function
      | Ast.Positional e -> Ast.Positional (map_expr ~f e)
      | Ast.Named (port, e) -> Ast.Named (port, Option.map (map_expr ~f) e)
    in
    Ast.Instance
      { module_name;
        instance_name = inst_prefix ^ instance_name;
        parameters = List.map map_connection parameters;
        connections = List.map map_connection connections }
  | Ast.Genfor { genvar; init; cond; step; label; body } ->
    (* The inner genvar shadows. *)
    let f' name = if name = genvar then Ast.Ident name else f name in
    Ast.Genfor
      { genvar;
        init = map_expr ~f init;
        cond = map_expr ~f:f' cond;
        step = map_expr ~f:f' step;
        label;
        body = List.map (map_item ~f:f' ~inst_prefix) body }

let rec expand_genfors ~env items =
  List.concat_map
    (fun (item : Ast.item) ->
       match item with
       | Ast.Genfor { genvar; init; cond; step; label; body } ->
         let subst v name =
           if name = genvar then Ast.Number { width = None; value = v }
           else Ast.Ident name
         in
         let rec iterate v count acc =
           if count > max_generate_iterations then
             error "generate-for on %s exceeds the unroll limit" genvar;
           if eval_const ~env (map_expr ~f:(subst v) cond) = 0 then
             List.concat (List.rev acc)
           else begin
             let block_name =
               Printf.sprintf "%s[%d]." (Option.value label ~default:genvar) v
             in
             let body' =
               List.map (map_item ~f:(subst v) ~inst_prefix:block_name) body
             in
             let body' = expand_genfors ~env body' in
             let next = eval_const ~env (map_expr ~f:(subst v) step) in
             iterate next (count + 1) (body' :: acc)
           end
         in
         iterate (eval_const ~env init) 0 []
       | _ -> [ item ])
    items

(* --- For-loop unrolling ------------------------------------------------ *)

let max_loop_iterations = 65536

let rec unroll_statement (s : Ast.statement) : Ast.statement list =
  match s with
  | Ast.Blocking _ | Ast.Nonblocking _ -> [ s ]
  | Ast.If (c, t, e) ->
    [ Ast.If (c, unroll_statements t, unroll_statements e) ]
  | Ast.Case (subject, arms, default) ->
    [ Ast.Case
        ( subject,
          List.map (fun (labels, body) -> (labels, unroll_statements body)) arms,
          Option.map unroll_statements default ) ]
  | Ast.For (var, init, cond, step_var, step, body) ->
    if step_var <> var then
      error "for-loop step must assign the loop variable %s" var;
    let subst v name = if name = var then Ast.Number { width = None; value = v } else Ast.Ident name in
    let rec iterate v count acc =
      if count > max_loop_iterations then error "for-loop on %s exceeds unroll limit" var;
      if eval_const (map_expr ~f:(subst v) cond) = 0 then List.concat (List.rev acc)
      else begin
        let body' = List.map (map_statement ~f:(subst v)) body in
        let next = eval_const (map_expr ~f:(subst v) step) in
        iterate next (count + 1) (unroll_statements body' :: acc)
      end
    in
    iterate (eval_const init) 0 []

and unroll_statements stmts = List.concat_map unroll_statement stmts

(* --- Module elaboration ------------------------------------------------ *)

let find_module design name =
  match List.find_opt (fun m -> m.Ast.module_name = name) design with
  | Some m -> m
  | None -> error "unknown module %s" name

(* Convert a port-connection expression into an lvalue (for outputs). *)
let rec lvalue_of_expr = function
  | Ast.Ident name -> Ast.Lident name
  | Ast.Index (name, i) -> Ast.Lindex (name, i)
  | Ast.Select (name, msb, lsb) -> Ast.Lselect (name, msb, lsb)
  | Ast.Concat es -> Ast.Lconcat (List.map lvalue_of_expr es)
  | e -> error "output port connection %s is not assignable" (Ast.expr_to_string e)

type partial = {
  mutable p_nets : (string * net) list;  (* reverse order *)
  mutable p_assigns : (Ast.lvalue * Ast.expr) list;  (* reverse order *)
  mutable p_clocked : (Ast.edge * Ast.statement list) list;
  mutable p_comb : Ast.statement list list;
}

let rec elaborate_module design ~instance_stack ~prefix ~param_overrides ~into m =
  if List.length instance_stack > 64 then
    error "instantiation too deep (recursive modules?)";
  (* Pass 1: parameters. *)
  let params = ref [] in
  List.iter
    (function
      | Ast.Parameter (name, e) ->
        let value =
          match List.assoc_opt name param_overrides with
          | Some v -> v
          | None -> eval_const ~env:!params e
        in
        params := (name, value) :: !params
      | _ -> ())
    m.Ast.items;
  let params = !params in
  (* Identifier substitution: parameters become numbers, everything else is
     prefixed with the instance path. *)
  let subst name =
    match List.assoc_opt name params with
    | Some v -> Ast.Number { width = None; value = v }
    | None -> Ast.Ident (prefix ^ name)
  in
  (* Expand generate-for constructs before anything looks at the items. *)
  let module_items = expand_genfors ~env:params m.Ast.items in
  (* Pass 2: declarations, merged by name. *)
  let decls = Hashtbl.create 16 in
  let decl_order = ref [] in
  List.iter
    (function
      | Ast.Decl d when d.Ast.kind = Some Ast.Genvar -> ()
      | Ast.Decl d ->
        let name = d.Ast.decl_name in
        if List.assoc_opt name params <> None then
          error "%s declared as both net and parameter" name;
        let existing = Hashtbl.find_opt decls name in
        if existing = None then decl_order := name :: !decl_order;
        let merged =
          match existing with
          | None -> d
          | Some (prev : Ast.decl) ->
            { Ast.decl_name = name;
              dir = (match d.Ast.dir with Some _ -> d.Ast.dir | None -> prev.Ast.dir);
              kind = (match d.Ast.kind with Some _ -> d.Ast.kind | None -> prev.Ast.kind);
              range =
                (match d.Ast.range with Some _ -> d.Ast.range | None -> prev.Ast.range) }
        in
        Hashtbl.replace decls name merged
      | _ -> ())
    module_items;
  let net_of_decl (d : Ast.decl) =
    let width, left, right =
      match d.Ast.kind, d.Ast.range with
      | Some (Ast.Integer | Ast.Genvar), None -> (32, 31, 0)
      | _, None -> (1, 0, 0)
      | _, Some (left_e, right_e) ->
        let left = eval_const ~env:params left_e in
        let right = eval_const ~env:params right_e in
        (abs (left - right) + 1, left, right)
    in
    if width > max_width then
      error "%s: width %d exceeds the supported maximum %d" d.Ast.decl_name width max_width;
    { width;
      left;
      right;
      is_reg =
        (d.Ast.kind = Some Ast.Reg || d.Ast.kind = Some Ast.Integer
         || d.Ast.kind = Some Ast.Genvar);
      dir = d.Ast.dir }
  in
  List.iter
    (fun name ->
       let d = Hashtbl.find decls name in
       let net = net_of_decl d in
       (* Ports of inlined child instances become plain internal nets. *)
       let net = if prefix = "" then net else { net with dir = None } in
       into.p_nets <- (prefix ^ name, net) :: into.p_nets)
    (List.rev !decl_order);
  (* Pass 3: behaviour. *)
  List.iter
    (function
      | Ast.Decl _ | Ast.Parameter _ -> ()
      | Ast.Genfor _ -> assert false (* expanded above *)
      | Ast.Assign (lv, e) ->
        into.p_assigns <- (map_lvalue ~f:subst lv, map_expr ~f:subst e) :: into.p_assigns
      | Ast.Always (edge, body) ->
        let body = unroll_statements (List.map (map_statement ~f:subst) body) in
        let edge =
          match edge with
          | Ast.Posedge clk -> Ast.Posedge (prefix ^ clk)
          | Ast.Negedge clk -> Ast.Negedge (prefix ^ clk)
          | Ast.Star -> Ast.Star
        in
        (match edge with
         | Ast.Star -> into.p_comb <- body :: into.p_comb
         | Ast.Posedge _ | Ast.Negedge _ ->
           into.p_clocked <- (edge, body) :: into.p_clocked)
      | Ast.Instance { module_name; instance_name; parameters; connections } ->
        let child = find_module design module_name in
        if List.mem module_name instance_stack then
          error "recursive instantiation of module %s" module_name;
        let child_prefix = prefix ^ instance_name ^ "." in
        (* Parameter overrides, evaluated in the parent's constant env. *)
        let child_params = collect_params child in
        let overrides =
          List.mapi
            (fun i conn ->
               match conn with
               | Ast.Named (p, Some e) -> (p, eval_const ~env:params (map_expr ~f:subst e))
               | Ast.Named (p, None) -> error "empty parameter override .%s()" p
               | Ast.Positional e ->
                 (match List.nth_opt child_params i with
                  | Some p -> (p, eval_const ~env:params (map_expr ~f:subst e))
                  | None -> error "too many parameter overrides for %s" module_name))
            parameters
        in
        elaborate_module design
          ~instance_stack:(module_name :: instance_stack)
          ~prefix:child_prefix ~param_overrides:overrides ~into child;
        (* Port connections become assigns at the boundary. *)
        let child_ports = child.Ast.ports in
        let connection_for idx port =
          let named =
            List.find_map
              (function
                | Ast.Named (p, e) when p = port -> Some e
                | _ -> None)
              connections
          in
          match named with
          | Some e -> Some e
          | None ->
            if List.exists (function Ast.Named _ -> true | _ -> false) connections
            then None
            else (
              match List.nth_opt connections idx with
              | Some (Ast.Positional e) -> Some (Some e)
              | _ -> None)
        in
        List.iteri
          (fun idx port ->
             let dir = port_direction child port in
             match connection_for idx port with
             | None | Some None -> () (* unconnected *)
             | Some (Some parent_expr) ->
               let parent_expr = map_expr ~f:subst parent_expr in
               let child_name = child_prefix ^ port in
               (match dir with
                | Ast.Input ->
                  into.p_assigns <-
                    (Ast.Lident child_name, parent_expr) :: into.p_assigns
                | Ast.Output ->
                  into.p_assigns <-
                    (lvalue_of_expr parent_expr, Ast.Ident child_name)
                    :: into.p_assigns))
          child_ports)
    module_items

and collect_params m =
  List.filter_map
    (function Ast.Parameter (name, _) -> Some name | _ -> None)
    m.Ast.items

and port_direction m port =
  let dir =
    List.find_map
      (function
        | Ast.Decl d when d.Ast.decl_name = port -> d.Ast.dir
        | _ -> None)
      m.Ast.items
  in
  match dir with
  | Some d -> d
  | None -> error "port %s of module %s has no direction" port m.Ast.module_name

let elaborate ?top design =
  if design = [] then error "empty design";
  let top_module =
    match top with
    | Some name -> find_module design name
    | None -> List.nth design (List.length design - 1)
  in
  let into = { p_nets = []; p_assigns = []; p_clocked = []; p_comb = [] } in
  elaborate_module design ~instance_stack:[ top_module.Ast.module_name ] ~prefix:""
    ~param_overrides:[] ~into top_module;
  let nets = List.rev into.p_nets in
  let ports =
    List.map
      (fun port ->
         (* EDIF names bit i of port x "x[i]", and QMASM pins say x[i] too,
            so an escaped name such as \x[1] would read back as a bit of
            another port. *)
         if String.exists (fun c -> c = '[' || c = ']') port then
           error "port %s: a port name may not contain '[' or ']'" port;
         (* edif2qmasm's text must read back as the statements it builds,
            so a port name must be one QMASM symbol: a '#' starts a
            comment, ":=" a pin, a leading '!' a directive, and a line's
            ends are trimmed of control characters. *)
         let rec has_assign i =
           i + 1 < String.length port
           && ((port.[i] = ':' && port.[i + 1] = '=') || has_assign (i + 1))
         in
         if port = "" || port.[0] = '!' || has_assign 0
            || String.exists (fun c -> c = '#' || c < ' ') port
         then
           error
             "port %S: a port name may not be empty, start with '!', or contain '#', \":=\" \
              or a control character"
             port;
         match List.assoc_opt port nets with
         | Some { dir = Some d; width; _ } -> (port, d, width)
         | Some { dir = None; _ } -> error "port %s has no direction" port
         | None -> error "port %s is not declared" port)
      top_module.Ast.ports
  in
  { name = top_module.Ast.module_name;
    ports;
    nets;
    assigns = List.rev into.p_assigns;
    clocked = List.rev into.p_clocked;
    comb = List.rev into.p_comb }

let find_net t name = List.assoc_opt name t.nets

let net_width t name =
  match find_net t name with
  | Some n -> n.width
  | None -> error "undeclared identifier %s" name
