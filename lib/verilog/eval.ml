let error fmt = Qac_diag.Diag.error ~stage:"verilog-eval" fmt

let mask width v = if width >= 63 then v else v land ((1 lsl width) - 1)

(* How a net (or some of its bits) gets its value. *)
type driver =
  | From_input
  | From_state  (** assigned in a clocked block *)
  | From_comb_block of int  (** index into [comb_blocks] *)
  | From_assigns  (** one or more continuous assigns cover (some) bits *)
  | Undriven

type t = {
  m : Elab.t;
  (* name -> (assign index, offset) per covered bit, indexed by storage bit *)
  assign_bits : (string, (int * int) option array) Hashtbl.t;
  assigns : (Ast.expr * int) array;  (* rhs, context width *)
  driver : (string, driver) Hashtbl.t;
  comb_blocks : Ast.statement list array;
  comb_targets : string list array;  (* names each comb block assigns *)
  clocked_regs : string list;
}

(* Self-determined width of an expression. *)
let rec self_width (m : Elab.t) (e : Ast.expr) =
  match e with
  | Ast.Number { width = Some w; _ } -> w
  | Ast.Number { width = None; _ } -> 32
  | Ast.Ident name -> Elab.net_width m name
  | Ast.Index _ -> 1
  | Ast.Select (_, msb, lsb) -> abs (Elab.eval_const msb - Elab.eval_const lsb) + 1
  | Ast.Concat es -> List.fold_left (fun acc x -> acc + self_width m x) 0 es
  | Ast.Replicate (n, x) -> Elab.eval_const n * self_width m x
  | Ast.Unop ((Ast.Bit_not | Ast.Negate), a) -> self_width m a
  | Ast.Unop (_, _) -> 1
  | Ast.Binop
      ( ( Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod | Ast.Bit_and | Ast.Bit_or
        | Ast.Bit_xor | Ast.Bit_xnor ),
        a,
        b ) ->
    max (self_width m a) (self_width m b)
  | Ast.Binop ((Ast.Shl | Ast.Shr), a, _) -> self_width m a
  | Ast.Binop (_, _, _) -> 1
  | Ast.Ternary (_, a, b) -> max (self_width m a) (self_width m b)

let create (m : Elab.t) =
  let driver = Hashtbl.create 32 in
  let assign_bits = Hashtbl.create 32 in
  List.iter
    (fun (name, (net : Elab.net)) ->
       if net.Elab.dir = Some Ast.Input then Hashtbl.replace driver name From_input
       else Hashtbl.replace driver name Undriven;
       ignore net)
    m.Elab.nets;
  (* Continuous assigns, registered per bit at assign granularity so that
     separate assigns to different bits of one net (Listing 5's x[1]..x[10])
     do not look like a combinational cycle. *)
  let assigns =
    Array.of_list
      (List.map
         (fun (lv, e) ->
            let total_width = List.length (Eval_positions.positions m lv) in
            (e, max total_width (self_width m e)))
         m.Elab.assigns)
  in
  List.iteri
    (fun idx (lv, _) ->
       let positions = Eval_positions.positions m lv in
       List.iteri
         (fun offset (name, bit) ->
            let arr =
              match Hashtbl.find_opt assign_bits name with
              | Some arr -> arr
              | None ->
                let w = Elab.net_width m name in
                let arr = Array.make w None in
                Hashtbl.replace assign_bits name arr;
                arr
            in
            (match arr.(bit) with
             | Some _ -> error "multiple continuous assignments drive %s" name
             | None -> ());
            arr.(bit) <- Some (idx, offset);
            (match Hashtbl.find_opt driver name with
             | Some From_input -> error "continuous assignment drives input port %s" name
             | Some (From_state | From_comb_block _) ->
               error "%s driven by both a procedural block and an assign" name
             | Some (From_assigns | Undriven) | None ->
               Hashtbl.replace driver name From_assigns))
         positions)
    m.Elab.assigns;
  (* Procedural blocks. *)
  let rec assigned_names stmts =
    List.concat_map
      (function
        | Ast.Blocking (lv, _) | Ast.Nonblocking (lv, _) ->
          List.map fst (Eval_positions.positions m lv)
        | Ast.If (_, a, b) -> assigned_names a @ assigned_names b
        | Ast.Case (_, arms, default) ->
          List.concat_map (fun (_, body) -> assigned_names body) arms
          @ (match default with Some d -> assigned_names d | None -> [])
        | Ast.For (_, _, _, _, _, body) -> assigned_names body)
      stmts
  in
  let comb_blocks = Array.of_list m.Elab.comb in
  let comb_targets =
    Array.map (fun stmts -> List.sort_uniq compare (assigned_names stmts)) comb_blocks
  in
  Array.iteri
    (fun idx targets ->
       List.iter
         (fun name ->
            match Hashtbl.find_opt driver name with
            | Some (From_comb_block j) when j = idx -> ()
            | Some Undriven | None -> Hashtbl.replace driver name (From_comb_block idx)
            | Some _ -> error "%s has multiple drivers" name)
         targets)
    comb_targets;
  let clocked_regs = ref [] in
  List.iter
    (fun (_, stmts) ->
       List.iter
         (fun name ->
            match Hashtbl.find_opt driver name with
            | Some From_state -> ()
            | Some Undriven | None ->
              Hashtbl.replace driver name From_state;
              clocked_regs := name :: !clocked_regs
            | Some _ -> error "%s has multiple drivers" name)
         (List.sort_uniq compare (assigned_names stmts)))
    m.Elab.clocked;
  { m;
    assign_bits;
    assigns;
    driver;
    comb_blocks;
    comb_targets;
    clocked_regs = List.sort_uniq compare !clocked_regs }

let width t name = Elab.net_width t.m name

(* --- Evaluation context ------------------------------------------------ *)

type ctx = {
  t : t;
  inputs : (string, int) Hashtbl.t;
  state : (string, int) Hashtbl.t;
  memo : (string, int) Hashtbl.t;
  busy : (string, unit) Hashtbl.t;
  (* per-evaluation cache of comb-block results *)
  block_memo : (int, (string, int) Hashtbl.t) Hashtbl.t;
  block_busy : (int, unit) Hashtbl.t;
  assign_memo : (int, int) Hashtbl.t;
  assign_busy : (int, unit) Hashtbl.t;
}

let rec net_value ctx name =
  match Hashtbl.find_opt ctx.memo name with
  | Some v -> v
  | None ->
    let w = Elab.net_width ctx.t.m name in
    let v =
      match Hashtbl.find_opt ctx.t.driver name with
      | Some From_input ->
        (match Hashtbl.find_opt ctx.inputs name with
         | Some v -> mask w v
         | None -> error "missing input %s" name)
      | Some From_state ->
        (match Hashtbl.find_opt ctx.state name with
         | Some v -> v
         | None -> 0)
      | Some (From_comb_block idx) ->
        let results = run_comb_block ctx idx in
        (match Hashtbl.find_opt results name with
         | Some v -> v
         | None -> error "combinational block does not always assign %s" name)
      | Some From_assigns ->
        let arr = Hashtbl.find ctx.t.assign_bits name in
        let v = ref 0 in
        Array.iteri
          (fun bit src ->
             match src with
             | None -> ()
             | Some (idx, offset) ->
               if (assign_value ctx idx lsr offset) land 1 = 1 then v := !v lor (1 lsl bit))
          arr;
        !v
      | Some Undriven | None -> 0
    in
    Hashtbl.replace ctx.memo name v;
    v

and net_bit ctx name bit =
  (* Reads one bit; goes through the per-assign path when possible so that
     bitwise-assigned nets are not treated as whole-net dependencies. *)
  match Hashtbl.find_opt ctx.memo name with
  | Some v -> (v lsr bit) land 1
  | None ->
    (match Hashtbl.find_opt ctx.t.driver name with
     | Some From_assigns ->
       let arr = Hashtbl.find ctx.t.assign_bits name in
       (match arr.(bit) with
        | Some (idx, offset) -> (assign_value ctx idx lsr offset) land 1
        | None -> 0)
     | _ -> (net_value ctx name lsr bit) land 1)

and assign_value ctx idx =
  match Hashtbl.find_opt ctx.assign_memo idx with
  | Some v -> v
  | None ->
    if Hashtbl.mem ctx.assign_busy idx then
      error "combinational cycle through assignment %d" idx;
    Hashtbl.replace ctx.assign_busy idx ();
    let e, context = ctx.t.assigns.(idx) in
    let v = eval_expr ctx e context in
    Hashtbl.remove ctx.assign_busy idx;
    Hashtbl.replace ctx.assign_memo idx v;
    v

and eval_expr ctx (e : Ast.expr) context_width =
  let m = ctx.t.m in
  let w = context_width in
  match e with
  | Ast.Number { value; _ } -> mask w value
  | Ast.Ident name -> mask w (net_value ctx name)
  | Ast.Index (name, i) ->
    let net =
      match Elab.find_net m name with
      | Some n -> n
      | None -> error "undeclared identifier %s" name
    in
    net_bit ctx name (Elab.storage_bit net (Elab.eval_const i))
  | Ast.Select (name, msb, lsb) ->
    let net =
      match Elab.find_net m name with
      | Some n -> n
      | None -> error "undeclared identifier %s" name
    in
    let low, width = Elab.select_bits net (Elab.eval_const msb) (Elab.eval_const lsb) in
    let v = ref 0 in
    for k = 0 to width - 1 do
      if net_bit ctx name (low + k) = 1 then v := !v lor (1 lsl k)
    done;
    mask w !v
  | Ast.Concat es ->
    (* First element is most significant. *)
    let v = ref 0 in
    List.iter
      (fun x ->
         let xw = self_width m x in
         v := (!v lsl xw) lor eval_expr ctx x xw)
      es;
    mask w !v
  | Ast.Replicate (n, x) ->
    let count = Elab.eval_const n in
    let xw = self_width m x in
    let xv = eval_expr ctx x xw in
    let v = ref 0 in
    for _ = 1 to count do
      v := (!v lsl xw) lor xv
    done;
    mask w !v
  | Ast.Unop (op, a) ->
    (match op with
     | Ast.Bit_not -> mask w (lnot (eval_expr ctx a w))
     | Ast.Negate -> mask w (-eval_expr ctx a w)
     | Ast.Log_not -> if eval_expr ctx a (self_width m a) = 0 then 1 else 0
     | Ast.Reduce_and ->
       let aw = self_width m a in
       if eval_expr ctx a aw = mask aw (-1) then 1 else 0
     | Ast.Reduce_or -> if eval_expr ctx a (self_width m a) <> 0 then 1 else 0
     | Ast.Reduce_xor ->
       let rec popcount v acc = if v = 0 then acc else popcount (v lsr 1) (acc + (v land 1)) in
       popcount (eval_expr ctx a (self_width m a)) 0 land 1
     | Ast.Reduce_nand ->
       let aw = self_width m a in
       if eval_expr ctx a aw = mask aw (-1) then 0 else 1
     | Ast.Reduce_nor -> if eval_expr ctx a (self_width m a) = 0 then 1 else 0
     | Ast.Reduce_xnor ->
       let rec popcount v acc = if v = 0 then acc else popcount (v lsr 1) (acc + (v land 1)) in
       1 - (popcount (eval_expr ctx a (self_width m a)) 0 land 1))
  | Ast.Binop (op, a, b) ->
    let arith f =
      let va = eval_expr ctx a w and vb = eval_expr ctx b w in
      mask w (f va vb)
    in
    let compare_unsigned f =
      let cw = max (self_width m a) (self_width m b) in
      let va = eval_expr ctx a cw and vb = eval_expr ctx b cw in
      if f (compare va vb) 0 then 1 else 0
    in
    (match op with
     | Ast.Add -> arith ( + )
     | Ast.Sub -> arith ( - )
     | Ast.Mul -> arith ( * )
     | Ast.Div ->
       (* Division by zero yields all-ones, matching the synthesized
          restoring divider. *)
       arith (fun x y -> if y = 0 then -1 else x / y)
     | Ast.Mod -> arith (fun x y -> if y = 0 then x else x mod y)
     | Ast.Bit_and -> arith ( land )
     | Ast.Bit_or -> arith ( lor )
     | Ast.Bit_xor -> arith ( lxor )
     | Ast.Bit_xnor -> arith (fun x y -> lnot (x lxor y))
     | Ast.Log_and ->
       let va = eval_expr ctx a (self_width m a) in
       let vb = eval_expr ctx b (self_width m b) in
       if va <> 0 && vb <> 0 then 1 else 0
     | Ast.Log_or ->
       let va = eval_expr ctx a (self_width m a) in
       let vb = eval_expr ctx b (self_width m b) in
       if va <> 0 || vb <> 0 then 1 else 0
     | Ast.Eq -> compare_unsigned ( = )
     | Ast.Neq -> compare_unsigned ( <> )
     | Ast.Lt -> compare_unsigned ( < )
     | Ast.Le -> compare_unsigned ( <= )
     | Ast.Gt -> compare_unsigned ( > )
     | Ast.Ge -> compare_unsigned ( >= )
     | Ast.Shl ->
       let amount = eval_expr ctx b (self_width m b) in
       if amount >= w then 0 else mask w (eval_expr ctx a w lsl amount)
     | Ast.Shr ->
       let amount = eval_expr ctx b (self_width m b) in
       if amount >= w then 0 else mask w (eval_expr ctx a w lsr amount))
  | Ast.Ternary (c, a, b) ->
    if eval_expr ctx c (self_width m c) <> 0 then eval_expr ctx a w else eval_expr ctx b w

(* Execute a statement list.  [shadow] maps names to (value, defined_mask);
   reads fall back to [fallback name].  Nonblocking assignments are appended
   to [nb]. *)
and exec_statements ctx ~shadow ~fallback ~nb stmts =
  (* Expression evaluation inside a block sees shadowed values: temporarily
     override the memo table. *)
  let with_shadowed_reads f =
    let saved = Hashtbl.copy ctx.memo in
    let saved_assigns = Hashtbl.copy ctx.assign_memo in
    Hashtbl.iter
      (fun name (v, defined) ->
         (* Unwritten bits of a partially assigned target read as the
            fallback value. *)
         let base = fallback name in
         Hashtbl.replace ctx.memo name ((base land lnot defined) lor (v land defined)))
      shadow;
    Fun.protect
      ~finally:(fun () ->
        Hashtbl.reset ctx.memo;
        Hashtbl.iter (fun k v -> Hashtbl.replace ctx.memo k v) saved;
        Hashtbl.reset ctx.assign_memo;
        Hashtbl.iter (fun k v -> Hashtbl.replace ctx.assign_memo k v) saved_assigns)
      f
  in
  let eval_in_block e cw = with_shadowed_reads (fun () -> eval_expr ctx e cw) in
  let write_positions lv value =
    let positions = Eval_positions.positions ctx.t.m lv in
    List.iteri
      (fun offset (name, bit) ->
         let prev_v, prev_mask =
           match Hashtbl.find_opt shadow name with
           | Some entry -> entry
           | None -> (0, 0)
         in
         let bitval = (value lsr offset) land 1 in
         let v = if bitval = 1 then prev_v lor (1 lsl bit) else prev_v land lnot (1 lsl bit) in
         Hashtbl.replace shadow name (v, prev_mask lor (1 lsl bit)))
      positions
  in
  let rec exec stmts =
    List.iter
      (fun stmt ->
         match stmt with
         | Ast.Blocking (lv, e) ->
           let positions = Eval_positions.positions ctx.t.m lv in
           let total = List.length positions in
           let cw = max total (self_width ctx.t.m e) in
           write_positions lv (eval_in_block e cw)
         | Ast.Nonblocking (lv, e) ->
           let positions = Eval_positions.positions ctx.t.m lv in
           let total = List.length positions in
           let cw = max total (self_width ctx.t.m e) in
           let value = eval_in_block e cw in
           List.iteri
             (fun offset (name, bit) -> nb := (name, bit, (value lsr offset) land 1) :: !nb)
             positions
         | Ast.If (c, then_branch, else_branch) ->
           if eval_in_block c (self_width ctx.t.m c) <> 0 then exec then_branch
           else exec else_branch
         | Ast.Case (subject, arms, default) ->
           let widths =
             self_width ctx.t.m subject
             :: List.concat_map (fun (labels, _) -> List.map (self_width ctx.t.m) labels) arms
           in
           let cw = List.fold_left max 1 widths in
           let sv = eval_in_block subject cw in
           let rec pick = function
             | [] -> (match default with Some d -> exec d | None -> ())
             | (labels, body) :: rest ->
               if List.exists (fun l -> eval_in_block l cw = sv) labels then exec body
               else pick rest
           in
           pick arms
         | Ast.For _ -> error "for loops must be unrolled during elaboration")
      stmts
  in
  exec stmts

and run_comb_block ctx idx =
  match Hashtbl.find_opt ctx.block_memo idx with
  | Some results -> results
  | None ->
    if Hashtbl.mem ctx.block_busy idx then
      error "combinational block %d reads its own outputs (cycle)" idx;
    Hashtbl.replace ctx.block_busy idx ();
    let shadow = Hashtbl.create 8 in
    let nb = ref [] in
    (* Reading one of the block's own targets before it is assigned is latch
       behaviour; such bits read as 0 rather than demanding the net (which
       would be a spurious cycle through this very block). *)
    let targets = ctx.t.comb_targets.(idx) in
    let fallback name = if List.mem name targets then 0 else net_value ctx name in
    exec_statements ctx ~shadow ~fallback ~nb (ctx.t.comb_blocks.(idx));
    List.iter
      (fun (name, bit, v) ->
         let prev_v, prev_mask =
           match Hashtbl.find_opt shadow name with
           | Some entry -> entry
           | None -> (0, 0)
         in
         let value = if v = 1 then prev_v lor (1 lsl bit) else prev_v land lnot (1 lsl bit) in
         Hashtbl.replace shadow name (value, prev_mask lor (1 lsl bit)))
      !nb;
    let results = Hashtbl.create 8 in
    Hashtbl.iter
      (fun name (v, defined) ->
         let w = Elab.net_width ctx.t.m name in
         if defined <> mask w (-1) then
           error "combinational block leaves %s partially unassigned (latch)" name;
         Hashtbl.replace results name v)
      shadow;
    Hashtbl.remove ctx.block_busy idx;
    Hashtbl.replace ctx.block_memo idx results;
    results

(* --- Public API --------------------------------------------------------- *)

let make_ctx t ~inputs ~state =
  let input_tbl = Hashtbl.create 8 in
  List.iter
    (fun (name, v) ->
       match Elab.find_net t.m name with
       | Some net -> Hashtbl.replace input_tbl name (mask net.Elab.width v)
       | None -> error "unknown input %s" name)
    inputs;
  { t;
    inputs = input_tbl;
    state;
    memo = Hashtbl.create 32;
    busy = Hashtbl.create 8;
    block_memo = Hashtbl.create 4;
    block_busy = Hashtbl.create 4;
    assign_memo = Hashtbl.create 16;
    assign_busy = Hashtbl.create 16 }

let outputs_of_ctx ctx =
  List.filter_map
    (fun (name, dir, _) ->
       if dir = Ast.Output then Some (name, net_value ctx name) else None)
    ctx.t.m.Elab.ports

let comb_outputs t ~inputs =
  if t.m.Elab.clocked <> [] then error "comb_outputs on a sequential module";
  let ctx = make_ctx t ~inputs ~state:(Hashtbl.create 1) in
  outputs_of_ctx ctx

let peek t ~inputs name =
  let ctx = make_ctx t ~inputs ~state:(Hashtbl.create 1) in
  net_value ctx name

let initial_state t =
  let st = Hashtbl.create 8 in
  List.iter (fun name -> Hashtbl.replace st name 0) t.clocked_regs;
  st

let step t st ~inputs =
  let ctx = make_ctx t ~inputs ~state:st in
  let outputs = outputs_of_ctx ctx in
  let next = Hashtbl.copy st in
  List.iter
    (fun (_, stmts) ->
       let shadow = Hashtbl.create 8 in
       let nb = ref [] in
       exec_statements ctx ~shadow ~fallback:(fun name -> net_value ctx name) ~nb stmts;
       (* Blocking assignments inside clocked blocks persist immediately. *)
       Hashtbl.iter
         (fun name (v, defined) ->
            if Hashtbl.mem next name then begin
              let prev = try Hashtbl.find next name with Not_found -> 0 in
              Hashtbl.replace next name ((prev land lnot defined) lor (v land defined))
            end)
         shadow;
       List.iter
         (fun (name, bit, v) ->
            if Hashtbl.mem next name then begin
              let prev = try Hashtbl.find next name with Not_found -> 0 in
              Hashtbl.replace next name
                (if v = 1 then prev lor (1 lsl bit) else prev land lnot (1 lsl bit))
            end)
         !nb)
    t.m.Elab.clocked;
  (outputs, next)

let run t ~inputs =
  let rec go st acc = function
    | [] -> List.rev acc
    | cycle :: rest ->
      let outputs, st = step t st ~inputs:cycle in
      go st (outputs :: acc) rest
  in
  go (initial_state t) [] inputs
