type kind =
  | Not
  | And
  | Or
  | Nand
  | Nor
  | Xor
  | Xnor
  | Mux
  | Aoi3
  | Oai3
  | Aoi4
  | Oai4
  | Dff_p
  | Dff_n

let kind_name = function
  | Not -> "NOT"
  | And -> "AND"
  | Or -> "OR"
  | Nand -> "NAND"
  | Nor -> "NOR"
  | Xor -> "XOR"
  | Xnor -> "XNOR"
  | Mux -> "MUX"
  | Aoi3 -> "AOI3"
  | Oai3 -> "OAI3"
  | Aoi4 -> "AOI4"
  | Oai4 -> "OAI4"
  | Dff_p -> "DFF_P"
  | Dff_n -> "DFF_N"

let all_kinds =
  [ Not; And; Or; Nand; Nor; Xor; Xnor; Mux; Aoi3; Oai3; Aoi4; Oai4; Dff_p; Dff_n ]

let kind_of_name name =
  let wanted = String.uppercase_ascii name in
  List.find_opt (fun k -> kind_name k = wanted) all_kinds

let kind_arity = function
  | Not -> 1
  | And | Or | Nand | Nor | Xor | Xnor -> 2
  | Mux | Aoi3 | Oai3 -> 3
  | Aoi4 | Oai4 -> 4
  | Dff_p | Dff_n -> 1

let kind_logic kind v =
  match kind with
  | Not -> not v.(0)
  | And -> v.(0) && v.(1)
  | Or -> v.(0) || v.(1)
  | Nand -> not (v.(0) && v.(1))
  | Nor -> not (v.(0) || v.(1))
  | Xor -> v.(0) <> v.(1)
  | Xnor -> v.(0) = v.(1)
  | Mux -> if v.(2) then v.(1) else v.(0)
  | Aoi3 -> not ((v.(0) && v.(1)) || v.(2))
  | Oai3 -> not ((v.(0) || v.(1)) && v.(2))
  | Aoi4 -> not ((v.(0) && v.(1)) || (v.(2) && v.(3)))
  | Oai4 -> not ((v.(0) || v.(1)) && (v.(2) || v.(3)))
  | Dff_p | Dff_n -> v.(0)

type signal =
  | Zero
  | One
  | Net of int

type cell = {
  kind : kind;
  inputs : signal array;
  out : int;
}

type t = {
  name : string;
  num_nets : int;
  cells : cell array;
  inputs : (string * int array) list;
  outputs : (string * signal array) list;
}

(* Signals in [compare]'s order, Zero < One < Net 0 < Net 1 < ..., without
   the polymorphic primitive. *)
let signal_rank = function
  | Zero -> -2
  | One -> -1
  | Net n -> n

let signal_equal a b = signal_rank a = signal_rank b

(* Hash-consing keys: a cell's kind and inputs. *)
module Cell_key = struct
  type t = kind * signal array

  let equal ((k, a) : t) ((k', a') : t) =
    k == k'
    && Array.length a = Array.length a'
    &&
    let rec same i = i < 0 || (signal_equal a.(i) a'.(i) && same (i - 1)) in
    same (Array.length a - 1)

  let kind_code = function
    | Not -> 0
    | And -> 1
    | Or -> 2
    | Nand -> 3
    | Nor -> 4
    | Xor -> 5
    | Xnor -> 6
    | Mux -> 7
    | Aoi3 -> 8
    | Oai3 -> 9
    | Aoi4 -> 10
    | Oai4 -> 11
    | Dff_p -> 12
    | Dff_n -> 13

  let hash ((k, a) : t) =
    let h = ref (kind_code k) in
    for i = 0 to Array.length a - 1 do
      h := (!h * 65599) + signal_rank a.(i)
    done;
    (* Fold the high bits down: the table indexes by the low bits. *)
    let h = !h * 0x9E3779B1 in
    h lxor (h lsr 29)
end

module Cell_tbl = Hashtbl.Make (Cell_key)
module Int_tbl = Hashtbl.Make (Int)

module Builder = struct
  type t = {
    name : string;
    mutable num_nets : int;
    mutable cells_rev : cell list;
    mutable num_cells : int;
    mutable inputs_rev : (string * int array) list;
    mutable outputs_rev : (string * signal array) list;
    hashcons : signal Cell_tbl.t;
    (* net -> the Not cell input it is the complement of, for double-negation
       and complement-detection rewrites *)
    complement_of : signal Int_tbl.t;
    mutable pending_dffs : (signal * [ `Pos | `Neg ] * signal option ref) list;
  }

  let create name =
    { name;
      num_nets = 0;
      cells_rev = [];
      num_cells = 0;
      inputs_rev = [];
      outputs_rev = [];
      hashcons = Cell_tbl.create 256;
      complement_of = Int_tbl.create 64;
      pending_dffs = [] }

  let fresh_net b =
    let n = b.num_nets in
    b.num_nets <- n + 1;
    n

  let add_input b name width =
    if List.mem_assoc name b.inputs_rev then
      invalid_arg ("Builder.add_input: duplicate port " ^ name);
    let nets = Array.init width (fun _ -> fresh_net b) in
    b.inputs_rev <- (name, nets) :: b.inputs_rev;
    Array.map (fun n -> Net n) nets

  let set_output b name signals =
    if List.mem_assoc name b.outputs_rev then
      invalid_arg ("Builder.set_output: duplicate port " ^ name);
    b.outputs_rev <- (name, Array.copy signals) :: b.outputs_rev

  let is_commutative = function
    | And | Or | Nand | Nor | Xor | Xnor -> true
    | Not | Mux | Aoi3 | Oai3 | Aoi4 | Oai4 | Dff_p | Dff_n -> false

  (* Every commutative kind has two inputs. *)
  let canonical kind inputs =
    if is_commutative kind && signal_rank inputs.(0) > signal_rank inputs.(1) then
      [| inputs.(1); inputs.(0) |]
    else inputs

  let new_cell b kind inputs =
    let out = fresh_net b in
    b.cells_rev <- { kind; inputs; out } :: b.cells_rev;
    b.num_cells <- b.num_cells + 1;
    Net out

  let raw_cell b kind inputs =
    if Array.length inputs <> kind_arity kind then
      invalid_arg ("Builder.raw_cell: arity mismatch for " ^ kind_name kind);
    let inputs = canonical kind inputs in
    match Cell_tbl.find_opt b.hashcons (kind, inputs) with
    | Some s -> s
    | None ->
      let s = new_cell b kind inputs in
      Cell_tbl.add b.hashcons (kind, inputs) s;
      (match kind, s with
       | Not, Net out ->
         Int_tbl.replace b.complement_of out inputs.(0);
         (* Register the reverse direction too so not(not x) folds even when
            the inner Not was built first. *)
         (match inputs.(0) with
          | Net inner -> if not (Int_tbl.mem b.complement_of inner) then
              Int_tbl.replace b.complement_of inner s
          | Zero | One -> ())
       | _ -> ());
      s

  let complements b x y =
    match x, y with
    | Zero, One | One, Zero -> true
    | Net n, other | other, Net n ->
      (match Int_tbl.find_opt b.complement_of n with
       | Some c -> signal_equal c other
       | None -> false)
    | _ -> false

  let not_ b x =
    match x with
    | Zero -> One
    | One -> Zero
    | Net n ->
      (match Int_tbl.find_opt b.complement_of n with
       | Some c -> c
       | None -> raw_cell b Not [| x |])

  let and_ b x y =
    if x = Zero || y = Zero then Zero
    else if x = One then y
    else if y = One then x
    else if x = y then x
    else if complements b x y then Zero
    else raw_cell b And [| x; y |]

  let or_ b x y =
    if x = One || y = One then One
    else if x = Zero then y
    else if y = Zero then x
    else if x = y then x
    else if complements b x y then One
    else raw_cell b Or [| x; y |]

  let xor_ b x y =
    if x = Zero then y
    else if y = Zero then x
    else if x = One then not_ b y
    else if y = One then not_ b x
    else if x = y then Zero
    else if complements b x y then One
    else raw_cell b Xor [| x; y |]

  let nand_ b x y = not_ b (and_ b x y)
  let nor_ b x y = not_ b (or_ b x y)
  let xnor_ b x y = not_ b (xor_ b x y)

  let mux b ~sel ~a ~b:bb =
    match sel with
    | Zero -> a
    | One -> bb
    | Net _ ->
      if a = bb then a
      else if a = Zero && bb = One then sel
      else if a = One && bb = Zero then not_ b sel
      else if bb = Zero then and_ b (not_ b sel) a
      else if bb = One then or_ b sel a
      else if a = Zero then and_ b sel bb
      else if a = One then or_ b (not_ b sel) bb
      else if complements b a bb then xnor_ b sel bb
      else raw_cell b Mux [| a; bb; sel |]

  let dff_placeholder b ~edge =
    let q = fresh_net b in
    let dref = ref None in
    b.pending_dffs <- (Net q, edge, dref) :: b.pending_dffs;
    Net q

  let connect_dff b ~q ~d =
    let rec assign = function
      | [] -> invalid_arg "Builder.connect_dff: unknown placeholder"
      | (q', _, dref) :: rest ->
        if q' = q then
          match !dref with
          | Some _ -> invalid_arg "Builder.connect_dff: D already connected"
          | None -> dref := Some d
        else assign rest
    in
    assign b.pending_dffs

  let build b =
    let dff_cells =
      List.rev_map
        (fun (q, edge, dref) ->
           let d =
             match !dref with
             | Some d -> d
             | None -> invalid_arg "Builder.build: flip-flop with unconnected D"
           in
           let out = match q with Net n -> n | Zero | One -> assert false in
           { kind = (match edge with `Pos -> Dff_p | `Neg -> Dff_n);
             inputs = [| d |];
             out })
        b.pending_dffs
    in
    { name = b.name;
      num_nets = b.num_nets;
      cells = Array.of_list (List.rev b.cells_rev @ dff_cells);
      inputs = List.rev b.inputs_rev;
      outputs = List.rev b.outputs_rev }
end

let find_input t name = List.assoc_opt name t.inputs
let find_output t name = List.assoc_opt name t.outputs
let num_cells t = Array.length t.cells

let is_flip_flop_kind = function
  | Dff_p | Dff_n -> true
  | Not | And | Or | Nand | Nor | Xor | Xnor | Mux | Aoi3 | Oai3 | Aoi4 | Oai4 -> false

let num_flip_flops t =
  Array.fold_left
    (fun acc c -> if is_flip_flop_kind c.kind then acc + 1 else acc)
    0 t.cells

let is_combinational t = num_flip_flops t = 0

let fanout_counts t =
  let counts = Array.make t.num_nets 0 in
  let use = function
    | Net n -> counts.(n) <- counts.(n) + 1
    | Zero | One -> ()
  in
  Array.iter (fun (c : cell) -> Array.iter use c.inputs) t.cells;
  List.iter (fun (_, signals) -> Array.iter use signals) t.outputs;
  counts

let cells_by_kind t =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun c ->
       let prev = try Hashtbl.find tbl c.kind with Not_found -> 0 in
       Hashtbl.replace tbl c.kind (prev + 1))
    t.cells;
  List.filter_map
    (fun k -> match Hashtbl.find_opt tbl k with Some n -> Some (k, n) | None -> None)
    all_kinds

let cell_ancillas kind =
  match Qac_cells.Cells.find (kind_name kind) with
  | Some c -> c.Qac_cells.Cells.num_ancillas
  | None -> 0

let estimated_logical_vars t =
  let input_bits = List.fold_left (fun acc (_, nets) -> acc + Array.length nets) 0 t.inputs in
  Array.fold_left (fun acc c -> acc + 1 + cell_ancillas c.kind) input_bits t.cells
