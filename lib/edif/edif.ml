module S = Qac_sexp.Sexp
module N = Qac_netlist.Netlist

let error fmt = Qac_diag.Diag.error ~stage:"edif" fmt

(* --- Naming ------------------------------------------------------------- *)

let is_plain_ident s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

(* EDIF names must be simple identifiers; anything else goes through
   (rename <sanitized> "<original>"). *)
let name_sexp original =
  if is_plain_ident original then S.atom original
  else begin
    let sanitized =
      String.map (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9') as c -> c | _ -> '_') original
    in
    let sanitized =
      if original <> "" && (match original.[0] with 'a' .. 'z' | 'A' .. 'Z' -> true | _ -> false)
      then sanitized
      else "n_" ^ sanitized
    in
    S.list [ S.atom "rename"; S.atom sanitized; S.atom original ]
  end

let original_of_name_sexp = function
  | S.Atom s -> s
  | S.List [ S.Atom "rename"; _; S.Atom original ] -> original
  | s -> error "malformed EDIF name: %s" (S.to_string_compact s)

(* Port-bit naming: bit [i] of multi-bit port [p] is "p[i]"; single-bit
   ports keep their name. *)
let port_bit_name name width i =
  if width = 1 then name else String.concat "" [ name; "["; string_of_int i; "]" ]

let parse_port_bit name =
  match String.index_opt name '[' with
  | None -> (name, None)
  | Some open_idx ->
    if String.length name = 0 || name.[String.length name - 1] <> ']' then (name, None)
    else begin
      let base = String.sub name 0 open_idx in
      let digits = String.sub name (open_idx + 1) (String.length name - open_idx - 2) in
      match int_of_string_opt digits with
      | Some bit -> (base, Some bit)
      | None -> (name, None)
    end

(* --- Cell library ------------------------------------------------------- *)

let cell_ports kind =
  match kind with
  | N.Not -> ([ "A" ], "Y")
  | N.And | N.Or | N.Nand | N.Nor | N.Xor | N.Xnor -> ([ "A"; "B" ], "Y")
  | N.Mux -> ([ "A"; "B"; "S" ], "Y")
  | N.Aoi3 | N.Oai3 -> ([ "A"; "B"; "C" ], "Y")
  | N.Aoi4 | N.Oai4 -> ([ "A"; "B"; "C"; "D" ], "Y")
  | N.Dff_p | N.Dff_n -> ([ "D" ], "Q")


let cell_decl ~name ~inputs ~output =
  S.list
    [ S.atom "cell";
      S.atom name;
      S.list [ S.atom "cellType"; S.atom "GENERIC" ];
      S.list
        ([ S.atom "view";
           S.atom "netlist";
           S.list [ S.atom "viewType"; S.atom "NETLIST" ];
           S.list
             (S.atom "interface"
              :: (List.map
                    (fun p ->
                       S.list
                         [ S.atom "port";
                           S.atom p;
                           S.list [ S.atom "direction"; S.atom "INPUT" ] ])
                    inputs
                  @ [ S.list
                        [ S.atom "port";
                          S.atom output;
                          S.list [ S.atom "direction"; S.atom "OUTPUT" ] ] ])) ]) ]

(* --- Emission ------------------------------------------------------------ *)

(* "id%05d" of [idx + 1], without the cost of a format. *)
let instance_name idx =
  let digits = string_of_int (idx + 1) in
  String.concat "" [ "id"; String.make (max 0 (5 - String.length digits)) '0'; digits ]

let to_sexp (t : N.t) =
  let used_kinds = List.map fst (N.cells_by_kind t) in
  let fanout = N.fanout_counts t in
  let uses_const value =
    let check = function
      | N.Zero -> value = false
      | N.One -> value = true
      | N.Net _ -> false
    in
    Array.exists (fun (c : N.cell) -> Array.exists check c.N.inputs) t.N.cells
    || List.exists (fun (_, signals) -> Array.exists check signals) t.N.outputs
  in
  let uses_gnd = uses_const false and uses_vcc = uses_const true in
  (* Library of used cells. *)
  let cells_library =
    let decls =
      List.map
        (fun kind ->
           let inputs, output = cell_ports kind in
           cell_decl ~name:(N.kind_name kind) ~inputs ~output)
        used_kinds
      @ (if uses_gnd then [ cell_decl ~name:"GND" ~inputs:[] ~output:"Y" ] else [])
      @ if uses_vcc then [ cell_decl ~name:"VCC" ~inputs:[] ~output:"Y" ] else []
    in
    S.list
      (S.atom "library" :: S.atom "cells"
       :: S.list [ S.atom "edifLevel"; S.atom "0" ]
       :: S.list [ S.atom "technology"; S.list [ S.atom "numberDefinition" ] ]
       :: decls)
  in
  (* Interface: one scalar port per bit. *)
  let interface =
    let ports =
      List.concat_map
        (fun (name, nets) ->
           let width = Array.length nets in
           List.init width (fun i ->
               S.list
                 [ S.atom "port";
                   name_sexp (port_bit_name name width i);
                   S.list [ S.atom "direction"; S.atom "INPUT" ] ]))
        t.N.inputs
      @ List.concat_map
          (fun (name, signals) ->
             let width = Array.length signals in
             List.init width (fun i ->
                 S.list
                   [ S.atom "port";
                     name_sexp (port_bit_name name width i);
                     S.list [ S.atom "direction"; S.atom "OUTPUT" ] ]))
          t.N.outputs
    in
    S.list (S.atom "interface" :: ports)
  in
  (* Instances. *)
  let inst_names = Array.init (Array.length t.N.cells) instance_name in
  let instances =
    List.mapi
      (fun idx (c : N.cell) ->
         S.list
           [ S.atom "instance";
             S.atom inst_names.(idx);
             S.list
               [ S.atom "viewRef";
                 S.atom "netlist";
                 S.list
                   [ S.atom "cellRef";
                     S.atom (N.kind_name c.N.kind);
                     S.list [ S.atom "libraryRef"; S.atom "cells" ] ] ] ])
      (Array.to_list t.N.cells)
  in
  let gnd_instance = "const_gnd" and vcc_instance = "const_vcc" in
  let const_instances =
    (if uses_gnd then
       [ S.list
           [ S.atom "instance";
             S.atom gnd_instance;
             S.list
               [ S.atom "viewRef";
                 S.atom "netlist";
                 S.list
                   [ S.atom "cellRef";
                     S.atom "GND";
                     S.list [ S.atom "libraryRef"; S.atom "cells" ] ] ] ] ]
     else [])
    @
    if uses_vcc then
      [ S.list
          [ S.atom "instance";
            S.atom vcc_instance;
            S.list
              [ S.atom "viewRef";
                S.atom "netlist";
                S.list
                  [ S.atom "cellRef";
                    S.atom "VCC";
                    S.list [ S.atom "libraryRef"; S.atom "cells" ] ] ] ] ]
    else []
  in
  (* Nets: for every netlist net, one EDIF net joining its driver port to
     every sink port.  Signals Zero/One join the GND/VCC nets. *)
  let portref port = S.list [ S.atom "portRef"; name_sexp port ] in
  let portref_on port inst =
    S.list
      [ S.atom "portRef";
        S.atom port;
        S.list [ S.atom "instanceRef"; S.atom inst ] ]
  in
  (* Connection points per net id (latest first), and for the two
     constants. *)
  let net_points = Array.make t.N.num_nets [] in
  let gnd_points = ref [] and vcc_points = ref [] in
  let add_point signal point =
    match signal with
    | N.Zero -> gnd_points := point :: !gnd_points
    | N.One -> vcc_points := point :: !vcc_points
    | N.Net n -> net_points.(n) <- point :: net_points.(n)
  in
  (* Drivers. *)
  List.iter
    (fun (name, nets) ->
       let width = Array.length nets in
       Array.iteri
         (fun i n -> add_point (N.Net n) (portref (port_bit_name name width i)))
         nets)
    t.N.inputs;
  Array.iteri
    (fun idx (c : N.cell) ->
       let _, output = cell_ports c.N.kind in
       add_point (N.Net c.N.out) (portref_on output inst_names.(idx)))
    t.N.cells;
  if uses_gnd then gnd_points := portref_on "Y" gnd_instance :: !gnd_points;
  if uses_vcc then vcc_points := portref_on "Y" vcc_instance :: !vcc_points;
  (* Sinks. *)
  Array.iteri
    (fun idx (c : N.cell) ->
       let inputs, _ = cell_ports c.N.kind in
       List.iteri
         (fun k port -> add_point c.N.inputs.(k) (portref_on port inst_names.(idx)))
         inputs)
    t.N.cells;
  List.iter
    (fun (name, signals) ->
       let width = Array.length signals in
       Array.iteri
         (fun i s -> add_point s (portref (port_bit_name name width i)))
         signals)
    t.N.outputs;
  let net n points =
    S.list [ S.atom "net"; name_sexp n; S.list (S.atom "joined" :: List.rev points) ]
  in
  let nets =
    List.concat
      [ List.filter_map
          (fun n ->
             match net_points.(n) with
             | [] -> None
             | [ _ ] when fanout.(n) = 0 -> None
             | points -> Some (net ("$" ^ string_of_int n) points))
          (List.init t.N.num_nets Fun.id);
        (if !gnd_points = [] then [] else [ net "$gnd" !gnd_points ]);
        (if !vcc_points = [] then [] else [ net "$vcc" !vcc_points ]) ]
  in
  let contents = S.list ((S.atom "contents" :: instances) @ const_instances @ nets) in
  let design_cell =
    S.list
      [ S.atom "cell";
        name_sexp t.N.name;
        S.list [ S.atom "cellType"; S.atom "GENERIC" ];
        S.list
          [ S.atom "view";
            S.atom "netlist";
            S.list [ S.atom "viewType"; S.atom "NETLIST" ];
            interface;
            contents ] ]
  in
  let design_library =
    S.list
      [ S.atom "library";
        S.atom "DESIGN";
        S.list [ S.atom "edifLevel"; S.atom "0" ];
        S.list [ S.atom "technology"; S.list [ S.atom "numberDefinition" ] ];
        design_cell ]
  in
  S.list
    [ S.atom "edif";
      name_sexp t.N.name;
      S.list [ S.atom "edifVersion"; S.atom "2"; S.atom "0"; S.atom "0" ];
      S.list [ S.atom "edifLevel"; S.atom "0" ];
      S.list [ S.atom "keywordMap"; S.list [ S.atom "keywordLevel"; S.atom "0" ] ];
      cells_library;
      design_library;
      S.list
        [ S.atom "design";
          name_sexp t.N.name;
          S.list
            [ S.atom "cellRef";
              name_sexp t.N.name;
              S.list [ S.atom "libraryRef"; S.atom "DESIGN" ] ] ] ]

let to_string t = S.to_string (to_sexp t)

(* --- Parsing ------------------------------------------------------------- *)

module Stbl = Hashtbl.Make (String)

type direction = Input | Output | Other

type parsed_port = {
  mutable dir : direction;
  mutable max_bit : int;
  mutable declared : int;  (* scalar ports declared for this base name *)
}

type parsed_instance = {
  iname : string;
  kind : string;  (* cell name: a gate, GND or VCC *)
  mutable sinks : (string * int) list;  (* input port -> net index, latest first *)
  mutable out : N.signal option;
  mutable busy : bool;
}

(* What a portRef names: a module port, or a pin of an instance.  A name
   with no instance is an error only if a driver search reaches it. *)
type endpoint = Module_port | Instance of parsed_instance | Unknown_instance of string

let find1 ~tag sexp what =
  match S.find ~tag sexp with
  | Some s -> s
  | None -> error "missing (%s ...) in %s" tag what

let find_item ~tag items = List.find_opt (S.has_tag ~tag) items

let of_sexp sexp =
  (match sexp with
   | S.List (S.Atom tag :: _) when S.tag_equal tag "edif" -> ()
   | _ -> error "not an EDIF file");
  (* Find the design cell: prefer the library named DESIGN, else the last
     library's last cell. *)
  let libraries = S.find_all ~tag:"library" sexp in
  if libraries = [] then error "no libraries";
  let design_lib =
    match
      List.find_opt
        (fun lib ->
           match lib with
           | S.List (_ :: name :: _) -> S.tag_equal (original_of_name_sexp name) "DESIGN"
           | _ -> false)
        libraries
    with
    | Some lib -> lib
    | None -> List.nth libraries (List.length libraries - 1)
  in
  let design_cells = S.find_all ~tag:"cell" design_lib in
  if design_cells = [] then error "design library has no cells";
  let cell = List.nth design_cells (List.length design_cells - 1) in
  let module_name =
    match cell with
    | S.List (_ :: name :: _) -> original_of_name_sexp name
    | _ -> error "malformed design cell"
  in
  let view = find1 ~tag:"view" cell "design cell" in
  let interface = find1 ~tag:"interface" view "view" in
  let contents = find1 ~tag:"contents" view "view" in
  (* Ports: each scalar port is one bit of the port named by its base. *)
  let ports = Stbl.create 16 in
  let port_order = ref [] in
  List.iter
    (fun port ->
       match port with
       | S.List (_ :: name :: rest) ->
         let original = original_of_name_sexp name in
         let dir =
           match
             List.find_map
               (function
                 | S.List [ S.Atom d; S.Atom v ] when S.tag_equal d "direction" ->
                   Some
                     (if S.tag_equal v "INPUT" then Input
                      else if S.tag_equal v "OUTPUT" then Output
                      else Other)
                 | _ -> None)
               rest
           with
           | Some d -> d
           | None -> error "port %s has no direction" original
         in
         let base, bit = parse_port_bit original in
         let p =
           match Stbl.find_opt ports base with
           | Some p -> p
           | None ->
             let p = { dir; max_bit = 0; declared = 0 } in
             Stbl.add ports base p;
             port_order := base :: !port_order;
             p
         in
         p.dir <- dir;
         p.max_bit <- max p.max_bit (Option.value bit ~default:0);
         p.declared <- p.declared + 1
       | _ -> error "malformed port")
    (S.find_all ~tag:"port" interface);
  let port_order = List.rev !port_order in
  (* A port is as wide as its highest bit, and every bit is declared as a
     scalar port, so no port is wider than its declarations: this bounds
     what a hostile bit index can make us allocate. *)
  let width base =
    let p = Stbl.find ports base in
    if p.max_bit >= p.declared then
      error "port %s declares bit %d but only %d bit(s)" base p.max_bit p.declared;
    p.max_bit + 1
  in
  let dir_of base = match Stbl.find_opt ports base with Some p -> p.dir | None -> Other in
  (* Instances. *)
  let instances = Stbl.create 64 in
  let instance_order = ref [] in
  List.iter
    (fun inst ->
       match inst with
       | S.List (_ :: name :: rest) ->
         let iname = original_of_name_sexp name in
         let view_ref =
           match find_item ~tag:"viewRef" rest with
           | Some vr -> vr
           | None -> error "instance %s has no viewRef" iname
         in
         let kind =
           match find1 ~tag:"cellRef" view_ref "viewRef" with
           | S.List (_ :: kname :: _) -> original_of_name_sexp kname
           | _ -> error "malformed cellRef"
         in
         if Stbl.mem instances iname then error "instance %s declared twice" iname;
         let i = { iname; kind; sinks = []; out = None; busy = false } in
         Stbl.add instances iname i;
         instance_order := i :: !instance_order
       | _ -> error "malformed instance")
    (S.find_all ~tag:"instance" contents);
  let instance_order = List.rev !instance_order in
  (* Nets: (port, endpoint) connection points. *)
  let nets =
    List.map
      (fun net ->
         match net with
         | S.List (_ :: name :: rest) ->
           let nname = original_of_name_sexp name in
           let joined =
             match find_item ~tag:"joined" rest with
             | Some j -> j
             | None -> error "net %s has no joined" nname
           in
           let points =
             List.map
               (fun pr ->
                  match pr with
                  | S.List (S.Atom _ :: pname :: rest') ->
                    let port = original_of_name_sexp pname in
                    let endpoint =
                      match
                        List.find_map
                          (function
                            | S.List [ S.Atom t; iname ] when S.tag_equal t "instanceRef" ->
                              Some (original_of_name_sexp iname)
                            | _ -> None)
                          rest'
                      with
                      | None -> Module_port
                      | Some iname ->
                        (match Stbl.find_opt instances iname with
                         | Some i -> Instance i
                         | None -> Unknown_instance iname)
                    in
                    (port, endpoint)
                  | _ -> error "malformed portRef in net %s" nname)
               (S.find_all ~tag:"portRef" joined)
           in
           (nname, points)
         | _ -> error "malformed net")
      (S.find_all ~tag:"net" contents)
    |> Array.of_list
  in
  (* Build the netlist. *)
  let b = N.Builder.create module_name in
  (* Input ports (in interface order). *)
  let input_signals = Stbl.create 16 in
  List.iter
    (fun base ->
       if dir_of base = Input then
         Stbl.replace input_signals base (N.Builder.add_input b base (width base)))
    port_order;
  (* Map each net to its driving source. *)
  let driver_of_net points =
    List.find_map
      (fun (port, endpoint) ->
         match endpoint with
         | Module_port ->
           (* A module port: drivers are input ports. *)
           let base, bit = parse_port_bit port in
           if dir_of base = Input then Some (`Input (base, Option.value bit ~default:0))
           else None
         | Unknown_instance iname -> error "portRef to unknown instance %s" iname
         | Instance i ->
           if i.kind = "GND" && port = "Y" then Some `Gnd
           else if i.kind = "VCC" && port = "Y" then Some `Vcc
           else
             (match N.kind_of_name i.kind with
              | Some k ->
                let _, output = cell_ports k in
                if port = output then Some (`Cell i) else None
              | None -> error "unknown cell kind %s" i.kind))
      points
  in
  (* Sinks: each instance's input ports, and each output port bit, map to
     the last net that joins them. *)
  let output_port_net = Stbl.create 16 in
  Array.iteri
    (fun net_idx (_, points) ->
       List.iter
         (fun (port, endpoint) ->
            match endpoint with
            | Instance i -> i.sinks <- (port, net_idx) :: i.sinks
            | Unknown_instance _ -> ()
            | Module_port ->
              let base, _ = parse_port_bit port in
              if dir_of base = Output then Stbl.replace output_port_net port net_idx)
         points)
    nets;
  (* Demand-driven construction. *)
  let signal_memo = Array.make (Array.length nets) None in
  (* Flip-flops first, as placeholders. *)
  List.iter
    (fun i ->
       match N.kind_of_name i.kind with
       | Some N.Dff_p -> i.out <- Some (N.Builder.dff_placeholder b ~edge:`Pos)
       | Some N.Dff_n -> i.out <- Some (N.Builder.dff_placeholder b ~edge:`Neg)
       | _ -> ())
    instance_order;
  let rec signal_of_net net_idx =
    match signal_memo.(net_idx) with
    | Some s -> s
    | None ->
      let nname, points = nets.(net_idx) in
      let s =
        match driver_of_net points with
        | Some (`Input (base, bit)) ->
          let signals = Stbl.find input_signals base in
          if bit < 0 || bit >= Array.length signals then
            error "net %s driven by unknown input %s[%d]" nname base bit;
          signals.(bit)
        | Some `Gnd -> N.Zero
        | Some `Vcc -> N.One
        | Some (`Cell i) -> instance_signal i
        | None -> error "net %s has no driver" nname
      in
      signal_memo.(net_idx) <- Some s;
      s
  and instance_signal i =
    match i.out with
    | Some s -> s
    | None ->
      if i.busy then error "combinational cycle through %s" i.iname;
      i.busy <- true;
      let k =
        match N.kind_of_name i.kind with
        | Some k -> k
        | None -> error "unknown cell kind %s" i.kind
      in
      let inputs, _ = cell_ports k in
      let input_signals =
        List.map
          (fun port ->
             match List.assoc_opt port i.sinks with
             | Some net_idx -> signal_of_net net_idx
             | None -> error "instance %s input %s unconnected" i.iname port)
          inputs
      in
      let s = N.Builder.raw_cell b k (Array.of_list input_signals) in
      i.busy <- false;
      i.out <- Some s;
      s
  in
  (* Connect flip-flop D inputs. *)
  List.iter
    (fun i ->
       match N.kind_of_name i.kind, i.out with
       | Some (N.Dff_p | N.Dff_n), Some q ->
         let d =
           match List.assoc_opt "D" i.sinks with
           | Some net_idx -> signal_of_net net_idx
           | None -> error "flip-flop %s has unconnected D" i.iname
         in
         N.Builder.connect_dff b ~q ~d
       | _ -> ())
    instance_order;
  (* Output ports. *)
  List.iter
    (fun base ->
       if dir_of base = Output then begin
         let width = width base in
         let signals =
           Array.init width (fun i ->
               match Stbl.find_opt output_port_net (port_bit_name base width i) with
               | Some net_idx -> signal_of_net net_idx
               | None -> N.Zero)
         in
         N.Builder.set_output b base signals
       end)
    port_order;
  N.Builder.build b

let of_string src =
  match S.parse_string src with
  | sexp -> of_sexp sexp
  | exception S.Parse_error msg -> error "malformed s-expression: %s" msg

(* Lines of [src]: its newlines, plus one for a last line without one (so
   the empty string counts as one line). *)
let line_count src =
  let newlines = ref 0 in
  for i = 0 to String.length src - 1 do
    if String.unsafe_get src i = '\n' then incr newlines
  done;
  if src <> "" && src.[String.length src - 1] = '\n' then !newlines else !newlines + 1
