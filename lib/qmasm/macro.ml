(** Macro and include expansion.

    [!use_macro M inst] instantiates macro [M] with every symbol prefixed by
    ["inst."] (so [A] inside the macro becomes [inst.A], referable from the
    outside as in section 4.3.5's Listing 4).  Macros may use other macros;
    prefixes compose.  [!include <file>] splices another source file, with
    the file's statements supplied by a [resolve] callback, so the standard-cell
    library can live in memory, parsed once. *)

let error fmt = Qac_diag.Diag.error ~stage:"qmasm-expand" fmt

let rename_stmt ~f (stmt : Ast.stmt) =
  match stmt with
  | Ast.Weight (a, w) -> Ast.Weight (f a, w)
  | Ast.Coupler (a, b, j) -> Ast.Coupler (f a, f b, j)
  | Ast.Chain (a, b) -> Ast.Chain (f a, f b)
  | Ast.Anti_chain (a, b) -> Ast.Anti_chain (f a, f b)
  | Ast.Pin pins -> Ast.Pin (List.map (fun (name, v) -> (f name, v)) pins)
  | Ast.Alias (a, b) -> Ast.Alias (f a, f b)
  | Ast.Assertion b -> Ast.Assertion (Ast.map_bexpr ~f b)
  | Ast.Include _ | Ast.Begin_macro _ | Ast.End_macro _ -> stmt
  | Ast.Use_macro (m, insts) -> Ast.Use_macro (m, List.map f insts)

let max_expansion_depth = 64

let expand ~resolve stmts =
  let macros : (string, Ast.stmt list) Hashtbl.t = Hashtbl.create 16 in
  let rec go depth ~include_stack stmts =
    if depth > max_expansion_depth then error "macro expansion too deep";
    let rec loop acc = function
      | [] -> List.rev acc
      | Ast.Begin_macro name :: rest ->
        let rec collect body = function
          | [] -> error "unterminated macro %s" name
          | Ast.End_macro name' :: rest' ->
            if name' <> name then
              error "!end_macro %s does not match !begin_macro %s" name' name;
            (List.rev body, rest')
          | stmt :: rest' -> collect (stmt :: body) rest'
        in
        let body, rest = collect [] rest in
        if Hashtbl.mem macros name then error "macro %s redefined" name;
        Hashtbl.replace macros name body;
        loop acc rest
      | Ast.End_macro name :: _ -> error "stray !end_macro %s" name
      | Ast.Use_macro (name, insts) :: rest ->
        let body =
          match Hashtbl.find_opt macros name with
          | Some body -> body
          | None -> error "use of undefined macro %s" name
        in
        let expanded =
          List.concat_map
            (fun inst ->
               let prefix = inst ^ "." in
               let renamed = List.map (rename_stmt ~f:(fun name -> prefix ^ name)) body in
               (* A macro body's own Use_macro instances were renamed with
                  the full prefix, so prefixes compose. *)
               go (depth + 1) ~include_stack renamed)
            insts
        in
        loop (List.rev_append expanded acc) rest
      | Ast.Include file :: rest ->
        if List.mem file include_stack then error "circular !include of %s" file;
        let file_stmts =
          match resolve file with
          | Some stmts -> stmts
          | None -> error "cannot resolve !include %s" file
        in
        let included =
          go (depth + 1) ~include_stack:(file :: include_stack) file_stmts
        in
        loop (List.rev_append included acc) rest
      | stmt :: rest -> loop (stmt :: acc) rest
    in
    loop [] stmts
  in
  go 0 ~include_stack:[] stmts
