(** Line-oriented parser for QMASM source. *)

let error fmt = Qac_diag.Diag.error ~stage:"qmasm-parse" fmt

(* --- Assertion expressions --------------------------------------------- *)

(* A small Pratt parser over the character string following "!assert". *)

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None
let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t') ->
    advance c;
    skip_ws c
  | _ -> ()

let looking_at c s =
  c.pos + String.length s <= String.length c.src
  && String.sub c.src c.pos (String.length s) = s

let accept c s =
  skip_ws c;
  if looking_at c s then begin
    c.pos <- c.pos + String.length s;
    true
  end
  else false

let is_sym_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '$' | '.' | '@' -> true
  | _ -> false

let read_symbol c =
  skip_ws c;
  let start = c.pos in
  while (match peek c with Some ch -> is_sym_char ch | None -> false) do
    advance c
  done;
  if c.pos = start then error "expected symbol at column %d" start;
  String.sub c.src start (c.pos - start)

let read_int c =
  skip_ws c;
  let start = c.pos in
  while (match peek c with Some ('0' .. '9') -> true | _ -> false) do
    advance c
  done;
  if c.pos = start then error "expected number at column %d" start;
  let digits = String.sub c.src start (c.pos - start) in
  match int_of_string_opt digits with
  | Some v -> v
  | None -> error "number %s out of range at column %d" digits start

(* Symbol, possibly with [i] or [msb:lsb]. *)
let read_operand_symbol c =
  let name = read_symbol c in
  if accept c "[" then begin
    let first = read_int c in
    if accept c ":" then begin
      let lsb = read_int c in
      if not (accept c "]") then error "expected ]";
      Ast.Sym_range (name, first, lsb)
    end
    else begin
      if not (accept c "]") then error "expected ]";
      Ast.Sym_bit (name, first)
    end
  end
  else Ast.Sym name

let rec parse_aexpr c = parse_arith c 1

and parse_arith c min_bp =
  let lhs = ref (parse_aunary c) in
  let continue_ = ref true in
  while !continue_ do
    skip_ws c;
    let try_op s op bp =
      if bp >= min_bp && accept c s then begin
        let rhs = parse_arith c (bp + 1) in
        lhs := Ast.Arith (op, !lhs, rhs);
        true
      end
      else false
    in
    (* Single-character operators must not swallow the first character of
       "/=", "&&" or "||". *)
    let not_at s =
      skip_ws c;
      not (looking_at c s)
    in
    let matched =
      try_op "<<" Ast.A_shl 4 || try_op ">>" Ast.A_shr 4 || try_op "+" Ast.A_add 5
      || try_op "-" Ast.A_sub 5 || try_op "*" Ast.A_mul 6 || try_op "%" Ast.A_mod 6
      || try_op "//" Ast.A_div 6
      || (not_at "/=" && try_op "/" Ast.A_div 6)
      || (not_at "&&" && try_op "&" Ast.A_and 2)
      || try_op "^" Ast.A_xor 3
      || (not_at "||" && try_op "|" Ast.A_or 1)
    in
    if not matched then continue_ := false
  done;
  !lhs

and parse_aunary c =
  skip_ws c;
  if accept c "-" then Ast.Neg (parse_aunary c)
  else if accept c "~" then Ast.Bnot (parse_aunary c)
  else if accept c "(" then begin
    let e = parse_aexpr c in
    skip_ws c;
    if not (accept c ")") then error "expected )";
    e
  end
  else begin
    skip_ws c;
    match peek c with
    | Some '0' .. '9' -> Ast.Int (read_int c)
    | _ -> read_operand_symbol c
  end

let parse_cmp c =
  let lhs = parse_aexpr c in
  skip_ws c;
  let op =
    if accept c "/=" then Ast.C_ne
    else if accept c "!=" then Ast.C_ne
    else if accept c "<=" then Ast.C_le
    else if accept c ">=" then Ast.C_ge
    else if accept c "<" then Ast.C_lt
    else if accept c ">" then Ast.C_gt
    else if accept c "==" then Ast.C_eq
    else if accept c "=" then Ast.C_eq
    else error "expected comparison operator at column %d" c.pos
  in
  let rhs = parse_aexpr c in
  Ast.Cmp (op, lhs, rhs)

let rec parse_bexpr c =
  let lhs = parse_band c in
  if accept c "||" then Ast.Or (lhs, parse_bexpr c) else lhs

and parse_band c =
  let lhs = parse_cmp c in
  if accept c "&&" then Ast.And (lhs, parse_band c) else lhs

let parse_assertion src =
  let c = { src; pos = 0 } in
  let b = parse_bexpr c in
  skip_ws c;
  (match peek c with
   | Some _ -> error "trailing characters in assertion: %s" src
   | None -> ());
  b

(* --- Pins ---------------------------------------------------------------- *)

(* "C[7:0] := 10001111", "A := true", "x := 5" (integer fits the range). *)
let parse_pin lhs rhs =
  let c = { src = lhs; pos = 0 } in
  let operand = read_operand_symbol c in
  skip_ws c;
  (match peek c with
   | Some _ -> error "bad pin target %s" lhs
   | None -> ());
  let rhs = String.trim rhs in
  let bool_of s =
    match String.lowercase_ascii s with
    | "true" | "1" -> true
    | "false" | "0" -> false
    | _ -> error "bad pin value %s" s
  in
  match operand with
  | Ast.Sym name -> [ (name, bool_of rhs) ]
  | Ast.Sym_bit (name, i) -> [ (Printf.sprintf "%s[%d]" name i, bool_of rhs) ]
  | Ast.Sym_range (name, msb, lsb) ->
    let width = abs (msb - lsb) + 1 in
    let step = if msb >= lsb then -1 else 1 in
    let bits =
      if String.for_all (fun ch -> ch = '0' || ch = '1') rhs
         && String.length rhs = width then
        (* A binary string, MSB first. *)
        List.init width (fun k -> rhs.[k] = '1')
      else
        match int_of_string_opt rhs with
        | Some v ->
          if v < 0 || (width < 62 && v >= 1 lsl width) then
            error "pin value %d out of range for %d bits" v width
          else List.init width (fun k -> (v lsr (width - 1 - k)) land 1 = 1)
        | None -> error "bad pin value %s" rhs
    in
    (* Pair MSB-first bit values with indices msb, msb+step, ... *)
    List.mapi (fun k bit -> (Printf.sprintf "%s[%d]" name (msb + (k * step)), bit)) bits
  | _ -> error "bad pin target %s" lhs

(* --- Statements ----------------------------------------------------------- *)

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

(* The non-empty runs of [s] between spaces and tabs. *)
let split_ws s =
  let tokens = ref [] and stop = ref (String.length s) in
  for i = String.length s - 1 downto -1 do
    if i < 0 || s.[i] = ' ' || s.[i] = '\t' then begin
      if !stop > i + 1 then tokens := String.sub s (i + 1) (!stop - i - 1) :: !tokens;
      stop := i
    end
  done;
  !tokens

let parse_line line_number line =
  let line = strip_comment line in
  let trimmed = String.trim line in
  if trimmed = "" then []
  else begin
    let fail fmt = Qac_diag.Diag.error ~stage:"qmasm-parse" ~line:line_number fmt in
    Qac_diag.Diag.locate ~line:line_number @@ fun () ->
      if String.length trimmed > 0 && trimmed.[0] = '!' then begin
        let tokens = split_ws trimmed in
        match tokens with
        | "!include" :: rest ->
          let arg = String.concat " " rest in
          let arg = String.trim arg in
          let arg =
            let n = String.length arg in
            if n >= 2
               && ((arg.[0] = '"' && arg.[n - 1] = '"')
                  || (arg.[0] = '<' && arg.[n - 1] = '>'))
            then String.sub arg 1 (n - 2)
            else arg
          in
          [ Ast.Include arg ]
        | [ "!begin_macro"; name ] -> [ Ast.Begin_macro name ]
        | [ "!end_macro"; name ] -> [ Ast.End_macro name ]
        | "!use_macro" :: name :: insts when insts <> [] ->
          [ Ast.Use_macro (name, insts) ]
        | [ "!alias"; a; b ] -> [ Ast.Alias (a, b) ]
        | "!assert" :: _ ->
          let body = String.sub trimmed 7 (String.length trimmed - 7) in
          [ Ast.Assertion (parse_assertion body) ]
        | directive :: _ -> fail "unknown or malformed directive %s" directive
        | [] -> assert false
      end
      else begin
        (* Pin lines contain ":=". *)
        match Str_split.find_substring trimmed ":=" with
        | Some i ->
          let lhs = String.sub trimmed 0 i in
          let rhs = String.sub trimmed (i + 2) (String.length trimmed - i - 2) in
          [ Ast.Pin (parse_pin (String.trim lhs) rhs) ]
        | None ->
          let tokens = split_ws trimmed in
          (match tokens with
           | [ a; "="; b ] -> [ Ast.Chain (a, b) ]
           | [ a; "/="; b ] -> [ Ast.Anti_chain (a, b) ]
           | [ a; w ] ->
             (match float_of_string_opt w with
              | Some weight -> [ Ast.Weight (a, weight) ]
              | None -> fail "bad weight %s" w)
           | [ a; b; j ] ->
             (match float_of_string_opt j with
              | Some strength -> [ Ast.Coupler (a, b, strength) ]
              | None -> fail "bad coupler strength %s" j)
           | _ -> fail "unrecognized statement: %s" trimmed)
      end
  end

let parse_string src =
  String.split_on_char '\n' src
  |> List.mapi (fun i line -> parse_line (i + 1) line)
  |> List.concat

let line_count src =
  (* Statement-bearing lines, the section 6.1 metric. *)
  String.split_on_char '\n' src
  |> List.filter (fun line -> String.trim (strip_comment line) <> "")
  |> List.length
