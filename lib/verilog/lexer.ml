(** Hand-written lexer for the Verilog subset. *)

type token =
  | Id of string
  | Int of int  (** plain decimal literal *)
  | Sized of int * int  (** [4'b1010] -> [(4, 10)] *)
  | Kw of string  (** reserved word *)
  | Sym of string  (** operator or punctuation *)
  | Eof

let error fmt = Qac_diag.Diag.error ~stage:"verilog-lex" fmt

let keywords =
  [ "module"; "endmodule"; "input"; "output"; "inout"; "wire"; "reg"; "integer";
    "assign"; "always"; "if"; "else"; "begin"; "end"; "case"; "casez"; "endcase";
    "default"; "posedge"; "negedge"; "or"; "parameter"; "localparam"; "for";
    "initial"; "function"; "endfunction"; "genvar"; "generate"; "endgenerate" ]

type t = {
  src : string;
  mutable pos : int;
  mutable line : int;
}

let create src = { src; pos = 0; line = 1 }

let peek_char lx = if lx.pos < String.length lx.src then Some lx.src.[lx.pos] else None

let peek_char2 lx =
  if lx.pos + 1 < String.length lx.src then Some lx.src.[lx.pos + 1] else None

let advance lx =
  (match peek_char lx with Some '\n' -> lx.line <- lx.line + 1 | _ -> ());
  lx.pos <- lx.pos + 1

let is_id_start = function 'a' .. 'z' | 'A' .. 'Z' | '_' | '\\' -> true | _ -> false
let is_id_char = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '$' -> true | _ -> false
let is_digit = function '0' .. '9' -> true | _ -> false

let rec skip_trivia lx =
  match peek_char lx with
  | Some (' ' | '\t' | '\r' | '\n') ->
    advance lx;
    skip_trivia lx
  | Some '/' when peek_char2 lx = Some '/' ->
    let rec to_eol () =
      match peek_char lx with
      | Some '\n' | None -> ()
      | Some _ ->
        advance lx;
        to_eol ()
    in
    to_eol ();
    skip_trivia lx
  | Some '/' when peek_char2 lx = Some '*' ->
    advance lx;
    advance lx;
    let rec to_close () =
      match peek_char lx, peek_char2 lx with
      | Some '*', Some '/' ->
        advance lx;
        advance lx
      | None, _ -> error "line %d: unterminated block comment" lx.line
      | Some _, _ ->
        advance lx;
        to_close ()
    in
    to_close ();
    skip_trivia lx
  | Some '`' ->
    (* Preprocessor directives: skip the rest of the line. *)
    let rec to_eol () =
      match peek_char lx with
      | Some '\n' | None -> ()
      | Some _ ->
        advance lx;
        to_eol ()
    in
    to_eol ();
    skip_trivia lx
  | Some _ | None -> ()

let read_while lx pred =
  let start = lx.pos in
  let rec loop () =
    match peek_char lx with
    | Some c when pred c ->
      advance lx;
      loop ()
    | Some _ | None -> ()
  in
  loop ();
  String.sub lx.src start (lx.pos - start)

let digit_value base c =
  let v =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> 99
  in
  if v >= base then None else Some v

(* The digits of a based literal; underscores are separators. *)
let read_based_value lx ~base ~line =
  let digits = read_while lx (fun c -> is_id_char c) in
  if digits = "" then error "line %d: missing digits in based literal" line;
  let value = ref 0 in
  String.iter
    (fun c ->
       if c <> '_' then
         match digit_value base c with
         | Some v ->
           if !value > (max_int - v) / base then
             error "line %d: based literal %s out of range" line digits;
           value := (!value * base) + v
         | None -> error "line %d: bad digit %c for base %d" line c base)
    digits;
  !value

let next lx =
  skip_trivia lx;
  let line = lx.line in
  match peek_char lx with
  | None -> (Eof, line)
  | Some c when is_digit c ->
    let digits = read_while lx (fun ch -> is_digit ch || ch = '_') in
    let value =
      match int_of_string_opt (String.concat "" (String.split_on_char '_' digits)) with
      | Some v -> v
      | None -> error "line %d: integer literal %s out of range" line digits
    in
    (* A size prefix?  [4'b1010] *)
    if peek_char lx = Some '\'' then begin
      advance lx;
      let base_char = peek_char lx in
      (match base_char with
       | Some ('b' | 'B') ->
         advance lx;
         (Sized (value, read_based_value lx ~base:2 ~line), line)
       | Some ('o' | 'O') ->
         advance lx;
         (Sized (value, read_based_value lx ~base:8 ~line), line)
       | Some ('d' | 'D') ->
         advance lx;
         (Sized (value, read_based_value lx ~base:10 ~line), line)
       | Some ('h' | 'H') ->
         advance lx;
         (Sized (value, read_based_value lx ~base:16 ~line), line)
       | _ -> error "line %d: bad base in sized literal" line)
    end
    else (Int value, line)
  | Some '\'' ->
    (* Unsized based literal 'b101: treat as 32-bit. *)
    advance lx;
    (match peek_char lx with
     | Some ('b' | 'B') ->
       advance lx;
       (Sized (32, read_based_value lx ~base:2 ~line), line)
     | Some ('o' | 'O') ->
       advance lx;
       (Sized (32, read_based_value lx ~base:8 ~line), line)
     | Some ('d' | 'D') ->
       advance lx;
       (Sized (32, read_based_value lx ~base:10 ~line), line)
     | Some ('h' | 'H') ->
       advance lx;
       (Sized (32, read_based_value lx ~base:16 ~line), line)
     | _ -> error "line %d: bad base in literal" line)
  | Some c when is_id_start c ->
    if c = '\\' then begin
      (* Escaped identifier: up to whitespace. *)
      advance lx;
      let name = read_while lx (fun ch -> ch <> ' ' && ch <> '\t' && ch <> '\n') in
      (Id name, line)
    end
    else begin
      let name = read_while lx is_id_char in
      if List.mem name keywords then (Kw name, line) else (Id name, line)
    end
  | Some c ->
    let two =
      if lx.pos + 1 < String.length lx.src then
        Some (String.sub lx.src lx.pos 2)
      else None
    in
    let three =
      if lx.pos + 2 < String.length lx.src then
        Some (String.sub lx.src lx.pos 3)
      else None
    in
    (match three with
     | Some (("===" | "!==" | "<<<" | ">>>") as s) ->
       advance lx;
       advance lx;
       advance lx;
       (* Case equality and arithmetic shifts degrade to 2-state versions. *)
       let degraded =
         match s with "===" -> "==" | "!==" -> "!=" | "<<<" -> "<<" | _ -> ">>"
       in
       (Sym degraded, line)
     | _ ->
       (match two with
        | Some (("&&" | "||" | "==" | "!=" | "<=" | ">=" | "<<" | ">>" | "~^" | "^~"
                | "~&" | "~|") as s) ->
          advance lx;
          advance lx;
          (Sym (if s = "^~" then "~^" else s), line)
        | _ ->
          (match c with
           | '(' | ')' | '[' | ']' | '{' | '}' | ',' | ';' | ':' | '.' | '=' | '<'
           | '>' | '&' | '|' | '^' | '~' | '!' | '+' | '-' | '*' | '/' | '%' | '?'
           | '@' | '#' ->
             advance lx;
             (Sym (String.make 1 c), line)
           | _ -> error "line %d: unexpected character %C" line c)))

let tokenize src =
  let lx = create src in
  let rec loop acc =
    match next lx with
    | (Eof, line) -> List.rev ((Eof, line) :: acc)
    | tok -> loop (tok :: acc)
  in
  loop []
