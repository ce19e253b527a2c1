type t =
  | Atom of string
  | List of t list

exception Parse_error of string

let atom s = Atom s
let list l = List l

let parse_error fmt = Format.kasprintf (fun s -> raise (Parse_error s)) fmt

(* --- Reader ----------------------------------------------------------- *)

(* The reader scans [src] by index: no per-character allocation, and a
   quoted atom without escapes is one [String.sub]. *)
type cursor = { src : string; mutable pos : int }

let is_bare = function ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' -> false | _ -> true

(* Line comments are not EDIF but are convenient in tests. *)
let skip_space c =
  let src = c.src in
  let rec go i =
    if i >= String.length src then i
    else
      match String.unsafe_get src i with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1)
      | ';' ->
        go (match String.index_from_opt src i '\n' with Some eol -> eol | None -> String.length src)
      | _ -> i
  in
  c.pos <- go c.pos

let at_end c = c.pos >= String.length c.src

(* Called just past the opening quote; leaves [c] past the closing one. *)
let read_quoted c =
  let src = c.src and start = c.pos in
  let rec plain j =
    if j >= String.length src then parse_error "unterminated string at offset %d" j
    else
      match String.unsafe_get src j with
      | '"' ->
        c.pos <- j + 1;
        String.sub src start (j - start)
      | '\\' ->
        let buf = Buffer.create (j - start + 16) in
        Buffer.add_substring buf src start (j - start);
        escaped buf j
      | _ -> plain (j + 1)
  and escaped buf j =
    if j >= String.length src then parse_error "unterminated string at offset %d" j
    else
      match String.unsafe_get src j with
      | '"' ->
        c.pos <- j + 1;
        Buffer.contents buf
      | '\\' ->
        if j + 1 >= String.length src then parse_error "dangling escape at end of input";
        Buffer.add_char buf (String.unsafe_get src (j + 1));
        escaped buf (j + 2)
      | ch ->
        Buffer.add_char buf ch;
        escaped buf (j + 1)
  in
  plain start

(* The index of the first non-bare character at or after [i]. *)
let rec bare_end s i = if i < String.length s && is_bare (String.unsafe_get s i) then bare_end s (i + 1) else i

let read_bare c =
  let start = c.pos in
  c.pos <- bare_end c.src start;
  String.sub c.src start (c.pos - start)

let rec read_sexp c =
  skip_space c;
  if at_end c then parse_error "unexpected end of input";
  match String.unsafe_get c.src c.pos with
  | '(' ->
    c.pos <- c.pos + 1;
    read_items c []
  | ')' -> parse_error "unexpected ')' at offset %d" c.pos
  | '"' ->
    c.pos <- c.pos + 1;
    Atom (read_quoted c)
  | _ -> Atom (read_bare c)

and read_items c acc =
  skip_space c;
  if at_end c then parse_error "unterminated list";
  if String.unsafe_get c.src c.pos = ')' then begin
    c.pos <- c.pos + 1;
    List (List.rev acc)
  end
  else read_items c (read_sexp c :: acc)

let parse_string src =
  let c = { src; pos = 0 } in
  let s = read_sexp c in
  skip_space c;
  if not (at_end c) then parse_error "trailing garbage at offset %d" c.pos;
  s

let parse_many src =
  let c = { src; pos = 0 } in
  let rec loop acc =
    skip_space c;
    if at_end c then List.rev acc else loop (read_sexp c :: acc)
  in
  loop []

(* --- Printer ---------------------------------------------------------- *)

(* A bare atom may not start with [;], or the reader would take it for a
   comment. *)
let needs_quoting s = s = "" || s.[0] = ';' || bare_end s 0 < String.length s

let add_atom buf s =
  if needs_quoting s then begin
    Buffer.add_char buf '"';
    String.iter
      (fun ch ->
         if ch = '"' || ch = '\\' then Buffer.add_char buf '\\';
         Buffer.add_char buf ch)
      s;
    Buffer.add_char buf '"'
  end
  else Buffer.add_string buf s

let rec add_compact buf = function
  | Atom s -> add_atom buf s
  | List [] -> Buffer.add_string buf "()"
  | List (hd :: tl) ->
    Buffer.add_char buf '(';
    add_compact buf hd;
    List.iter
      (fun item ->
         Buffer.add_char buf ' ';
         add_compact buf item)
      tl;
    Buffer.add_char buf ')'

let to_string_compact s =
  let buf = Buffer.create 64 in
  add_compact buf s;
  Buffer.contents buf

(* A list goes on one line when its width is at most [max_width].  The
   width rule is the printer's output contract: an atom counts its
   unquoted length, and a list counts 2 plus one separator per item
   (n, not n - 1).  [fit s budget] is [budget - width s], except that it
   stops early and returns a negative number once the budget is spent, so
   deciding a node costs O(max_width), not O(size). *)
let max_width = 72

let rec fit s budget =
  if budget < 0 then budget
  else
    match s with
    | Atom a -> budget - String.length a
    | List items -> fit_items items (budget - 2)

and fit_items items budget =
  match items with
  | [] -> budget
  | _ when budget < 0 -> budget
  | item :: rest -> fit_items rest (fit item (budget - 1))

let spaces = String.make 64 ' '

let rec add_spaces buf n =
  if n > 0 then begin
    let k = min n (String.length spaces) in
    Buffer.add_substring buf spaces 0 k;
    add_spaces buf (n - k)
  end

let to_string sexp =
  let buf = Buffer.create 4096 in
  let rec go indent s =
    match s with
    | Atom a -> add_atom buf a
    | List [] -> Buffer.add_string buf "()"
    | List _ when fit s max_width >= 0 -> add_compact buf s
    | List (hd :: tl) ->
      Buffer.add_char buf '(';
      go (indent + 2) hd;
      List.iter
        (fun item ->
           Buffer.add_char buf '\n';
           add_spaces buf (indent + 2);
           go (indent + 2) item)
        tl;
      Buffer.add_char buf ')'
  in
  go 0 sexp;
  Buffer.contents buf

let pp fmt s = Format.pp_print_string fmt (to_string s)

let rec equal a b =
  match a, b with
  | Atom x, Atom y -> String.equal x y
  | List xs, List ys -> (try List.for_all2 equal xs ys with Invalid_argument _ -> false)
  | Atom _, List _ | List _, Atom _ -> false

(* --- Accessors -------------------------------------------------------- *)

let tag = function
  | List (Atom hd :: _) -> Some hd
  | List _ | Atom _ -> None

(* ASCII case-insensitive equality, without copying either string. *)
let tag_equal a b =
  String.equal a b
  || String.length a = String.length b
  &&
  let rec from i =
    i = String.length a
    || Char.lowercase_ascii (String.unsafe_get a i) = Char.lowercase_ascii (String.unsafe_get b i)
       && from (i + 1)
  in
  from 0

let has_tag ~tag:wanted = function
  | List (Atom hd :: _) -> tag_equal hd wanted
  | List _ | Atom _ -> false

let find_all ~tag = function
  | Atom _ -> []
  | List items -> List.filter (has_tag ~tag) items

let find ~tag = function
  | Atom _ -> None
  | List items -> List.find_opt (has_tag ~tag) items

let atom_exn = function
  | Atom s -> s
  | List _ as s -> parse_error "expected atom, got %s" (to_string_compact s)
