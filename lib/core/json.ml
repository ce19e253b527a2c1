(** Hand-written JSON codec (see json.mli). *)

exception Error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* Decimal digits of a non-negative int, appended without an intermediate
   string. *)
let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (Char.code '0' + (n mod 10)))

(* %.17g round-trips any finite double exactly; integral values print as
   integers so tickets and counters stay readable.  An integral |f| < 1e15
   is exact as an int, so its digits go straight into the buffer: the bytes
   [Printf.sprintf "%.0f"] writes, without the format interpreter's
   allocation (a served reply holds thousands of spins).  -0.0 takes the
   [Printf] path, which keeps its sign. *)
let add_number b f =
  if Float.is_integer f && Float.abs f < 1e15 then
    if f = 0.0 && Float.sign_bit f then Buffer.add_string b (Printf.sprintf "%.0f" f)
    else begin
      let n = int_of_float f in
      if n < 0 then Buffer.add_char b '-';
      add_digits b (abs n)
    end
  else Buffer.add_string b (Printf.sprintf "%.17g" f)

let add_quoted b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | '\n' -> Buffer.add_string b "\\n"
       | '\r' -> Buffer.add_string b "\\r"
       | '\t' -> Buffer.add_string b "\\t"
       | c when Char.code c < 0x20 ->
         Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let to_string j =
  let b = Buffer.create 256 in
  let rec emit = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Num f ->
      if Float.is_nan f || Float.abs f = infinity then
        fail "JSON: non-finite number"
      else add_number b f
    | Str s -> add_quoted b s
    | Arr items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
           if i > 0 then Buffer.add_char b ',';
           emit x)
        items;
      Buffer.add_char b ']'
    | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
           if i > 0 then Buffer.add_char b ',';
           add_quoted b k;
           Buffer.add_char b ':';
           emit v)
        fields;
      Buffer.add_char b '}'
  in
  emit j;
  Buffer.contents b

let max_depth = 512

(* The value of the digits s.[first .. stop - 1] when there are 1 to 15 of
   them and nothing else, or -1.  Such an integer is exact in a double, so
   it is the value [float_of_string] reads, without the substring and
   boxed float it costs. *)
let digits_value s first stop =
  if stop - first < 1 || stop - first > 15 then -1
  else begin
    let v = ref 0 and i = ref first in
    while !i < stop && s.[!i] >= '0' && s.[!i] <= '9' do
      v := (10 * !v) + (Char.code s.[!i] - Char.code '0');
      incr i
    done;
    if !i = stop then !v else -1
  end

(* Shared values for the integers frames repeat most: spins, small
   counts, and the sign of zero that "-0" carries. *)
let small_nums = Array.init 256 (fun i -> Num (float_of_int i))
let minus_one = Num (-1.0)
let minus_zero = Num (-0.0)

(* Recursive-descent parser.  [pos] always points at the next unread byte. *)
let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    if !pos >= n || s.[!pos] <> c then fail "JSON: expected '%c' at byte %d" c !pos;
    advance ()
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail "JSON: bad literal at byte %d" !pos
  in
  (* Exactly four hex digits: no sign, no [_] separators, no [0x]. *)
  let parse_hex4 () =
    if !pos + 4 > n then fail "JSON: truncated \\u escape";
    let digit c =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> fail "JSON: bad \\u escape at byte %d" !pos
    in
    let v = ref 0 in
    for i = 0 to 3 do
      v := (!v lsl 4) lor digit s.[!pos + i]
    done;
    pos := !pos + 4;
    !v
  in
  (* Surrogates never get here, so [Uchar.of_int] cannot raise. *)
  let add_utf8 b cp = Buffer.add_utf_8_uchar b (Uchar.of_int cp) in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "JSON: unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
        if !pos >= n then fail "JSON: unterminated escape";
        let e = s.[!pos] in
        advance ();
        (match e with
         | '"' -> Buffer.add_char b '"'
         | '\\' -> Buffer.add_char b '\\'
         | '/' -> Buffer.add_char b '/'
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'n' -> Buffer.add_char b '\n'
         | 'r' -> Buffer.add_char b '\r'
         | 't' -> Buffer.add_char b '\t'
         | 'u' ->
           let cp = parse_hex4 () in
           (* Surrogate pair: a high surrogate must be followed by \uDC00-DFFF. *)
           if cp >= 0xd800 && cp <= 0xdbff then begin
             if not (!pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u') then
               fail "JSON: lone high surrogate";
             pos := !pos + 2;
             let lo = parse_hex4 () in
             if not (lo >= 0xdc00 && lo <= 0xdfff) then
               fail "JSON: invalid low surrogate";
             add_utf8 b (0x10000 + ((cp - 0xd800) lsl 10) + (lo - 0xdc00))
           end
           else if cp >= 0xdc00 && cp <= 0xdfff then fail "JSON: lone low surrogate"
           else add_utf8 b cp
         | c -> fail "JSON: bad escape '\\%c'" c);
        loop ()
      | c -> Buffer.add_char b c; loop ()
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    let numchar c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && numchar s.[!pos] do advance () done;
    if !pos = start then fail "JSON: expected a value at byte %d" start;
    let neg = s.[start] = '-' in
    let v = digits_value s (if neg then start + 1 else start) !pos in
    if v < 0 then
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> fail "JSON: bad number at byte %d" start
    else if neg then
      match v with 0 -> minus_zero | 1 -> minus_one | v -> Num (float_of_int (-v))
    else if v < Array.length small_nums then small_nums.(v)
    else Num (float_of_int v)
  in
  (* Nesting is capped so a hostile frame of brackets fails with [Error]
     instead of exhausting the stack. *)
  let rec parse_value depth =
    if depth > max_depth then fail "JSON: nesting deeper than %d" max_depth;
    skip_ws ();
    match peek () with
    | None -> fail "JSON: unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin advance (); Obj [] end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ()
          | Some '}' -> advance ()
          | _ -> fail "JSON: expected ',' or '}' at byte %d" !pos
        in
        members ();
        Obj (List.rev !fields)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin advance (); Arr [] end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value (depth + 1) in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elements ()
          | Some ']' -> advance ()
          | _ -> fail "JSON: expected ',' or ']' at byte %d" !pos
        in
        elements ();
        Arr (List.rev !items)
      end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  let v = parse_value 0 in
  skip_ws ();
  if !pos <> n then fail "JSON: trailing bytes at %d" !pos;
  v
