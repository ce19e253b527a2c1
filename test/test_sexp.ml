module Sexp = Qac_sexp.Sexp

let check_roundtrip name src expected =
  Alcotest.test_case name `Quick (fun () ->
      let parsed = Sexp.parse_string src in
      Alcotest.(check bool) "structure" true (Sexp.equal parsed expected);
      let reparsed = Sexp.parse_string (Sexp.to_string parsed) in
      Alcotest.(check bool) "pretty round-trip" true (Sexp.equal parsed reparsed);
      let reparsed = Sexp.parse_string (Sexp.to_string_compact parsed) in
      Alcotest.(check bool) "compact round-trip" true (Sexp.equal parsed reparsed))

let atom = Sexp.atom
let list = Sexp.list

let parse_error name src =
  Alcotest.test_case name `Quick (fun () ->
      match Sexp.parse_string src with
      | exception Sexp.Parse_error _ -> ()
      | _ -> Alcotest.fail "expected Parse_error")

let accessor_tests =
  [ Alcotest.test_case "find_all is case-insensitive" `Quick (fun () ->
        let s = Sexp.parse_string "(cell (Port a) (PORT b) (net x))" in
        Alcotest.(check int) "ports" 2 (List.length (Sexp.find_all ~tag:"port" s));
        Alcotest.(check int) "nets" 1 (List.length (Sexp.find_all ~tag:"net" s));
        Alcotest.(check int) "absent" 0 (List.length (Sexp.find_all ~tag:"instance" s)));
    Alcotest.test_case "tag" `Quick (fun () ->
        Alcotest.(check (option string)) "list" (Some "edif")
          (Sexp.tag (Sexp.parse_string "(edif x)"));
        Alcotest.(check (option string)) "atom" None (Sexp.tag (atom "x")));
    Alcotest.test_case "find" `Quick (fun () ->
        let s = Sexp.parse_string "(a (b 1) (c 2))" in
        match Sexp.find ~tag:"c" s with
        | Some (Sexp.List [ _; Sexp.Atom "2" ]) -> ()
        | _ -> Alcotest.fail "find c");
    Alcotest.test_case "parse_many" `Quick (fun () ->
        Alcotest.(check int) "three" 3 (List.length (Sexp.parse_many "a (b) c")));
    Alcotest.test_case "comments skipped" `Quick (fun () ->
        let s = Sexp.parse_string "; header\n(a ; inline\n b)" in
        Alcotest.(check bool) "eq" true (Sexp.equal s (list [ atom "a"; atom "b" ])));
    Alcotest.test_case "quoted atoms keep spaces" `Quick (fun () ->
        match Sexp.parse_string {|(rename x "out[3]")|} with
        | Sexp.List [ _; _; Sexp.Atom "out[3]" ] -> ()
        | _ -> Alcotest.fail "rename");
    Alcotest.test_case "quoting emitted when needed" `Quick (fun () ->
        let s = list [ atom "a b"; atom "plain" ] in
        let src = Sexp.to_string_compact s in
        Alcotest.(check bool) "round" true (Sexp.equal s (Sexp.parse_string src)));
    Alcotest.test_case "an atom starting with ; is quoted, not read as a comment" `Quick
      (fun () ->
         let s = list [ atom ";x"; atom "a;b" ] in
         Alcotest.(check string) "printed" {|(";x" a;b)|} (Sexp.to_string s);
         Alcotest.(check bool) "round" true (Sexp.equal s (Sexp.parse_string (Sexp.to_string s))));
    Alcotest.test_case "escaped quote round-trips" `Quick (fun () ->
        let s = atom {|say "hi"|} in
        Alcotest.(check bool) "round" true
          (Sexp.equal s (Sexp.parse_string (Sexp.to_string_compact s))));
  ]

(* The printer as it was before it became one-pass, kept as the oracle for
   the byte-identity contract: a list's width counts one separator per
   item (n, not n - 1), and atoms are measured unquoted.  It carries the
   one deliberate change: an atom starting with [;] is quoted (the old
   printer left it bare, so it read back as a comment).  Widths are
   measured unquoted, so that rule moves no line break. *)
module Old_printer = struct
  let needs_quoting s =
    s = ""
    || s.[0] = ';'
    || String.exists (fun ch -> String.contains " \t\n\r()\"" ch) s

  let atom_to_string s =
    if needs_quoting s then begin
      let buf = Buffer.create (String.length s + 2) in
      Buffer.add_char buf '"';
      String.iter
        (fun ch ->
           if ch = '"' || ch = '\\' then Buffer.add_char buf '\\';
           Buffer.add_char buf ch)
        s;
      Buffer.add_char buf '"';
      Buffer.contents buf
    end
    else s

  let rec to_string_compact = function
    | Sexp.Atom s -> atom_to_string s
    | Sexp.List items -> "(" ^ String.concat " " (List.map to_string_compact items) ^ ")"

  let rec width = function
    | Sexp.Atom s -> String.length s
    | Sexp.List items -> 2 + List.fold_left (fun acc s -> acc + 1 + width s) 0 items

  let to_string sexp =
    let buf = Buffer.create 256 in
    let rec go indent s =
      match s with
      | Sexp.Atom _ -> Buffer.add_string buf (to_string_compact s)
      | Sexp.List _ when width s <= 72 -> Buffer.add_string buf (to_string_compact s)
      | Sexp.List [] -> Buffer.add_string buf "()"
      | Sexp.List (hd :: tl) ->
        Buffer.add_char buf '(';
        go (indent + 2) hd;
        List.iter
          (fun item ->
             Buffer.add_char buf '\n';
             Buffer.add_string buf (String.make (indent + 2) ' ');
             go (indent + 2) item)
          tl;
        Buffer.add_char buf ')'
    in
    go 0 sexp;
    Buffer.contents buf
end

(* Atoms that need quoting and escaping, and lists whose widths straddle
   the 72-column fit test. *)
let sexp_gen =
  let open QCheck.Gen in
  let atom =
    oneof
      [ string_size ~gen:(oneofl [ 'a'; 'B'; '0'; '_'; '[' ]) (int_range 1 12);
        string_size ~gen:(oneofl [ 'a'; ' '; '('; ')'; '"'; '\\'; '\n'; '\t'; ';' ]) (int_range 0 6) ]
    >|= Sexp.atom
  in
  let near_72 =
    (* Between 6 and 14 atoms of 3 to 9 characters: widths from about 26
       to about 142, often within a few columns of 72. *)
    list_size (int_range 6 14)
      (string_size ~gen:(oneofl [ 'x'; 'y' ]) (int_range 3 9) >|= Sexp.atom)
    >|= Sexp.list
  in
  sized_size (int_range 0 4)
  @@ fix (fun self n ->
      if n = 0 then frequency [ (3, atom); (1, near_72) ]
      else
        frequency
          [ (1, atom);
            (1, near_72);
            (3, list_size (int_range 0 8) (self (n - 1)) >|= Sexp.list) ])

let printer_oracle =
  QCheck.Test.make ~name:"to_string and to_string_compact equal the old printer" ~count:2000
    (QCheck.make ~print:Old_printer.to_string_compact sexp_gen)
    (fun s ->
       String.equal (Sexp.to_string s) (Old_printer.to_string s)
       && String.equal (Sexp.to_string_compact s) (Old_printer.to_string_compact s)
       && Sexp.equal s (Sexp.parse_string (Sexp.to_string s))
       && Sexp.equal s (Sexp.parse_string (Sexp.to_string_compact s)))

(* Every list width from 60 to 84: the fit test flips exactly at 72. *)
let width_boundary =
  Alcotest.test_case "lists of every width around 72 print as before" `Quick (fun () ->
      for w = 60 to 84 do
        (* (x... y) has width 2 + (1 + a) + (1 + 1), so a = w - 5. *)
        let s = Sexp.list [ Sexp.atom (String.make (w - 5) 'x'); Sexp.atom "y" ] in
        let nested = Sexp.list [ Sexp.atom "top"; s; Sexp.list [ s; s ] ] in
        List.iter
          (fun t ->
             Alcotest.(check string) (Printf.sprintf "width %d" w) (Old_printer.to_string t)
               (Sexp.to_string t))
          [ s; nested ]
      done)

(* n nested lists around one atom, as source text and as a tree. *)
let nested n =
  let rec tree k = if k = 0 then atom "x" else list [ tree (k - 1) ] in
  (String.make n '(' ^ "x" ^ String.make n ')', tree n)

let suite =
  let deepest_src, deepest = nested 512 in
  [ check_roundtrip "atom" "hello" (atom "hello");
    check_roundtrip "empty list" "()" (list []);
    check_roundtrip "nested" "(a (b c) ((d)))"
      (list [ atom "a"; list [ atom "b"; atom "c" ]; list [ list [ atom "d" ] ] ]);
    check_roundtrip "string atom" {|("two words")|} (list [ atom "two words" ]);
    check_roundtrip "numbers" "(1 -2.5 3e4)" (list [ atom "1"; atom "-2.5"; atom "3e4" ]);
    parse_error "unbalanced open" "(a (b)";
    parse_error "unbalanced close" "a)";
    parse_error "trailing garbage" "(a) b";
    parse_error "empty input" "   ";
    parse_error "unterminated string" {|("abc|};
  ]
  @ accessor_tests
  @ [ width_boundary;
      QCheck_alcotest.to_alcotest printer_oracle;
      check_roundtrip "512 nested lists" deepest_src deepest;
      parse_error "513 nested lists" (fst (nested 513)) ]
