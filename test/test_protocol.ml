(** The wire protocol: JSON round-trips (bit-exact floats included),
    framing over a real socketpair, and rejection of oversized or garbage
    frames. *)

open Qac_ising
module Serve = Qac_serve.Serve
module Protocol = Qac_serve.Protocol
module Sampler = Qac_anneal.Sampler

let problem () =
  Problem.create ~num_vars:4
    ~h:[| 0.1; -0.25; 0.0; 1.0 /. 3.0 |]
    ~j:[ ((0, 1), -1.0); ((1, 2), 0.75); ((0, 3), 1e-17) ]
    ~offset:2.5 ()

let response () =
  { Sampler.samples =
      [ { Sampler.spins = [| 1; -1; 1; -1 |];
          energy = -3.0625 +. 1e-13;
          num_occurrences = 7 };
        { Sampler.spins = [| -1; -1; 1; 1 |]; energy = 0.125; num_occurrences = 1 } ];
    num_reads = 8;
    elapsed_seconds = 0.123456789012345678;
    timed_out = false }

let result () =
  { Serve.id = "job \"quoted\" \\ with\nnewline";
    status = Serve.Done;
    response = Some (response ());
    batch = 3;
    wait_seconds = 0.001;
    solve_seconds = 0.25 }

let check_problem (a : Problem.t) (b : Problem.t) =
  Alcotest.(check int) "num_vars" a.Problem.num_vars b.Problem.num_vars;
  Alcotest.(check (float 0.0)) "offset" a.Problem.offset b.Problem.offset;
  Alcotest.(check (array (float 0.0))) "h" a.Problem.h b.Problem.h;
  Alcotest.(check int) "coupler count"
    (Array.length a.Problem.couplers) (Array.length b.Problem.couplers);
  Array.iter2
    (fun ((i, j), v) ((i', j'), v') ->
       Alcotest.(check (pair int int)) "coupler pair" (i, j) (i', j');
       Alcotest.(check (float 0.0)) "coupler value (bit-exact)" v v')
    a.Problem.couplers b.Problem.couplers

let check_response (a : Sampler.response) (b : Sampler.response) =
  Alcotest.(check int) "num_reads" a.Sampler.num_reads b.Sampler.num_reads;
  Alcotest.(check (float 0.0)) "elapsed (bit-exact)" a.Sampler.elapsed_seconds
    b.Sampler.elapsed_seconds;
  Alcotest.(check bool) "timed_out" a.Sampler.timed_out b.Sampler.timed_out;
  List.iter2
    (fun (x : Sampler.sample) (y : Sampler.sample) ->
       Alcotest.(check (array int)) "spins" x.Sampler.spins y.Sampler.spins;
       Alcotest.(check (float 0.0)) "energy (bit-exact)" x.Sampler.energy
         y.Sampler.energy;
       Alcotest.(check int) "occurrences" x.Sampler.num_occurrences
         y.Sampler.num_occurrences)
    a.Sampler.samples b.Sampler.samples

let roundtrip_json j =
  Protocol.json_of_string (Protocol.json_to_string j)

let json_tests =
  [ Alcotest.test_case "scalar and container values round-trip" `Quick
      (fun () ->
         let open Protocol in
         List.iter
           (fun j -> Alcotest.(check bool) "round-trip" true (roundtrip_json j = j))
           [ Null; Bool true; Bool false; Num 0.0; Num (-17.0); Num 6.02e23;
             Str ""; Str "plain"; Str "esc \" \\ \n \t \r";
             Arr []; Arr [ Num 1.0; Str "two"; Null ];
             Obj []; Obj [ ("a", Num 1.0); ("b", Arr [ Bool false ]) ] ]);
    Alcotest.test_case "awkward floats survive bit-exactly" `Quick (fun () ->
        List.iter
          (fun f ->
             match roundtrip_json (Protocol.Num f) with
             | Protocol.Num f' ->
               Alcotest.(check bool)
                 (Printf.sprintf "%h round-trips" f)
                 true
                 (Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float f'))
             | _ -> Alcotest.fail "not a number")
          [ 0.1; 1.0 /. 3.0; 1e-300; 1.7976931348623157e308; 5e-324;
            -0.0; 0.123456789012345678 ]);
    Alcotest.test_case "unicode escapes decode to UTF-8" `Quick (fun () ->
        match Protocol.json_of_string "\"a\\u00e9\\u4e2d\\ud83d\\ude00b\"" with
        | Protocol.Str s ->
          Alcotest.(check string) "decoded" "a\xc3\xa9\xe4\xb8\xad\xf0\x9f\x98\x80b" s
        | _ -> Alcotest.fail "not a string");
    Alcotest.test_case "garbage JSON raises Protocol_error" `Quick (fun () ->
        List.iter
          (fun s ->
             match Protocol.json_of_string s with
             | exception Protocol.Protocol_error _ -> ()
             | _ -> Alcotest.fail (Printf.sprintf "%S should not parse" s))
          [ ""; "{"; "[1,"; "tru"; "\"unterminated"; "{\"a\" 1}"; "1 2";
            "{\"a\":}"; "nul"; "\xff\xfe" ]);
    Alcotest.test_case "unicode escapes take exactly four hex digits" `Quick (fun () ->
        (match Protocol.json_of_string "\"\\u00E9\\u00e9\"" with
         | Protocol.Str s -> Alcotest.(check string) "either case" "\xc3\xa9\xc3\xa9" s
         | _ -> Alcotest.fail "not a string");
        List.iter
          (fun s ->
             match Protocol.json_of_string s with
             | exception Protocol.Protocol_error _ -> ()
             | _ -> Alcotest.fail (Printf.sprintf "%S should not parse" s))
          [ "\"\\u12g4\""; "\"\\u1_2_\""; "\"\\u+123\""; "\"\\u-123\"";
            "\"\\u 123\""; "\"\\u0x12\""; "\"\\u12\"" ]);
    Alcotest.test_case "deep nesting is refused, not a stack overflow" `Quick
      (fun () ->
         (* The largest frame the server reads, all open brackets. *)
         match Protocol.json_of_string (String.make Protocol.max_frame_len '[') with
         | exception Protocol.Protocol_error _ -> ()
         | _ -> Alcotest.fail "unterminated nesting parsed") ]

(* The writer prints integral numbers below 1e15 without [Printf]; it
   must produce exactly the bytes this reference does.  The reader parses
   short integer lexemes without [float_of_string]; it must produce
   exactly that function's bits. *)
let printf_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let number_edges =
  [ -0.0; 0.0; 1.0; -1.0; 1e15 -. 1.0; -.(1e15 -. 1.0); 1e15; -1e15; 9007199254740992.0;
    -9007199254740992.0; 0.5; -2.5; 1e-7; 123456789.125; 4503599627370495.5 ]

let finite_float =
  QCheck.Gen.(
    oneof
      [ oneofl number_edges;
        map Int64.float_of_bits int64;
        (* integral values on both sides of the 1e15 cut *)
        map float_of_int (int_range (-2_000_000_000_000_000) 2_000_000_000_000_000);
        map float_of_int (int_range (-1000) 1000);
        map (fun x -> Float.round x +. 0.25) (float_range (-1e6) 1e6) ])

let integer_lexeme =
  QCheck.Gen.(
    oneof
      [ oneofl [ "0"; "-0"; "00"; "-00"; "007"; "-007"; "1"; "-1"; "999999999999999";
                 "-999999999999999"; "1000000000000000"; "0000000000000001";
                 "9007199254740993"; "123456789012345678901234567890" ];
        map2
          (fun neg digits -> (if neg then "-" else "") ^ String.concat "" (List.map string_of_int digits))
          bool (list_size (int_range 1 20) (int_range 0 9)) ])

let number_tests =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"number writer matches the Printf path" ~count:2000
         (QCheck.make ~print:(Printf.sprintf "%h") finite_float)
         (fun f ->
            (not (Float.is_finite f))
            || Protocol.json_to_string (Protocol.Num f) = printf_repr f));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"integer lexemes read as float_of_string reads them" ~count:2000
         (QCheck.make ~print:Fun.id integer_lexeme)
         (fun lexeme ->
            match Protocol.json_of_string lexeme with
            | Protocol.Num f ->
              Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float (float_of_string lexeme))
            | _ -> false)) ]

(* Every strict prefix and every single-byte substitution of three
   canonical request payloads either decodes or raises [Protocol_error]:
   no other exception may escape the frame decoder, because the server
   only catches that one.  The alphabet targets the parser's edges: quote
   and escape bytes, hex and non-hex digits, number syntax, structure. *)
let fuzz_tests =
  [ Alcotest.test_case "prefixes and byte substitutions never leak" `Quick
      (fun () ->
         let payloads =
           List.map
             (fun r -> Protocol.json_to_string (Protocol.request_to_json r))
             [ Protocol.Submit
                 { Serve.id = (result ()).Serve.id; problem = problem ();
                   timeout_ms = Some 250.0 };
               Protocol.Submit_sat
                 { id = "sat \"1\""; dimacs = "p cnf 2 2\n1 -2 0\n2 0\n";
                   timeout_ms = None };
               Protocol.Poll 42 ]
         in
         let alphabet = "\x00\"\\u09g_-e.[{,:x\xff" in
         let leaks = ref [] in
         let probe s =
           match Protocol.request_of_json (Protocol.json_of_string s) with
           | _ | (exception Protocol.Protocol_error _) -> ()
           | exception e -> leaks := (s, Printexc.to_string e) :: !leaks
         in
         List.iter
           (fun p ->
              for len = 0 to String.length p - 1 do
                probe (String.sub p 0 len)
              done;
              String.iteri
                (fun i _ ->
                   String.iter
                     (fun c ->
                        let b = Bytes.of_string p in
                        Bytes.set b i c;
                        probe (Bytes.to_string b))
                     alphabet)
                p)
           payloads;
         match !leaks with
         | [] -> ()
         | (s, e) :: _ ->
           Alcotest.fail
             (Printf.sprintf "%d payloads leak; e.g. %S raised %s"
                (List.length !leaks) s e)) ]

let codec_tests =
  [ Alcotest.test_case "problem round-trips through JSON" `Quick (fun () ->
        let p = problem () in
        check_problem p (Protocol.problem_of_json (roundtrip_json (Protocol.problem_to_json p))));
    Alcotest.test_case "result round-trips, every status arm" `Quick (fun () ->
        List.iter
          (fun status ->
             let r = { (result ()) with Serve.status } in
             let r' = Protocol.result_of_json (roundtrip_json (Protocol.result_to_json r)) in
             Alcotest.(check string) "id" r.Serve.id r'.Serve.id;
             Alcotest.(check bool) "status" true (r.Serve.status = r'.Serve.status);
             Alcotest.(check int) "batch" r.Serve.batch r'.Serve.batch;
             match (r.Serve.response, r'.Serve.response) with
             | Some a, Some b -> check_response a b
             | None, None -> ()
             | _ -> Alcotest.fail "response presence changed")
          [ Serve.Done; Serve.Timed_out; Serve.Canceled;
            Serve.Failed "chain broke" ]);
    Alcotest.test_case "queue-expired result (no response) round-trips" `Quick
      (fun () ->
         let r =
           { (result ()) with Serve.status = Serve.Timed_out; response = None }
         in
         let r' = Protocol.result_of_json (roundtrip_json (Protocol.result_to_json r)) in
         Alcotest.(check bool) "no response" true (r'.Serve.response = None));
    Alcotest.test_case "every request arm round-trips" `Quick (fun () ->
        let job =
          { Serve.id = "r1"; problem = problem (); timeout_ms = Some 250.0 }
        in
        List.iter
          (fun req ->
             let req' =
               Protocol.request_of_json (roundtrip_json (Protocol.request_to_json req))
             in
             match (req, req') with
             | Protocol.Submit a, Protocol.Submit b ->
               Alcotest.(check string) "job id" a.Serve.id b.Serve.id;
               Alcotest.(check (option (float 0.0))) "timeout" a.Serve.timeout_ms
                 b.Serve.timeout_ms;
               check_problem a.Serve.problem b.Serve.problem
             | Protocol.Poll a, Protocol.Poll b | Protocol.Cancel a, Protocol.Cancel b ->
               Alcotest.(check int) "ticket" a b
             | Protocol.Stats, Protocol.Stats
             | Protocol.Metrics, Protocol.Metrics
             | Protocol.Shutdown, Protocol.Shutdown -> ()
             | _ -> Alcotest.fail "request arm changed")
          [ Protocol.Submit job;
            Protocol.Submit { job with Serve.timeout_ms = None };
            Protocol.Poll 42; Protocol.Cancel 0; Protocol.Stats;
            Protocol.Metrics; Protocol.Shutdown ]);
    Alcotest.test_case "every reply arm round-trips" `Quick (fun () ->
        List.iter
          (fun rep ->
             let rep' =
               Protocol.reply_of_json (roundtrip_json (Protocol.reply_to_json rep))
             in
             match (rep, rep') with
             | Protocol.Submitted a, Protocol.Submitted b ->
               Alcotest.(check int) "ticket" a.ticket b.ticket;
               Alcotest.(check int) "shard" a.shard b.shard
             | Protocol.Busy a, Protocol.Busy b ->
               Alcotest.(check (float 0.0)) "retry" a.retry_after_ms b.retry_after_ms
             | Protocol.Pending, Protocol.Pending
             | Protocol.Shutdown_ok, Protocol.Shutdown_ok -> ()
             | Protocol.Completed a, Protocol.Completed b ->
               Alcotest.(check string) "id" a.Serve.id b.Serve.id
             | Protocol.Cancel_ok a, Protocol.Cancel_ok b ->
               Alcotest.(check bool) "flag" a b
             | Protocol.Stats_json a, Protocol.Stats_json b ->
               Alcotest.(check bool) "stats json" true (a = b)
             | Protocol.Metrics_text a, Protocol.Metrics_text b ->
               Alcotest.(check string) "metrics" a b
             | Protocol.Error a, Protocol.Error b ->
               Alcotest.(check string) "error" a b
             | _ -> Alcotest.fail "reply arm changed")
          [ Protocol.Submitted { ticket = 7; shard = 2 };
            Protocol.Busy { retry_after_ms = 12.5 };
            Protocol.Pending;
            Protocol.Completed (result ());
            Protocol.Cancel_ok true;
            Protocol.Stats_json (Protocol.Arr [ Protocol.Num 1.0 ]);
            Protocol.Metrics_text "qac_serve_jobs_done{shard=\"0\"} 3\n";
            Protocol.Shutdown_ok;
            Protocol.Error "unknown ticket" ]) ]

let with_socketpair f =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
        List.iter
          (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
          [ a; b ])
    (fun () -> f a b)

let framing_tests =
  [ Alcotest.test_case "frames round-trip over a socketpair" `Quick (fun () ->
        with_socketpair (fun a b ->
            List.iter
              (fun payload ->
                 Protocol.write_frame a payload;
                 match Protocol.read_frame b with
                 | Some got -> Alcotest.(check string) "payload" payload got
                 | None -> Alcotest.fail "unexpected EOF")
              [ ""; "x"; String.make 70000 'q'; "{\"op\":\"stats\"}" ]));
    Alcotest.test_case "clean EOF at a frame boundary reads as None" `Quick
      (fun () ->
         with_socketpair (fun a b ->
             Protocol.write_frame a "last";
             Unix.close a;
             Alcotest.(check (option string)) "frame" (Some "last")
               (Protocol.read_frame b);
             Alcotest.(check (option string)) "eof" None (Protocol.read_frame b)));
    Alcotest.test_case "EOF mid-frame raises" `Quick (fun () ->
        with_socketpair (fun a b ->
            (* A 100-byte header with only 3 payload bytes behind it. *)
            let header = Bytes.create 4 in
            Bytes.set_int32_be header 0 100l;
            ignore (Unix.write a header 0 4);
            ignore (Unix.write_substring a "abc" 0 3);
            Unix.close a;
            match Protocol.read_frame b with
            | exception Protocol.Protocol_error _ -> ()
            | _ -> Alcotest.fail "truncated frame must not parse"));
    Alcotest.test_case "oversized declared length is rejected unread" `Quick
      (fun () ->
         with_socketpair (fun a b ->
             let header = Bytes.create 4 in
             Bytes.set_int32_be header 0 (Int32.of_int (Protocol.max_frame_len + 1));
             ignore (Unix.write a header 0 4);
             (match Protocol.read_frame b with
              | exception Protocol.Protocol_error _ -> ()
              | _ -> Alcotest.fail "oversized frame must be rejected");
             (* Negative length (high bit set) is oversized too. *)
             Bytes.set_int32_be header 0 0xdeadbeefl;
             ignore (Unix.write a header 0 4);
             match Protocol.read_frame b with
             | exception Protocol.Protocol_error _ -> ()
             | _ -> Alcotest.fail "negative frame length must be rejected"));
    Alcotest.test_case "write_frame refuses oversized payloads" `Quick
      (fun () ->
         (* The check precedes any write, so a bogus fd never gets touched. *)
         match Protocol.write_frame Unix.stdout (String.make (Protocol.max_frame_len + 1) ' ')
         with
         | exception Protocol.Protocol_error _ -> ()
         | _ -> Alcotest.fail "oversized write must be rejected") ]

(* The JSON reader takes "1e400" as infinity; a Submit frame carrying it
   must be refused as a bad problem when it is decoded, not reach a
   scheduler domain. *)
let finite_tests =
  [ Alcotest.test_case "a non-finite coefficient makes a bad problem" `Quick (fun () ->
        let submit problem =
          Printf.sprintf {|{"op":"submit","job":{"id":"x","problem":%s,"timeout_ms":null}}|}
            problem
        in
        List.iter
          (fun problem ->
             match Protocol.request_of_json (Protocol.json_of_string (submit problem)) with
             | exception Protocol.Protocol_error msg ->
               Alcotest.(check string) problem "bad problem" (String.sub msg 0 11)
             | _ -> Alcotest.failf "%s decoded" problem)
          [ {|{"num_vars":2,"offset":0,"h":[1e400,1],"j":[]}|};
            {|{"num_vars":2,"offset":0,"h":[0,-1e400],"j":[]}|};
            {|{"num_vars":2,"offset":0,"h":[0,1],"j":[[0,1,1e400]]}|};
            {|{"num_vars":2,"offset":-1e400,"h":[0,1],"j":[]}|} ];
        (* The same frame with finite numbers decodes. *)
        match
          Protocol.request_of_json
            (Protocol.json_of_string (submit {|{"num_vars":2,"offset":0,"h":[1e300,1],"j":[]}|}))
        with
        | Protocol.Submit job -> Alcotest.(check (float 0.0)) "h0" 1e300 job.Serve.problem.Problem.h.(0)
        | _ -> Alcotest.fail "not a submit") ]

let suite = json_tests @ fuzz_tests @ codec_tests @ framing_tests @ number_tests @ finite_tests
