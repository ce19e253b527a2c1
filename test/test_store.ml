(** The persistent artifact store: codec round-trips are bit-exact, every
    malformed input is an [Error] (never an exception), and the directory
    store survives restarts, rejects corruption, and honors read-only. *)

open Qac_ising
module Store = Qac_embed.Store
module Cache = Qac_embed.Cache
module Embedding = Qac_embed.Embedding

let bits = Int64.bits_of_float

let check_float_bits name a b =
  Alcotest.(check int64) (name ^ " (bit-exact)") (bits a) (bits b)

let temp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "qac_store_test.%d.%d" (Unix.getpid ()) !n)
    in
    (* fresh every call; the store creates it on open *)
    d

(* --- Generators -------------------------------------------------------------- *)

(* Floats that exercise the codec: negatives, subnormals, huge magnitudes,
   and values with no short decimal form.  NaN/infinity never appear in
   Ising coefficients, so the generator stays finite. *)
let gen_coeff =
  QCheck.Gen.oneof
    [ QCheck.Gen.float_bound_inclusive 1.0;
      QCheck.Gen.map (fun f -> -.f) (QCheck.Gen.float_bound_inclusive 1.0);
      QCheck.Gen.oneofl
        [ 0.1; -0.1; 1e-300; -1e300; 4.9e-324; 0.333333333333333314829616256247;
          1024.5; -65536.25 ] ]

let gen_embedding =
  QCheck.Gen.(
    let* n = int_range 0 12 in
    let* chains =
      array_repeat n
        (let* len = int_range 1 6 in
         array_repeat len (int_range 0 2047))
    in
    return { Embedding.chains })

let arb_embedding =
  QCheck.make gen_embedding ~print:(fun e ->
      Printf.sprintf "[|%s|]"
        (String.concat "; "
           (Array.to_list
              (Array.map
                 (fun c ->
                    Printf.sprintf "[|%s|]"
                      (String.concat ";"
                         (Array.to_list (Array.map string_of_int c))))
                 e.Embedding.chains))))

let gen_problem =
  QCheck.Gen.(
    let* n = int_range 1 10 in
    let* h = array_repeat n gen_coeff in
    let* offset = gen_coeff in
    let all_pairs =
      List.concat_map
        (fun i -> List.init (n - 1 - i) (fun k -> (i, i + 1 + k)))
        (List.init n (fun i -> i))
    in
    let* j =
      flatten_l
        (List.map
           (fun pair ->
              let* keep = bool in
              let* v = gen_coeff in
              return (if keep then [ (pair, v) ] else []))
           all_pairs)
    in
    return (Problem.create ~num_vars:n ~h ~j:(List.concat j) ~offset ()))

let arb_problem =
  QCheck.make gen_problem ~print:(fun p ->
      Format.asprintf "%a" Problem.pp p)

let check_problem_equal (a : Problem.t) (b : Problem.t) =
  Alcotest.(check int) "num_vars" a.Problem.num_vars b.Problem.num_vars;
  check_float_bits "offset" a.Problem.offset b.Problem.offset;
  Alcotest.(check int) "h length" (Array.length a.Problem.h)
    (Array.length b.Problem.h);
  Array.iteri (fun i v -> check_float_bits (Printf.sprintf "h.(%d)" i) v b.Problem.h.(i)) a.Problem.h;
  Alcotest.(check int) "coupler count"
    (Array.length a.Problem.couplers)
    (Array.length b.Problem.couplers);
  Array.iteri
    (fun k ((i, j), v) ->
       let (i', j'), v' = b.Problem.couplers.(k) in
       Alcotest.(check (pair int int)) (Printf.sprintf "coupler %d endpoints" k)
         (i, j) (i', j');
       check_float_bits (Printf.sprintf "coupler %d value" k) v v')
    a.Problem.couplers

let decode_embedding_exn s =
  match Store.decode_embedding s with
  | Ok e -> e
  | Error msg -> Alcotest.fail ("decode_embedding: " ^ msg)

let decode_problem_exn s =
  match Store.decode_problem s with
  | Ok p -> p
  | Error msg -> Alcotest.fail ("decode_problem: " ^ msg)

(* --- Codec ------------------------------------------------------------------- *)

let codec_tests =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:200 ~name:"embedding codec round-trips exactly"
         arb_embedding (fun e ->
           let e' = decode_embedding_exn (Store.encode_embedding e) in
           e'.Embedding.chains = e.Embedding.chains));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:200
         ~name:"problem codec round-trips bit-exactly" arb_problem (fun p ->
           check_problem_equal p (decode_problem_exn (Store.encode_problem p));
           true));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:50
         ~name:"every strict prefix is rejected, never a crash" arb_embedding
         (fun e ->
           let s = Store.encode_embedding e in
           let ok = ref true in
           for len = 0 to String.length s - 1 do
             match Store.decode_embedding (String.sub s 0 len) with
             | Ok _ -> ok := false
             | Error _ -> ()
           done;
           !ok));
    Alcotest.test_case "every single-byte corruption is rejected" `Quick
      (fun () ->
         let p =
           Problem.create ~num_vars:3 ~h:[| 0.5; -0.25; 0.125 |]
             ~j:[ ((0, 1), -1.0); ((1, 2), 0.75) ]
             ~offset:2.5 ()
         in
         let s = Store.encode_problem p in
         for i = 0 to String.length s - 1 do
           let b = Bytes.of_string s in
           Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
           match Store.decode_problem (Bytes.to_string b) with
           | Ok _ ->
             Alcotest.fail (Printf.sprintf "byte %d corruption accepted" i)
           | Error _ -> ()
         done);
    Alcotest.test_case "future version is refused, with the version named"
      `Quick (fun () ->
        let e = { Embedding.chains = [| [| 1; 2 |]; [| 3 |] |] } in
        let s = Store.encode_embedding e in
        let b = Bytes.of_string s in
        (* the u32 version field sits right after the 8-byte magic *)
        Bytes.set b 8 (Char.chr (Store.version + 1));
        (match Store.decode_embedding (Bytes.to_string b) with
         | Ok _ -> Alcotest.fail "future version accepted"
         | Error msg ->
           let mentions_version =
             let needle = "version" in
             let rec scan i =
               i + String.length needle <= String.length msg
               && (String.sub msg i (String.length needle) = needle
                   || scan (i + 1))
             in
             scan 0
           in
           Alcotest.(check bool)
             (Printf.sprintf "mentions version (%s)" msg)
             true mentions_version));
    Alcotest.test_case "kinds do not cross-decode" `Quick (fun () ->
        let e = { Embedding.chains = [| [| 0 |] |] } in
        let p =
          Problem.create ~num_vars:1 ~h:[| 0.5 |] ~j:[] ()
        in
        (match Store.decode_problem (Store.encode_embedding e) with
         | Ok _ -> Alcotest.fail "embedding decoded as problem"
         | Error _ -> ());
        match Store.decode_embedding (Store.encode_problem p) with
        | Ok _ -> Alcotest.fail "problem decoded as embedding"
        | Error _ -> ()) ]

(* --- Directory store --------------------------------------------------------- *)

let dir_tests =
  [ Alcotest.test_case "artifacts survive a re-open" `Quick (fun () ->
        let dir = temp_dir () in
        let key = Digest.string "job-1" in
        let pkey = Digest.string "problem-1" in
        let e = { Embedding.chains = [| [| 7; 8 |]; [| 9 |] |] } in
        let p =
          Problem.create ~num_vars:2 ~h:[| 0.5; -0.5 |] ~j:[ ((0, 1), 1.0) ] ()
        in
        let s1 = Store.open_dir dir in
        Alcotest.(check bool) "miss before put" true
          (Store.find_embedding s1 key = None);
        Store.put_embedding s1 key e;
        Store.put_problem s1 pkey p;
        (match Store.find_embedding s1 key with
         | Some e' ->
           Alcotest.(check bool) "same chains" true
             (e'.Embedding.chains = e.Embedding.chains)
         | None -> Alcotest.fail "miss after put");
        (* a brand-new handle on the same directory: everything off disk *)
        let s2 = Store.open_dir dir in
        (match Store.find_embedding s2 key with
         | Some e' ->
           Alcotest.(check bool) "chains off disk" true
             (e'.Embedding.chains = e.Embedding.chains)
         | None -> Alcotest.fail "embedding lost across re-open");
        (match Store.find_problem s2 pkey with
         | Some p' -> check_problem_equal p p'
         | None -> Alcotest.fail "problem lost across re-open");
        let st = Store.stats s2 in
        Alcotest.(check int) "one embedding" 1 st.Store.embeddings;
        Alcotest.(check int) "one problem" 1 st.Store.problems;
        Alcotest.(check int) "embed hit counted" 1 st.Store.embed_hits;
        Alcotest.(check int) "problem hit counted" 1 st.Store.problem_hits;
        Alcotest.(check int) "no load failures" 0 st.Store.load_failures);
    Alcotest.test_case "put is idempotent and find memoizes" `Quick (fun () ->
        let dir = temp_dir () in
        let s = Store.open_dir dir in
        let key = Digest.string "k" in
        let e = { Embedding.chains = [| [| 1 |] |] } in
        Store.put_embedding s key e;
        Store.put_embedding s key e;
        Alcotest.(check int) "one write" 1 (Store.stats s).Store.writes;
        ignore (Store.find_embedding s key);
        ignore (Store.find_embedding s key);
        Alcotest.(check int) "hits accumulate" 2
          (Store.stats s).Store.embed_hits);
    Alcotest.test_case "a corrupt artifact is a miss, not a crash" `Quick
      (fun () ->
         let dir = temp_dir () in
         let key = Digest.string "doomed" in
         let s1 = Store.open_dir dir in
         Store.put_embedding s1 key { Embedding.chains = [| [| 1; 2; 3 |] |] };
         (* stomp the payload on disk *)
         let file =
           Filename.concat dir ("emb-" ^ Digest.to_hex key ^ ".art")
         in
         let oc = open_out file in
         output_string oc "QACSTORE garbage";
         close_out oc;
         let s2 = Store.open_dir dir in
         Alcotest.(check bool) "corrupt artifact misses" true
           (Store.find_embedding s2 key = None);
         let st = Store.stats s2 in
         Alcotest.(check int) "load failure counted" 1 st.Store.load_failures;
         Alcotest.(check int) "counted as a miss" 1 st.Store.embed_misses);
    Alcotest.test_case "unrelated files in the directory are ignored" `Quick
      (fun () ->
         let dir = temp_dir () in
         let s1 = Store.open_dir dir in
         ignore s1;
         List.iter
           (fun name ->
              let oc = open_out (Filename.concat dir name) in
              output_string oc "not an artifact";
              close_out oc)
           [ "README"; "emb-nothex.art"; "emb-0123.art"; "prb-.art" ];
         let s2 = Store.open_dir dir in
         let st = Store.stats s2 in
         Alcotest.(check int) "no embeddings" 0 st.Store.embeddings;
         Alcotest.(check int) "no problems" 0 st.Store.problems) ]

(* --- Cache integration ------------------------------------------------------- *)

let cache_tests =
  [ Alcotest.test_case "cache misses fall through to the store and promote"
      `Quick (fun () ->
        let dir = temp_dir () in
        let store = Store.open_dir dir in
        let key = Digest.string "shared-key" in
        let e = { Embedding.chains = [| [| 10; 11 |] |] } in
        (* first process: populate through the cache's write-through *)
        let c1 = Cache.create ~store () in
        Cache.add c1 key e;
        Alcotest.(check int) "written through" 1 (Store.stats store).Store.writes;
        (* second process: fresh cache, same store *)
        let c2 = Cache.create ~store:(Store.open_dir dir) () in
        (match Cache.find c2 key with
         | Some e' ->
           Alcotest.(check bool) "promoted copy" true
             (e'.Embedding.chains = e.Embedding.chains)
         | None -> Alcotest.fail "store-backed find missed");
        let st = Cache.stats c2 in
        Alcotest.(check int) "hit, not miss" 1 st.Cache.hits;
        Alcotest.(check int) "zero misses" 0 st.Cache.misses;
        Alcotest.(check int) "store hit counted" 1 st.Cache.store_hits;
        (* now resident in the LRU: a second find is a plain hit *)
        ignore (Cache.find c2 key);
        Alcotest.(check int) "LRU hit after promote" 2 (Cache.stats c2).Cache.hits;
        Alcotest.(check int) "store consulted once" 1
          (Cache.stats c2).Cache.store_hits);
    Alcotest.test_case "cache without a store still misses cleanly" `Quick
      (fun () ->
         let c = Cache.create () in
         Alcotest.(check bool) "miss" true
           (Cache.find c (Digest.string "absent") = None);
         Alcotest.(check int) "no store hits" 0 (Cache.stats c).Cache.store_hits)
  ]

let suite = codec_tests @ dir_tests @ cache_tests
