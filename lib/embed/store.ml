(** Persistent content-addressed artifact store (see store.mli). *)

open Qac_ising

let version = 1
let magic = "QACSTORE"

(* Record header: magic(8) version(4) kind(1) length(8); payload; md5(16). *)
let header_len = 8 + 4 + 1 + 8
let kind_embedding = 1
let kind_problem = 2

(* {1 Codec} *)

let add_u32_le b v = Buffer.add_int32_le b (Int32.of_int v)
let add_u64_le b v = Buffer.add_int64_le b (Int64.of_int v)
let add_f64_le b v = Buffer.add_int64_le b (Int64.bits_of_float v)

let encode_record ~kind payload =
  let b = Buffer.create (header_len + String.length payload + 16) in
  Buffer.add_string b magic;
  add_u32_le b version;
  Buffer.add_uint8 b kind;
  add_u64_le b (String.length payload);
  Buffer.add_string b payload;
  Buffer.add_string b (Digest.string payload);
  Buffer.contents b

(* A decode cursor that turns every out-of-bounds read into [Error] rather
   than an exception: the server must shrug at a corrupt corpus. *)
exception Malformed of string

let fail fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt

type cursor = { data : string; mutable pos : int; limit : int }

let take c n what =
  if n < 0 || c.limit - c.pos < n then fail "truncated %s" what;
  let pos = c.pos in
  c.pos <- pos + n;
  pos

let read_u8 c what = Char.code c.data.[take c 1 what]
let read_u32 c what = Int32.to_int (String.get_int32_le c.data (take c 4 what))
let read_i64 c what = String.get_int64_le c.data (take c 8 what)

let read_len c what =
  match Int64.unsigned_to_int (read_i64 c what) with
  | Some n when n <= Sys.max_string_length -> n
  | _ -> fail "implausible %s" what

let read_f64 c what = Int64.float_of_bits (read_i64 c what)

let decode_record ~kind s =
  try
    let c = { data = s; pos = 0; limit = String.length s } in
    let m = take c 8 "magic" in
    if String.sub s m 8 <> magic then fail "bad magic";
    let v = read_u32 c "version" in
    if v <> version then fail "version mismatch: file v%d, supported v%d" v version;
    let k = read_u8 c "kind" in
    if k <> kind then fail "wrong artifact kind: tag %d, expected %d" k kind;
    let n = read_len c "payload length" in
    let payload = String.sub s (take c n "payload") n in
    let sum = String.sub s (take c 16 "checksum") 16 in
    if c.pos <> c.limit then fail "trailing garbage (%d bytes)" (c.limit - c.pos);
    if Digest.string payload <> sum then fail "checksum mismatch";
    Ok payload
  with Malformed m -> Error m

(* Embedding payload: chain count, then each chain as length + qubits. *)

let encode_embedding_payload (e : Embedding.t) =
  let b = Buffer.create 256 in
  add_u64_le b (Array.length e.Embedding.chains);
  Array.iter
    (fun chain ->
       add_u64_le b (Array.length chain);
       Array.iter (fun q -> add_u64_le b q) chain)
    e.Embedding.chains;
  Buffer.contents b

(* [Array.init]'s application order is unspecified, so cursor-advancing
   reads use explicit index-ordered loops instead. *)
let read_array c n what read =
  if n > c.limit - c.pos then fail "implausible %s count" what;
  let out = ref [] in
  for _ = 1 to n do
    out := read c :: !out
  done;
  let a = Array.of_list !out in
  let len = Array.length a in
  Array.init len (fun i -> a.(len - 1 - i))

let decode_embedding_payload payload =
  let c = { data = payload; pos = 0; limit = String.length payload } in
  let num_chains = read_len c "chain count" in
  let chains =
    read_array c num_chains "chain" (fun c ->
        let len = read_len c "chain length" in
        read_array c len "qubit" (fun c -> read_len c "qubit index"))
  in
  if c.pos <> c.limit then fail "trailing garbage in embedding payload";
  { Embedding.chains }

(* Problem payload: num_vars, offset, h array, then couplers as
   (i, j, value) triples.  All floats as raw IEEE-754 bits. *)

let encode_problem_payload (p : Problem.t) =
  let b = Buffer.create 1024 in
  add_u64_le b p.Problem.num_vars;
  add_f64_le b p.Problem.offset;
  Array.iter (fun v -> add_f64_le b v) p.Problem.h;
  add_u64_le b (Array.length p.Problem.couplers);
  Array.iter
    (fun ((i, j), v) ->
       add_u64_le b i;
       add_u64_le b j;
       add_f64_le b v)
    p.Problem.couplers;
  Buffer.contents b

let decode_problem_payload payload =
  let c = { data = payload; pos = 0; limit = String.length payload } in
  let num_vars = read_len c "num_vars" in
  let offset = read_f64 c "offset" in
  let h = read_array c num_vars "linear coefficient" (fun c -> read_f64 c "linear coefficient") in
  let num_couplers = read_len c "coupler count" in
  let j =
    Array.to_list
      (read_array c num_couplers "coupler" (fun c ->
           let i = read_len c "coupler endpoint" in
           let jj = read_len c "coupler endpoint" in
           let v = read_f64 c "coupler value" in
           ((i, jj), v)))
  in
  if c.pos <> c.limit then fail "trailing garbage in problem payload";
  match Problem.create ~num_vars ~h ~j ~offset () with
  | p -> p
  | exception Invalid_argument m -> fail "invalid problem: %s" m

let encode_embedding e = encode_record ~kind:kind_embedding (encode_embedding_payload e)

let decode_embedding s =
  match decode_record ~kind:kind_embedding s with
  | Error _ as e -> e
  | Ok payload ->
    (try Ok (decode_embedding_payload payload) with Malformed m -> Error m)

let encode_problem p = encode_record ~kind:kind_problem (encode_problem_payload p)

let decode_problem s =
  match decode_record ~kind:kind_problem s with
  | Error _ as e -> e
  | Ok payload ->
    (try Ok (decode_problem_payload payload) with Malformed m -> Error m)

(* {1 Directory store} *)

type stats = {
  embeddings : int;
  problems : int;
  embed_hits : int;
  embed_misses : int;
  problem_hits : int;
  problem_misses : int;
  writes : int;
  load_failures : int;
}

type t = {
  dir : string;
  lock : Mutex.t;
  (* digest -> file path, filled by the startup scan; consulted lazily *)
  emb_files : (Digest.t, string) Hashtbl.t;
  prb_files : (Digest.t, string) Hashtbl.t;
  (* decoded artifacts, shared read-only across shards *)
  emb_mem : (Digest.t, Embedding.t) Hashtbl.t;
  prb_mem : (Digest.t, Problem.t) Hashtbl.t;
  (* lock-guarded; [embeddings] and [problems] stay 0, {!stats} fills them *)
  mutable counts : stats;
}

let rec mkdir_p d =
  if d <> "" && not (Sys.file_exists d) then begin
    let parent = Filename.dirname d in
    if parent <> d then mkdir_p parent;
    try Sys.mkdir d 0o755 with
    | Sys_error _ when Sys.file_exists d -> ()
  end

let emb_prefix = "emb-"
let prb_prefix = "prb-"
let suffix = ".art"

let path_of t ~prefix digest = Filename.concat t.dir (prefix ^ Digest.to_hex digest ^ suffix)

(* [emb-<32 hex>.art] -> digest, or None for anything else in the dir. *)
let digest_of_name ~prefix name =
  let plen = String.length prefix and slen = String.length suffix in
  if String.length name = plen + 32 + slen
     && String.starts_with ~prefix name
     && String.ends_with ~suffix name
  then
    match Digest.from_hex (String.sub name plen 32) with
    | d -> Some d
    | exception Invalid_argument _ -> None
  else None

let open_dir dir =
  mkdir_p dir;
  let t =
    { dir;
      lock = Mutex.create ();
      emb_files = Hashtbl.create 64;
      prb_files = Hashtbl.create 64;
      emb_mem = Hashtbl.create 64;
      prb_mem = Hashtbl.create 64;
      counts =
        { embeddings = 0; problems = 0; embed_hits = 0; embed_misses = 0;
          problem_hits = 0; problem_misses = 0; writes = 0; load_failures = 0 } }
  in
  Array.iter
    (fun name ->
       match digest_of_name ~prefix:emb_prefix name with
       | Some d -> Hashtbl.replace t.emb_files d (Filename.concat dir name)
       | None ->
         (match digest_of_name ~prefix:prb_prefix name with
          | Some d -> Hashtbl.replace t.prb_files d (Filename.concat dir name)
          | None -> ()))
    (Sys.readdir dir);
  t

let dir t = t.dir

let with_lock t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
    Mutex.unlock t.lock;
    v
  | exception e ->
    Mutex.unlock t.lock;
    raise e

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Ok (really_input_string ic (in_channel_length ic)))
  with Sys_error m | Invalid_argument m -> Error m
     | End_of_file -> Error "unexpected end of file"

(* Temp-then-rename so a concurrent reader never sees a half-written
   record.  Content-addressed names make cross-process races benign: both
   writers carry identical bytes. *)
let write_file path data =
  let tmp = path ^ ".tmp" in
  try
    let oc = open_out_bin tmp in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc data);
    Sys.rename tmp path;
    true
  with Sys_error _ ->
    (try Sys.remove tmp with Sys_error _ -> ());
    false

(* Shared find/put over the two artifact kinds.  [hit] and [miss] bump
   the kind's own counter. *)

let find_generic t ~files ~mem ~decode ~hit ~miss digest =
  with_lock t (fun () ->
      let bump f = t.counts <- f t.counts in
      match Hashtbl.find_opt mem digest with
      | Some v ->
        bump hit;
        Some v
      | None ->
        (match Hashtbl.find_opt files digest with
         | None ->
           bump miss;
           None
         | Some path ->
           let refuse () =
             Hashtbl.remove files digest;
             bump (fun c -> miss { c with load_failures = c.load_failures + 1 });
             None
           in
           (match read_file path with
            | Error _ -> refuse ()
            | Ok bytes ->
              (match decode bytes with
               | Error _ -> refuse ()
               | Ok v ->
                 Hashtbl.replace mem digest v;
                 bump hit;
                 Some v))))

let put_generic t ~files ~mem ~encode ~prefix digest v =
  with_lock t (fun () ->
      if not (Hashtbl.mem mem digest || Hashtbl.mem files digest) then begin
        let path = path_of t ~prefix digest in
        if write_file path (encode v) then begin
          Hashtbl.replace files digest path;
          Hashtbl.replace mem digest v;
          t.counts <- { t.counts with writes = t.counts.writes + 1 }
        end
      end)

let find_embedding t digest =
  find_generic t ~files:t.emb_files ~mem:t.emb_mem ~decode:decode_embedding
    ~hit:(fun c -> { c with embed_hits = c.embed_hits + 1 })
    ~miss:(fun c -> { c with embed_misses = c.embed_misses + 1 })
    digest

let put_embedding t digest e =
  put_generic t ~files:t.emb_files ~mem:t.emb_mem ~encode:encode_embedding
    ~prefix:emb_prefix digest e

let find_problem t digest =
  find_generic t ~files:t.prb_files ~mem:t.prb_mem ~decode:decode_problem
    ~hit:(fun c -> { c with problem_hits = c.problem_hits + 1 })
    ~miss:(fun c -> { c with problem_misses = c.problem_misses + 1 })
    digest

let put_problem t digest p =
  put_generic t ~files:t.prb_files ~mem:t.prb_mem ~encode:encode_problem
    ~prefix:prb_prefix digest p

let stats t =
  with_lock t (fun () ->
      let count files mem =
        let n = ref (Hashtbl.length files) in
        Hashtbl.iter (fun d _ -> if not (Hashtbl.mem files d) then incr n) mem;
        !n
      in
      { t.counts with
        embeddings = count t.emb_files t.emb_mem;
        problems = count t.prb_files t.prb_mem })

let fields (s : stats) =
  List.map
    (fun (k, v) -> (k, float_of_int v))
    [ ("embeddings", s.embeddings); ("problems", s.problems);
      ("embed_hits", s.embed_hits); ("embed_misses", s.embed_misses);
      ("problem_hits", s.problem_hits); ("problem_misses", s.problem_misses);
      ("writes", s.writes); ("load_failures", s.load_failures) ]
