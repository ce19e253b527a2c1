(** Persistent content-addressed artifact store.

    Every expensive product of the pipeline is a pure function of its
    inputs: a minor embedding depends only on (topology identity, problem
    structure, CMR params) — exactly what {!Cache.key} digests — and a
    compiled Ising problem depends only on (source, compile options).  The
    store snapshots both kinds of artifact to disk as one file per digest,
    so a restarted server starts warm and a pool of shards shares one
    on-disk corpus (the production idiom of dimod's
    [FixedEmbeddingComposite]: embeddings as first-class reusable
    artifacts).

    {b On-disk format.}  Each artifact is a single file
    [<kind>-<hex digest>.art] holding a versioned, length-prefixed binary
    record:

    {v
      magic   8 bytes  "QACSTORE"
      version u32 LE   {!version}
      kind    u8       1 = embedding, 2 = problem
      length  u64 LE   payload byte count
      payload length bytes
      md5     16 bytes Digest.bytes of payload
    v}

    Floats are stored as their IEEE-754 bit patterns
    ([Int64.bits_of_float], little-endian), so coefficients round-trip
    bit-exactly.  Decoding never raises: a truncated, corrupt or
    version-mismatched file yields [Error _] from the codec and [None]
    from the store (counted in [load_failures]), never a crash.

    {b Concurrency.}  All operations are mutex-guarded; one [t] is meant
    to be shared by every shard of a pool.  Decoded artifacts are memoized
    in the store, and each shard's LRU copies the (immutable) value on
    promotion — copy-on-promote, no cross-shard aliasing of cache state.

    Writes go to a temp file in the same directory followed by a rename,
    so concurrent readers never observe a partial record. *)

type t

val version : int
(** Current codec version.  Bumped on any format change; older files are
    refused with [Error], never misread. *)

val open_dir : string -> t
(** [open_dir dir] creates [dir] (and parents) if needed and indexes the
    artifacts already present; artifact payloads are decoded lazily on
    first access.  Raises [Sys_error] only if the directory cannot be
    created or listed. *)

val dir : t -> string

val find_embedding : t -> Digest.t -> Embedding.t option
(** Lookup by {!Cache.key} digest.  Decode failure of an on-disk record
    counts as a miss plus a [load_failures] tick and drops the entry. *)

val put_embedding : t -> Digest.t -> Embedding.t -> unit
(** Write-through; no-op when the digest is already stored.  I/O errors are swallowed (the store is an accelerator, not
    a source of truth). *)

val find_problem : t -> Digest.t -> Qac_ising.Problem.t option
(** Lookup a compiled-problem snapshot, keyed by a digest of the compile
    inputs (source text + options); the caller owns the key discipline. *)

val put_problem : t -> Digest.t -> Qac_ising.Problem.t -> unit

type stats = {
  embeddings : int;  (** embedding artifacts known (on disk or memoized) *)
  problems : int;  (** problem artifacts known *)
  embed_hits : int;
  embed_misses : int;
  problem_hits : int;
  problem_misses : int;
  writes : int;  (** artifacts persisted by this process *)
  load_failures : int;  (** on-disk records refused by the codec *)
}

val stats : t -> stats

val fields : stats -> (string * float) list
(** Every counter under its record field name, in declaration order: the
    one list the Prometheus view renders from. *)

(** {1 Codec}

    Exposed for tests and tooling: full-record encoders/decoders
    (header + payload + checksum, exactly the file contents). *)

val encode_embedding : Embedding.t -> string
val decode_embedding : string -> (Embedding.t, string) result
val encode_problem : Qac_ising.Problem.t -> string
val decode_problem : string -> (Qac_ising.Problem.t, string) result
