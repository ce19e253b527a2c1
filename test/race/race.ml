(* Two domains make their first calls to the front end's process-wide
   values at the same instant: the stdcell library text and its parse, the
   shared compile cache and the shared embed cache, then a whole compile.
   Exits 1, naming the failure, if a call raises or the domains see
   different values.  A first call can only be raced once per process, so
   run this in many fresh processes. *)

module P = Qac_core.Pipeline
module E2q = Qac_edif2qmasm.Edif2qmasm

let src = "module t (a, b, y); input [1:0] a, b; output [1:0] y; assign y = a & b; endmodule"

let ready = Atomic.make 0

let first_calls () =
  Atomic.incr ready;
  while Atomic.get ready < 2 do
    Domain.cpu_relax ()
  done;
  let stdcell = Qac_cells.Stdcell.contents () in
  let parsed = Option.get (E2q.resolve E2q.stdcell_filename) in
  let compile_cache = P.shared_compile_cache () in
  let embed_cache = Qac_embed.Cache.shared () in
  let t = P.compile src in
  (stdcell, parsed, compile_cache, embed_cache, t.P.qmasm_src)

let guarded () = try Ok (first_calls ()) with e -> Error (Printexc.to_string e)

let () =
  let other = Domain.spawn guarded in
  let mine = guarded () in
  let fail msg =
    prerr_endline msg;
    exit 1
  in
  match mine, Domain.join other with
  | Error e, _ | _, Error e -> fail ("first call raised " ^ e)
  | Ok (s, p, c, e, q), Ok (s', p', c', e', q') ->
    if not (s == s' && p == p' && c == c' && e == e') then
      fail "the domains saw different shared values";
    if not (String.equal q q') then fail "the domains compiled different QMASM"
