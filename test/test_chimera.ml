module Chimera = Qac_chimera.Chimera

let suite =
  [ Alcotest.test_case "C16 has 2048 qubits and 6016 couplers" `Quick (fun () ->
        let g = Chimera.dwave_2000q in
        Alcotest.(check int) "qubits" 2048 (Chimera.num_qubits g);
        Alcotest.(check int) "couplers" 6016 (Chimera.num_edges g));
    Alcotest.test_case "C1 is a K4,4" `Quick (fun () ->
        let g = Chimera.create 1 in
        Alcotest.(check int) "qubits" 8 (Chimera.num_qubits g);
        Alcotest.(check int) "couplers" 16 (Chimera.num_edges g);
        for q = 0 to 7 do
          Alcotest.(check int) "degree" 4 (Chimera.degree g q)
        done);
    Alcotest.test_case "coords round-trip" `Quick (fun () ->
        let g = Chimera.create 4 in
        for q = 0 to Chimera.num_qubits g - 1 do
          Alcotest.(check int) "roundtrip" q (Chimera.qubit g (Chimera.coords g q))
        done);
    Alcotest.test_case "adjacency is symmetric" `Quick (fun () ->
        let g = Chimera.create 3 in
        for q = 0 to Chimera.num_qubits g - 1 do
          List.iter
            (fun p ->
               Alcotest.(check bool) "sym" true (List.mem q (Chimera.neighbors g p)))
            (Chimera.neighbors g q)
        done);
    Alcotest.test_case "unit cell is complete bipartite" `Quick (fun () ->
        let g = Chimera.create 2 in
        (* Qubits 0-3 (horizontal) each adjacent to 4-7 (vertical) in cell 0. *)
        for h = 0 to 3 do
          for v = 4 to 7 do
            Alcotest.(check bool) "k44" true (Chimera.adjacent g h v)
          done;
          for h2 = 0 to 3 do
            if h <> h2 then
              Alcotest.(check bool) "no intra-partition" false (Chimera.adjacent g h h2)
          done
        done);
    Alcotest.test_case "inter-cell couplers follow Figure 1" `Quick (fun () ->
        let g = Chimera.create 2 in
        (* Horizontal-partition qubit 0 of cell (0,0) couples to its peer in
           the cell south: cell (1,0) = qubits 16-23, peer = 16. *)
        Alcotest.(check bool) "north-south" true (Chimera.adjacent g 0 16);
        (* Vertical-partition qubit 4 of cell (0,0) couples east to cell
           (0,1) = qubits 8-15, peer = 12. *)
        Alcotest.(check bool) "east-west" true (Chimera.adjacent g 4 12);
        (* But horizontal qubits do not couple east. *)
        Alcotest.(check bool) "no horizontal-east" false (Chimera.adjacent g 0 8));
    Alcotest.test_case "broken qubits drop out" `Quick (fun () ->
        let g = Chimera.create 2 ~broken:[ 0; 5 ] in
        Alcotest.(check int) "working" 30 (Chimera.num_working_qubits g);
        Alcotest.(check bool) "not working" false (Chimera.is_working g 0);
        Alcotest.(check (list int)) "no neighbors" [] (Chimera.neighbors g 0);
        Alcotest.(check bool) "neighbor lists exclude broken" true
          (not (List.mem 5 (Chimera.neighbors g 1))));
    Alcotest.test_case "max degree is 6" `Quick (fun () ->
        let g = Chimera.create 4 in
        let max_deg = ref 0 in
        for q = 0 to Chimera.num_qubits g - 1 do
          max_deg := max !max_deg (Chimera.degree g q)
        done;
        Alcotest.(check int) "degree" 6 !max_deg);
    Alcotest.test_case "bipartite: no odd cycles" `Quick (fun () ->
        (* 2-color by partition: every edge crosses partitions or links same
           partition across cells... verify properly with BFS 2-coloring. *)
        let g = Chimera.create 3 in
        let color = Array.make (Chimera.num_qubits g) (-1) in
        let ok = ref true in
        for start = 0 to Chimera.num_qubits g - 1 do
          if color.(start) < 0 then begin
            color.(start) <- 0;
            let queue = Queue.create () in
            Queue.add start queue;
            while not (Queue.is_empty queue) do
              let q = Queue.pop queue in
              List.iter
                (fun n ->
                   if color.(n) < 0 then begin
                     color.(n) <- 1 - color.(q);
                     Queue.add n queue
                   end
                   else if color.(n) = color.(q) then ok := false)
                (Chimera.neighbors g q)
            done
          end
        done;
        Alcotest.(check bool) "2-colorable" true !ok;
        Alcotest.(check bool) "has_odd_cycles" false (Chimera.has_odd_cycles g));
  ]

module Topology = Qac_chimera.Topology
module Pegasus = Qac_chimera.Pegasus

let topology_tests =
  [ Alcotest.test_case "generic topology from edge list" `Quick (fun () ->
        let g =
          Topology.create ~name:"path" ~params:[] ~num_qubits:4
            ~edges:[ (0, 1); (1, 2); (2, 3) ] ()
        in
        Alcotest.(check int) "edges" 3 (Topology.num_edges g);
        Alcotest.(check bool) "bipartite" true (Topology.is_bipartite g);
        Alcotest.(check int) "deg 1" 2 (Topology.degree g 1));
    Alcotest.test_case "duplicate edges collapse" `Quick (fun () ->
        let g =
          Topology.create ~name:"dup" ~params:[] ~num_qubits:2
            ~edges:[ (0, 1); (1, 0); (0, 1) ] ()
        in
        Alcotest.(check int) "one edge" 1 (Topology.num_edges g));
    Alcotest.test_case "self loop rejected" `Quick (fun () ->
        match Topology.create ~name:"x" ~params:[] ~num_qubits:2 ~edges:[ (1, 1) ] () with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected rejection");
    Alcotest.test_case "odd cycle detected" `Quick (fun () ->
        let g =
          Topology.create ~name:"tri" ~params:[] ~num_qubits:3
            ~edges:[ (0, 1); (1, 2); (0, 2) ] ()
        in
        Alcotest.(check bool) "not bipartite" false (Topology.is_bipartite g));
    Alcotest.test_case "shore-6 chimera has degree 8" `Quick (fun () ->
        let g = Chimera.create ~shore:6 3 in
        Alcotest.(check int) "qubits" (2 * 6 * 9) (Chimera.num_qubits g);
        Alcotest.(check int) "max degree" 8 (Topology.max_degree g);
        Alcotest.(check int) "shore" 6 (Chimera.shore g));
    Alcotest.test_case "CSR invariants on a broken Chimera" `Quick (fun () ->
        (* The embedder walks row_start/col directly, so the representation
           is a contract: rows sorted ascending, symmetric, broken rows
           empty, and num_edges = |col| / 2. *)
        let g = Chimera.create 3 ~broken:[ 0; 17; 40 ] in
        let n = Topology.num_qubits g in
        Alcotest.(check int) "row table spans col" (Array.length g.Topology.col)
          g.Topology.row_start.(n);
        for q = 0 to n - 1 do
          let lo = g.Topology.row_start.(q) and hi = g.Topology.row_start.(q + 1) in
          Alcotest.(check bool) "monotone" true (lo <= hi);
          if not (Topology.is_working g q) then
            Alcotest.(check int) "broken row empty" lo hi;
          for k = lo to hi - 1 do
            let p = g.Topology.col.(k) in
            if k > lo then
              Alcotest.(check bool) "sorted strictly" true (g.Topology.col.(k - 1) < p);
            Alcotest.(check bool) "symmetric" true (Topology.adjacent g p q)
          done
        done;
        Alcotest.(check int) "each edge stored twice"
          (2 * Topology.num_edges g) (Array.length g.Topology.col));
    Alcotest.test_case "num_edges memo matches a recount" `Quick (fun () ->
        let g = Chimera.create 2 ~broken:[ 5 ] in
        Alcotest.(check int) "recount" (List.length (Topology.edges g))
          (Topology.num_edges g));
  ]

let pegasus_tests =
  [ Alcotest.test_case "P_m has 24 m (m-1) qubits" `Quick (fun () ->
        List.iter
          (fun m ->
             Alcotest.(check int)
               (Printf.sprintf "P%d" m)
               (24 * m * (m - 1))
               (Topology.num_qubits (Pegasus.create m)))
          [ 2; 3; 4 ]);
    Alcotest.test_case "coords round-trip" `Quick (fun () ->
        let g = Pegasus.create 3 in
        for q = 0 to Topology.num_qubits g - 1 do
          Alcotest.(check int) "roundtrip" q (Pegasus.qubit g (Pegasus.coords g q))
        done);
    Alcotest.test_case "max degree 15 (12 internal + 2 external + 1 odd)" `Quick (fun () ->
        Alcotest.(check int) "degree" 15 (Topology.max_degree (Pegasus.create 4)));
    Alcotest.test_case "contains odd cycles (unlike Chimera)" `Quick (fun () ->
        Alcotest.(check bool) "not bipartite" false
          (Topology.is_bipartite (Pegasus.create 2)));
    Alcotest.test_case "adjacency symmetric" `Quick (fun () ->
        let g = Pegasus.create 2 in
        for q = 0 to Topology.num_qubits g - 1 do
          List.iter
            (fun p -> Alcotest.(check bool) "sym" true (List.mem q (Topology.neighbors g p)))
            (Topology.neighbors g q)
        done);
    Alcotest.test_case "K4 embeds without chains" `Quick (fun () ->
        let k4 =
          Qac_ising.Problem.create ~num_vars:4 ~h:(Array.make 4 0.1)
            ~j:[ ((0, 1), 1.0); ((0, 2), 1.0); ((0, 3), 1.0); ((1, 2), 1.0);
                 ((1, 3), 1.0); ((2, 3), 1.0) ]
            ()
        in
        let g = Pegasus.create 2 in
        match Qac_embed.Cmr.find g k4 with
        | Some e ->
          Alcotest.(check int) "4 qubits" 4 (Qac_embed.Embedding.num_physical_qubits e);
          Alcotest.(check bool) "verifies" true
            (Qac_embed.Embedding.verify g k4 e = Ok ())
        | None -> Alcotest.fail "no embedding");
    Alcotest.test_case "fabric trimming: P2 keeps a 40-qubit main fabric" `Quick
      (fun () ->
         (* The idealized 24m(m-1) node set includes boundary segments that
            cross nothing; they are marked broken like on real chips
            (P16: 5760 -> 5640). *)
         Alcotest.(check int) "working" 40
           (Topology.num_working_qubits (Pegasus.create 2)));
    Alcotest.test_case "broken qubits respected" `Quick (fun () ->
        let baseline = Topology.num_working_qubits (Pegasus.create 2) in
        let g = Pegasus.create 2 ~broken:[ 0; 1; 2 ] in
        Alcotest.(check bool) "fewer working" true
          (Topology.num_working_qubits g < baseline);
        Alcotest.(check bool) "0 broken" false (Topology.is_working g 0);
        Alcotest.(check (list int)) "no neighbors" [] (Topology.neighbors g 0));
  ]

(* --- Pegasus structural properties (QCheck) ---------------------------------- *)

(* Edge classes per the geometric construction.  [`Bad] means the edge fits
   no class — a construction bug. *)
let classify g q p =
  let a = Pegasus.coords g q and b = Pegasus.coords g p in
  if a.Pegasus.orientation <> b.Pegasus.orientation then `Internal
  else if
    a.Pegasus.offset = b.Pegasus.offset
    && a.Pegasus.track = b.Pegasus.track
    && abs (a.Pegasus.position - b.Pegasus.position) = 1
  then `External
  else if
    a.Pegasus.offset = b.Pegasus.offset
    && a.Pegasus.position = b.Pegasus.position
    && a.Pegasus.track / 2 = b.Pegasus.track / 2
    && a.Pegasus.track <> b.Pegasus.track
  then `Odd
  else `Bad

(* Whether a vertical and a horizontal segment cross, from the raw
   plane geometry (the construction's source of truth for internal
   couplers). *)
let crosses ~vs ~hs v h =
  let x = (12 * v.Pegasus.offset) + v.Pegasus.track in
  let y0 = (12 * v.Pegasus.position) + vs.(v.Pegasus.track) in
  let y = (12 * h.Pegasus.offset) + h.Pegasus.track in
  let x0 = (12 * h.Pegasus.position) + hs.(h.Pegasus.track) in
  y >= y0 && y < y0 + 12 && x >= x0 && x < x0 + 12

(* Independent recount of each coupler class, restricted to working qubits
   (closed-form counts do not survive fabric trimming, so the test recounts
   geometrically instead of trusting a formula). *)
let expected_class_counts g m =
  let vs = Pegasus.vertical_shifts g and hs = Pegasus.horizontal_shifts g in
  let working c = Topology.is_working g (Pegasus.qubit g c) in
  let ext = ref 0 and odd = ref 0 and internal = ref 0 in
  for u = 0 to 1 do
    for w = 0 to m - 1 do
      for k = 0 to 11 do
        for z = 0 to m - 2 do
          let c = { Pegasus.orientation = u; offset = w; track = k; position = z } in
          if working c then begin
            if z + 1 <= m - 2 && working { c with Pegasus.position = z + 1 } then incr ext;
            if k mod 2 = 0 && working { c with Pegasus.track = k + 1 } then incr odd
          end
        done
      done
    done
  done;
  for w = 0 to m - 1 do
    for k = 0 to 11 do
      for z = 0 to m - 2 do
        let v = { Pegasus.orientation = 0; offset = w; track = k; position = z } in
        if working v then
          for w' = 0 to m - 1 do
            for k' = 0 to 11 do
              for z' = 0 to m - 2 do
                let h = { Pegasus.orientation = 1; offset = w'; track = k'; position = z' } in
                if working h && crosses ~vs ~hs v h then incr internal
              done
            done
          done
      done
    done
  done;
  (!ext, !odd, !internal)

let pegasus_structural =
  QCheck.Test.make
    ~name:"Pegasus structure: counts, degree caps, coupler classes, round-trip"
    ~count:12
    QCheck.(pair (int_range 2 5) (int_bound 10_000))
    (fun (m, seed) ->
       let module Rng = Qac_anneal.Rng in
       let pristine = Pegasus.create m in
       let n = Topology.num_qubits pristine in
       if n <> 24 * m * (m - 1) then
         QCheck.Test.fail_reportf "P%d has %d qubits, want %d" m n (24 * m * (m - 1));
       (* Working count after fabric trimming: 8(m-1)(3m-1), the idealized
          node set minus the 8(m-1) boundary segments that cross nothing. *)
       let want_working = 8 * (m - 1) * ((3 * m) - 1) in
       if Topology.num_working_qubits pristine <> want_working then
         QCheck.Test.fail_reportf "P%d working %d, want %d" m
           (Topology.num_working_qubits pristine) want_working;
       for q = 0 to n - 1 do
         if Pegasus.qubit pristine (Pegasus.coords pristine q) <> q then
           QCheck.Test.fail_reportf "coords round-trip broke at %d" q
       done;
       (* Now knock out random qubits on top of the trimming and recheck the
          structural invariants on the damaged graph. *)
       let rng = Rng.create seed in
       let broken = List.init (Rng.int rng 6) (fun _ -> Rng.int rng n) in
       let g = Pegasus.create ~broken m in
       let ext = ref 0 and odd = ref 0 and internal = ref 0 in
       List.iter
         (fun (q, p) ->
            match classify g q p with
            | `External -> incr ext
            | `Odd -> incr odd
            | `Internal -> incr internal
            | `Bad -> QCheck.Test.fail_reportf "edge (%d, %d) fits no coupler class" q p)
         (Topology.edges g);
       let want_ext, want_odd, want_internal = expected_class_counts g m in
       if (!ext, !odd, !internal) <> (want_ext, want_odd, want_internal) then
         QCheck.Test.fail_reportf
           "coupler classes (ext %d, odd %d, int %d) disagree with geometric recount \
            (%d, %d, %d)"
           !ext !odd !internal want_ext want_odd want_internal;
       (* Degree cap 15 = 12 internal + 2 external + 1 odd, per class. *)
       for q = 0 to n - 1 do
         let e = ref 0 and o = ref 0 and i = ref 0 in
         List.iter
           (fun p ->
              match classify g q p with
              | `External -> incr e
              | `Odd -> incr o
              | `Internal -> incr i
              | `Bad -> ())
           (Topology.neighbors g q);
         if !e > 2 || !o > 1 || !i > 12 then
           QCheck.Test.fail_reportf "qubit %d class degrees (ext %d, odd %d, int %d)" q !e
             !o !i;
         if Topology.degree g q > 15 then
           QCheck.Test.fail_reportf "qubit %d degree %d > 15" q (Topology.degree g q)
       done;
       true)

(* --- Topology families -------------------------------------------------------- *)

module Family = Qac_chimera.Family

(* The tiler's soundness rests on this: every edge of the local fabric maps
   through [block_qubits] onto a real coupler of the chip, and every working
   local qubit onto a working global qubit. *)
let check_block_isomorphism fam ~k ~origins =
  let local = fam.Family.build_local k in
  List.iter
    (fun (r0, c0) ->
       let qubits = fam.Family.block_qubits ~r0 ~c0 ~block:k in
       Alcotest.(check int)
         "block indexes the whole local fabric"
         (Topology.num_qubits local) (Array.length qubits);
       for l = 0 to Topology.num_qubits local - 1 do
         if Topology.is_working local l then
           Alcotest.(check bool)
             (Printf.sprintf "local qubit %d maps to a working qubit" l)
             true
             (Topology.is_working fam.Family.graph qubits.(l))
       done;
       List.iter
         (fun (a, b) ->
            Alcotest.(check bool)
              (Printf.sprintf "local edge (%d, %d) maps to a coupler" a b)
              true
              (Topology.adjacent fam.Family.graph qubits.(a) qubits.(b)))
         (Topology.edges local))
    origins

let family_tests =
  [ Alcotest.test_case "of_topology dispatches on family identity" `Quick (fun () ->
        Alcotest.(check string) "chimera" "chimera"
          (Family.of_topology (Chimera.create 2)).Family.family;
        Alcotest.(check string) "pegasus" "pegasus"
          (Family.of_topology (Pegasus.create 2)).Family.family;
        let alien =
          Topology.create ~name:"ring" ~params:[] ~num_qubits:3
            ~edges:[ (0, 1); (1, 2); (0, 2) ] ()
        in
        match Family.of_topology alien with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected rejection of an unknown family");
    Alcotest.test_case "tiles partition the qubits (both families)" `Quick (fun () ->
        List.iter
          (fun fam ->
             let seen = Array.make (Topology.num_qubits fam.Family.graph) false in
             for q = 0 to Topology.num_qubits fam.Family.graph - 1 do
               let r, c = fam.Family.tile_of_qubit q in
               Alcotest.(check bool) "row in range" true (r >= 0 && r < fam.Family.rows);
               Alcotest.(check bool) "col in range" true (c >= 0 && c < fam.Family.cols);
               Alcotest.(check bool) "each qubit in one tile" false seen.(q);
               seen.(q) <- true
             done;
             Alcotest.(check bool) "all qubits covered" true (Array.for_all Fun.id seen))
          [ Family.chimera (Chimera.create 3); Family.pegasus (Pegasus.create 3) ]);
    Alcotest.test_case "blocks are isomorphic to the local fabric (Chimera)" `Quick
      (fun () ->
         let fam = Family.chimera (Chimera.create 6) in
         check_block_isomorphism fam ~k:2 ~origins:[ (0, 0); (1, 2); (4, 4) ]);
    Alcotest.test_case "blocks are isomorphic to the local fabric (Pegasus)" `Quick
      (fun () ->
         let fam = Family.pegasus (Pegasus.create 4) in
         check_block_isomorphism fam ~k:1 ~origins:[ (0, 0); (1, 1); (2, 0) ];
         check_block_isomorphism fam ~k:2 ~origins:[ (0, 0); (1, 1) ]);
    Alcotest.test_case "pegasus clean tiles tolerate fabric trimming only" `Quick
      (fun () ->
         let pristine = Family.pegasus (Pegasus.create 3) in
         Alcotest.(check bool) "pristine fabric is all clean" true
           (Array.for_all (Array.for_all Fun.id) pristine.Family.clean);
         (* Breaking one pristine-working qubit dirties exactly its tile. *)
         let victim = ref (-1) in
         (try
            for q = 0 to Topology.num_qubits pristine.Family.graph - 1 do
              if Topology.is_working pristine.Family.graph q then begin
                victim := q;
                raise Exit
              end
            done
          with Exit -> ());
         let vr, vc = pristine.Family.tile_of_qubit !victim in
         let damaged = Family.pegasus (Pegasus.create ~broken:[ !victim ] 3) in
         Alcotest.(check bool) "victim tile dirty" false damaged.Family.clean.(vr).(vc);
         let others_clean = ref true in
         Array.iteri
           (fun r row ->
              Array.iteri
                (fun c ok -> if (r, c) <> (vr, vc) && not ok then others_clean := false)
                row)
           damaged.Family.clean;
         Alcotest.(check bool) "other tiles stay clean" true !others_clean);
    Alcotest.test_case "max_feasible_block accounts for footprints" `Quick (fun () ->
        Alcotest.(check int) "C6 hosts a 6-block" 6
          (Family.max_feasible_block (Family.chimera (Chimera.create 6)));
        (* P4's 4x4 tile grid fits the (k+1)-tile footprint of k=3 exactly. *)
        Alcotest.(check int) "P4 hosts a 3-block" 3
          (Family.max_feasible_block (Family.pegasus (Pegasus.create 4))));
    Alcotest.test_case "build_local returns one shared graph per size" `Quick
      (fun () ->
         List.iter
           (fun (fam, fresh) ->
              for k = 1 to 2 do
                let g = fam.Family.build_local k in
                Alcotest.(check bool)
                  (Printf.sprintf "%s k=%d physically shared" fam.Family.family k)
                  true
                  (g == fam.Family.build_local k);
                Alcotest.(check bool)
                  (Printf.sprintf "%s k=%d equals a fresh build" fam.Family.family k)
                  true (g = fresh k)
              done)
           [ (Family.chimera (Chimera.create 4), fun k -> Chimera.create k);
             (Family.pegasus (Pegasus.create 4), fun k -> Pegasus.create (k + 1)) ]);
    Alcotest.test_case "concurrent first calls to build_local share one graph" `Quick
      (fun () ->
         List.iter
           (fun fam ->
              let got = Array.make 4 None in
              Qac_anneal.Parallel.run_tasks ~num_workers:4 4 (fun i ->
                  got.(i) <- Some (fam.Family.build_local 2));
              let first = Option.get got.(0) in
              Array.iter
                (fun g ->
                   Alcotest.(check bool)
                     (fam.Family.family ^ ": one value across domains")
                     true
                     (Option.get g == first))
                got;
              Alcotest.(check bool) (fam.Family.family ^ ": and later calls") true
                (fam.Family.build_local 2 == first))
           [ Family.chimera (Chimera.create 4); Family.pegasus (Pegasus.create 4) ]);
  ]

let suite =
  suite @ topology_tests @ pegasus_tests
  @ [ QCheck_alcotest.to_alcotest pegasus_structural ]
  @ family_tests
