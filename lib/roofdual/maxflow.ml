(** Dinic maximum flow on a small dense-ish directed graph, for the
    roof-duality implication network. *)

type edge = {
  dst : int;
  mutable capacity : float;
  mutable flow : float;
  inverse : int;  (* index of the reverse edge in [edges] *)
}

type t = {
  num_nodes : int;
  mutable edges : edge array;
  mutable num_edges : int;
  adjacency : int list array;  (* edge indices per node, reverse order *)
}

let create num_nodes =
  { num_nodes;
    edges = Array.make 16 { dst = 0; capacity = 0.0; flow = 0.0; inverse = 0 };
    num_edges = 0;
    adjacency = Array.make num_nodes [] }

let push_edge t e =
  if t.num_edges = Array.length t.edges then begin
    let bigger = Array.make (2 * t.num_edges) t.edges.(0) in
    Array.blit t.edges 0 bigger 0 t.num_edges;
    t.edges <- bigger
  end;
  t.edges.(t.num_edges) <- e;
  t.num_edges <- t.num_edges + 1

let add_edge t u v capacity =
  if capacity < 0.0 then invalid_arg "Maxflow.add_edge: negative capacity";
  let forward_idx = t.num_edges in
  let forward = { dst = v; capacity; flow = 0.0; inverse = forward_idx + 1 } in
  let backward = { dst = u; capacity = 0.0; flow = 0.0; inverse = forward_idx } in
  push_edge t forward;
  push_edge t backward;
  t.adjacency.(u) <- forward_idx :: t.adjacency.(u);
  t.adjacency.(v) <- (forward_idx + 1) :: t.adjacency.(v)

let residual t idx =
  let e = t.edges.(idx) in
  e.capacity -. e.flow

let eps = 1e-12

(* BFS level graph. *)
let levels t ~source =
  let level = Array.make t.num_nodes (-1) in
  let queue = Queue.create () in
  level.(source) <- 0;
  Queue.add source queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    List.iter
      (fun idx ->
         let e = t.edges.(idx) in
         if level.(e.dst) < 0 && residual t idx > eps then begin
           level.(e.dst) <- level.(u) + 1;
           Queue.add e.dst queue
         end)
      t.adjacency.(u)
  done;
  level

let max_flow t ~source ~sink =
  let total = ref 0.0 in
  let continue_ = ref true in
  while !continue_ do
    let level = levels t ~source in
    if level.(sink) < 0 then continue_ := false
    else begin
      (* Iterators over remaining edges per node (Dinic's current-arc). *)
      let current = Array.map (fun l -> ref l) (Array.map (fun l -> l) t.adjacency) in
      let rec augment u limit =
        if u = sink then limit
        else begin
          let rec try_edges () =
            match !(current.(u)) with
            | [] -> 0.0
            | idx :: rest ->
              let e = t.edges.(idx) in
              if residual t idx > eps && level.(e.dst) = level.(u) + 1 then begin
                let pushed = augment e.dst (Float.min limit (residual t idx)) in
                if pushed > eps then begin
                  e.flow <- e.flow +. pushed;
                  t.edges.(e.inverse).flow <- t.edges.(e.inverse).flow -. pushed;
                  pushed
                end
                else begin
                  current.(u) := rest;
                  try_edges ()
                end
              end
              else begin
                current.(u) := rest;
                try_edges ()
              end
          in
          try_edges ()
        end
      in
      let rec pump () =
        let pushed = augment source infinity in
        if pushed > eps then begin
          total := !total +. pushed;
          pump ()
        end
      in
      pump ()
    end
  done;
  !total

let reachable t ~source =
  let seen = Array.make t.num_nodes false in
  let queue = Queue.create () in
  seen.(source) <- true;
  Queue.add source queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    List.iter
      (fun idx ->
         let e = t.edges.(idx) in
         if (not seen.(e.dst)) && residual t idx > eps then begin
           seen.(e.dst) <- true;
           Queue.add e.dst queue
         end)
      t.adjacency.(u)
  done;
  seen
