type t = Topology.t

type coords = {
  row : int;
  col : int;
  partition : int;
  index : int;
}

let qubit_of_coords ~m ~shore { row; col; partition; index } =
  if row < 0 || row >= m || col < 0 || col >= m then invalid_arg "Chimera: cell out of range";
  if partition < 0 || partition > 1 then invalid_arg "Chimera: bad partition";
  if index < 0 || index >= shore then invalid_arg "Chimera: bad index";
  (2 * shore * ((row * m) + col)) + (shore * partition) + index

let coords_of_qubit ~m ~shore q =
  if q < 0 || q >= 2 * shore * m * m then invalid_arg "Chimera: qubit out of range";
  let cell = q / (2 * shore) in
  let within = q mod (2 * shore) in
  { row = cell / m; col = cell mod m; partition = within / shore; index = within mod shore }

let create ?(broken = []) ?(shore = 4) m =
  if m < 1 then invalid_arg "Chimera.create: size must be >= 1";
  if shore < 1 then invalid_arg "Chimera.create: shore must be >= 1";
  let num_qubits = 2 * shore * m * m in
  let edges = ref [] in
  for row = 0 to m - 1 do
    for col = 0 to m - 1 do
      (* K_{t,t} within the cell. *)
      for i = 0 to shore - 1 do
        for k = 0 to shore - 1 do
          edges :=
            ( qubit_of_coords ~m ~shore { row; col; partition = 0; index = i },
              qubit_of_coords ~m ~shore { row; col; partition = 1; index = k } )
            :: !edges
        done
      done;
      (* Horizontal partition couples north-south. *)
      if row + 1 < m then
        for i = 0 to shore - 1 do
          edges :=
            ( qubit_of_coords ~m ~shore { row; col; partition = 0; index = i },
              qubit_of_coords ~m ~shore { row = row + 1; col; partition = 0; index = i } )
            :: !edges
        done;
      (* Vertical partition couples east-west. *)
      if col + 1 < m then
        for i = 0 to shore - 1 do
          edges :=
            ( qubit_of_coords ~m ~shore { row; col; partition = 1; index = i },
              qubit_of_coords ~m ~shore { row; col = col + 1; partition = 1; index = i } )
            :: !edges
        done
    done
  done;
  Topology.create
    ~name:(Printf.sprintf "chimera-%dx%dx%d" m m shore)
    ~params:[ ("m", m); ("shore", shore) ]
    ~num_qubits ~edges:!edges ~broken ()

let dwave_2000q = create 16

let size t = Topology.param t "m"
let shore t = Topology.param t "shore"

let num_qubits = Topology.num_qubits
let num_working_qubits = Topology.num_working_qubits

let qubit t c = qubit_of_coords ~m:(size t) ~shore:(shore t) c
let coords t q = coords_of_qubit ~m:(size t) ~shore:(shore t) q

let is_working = Topology.is_working
let adjacent = Topology.adjacent
let neighbors = Topology.neighbors
let edges = Topology.edges
let num_edges = Topology.num_edges
let degree = Topology.degree

let has_odd_cycles t = not (Topology.is_bipartite t)
