(* Golden digests of the front end's artifacts.  The EDIF and QMASM texts,
   the assembled problems and the symbol tables of a fixed corpus are
   hashed with MD5 and compared against digests recorded before the front
   end was rewritten for speed: any change to a byte of output, a float
   bit, or the variable numbering shows up here. *)

module P = Qac_core.Pipeline
module A = Qac_qmasm.Assemble
module Problem = Qac_ising.Problem

let fig2_src =
  "module circuit (s, a, b, c); input s; input a; input b; output [1:0] c;\n\
   assign c = s ? a + b : a - b; endmodule"

let circsat_src =
  {|module circsat (a, b, c, y);
  input a, b, c;
  output y;
  wire [1:10] x;
  assign x[1] = a;
  assign x[2] = b;
  assign x[3] = c;
  assign x[4] = ~x[3];
  assign x[5] = x[1] | x[2];
  assign x[6] = ~x[4];
  assign x[7] = x[1] & x[2] & x[4];
  assign x[8] = x[5] | x[6];
  assign x[9] = x[6] | x[7];
  assign x[10] = x[8] & x[9] & x[7];
  assign y = x[10];
endmodule|}

let australia_src =
  {|module australia (NSW, QLD, SA, VIC, WA, NT, ACT, valid);
  input [1:0] NSW, QLD, SA, VIC, WA, NT, ACT;
  output valid;
  assign valid = WA != NT && WA != SA && NT != SA && NT != QLD && SA != QLD && SA != NSW
              && SA != VIC && QLD != NSW && NSW != VIC && NSW != ACT;
endmodule|}

let counter_src =
  {|module count (clk, inc, reset, out);
  input clk;
  input inc;
  input reset;
  output [5:0] out;
  reg [5:0] var;
  always @(posedge clk)
    if (reset)
      var <= 0;
    else
      if (inc)
        var <= var + 1;
  assign out = var;
endmodule|}

let mult_src w =
  Printf.sprintf
    "module mult (a, b, p); input [%d:0] a; input [%d:0] b; output [%d:0] p;\n\
     assign p = a * b; endmodule"
    (w - 1) (w - 1) ((2 * w) - 1)

let binop_src w op =
  Printf.sprintf
    "module binop (a, b, y); input [%d:0] a; input [%d:0] b; output [%d:0] y;\n\
     assign y = a %s b; endmodule"
    (w - 1) (w - 1) w op

let subset_src weights =
  let rec bit_width n = if n = 0 then 0 else 1 + bit_width (n lsr 1) in
  let bits = bit_width (List.fold_left ( + ) 0 weights) in
  let terms =
    List.mapi (fun i w -> Printf.sprintf "(sel[%d] ? %d : 0)" i w) weights |> String.concat " + "
  in
  Printf.sprintf
    "module subset_sum (sel, target, valid); input [%d:0] sel; input [%d:0] target;\n\
     output valid; wire [%d:0] sum; assign sum = %s; assign valid = sum == target; endmodule"
    (List.length weights - 1) (bits - 1) (bits - 1) terms

(* (name, source, unroll steps) *)
let corpus =
  [ ("fig2", fig2_src, None) ]
  @ List.map (fun w -> (Printf.sprintf "mult%d" w, mult_src w, None)) [ 2; 3; 4; 5 ]
  @ List.concat_map
      (fun w ->
         [ (Printf.sprintf "add%d" w, binop_src w "+", None);
           (Printf.sprintf "sub%d" w, binop_src w "-", None) ])
      [ 8; 16 ]
  @ List.map (fun s -> (Printf.sprintf "counter%d" s, counter_src, Some s)) [ 1; 4; 8 ]
  @ List.map
      (fun k ->
         ( Printf.sprintf "subset%d" k,
           subset_src (List.filteri (fun i _ -> i < k) [ 3; 5; 6; 7; 11; 13; 17; 19 ]),
           None ))
      [ 4; 5; 6; 7; 8 ]
  @ [ ("australia", australia_src, None); ("circsat", circsat_src, None) ]

let render_problem b (p : Problem.t) =
  Printf.bprintf b "vars %d offset %h\n" p.Problem.num_vars p.Problem.offset;
  Array.iteri (fun i v -> Printf.bprintf b "h %d %h\n" i v) p.Problem.h;
  Array.iter (fun ((i, j), v) -> Printf.bprintf b "J %d %d %h\n" i j v) p.Problem.couplers

let render_symbols b (a : A.t) =
  Array.iteri
    (fun v syms -> Printf.bprintf b "var %d %s\n" v (String.concat " " syms))
    a.A.symbols_of_var;
  List.iter (fun (s, v) -> Printf.bprintf b "pin %s %b\n" s v) a.A.pins;
  List.iter (fun (x, y) -> Printf.bprintf b "chain %s %s\n" x y) a.A.chains;
  Printf.bprintf b "strengths %h %h\n" a.A.chain_strength a.A.pin_strength

(* Each program is assembled three ways: as compiled (chains merged), with
   its first output port pinned to 1, and with chains kept as couplers. *)
let programs (t : P.t) =
  let first_output = fst (List.hd t.P.netlist.Qac_netlist.Netlist.outputs) in
  [ t.P.program;
    P.assemble_with_pins ~pins:[ (first_output, 1) ] t;
    A.assemble ~options:{ P.default_options with A.merge_chains = false } t.P.statements ]

let md5 f =
  let b = Buffer.create 4096 in
  f b;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* [(name, [edif; qmasm; problems; symbols])], each an MD5 hex digest. *)
let digests () =
  List.map
    (fun (name, src, steps) ->
       let t = P.compile ?steps src in
       let assembled = programs t in
       ( name,
         [ Digest.to_hex (Digest.string t.P.edif);
           Digest.to_hex (Digest.string t.P.qmasm_src);
           md5 (fun b -> List.iter (fun a -> render_problem b a.A.problem) assembled);
           md5 (fun b -> List.iter (render_symbols b) assembled) ] ))
    corpus

(* Recorded with the front end as it was before the speed rewrite. *)
let expected =
  [
    ("fig2",
     [ "51a05224079de93ca320dfe18b0cc478";
       "3dfc5f884df3db3304d8473b5793fefb";
       "e99f59339eddeb41a41f8f50d81aeaf5";
       "18ad51f1f9a1f5e657e6342867f8cae5" ]);
    ("mult2",
     [ "1094e653029eb596b784d5d9353bc478";
       "db872171b3c0d7837a927b43f24dc1c6";
       "eb94e12eb22539b6e3eadf58a0978636";
       "37876c8094f6d2ef11e231659e0c7efe" ]);
    ("mult3",
     [ "3297611aaf096c85c6668d99b908c1ba";
       "c705e3aa1e0b317eb6721df12caa2af6";
       "03f12185c3d7ffbdf27cdee8908eab63";
       "12a52e0e501455aeed3e408db7907114" ]);
    ("mult4",
     [ "51a384e0b70ffef5506603b3e4f6a729";
       "8600e65d9a6a8726e5360ed22cb98638";
       "2382688a58619b00df2a62108051072a";
       "d0d4ee47792b08530bde2b27781f2209" ]);
    ("mult5",
     [ "dfd4ca5e0ae286822621bec702e7a26e";
       "1f25c7cec0cdd8533ca93dbf9a2a1404";
       "9c3af2c891b5f3f67afd246f504dd595";
       "8090d699bf19910b611d84c9821c5846" ]);
    ("add8",
     [ "305bbe78e2babd0ca6746e56469ce72e";
       "5f816fdfe0f107f6b03ee8ef8fa7888b";
       "dfde5590722a66496b90b562527126c9";
       "d4a800bb05658faa07f94b9047a3b40e" ]);
    ("sub8",
     [ "4052e8ea30470e7382da0f951221a1c8";
       "4d5b0071c16ea514a7f10c172ec2c5d5";
       "441c31489124f5f1de36f11e7ef3b9fc";
       "fb86bba05f81dfd377ce3754687a0185" ]);
    ("add16",
     [ "dc0d70224de7af94346b8b988a04b595";
       "fb4d5d252e2c8e39c95df07023978b6d";
       "216b50e5a9cddc5a7db5085c08e189e0";
       "6469ebc31cd78f50324e0112ebc0eba0" ]);
    ("sub16",
     [ "17ecfa8469faab6e43d07ad25dcad33a";
       "83ac7c974898b3a870879d9b548d6763";
       "f181d25425cdca54bfc6ecee8387aada";
       "d4161055e1c4c16c93181a79f4d48718" ]);
    ("counter1",
     [ "113bb9c60aa8e96af876c8cac13f785a";
       "f16e11ae169e8a41227c8fda58d0c5c2";
       "c5eb3a0d39514c60ec9ee50e2859ac09";
       "6db6a8cbb713e104ee1ba65550f75de7" ]);
    ("counter4",
     [ "edbb5a14f69b19e03611832453355648";
       "cf2a2d88f4260343b3b02c1754c37388";
       "59dd31b5e504beee7e769a9f4d1da3e3";
       "d67cf32816980d744e8e6da1d149b30e" ]);
    ("counter8",
     [ "c8faa9dd8c2bc328ee55ddd65f2bbae5";
       "f12e4d590f2f6416c53cd7fa45ad5add";
       "e1806a2a0800d2fbf859049da5ce1d10";
       "263fd79ab5f80b96f9d76a0d269f772e" ]);
    ("subset4",
     [ "c1bd12c567e5df169c6e33aff25e502a";
       "30236dd82dd5ef89b39f8aaa68881a27";
       "41f12a8364239aeb12e7cd12ea15fede";
       "d2edbca9078c35237ddd040289d6a837" ]);
    ("subset5",
     [ "af11ab7246427a2f1638d5d2d08d25c6";
       "b677d7b10907fd110df2b8273c300d17";
       "0a7314fe783606bb9be1d423ddd9af82";
       "e08dd0eda1aad52b448b3eb332cf45c0" ]);
    ("subset6",
     [ "471a8da76100121751ea777e36eead86";
       "8d9ee10419c06ffa9a62922c7a1062e0";
       "ae93a7a049deee16d802766eb4508ca5";
       "4f27e1d957518680d035e51fcd365bec" ]);
    ("subset7",
     [ "6cf3e3aa547593afd227eba8ca575c76";
       "482dfe495e954d7474fae2ff4845d4eb";
       "5c7c2862fc6db96ab3c6d46251cf00c4";
       "6427b0765ece2d5764b49e2b4b1d62a6" ]);
    ("subset8",
     [ "2dd32863a26668d99be91155b9fcf1e0";
       "404df55150319b325cf884adb3f317dc";
       "1c95c11a48de219005ad67d84d2f759a";
       "b41c3647bb306000f0bbb0ac4bbf958f" ]);
    ("australia",
     [ "ad7cf885e009b263a2f2a3542ac2abf1";
       "57ca87ed1f531061f7c1098129f88e60";
       "43b2a87659af188e14f2d4267644bd3c";
       "c397f78ba8e6f62109a40c68bafa59a6" ]);
    ("circsat",
     [ "87fa8d3664d4a7ea76a428a163b41631";
       "bc9d554420938e519438720be028420f";
       "018cf7660c115f62dd262c61dc91a420";
       "f81a2dce8eb2990cb99a6d6adecff173" ]) ]

let suite =
  [ Alcotest.test_case "corpus artifacts match their golden digests" `Quick (fun () ->
        let got = digests () in
        Alcotest.(check int) "programs" (List.length expected) (List.length got);
        List.iter2
          (fun (name, want) (name', have) ->
             Alcotest.(check string) "program" name name';
             List.iter2
               (fun what (w, h) -> Alcotest.(check string) (name ^ " " ^ what) w h)
               [ "edif"; "qmasm"; "problems"; "symbols" ]
               (List.combine want have))
          expected got) ]
