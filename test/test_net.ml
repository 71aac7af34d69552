open Merlin_geometry
open Merlin_tech
open Merlin_net

let tech = Tech.default

let test_net_validation () =
  let s0 = Sink.make ~id:0 ~pt:(Point.make 1 1) ~cap:5.0 ~req:100.0 in
  let s1 = Sink.make ~id:1 ~pt:(Point.make 2 2) ~cap:5.0 ~req:100.0 in
  let net = Net.make ~name:"t" ~source:Point.origin ~driver:Net.default_driver [ s0; s1 ] in
  Alcotest.(check int) "two sinks" 2 (Net.n_sinks net);
  Alcotest.(check (float 1e-9)) "total cap" 10.0 (Net.total_sink_cap net);
  Alcotest.check_raises "bad ids"
    (Invalid_argument "Net.make: sink at index 0 has id 1") (fun () ->
        ignore (Net.make ~name:"t" ~source:Point.origin ~driver:Net.default_driver [ s1 ]));
  Alcotest.check_raises "empty" (Invalid_argument "Net.make: no sinks")
    (fun () ->
       ignore (Net.make ~name:"t" ~source:Point.origin ~driver:Net.default_driver []))

let test_bounding_box_covers_source () =
  let net = Net_gen.random_net ~seed:1 ~name:"g" ~n:5 tech in
  let box = Net.bounding_box net in
  Alcotest.(check bool) "source inside" true (Rect.contains box net.Net.source);
  Array.iter
    (fun s ->
       Alcotest.(check bool) "sink inside" true (Rect.contains box s.Sink.pt))
    net.Net.sinks

let test_gen_deterministic () =
  let a = Net_gen.random_net ~seed:9 ~name:"d" ~n:7 tech in
  let b = Net_gen.random_net ~seed:9 ~name:"d" ~n:7 tech in
  Alcotest.(check string) "identical" (Net_io.to_string a) (Net_io.to_string b);
  let c = Net_gen.random_net ~seed:10 ~name:"d" ~n:7 tech in
  Alcotest.(check bool) "different seed differs" true
    (Net_io.to_string a <> Net_io.to_string c)

let test_box_side_recipe () =
  (* Box sized so the corner-to-corner wire Elmore delay is about one gate
     delay (paper Section IV). *)
  let target = 150.0 in
  let side = Net_gen.box_side tech ~target_delay:target in
  let wire = Tech.wire_elmore tech ~len:side ~load:0.0 in
  Alcotest.(check bool) "within 10%" true (abs_float (wire -. target) /. target < 0.1)

let test_table1_specs () =
  Alcotest.(check int) "18 nets" 18 (List.length Net_gen.table1_specs);
  let nets = Net_gen.table1_nets tech in
  Alcotest.(check int) "all instantiated" 18 (List.length nets);
  List.iter2
    (fun (_, _, n) (_, _, net) ->
       Alcotest.(check int) "sink count" n (Net.n_sinks net))
    Net_gen.table1_specs nets;
  let _, _, net9 = List.nth nets 8 in
  Alcotest.(check int) "net9 is the 73-sink net" 73 (Net.n_sinks net9)

let test_io_roundtrip () =
  let net = Net_gen.random_net ~seed:21 ~name:"rt" ~n:6 tech in
  let net' = Net_io.of_string (Net_io.to_string net) in
  Alcotest.(check string) "roundtrip" (Net_io.to_string net) (Net_io.to_string net')

let test_io_many_roundtrip () =
  let nets =
    List.init 4 (fun i ->
        Net_gen.random_net ~seed:(30 + i) ~name:(Printf.sprintf "m%d" i)
          ~n:(3 + i) tech)
  in
  let back = Net_io.of_string_many (Net_io.to_string_many nets) in
  Alcotest.(check int) "count survives" (List.length nets) (List.length back);
  List.iter2
    (fun a b ->
       Alcotest.(check string) "net bytes survive" (Net_io.to_string a)
         (Net_io.to_string b))
    nets back;
  Alcotest.(check int) "empty netlist" 0
    (List.length (Net_io.of_string_many (Net_io.to_string_many [])));
  let path = Filename.temp_file "merlin-nets" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
       Net_io.save_many path nets;
       List.iter2
         (fun a b ->
            Alcotest.(check string) "file bytes survive" (Net_io.to_string a)
              (Net_io.to_string b))
         nets (Net_io.load_many path))

let test_io_errors () =
  Alcotest.check_raises "garbage" (Failure "Net_io.of_string: line 1: unrecognised line \"what\"")
    (fun () -> ignore (Net_io.of_string "what"));
  Alcotest.check_raises "missing net" (Failure "Net_io.of_string: missing 'net' line")
    (fun () -> ignore (Net_io.of_string "source 0 0\ndriver 1 1 1 1\nsink 0 0 0 1 1"))

(* Sink values the DPs cannot order are rejected where a net is made,
   and a net file holding one is a parse error, not an escaped
   exception. *)
let bad_sink_cases =
  [ ("NaN capacitance", "nan", "100", "Net.make: sink 0 has capacitance nan");
    ("infinite capacitance", "inf", "100",
     "Net.make: sink 0 has capacitance inf");
    ("-infinite capacitance", "-inf", "100",
     "Net.make: sink 0 has capacitance -inf");
    ("negative capacitance", "-1", "100",
     "Net.make: sink 0 has capacitance -1");
    ("NaN required time", "5", "nan", "Net.make: sink 0 has required time nan");
    ("infinite required time", "5", "inf",
     "Net.make: sink 0 has required time inf");
    ("-infinite required time", "5", "-inf",
     "Net.make: sink 0 has required time -inf") ]

let test_make_rejects_bad_sinks () =
  List.iter
    (fun (what, cap, req, msg) ->
       let s =
         Sink.make ~id:0 ~pt:(Point.make 1 1) ~cap:(float_of_string cap)
           ~req:(float_of_string req)
       in
       Alcotest.check_raises what (Invalid_argument msg) (fun () ->
           ignore
             (Net.make ~name:"t" ~source:Point.origin
                ~driver:Net.default_driver [ s ])))
    bad_sink_cases

let net_text sinks =
  "net t\nsource 0 0\ndriver 80 6000 0.12 30\n" ^ String.concat "" sinks

let test_io_rejects_bad_sinks () =
  List.iter
    (fun (what, cap, req, msg) ->
       Alcotest.check_raises what (Failure ("Net_io.of_string: " ^ msg))
         (fun () ->
            ignore
              (Net_io.of_string
                 (net_text [ Printf.sprintf "sink 0 1 1 %s %s\n" cap req ]))))
    bad_sink_cases;
  Alcotest.check_raises "duplicate id"
    (Failure "Net_io.of_string: Net.make: sink at index 1 has id 0")
    (fun () ->
       ignore
         (Net_io.of_string
            (net_text [ "sink 0 1 1 5 100\n"; "sink 0 2 2 5 100\n" ])))

(* Coordinates beyond +/-2^30 (source or sink) are rejected, so every
   Manhattan sum the DPs form stays far from integer overflow; the bound
   itself is accepted. *)
let test_coordinate_range () =
  let lim = 1 lsl 30 in
  let net ?(source = Point.origin) pt =
    Net.make ~name:"t" ~source ~driver:Net.default_driver
      [ Sink.make ~id:0 ~pt ~cap:5.0 ~req:100.0 ]
  in
  Alcotest.(check int) "bound accepted" 1
    (Net.n_sinks (net ~source:(Point.make (-lim) lim) (Point.make lim (-lim))));
  List.iter
    (fun (x, y) ->
       Alcotest.check_raises
         (Printf.sprintf "sink at (%d, %d)" x y)
         (Invalid_argument
            (Printf.sprintf "Net.make: sink 0 at (%d, %d) is outside +/-2^30" x y))
         (fun () -> ignore (net (Point.make x y))))
    [ (lim + 1, 0); (0, -lim - 1); (min_int, 0); (0, max_int) ];
  Alcotest.check_raises "source"
    (Invalid_argument "Net.make: source at (0, 1073741825) is outside +/-2^30")
    (fun () -> ignore (net ~source:(Point.make 0 (lim + 1)) (Point.make 1 1)));
  Alcotest.check_raises "net file"
    (Failure
       "Net_io.of_string: Net.make: sink 0 at (1073741825, 1) is outside \
        +/-2^30")
    (fun () ->
       ignore (Net_io.of_string (net_text [ "sink 0 1073741825 1 5 100\n" ])))

let qtest name ?(count = 50) arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb prop)

let props =
  [ qtest "generated nets parse back"
      QCheck.(pair (int_range 1 20) (int_range 0 1000))
      (fun (n, seed) ->
         let net = Net_gen.random_net ~seed ~name:"p" ~n tech in
         let back = Net_io.of_string (Net_io.to_string net) in
         Net_io.to_string back = Net_io.to_string net);
    qtest "sink ids consecutive" QCheck.(int_range 1 30) (fun n ->
        let net = Net_gen.random_net ~seed:3 ~name:"p" ~n tech in
        Array.for_all (fun s -> s.Sink.id >= 0 && s.Sink.id < n) net.Net.sinks);
    (* Seeds are folded into [0, 2^30) before reaching Random.State, so
       net streams are identical across word sizes; small seeds map to
       themselves, keeping every historical stream (and the golden
       route) byte-identical. *)
    qtest "normalize_seed is the identity on small seeds"
      QCheck.(int_bound 0x3FFF_FFFF)
      (fun s -> Net_gen.normalize_seed s = s);
    qtest "normalize_seed lands in [0, 2^30)" QCheck.int (fun s ->
        let v = Net_gen.normalize_seed s in
        0 <= v && v < 0x4000_0000);
    qtest "large nets are seed-deterministic" ~count:20
      QCheck.(pair (int_range 50 200) (int_range 0 1000))
      (fun (n, seed) ->
         List.for_all
           (fun shape ->
              let gen () =
                Net_gen.large_net ~seed ~name:"L" ~shape ~n tech
              in
              Net.n_sinks (gen ()) = n
              && String.equal
                   (Net_io.to_string (gen ()))
                   (Net_io.to_string (gen ())))
           [ Net_gen.Clock_grid; Net_gen.High_fanout; Net_gen.Clustered ]);
    qtest "large nets roundtrip through Net_io" ~count:10
      QCheck.(int_range 100 400)
      (fun n ->
         let net =
           Net_gen.large_net ~seed:7 ~name:"L" ~shape:Net_gen.Clustered ~n
             tech
         in
         let back = Net_io.of_string (Net_io.to_string net) in
         String.equal (Net_io.to_string back) (Net_io.to_string net)) ]

let test_shape_names () =
  List.iter
    (fun shape ->
       match Net_gen.shape_of_string (Net_gen.shape_name shape) with
       | Some s ->
         Alcotest.(check string) "roundtrip" (Net_gen.shape_name shape)
           (Net_gen.shape_name s)
       | None -> Alcotest.fail "shape name did not parse back")
    [ Net_gen.Clock_grid; Net_gen.High_fanout; Net_gen.Clustered ];
  Alcotest.(check bool) "unknown shape rejected" true
    (match Net_gen.shape_of_string "torus" with None -> true | Some _ -> false)

let suite =
  ( "net",
    [ Alcotest.test_case "validation" `Quick test_net_validation;
      Alcotest.test_case "bounding box" `Quick test_bounding_box_covers_source;
      Alcotest.test_case "gen deterministic" `Quick test_gen_deterministic;
      Alcotest.test_case "box side recipe" `Quick test_box_side_recipe;
      Alcotest.test_case "table1 specs" `Quick test_table1_specs;
      Alcotest.test_case "io roundtrip" `Quick test_io_roundtrip;
      Alcotest.test_case "io many roundtrip" `Quick test_io_many_roundtrip;
      Alcotest.test_case "io errors" `Quick test_io_errors;
      Alcotest.test_case "make rejects bad sink values" `Quick
        test_make_rejects_bad_sinks;
      Alcotest.test_case "io rejects bad sink values" `Quick
        test_io_rejects_bad_sinks;
      Alcotest.test_case "coordinate range" `Quick test_coordinate_range;
      Alcotest.test_case "shape names" `Quick test_shape_names ]
    @ props )
