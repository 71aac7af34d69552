(* The benchmark's own tests: its metric tables agree with
   BENCHMARK.json, every metric is emitted by name with a unit, the
   correctness gate rejects corrupted results, the tracer's self-time
   arithmetic holds, and inputs follow the seed. *)

open Perfbench
module Json = Merlin_report.Json
module Flows = Merlin_flows.Flows
open Merlin_rtree

let check = Alcotest.(check bool)

let benchmark_json () =
  Json.of_string (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all)

let str j k = Option.bind (Json.member k j) Json.to_str

let declared key =
  match Option.bind (Json.member key (benchmark_json ())) Json.to_list with
  | Some l -> l
  | None -> Alcotest.failf "BENCHMARK.json has no %s list" key

let names_and_units () =
  List.iter
    (fun (m : Spec.metric) ->
       check (m.Spec.name ^ " is a valid name") true (Spec.valid_name m.Spec.name);
       check (m.Spec.name ^ " has a valid unit") true (Spec.valid_unit m.Spec.unit))
    (Spec.end_to_end @ Spec.per_layer);
  let names = List.map (fun m -> m.Spec.name) (Spec.end_to_end @ Spec.per_layer) in
  check "names are unique" true
    (List.length names = List.length (List.sort_uniq compare names));
  check "a bad name is refused" false (Spec.valid_name "flow 1");
  check "a name may not start with a dot" false (Spec.valid_name ".x")

let matches_benchmark_json () =
  let same key table =
    let listed =
      List.map
        (fun j ->
           match str j "name", str j "unit", str j "better" with
           | Some n, Some u, Some b -> (n, u, b)
           | _ -> Alcotest.failf "%s: entry without name, unit or better" key)
        (declared key)
    in
    let ours =
      List.map
        (fun m ->
           (m.Spec.name, m.Spec.unit,
            match m.Spec.better with Spec.Lower -> "lower" | Spec.Higher -> "higher"))
        table
    in
    Alcotest.(check (list (triple string string string))) key ours listed
  in
  same "end_to_end" Spec.end_to_end;
  same "per_layer" Spec.per_layer;
  let workloads = List.filter_map (fun j -> str j "name") (declared "workloads") in
  Alcotest.(check (list string)) "workloads" (List.map fst Workload.names) workloads

let fake table = List.mapi (fun i m -> (m.Spec.name, 1.5 +. float_of_int i)) table

let result values = { Spec.correct = true; attempted = 3; failed = 0; values }

let emits_every_metric () =
  List.iter
    (fun table ->
       let line = Spec.result_line table (result (fake table)) in
       let j = Json.of_string line in
       List.iter
         (fun k -> check ("has " ^ k) true (Json.member k j <> None))
         [ "correct"; "attempted"; "failed"; "metrics" ];
       let metrics = Option.get (Json.member "metrics" j) in
       List.iter
         (fun m ->
            match Json.member m.Spec.name metrics with
            | None -> Alcotest.failf "metric %s not emitted" m.Spec.name
            | Some v ->
              check (m.Spec.name ^ " value") true
                (Option.bind (Json.member "value" v) Json.to_num <> None);
              Alcotest.(check (option string))
                (m.Spec.name ^ " unit") (Some m.Spec.unit) (str v "unit"))
         table)
    [ Spec.end_to_end; Spec.per_layer ]

let refuses_partial_results () =
  let t = Spec.end_to_end in
  let raises what values =
    match Spec.result_line t (result values) with
    | _ -> Alcotest.failf "%s was emitted" what
    | exception Failure _ -> ()
  in
  raises "a missing metric" (List.tl (fake t));
  raises "an unknown metric" (("bogus", 1.0) :: fake t);
  raises "a NaN" (("flow1_s", nan) :: List.remove_assoc "flow1_s" (fake t));
  raises "a repeated metric" (List.hd (fake t) :: fake t)

(* A small routed net and its flow metrics. *)
let routed () =
  let net = Merlin_net.Net_gen.random_net ~seed:3 ~name:"gate" ~n:5 Inputs.tech in
  let m =
    Flows.run
      { Flows.tech = Inputs.tech; buffers = Inputs.buffers;
        algo = Flows.Ptree_vg { refine_seg = None } }
      net
  in
  (net, m)

let rec drop_first_leaf = function
  | Rtree.Leaf _ -> None
  | Rtree.Node n ->
    let go = function
      | [] -> []
      | Rtree.Leaf _ :: rest -> rest
      | c :: rest ->
        (match drop_first_leaf c with
         | Some c' -> c' :: rest
         | None -> rest)
    in
    (match go n.Rtree.children with
     | [] -> None
     | children -> Some (Rtree.Node { n with Rtree.children }))

let gate_rejects_corruption () =
  let net, m = routed () in
  let tech = Inputs.tech in
  check "a good tree passes" true (Gate.flow ~tech net m = Ok ());
  (match drop_first_leaf m.Flows.tree with
   | None -> Alcotest.fail "could not drop a sink"
   | Some tree ->
     check "a tree missing a sink fails" true
       (Result.is_error
          (Gate.tree ~tech net tree ~area:m.Flows.area ~delay:m.Flows.delay)));
  check "a misreported area fails" true
    (Result.is_error
       (Gate.tree ~tech net m.Flows.tree ~area:(m.Flows.area +. 1.0) ~delay:m.Flows.delay));
  check "a misreported delay fails" true
    (Result.is_error
       (Gate.tree ~tech net m.Flows.tree ~area:m.Flows.area ~delay:(m.Flows.delay *. 0.5)));
  let g = Gate.create () in
  Gate.record g ~ops:2 "ok" (Ok ());
  Gate.record g "bad" (Error "corrupted on purpose");
  Alcotest.(check (pair int int)) "attempted, failed" (3, 1) (g.Gate.attempted, g.Gate.failed)

let self_time_and_coverage () =
  let sp id parent name t0 t1 = { Trace.id; parent; group = 0; name; t0; t1 } in
  (* a 10 s root with two overlapping children and one disjoint *)
  let spans =
    [ sp 1 0 "w.root" 0.0 10.0; sp 2 1 "a" 1.0 3.0; sp 3 1 "a" 2.0 4.0;
      sp 4 1 "b" 6.0 7.0; sp 5 4 "c" 6.5 7.0 ]
  in
  let stat = Trace.by_name spans in
  let eq = Alcotest.(check (float 1e-9)) in
  let _, _, root_self = stat "w.root" in
  eq "root self" 6.0 root_self;
  let n, total, self = stat "a" in
  Alcotest.(check int) "a count" 2 n;
  eq "a total" 4.0 total;
  eq "a self" 4.0 self;
  let _, _, b_self = stat "b" in
  eq "b self" 0.5 b_self;
  eq "coverage ignores w.* spans" 0.4 (Trace.coverage spans ~lo:0.0 ~hi:10.0);
  let tr = Trace.create ~enabled:true in
  let v = Trace.span tr "outer" (fun () -> Trace.span tr "inner" (fun () -> 7)) in
  Alcotest.(check int) "span returns its value" 7 v;
  (match Trace.spans tr with
   | [ inner; outer ] ->
     Alcotest.(check string) "inner first" "inner" inner.Trace.name;
     Alcotest.(check int) "inner's parent" outer.Trace.id inner.Trace.parent
   | _ -> Alcotest.fail "expected two spans");
  Alcotest.(check int) "the disabled tracer records nothing" 0
    (ignore (Trace.span Trace.off "x" (fun () -> ())); List.length (Trace.spans Trace.off))

let inputs_follow_the_seed () =
  let sinks = Array.init 503 (fun i -> 2 + (i * 7 mod 8)) in
  let d = Inputs.eco_changed ~seed:Inputs.default_seed ~round:0 sinks in
  check "default seed: every fourth net" true (d = Array.init 503 (fun i -> i mod 4 = 0));
  let picked a size =
    let n = ref 0 in
    Array.iteri (fun i c -> if c && (size = 0 || sinks.(i) = size) then incr n) a;
    !n
  in
  let other = Inputs.eco_changed ~seed:7 ~round:0 sinks in
  check "a quarter on another seed" true (abs (picked other 0 - 126) <= 1);
  let all_of size = Array.fold_left (fun n s -> if s = size then n + 1 else n) 0 sinks in
  check "a quarter of every net size" true
    (List.for_all (fun s -> abs ((4 * picked other s) - all_of s) <= 4) [ 2; 3; 4; 5; 6; 7; 8; 9 ]);
  check "another subset" true (other <> d);
  check "same seed, same subset" true (other = Inputs.eco_changed ~seed:7 ~round:0 sinks);
  List.iter
    (fun seed ->
       let rounds = List.init 4 (fun round -> Inputs.eco_changed ~seed ~round sinks) in
       check "four rounds change every net once" true
         (List.for_all
            (fun i -> List.length (List.filter (fun a -> a.(i)) rounds) = 1)
            (List.init 503 Fun.id)))
    [ Inputs.default_seed; 7 ];
  let nets s =
    List.map (fun (_, n) -> Merlin_net.Net_io.to_string n) (Inputs.serve_nets ~seed:s Inputs.Minor)
  in
  check "same seed, same nets" true (nets 5 = nets 5);
  check "another seed, fresh nets" true (nets 5 <> nets 6);
  Alcotest.(check (list string)) "the paper's Table-1 nets"
    [ "net3"; "net4"; "net5"; "net7" ] (List.map fst (Inputs.table1 Inputs.Full))

let () =
  Alcotest.run "perfbench"
    [ ( "metrics",
        [ Alcotest.test_case "names and units" `Quick names_and_units;
          Alcotest.test_case "match BENCHMARK.json" `Quick matches_benchmark_json;
          Alcotest.test_case "every metric emitted" `Quick emits_every_metric;
          Alcotest.test_case "partial results refused" `Quick refuses_partial_results ] );
      ( "gate", [ Alcotest.test_case "corrupted results fail" `Quick gate_rejects_corruption ] );
      ( "trace", [ Alcotest.test_case "self time and coverage" `Quick self_time_and_coverage ] );
      ( "inputs", [ Alcotest.test_case "seeded" `Quick inputs_follow_the_seed ] ) ]
