open Merlin_geometry
open Merlin_tech
open Merlin_net
open Merlin_rtree
open Merlin_curves
open Merlin_order
open Merlin_core

let tech = Tech.default
let buffers = Buffer_lib.default

(* Small configuration so core tests stay fast. *)
let tiny_cfg =
  { Config.default with
    Config.candidate_limit = 10;
    max_curve = 6;
    buffer_trials = 5;
    max_iters = 3 }

let mk_net n seed = Net_gen.random_net ~seed ~name:"core" ~n tech

(* ---------- Grouping ---------- *)

let test_stretch () =
  Alcotest.(check (list int)) "Fig 10" [ 0; 1; 1; 2 ]
    (List.map Grouping.stretch Grouping.all)

let test_covered_fig13 () =
  (* len = 4, r = 9 (0-based positions). *)
  let cov e = Grouping.covered ~r:9 ~len:4 e in
  Alcotest.(check (list int)) "chi0" [ 6; 7; 8; 9 ] (cov Grouping.Chi0);
  Alcotest.(check (list int)) "chi1 skips r-1" [ 5; 6; 7; 9 ] (cov Grouping.Chi1);
  Alcotest.(check (list int)) "chi2 skips second slot" [ 5; 7; 8; 9 ] (cov Grouping.Chi2);
  Alcotest.(check (list int)) "chi3 skips both" [ 4; 6; 7; 9 ] (cov Grouping.Chi3)

let test_covered_len1 () =
  Alcotest.(check (list int)) "chi0" [ 9 ] (Grouping.covered ~r:9 ~len:1 Grouping.Chi0);
  Alcotest.(check (list int)) "chi1" [ 9 ] (Grouping.covered ~r:9 ~len:1 Grouping.Chi1);
  Alcotest.(check (list int)) "chi2" [ 8 ] (Grouping.covered ~r:9 ~len:1 Grouping.Chi2);
  Alcotest.(check bool) "chi3 invalid at len 1" false
    (Grouping.valid ~len:1 Grouping.Chi3)

let test_slots_partition () =
  (* Window slots are exactly covered + skipped. *)
  List.iter
    (fun e ->
       List.iter
         (fun len ->
            if Grouping.valid ~len e then begin
              let r = 20 in
              let start = Grouping.window_start ~r ~len e in
              let slots = List.init (len + Grouping.stretch e) (fun i -> start + i) in
              let covered = Grouping.covered ~r ~len e in
              let skipped =
                Option.to_list (Grouping.skipped_left ~r ~len e)
                @ Option.to_list (Grouping.skipped_right ~r ~len e)
              in
              Alcotest.(check (list int))
                (Format.asprintf "%a len=%d" Grouping.pp e len)
                slots
                (List.sort Int.compare (covered @ skipped));
              Alcotest.(check int) "covered count" len (List.length covered)
            end)
         [ 1; 2; 3; 5 ])
    Grouping.all

(* ---------- Catree ---------- *)

let test_catree_basics () =
  let t =
    Catree.level
      [ Catree.Direct 0;
        Catree.Chain (Catree.level [ Catree.Direct 1; Catree.Direct 2 ]);
        Catree.Direct 3 ]
  in
  Alcotest.(check (list int)) "dfs order" [ 0; 1; 2; 3 ] (Catree.sinks_in_order t);
  Alcotest.(check int) "depth" 2 (Catree.depth t);
  Alcotest.(check int) "branching" 3 (Catree.max_branching t);
  Alcotest.(check bool) "well formed alpha 3" true (Catree.well_formed ~alpha:3 t);
  Alcotest.(check bool) "not well formed alpha 2" false (Catree.well_formed ~alpha:2 t);
  Alcotest.check_raises "two chains"
    (Invalid_argument "Catree.level: more than one internal child") (fun () ->
        ignore
          (Catree.level
             [ Catree.Chain (Catree.leaf 0); Catree.Chain (Catree.leaf 1) ]))

(* ---------- Objective ---------- *)

let test_objective () =
  let sol r a = Solution.make ~req:r ~load:1.0 ~area:a () in
  let c = Curve.of_list [ sol 10.0 8.0; sol 6.0 3.0; sol 2.0 1.0 ] in
  let req o = (Option.get (Objective.choose o c)).Solution.req in
  Alcotest.(check (float 0.0)) "best req" 10.0 (req Objective.Best_req);
  Alcotest.(check (float 0.0)) "variant I" 6.0
    (req (Objective.Max_req_under_area 5.0));
  Alcotest.(check (float 0.0)) "variant II picks min area" 1.0
    (Option.get (Objective.choose (Objective.Min_area_over_req 1.0) c)).Solution.area;
  Alcotest.(check bool) "infeasible" true
    (Option.is_none (Objective.choose (Objective.Max_req_under_area 0.5) c))

(* ---------- Star_ptree ---------- *)

let star_run net terminals =
  let candidates = Bubble_construct.candidate_set tiny_cfg net in
  let active = Array.init (Array.length candidates) (fun i -> i) in
  let ctx =
    Star_ptree.create ~tech ~buffers ~trials:5 ~max_curve:8
      ~grids:(0.0, 0.0, 0.0) ~bbox_slack:0.4 ~candidates ()
  in
  Star_ptree.run ctx ~active ~terminals

let test_star_single_sink () =
  let net = mk_net 3 1 in
  let out = star_run net [| Star_ptree.Sink_term (Net.sink net 0) |] in
  Array.iter
    (fun curve ->
       Curve.iter
         (fun sol ->
            let tree = sol.Solution.data.Build.tree in
            Alcotest.(check (list int)) "covers sink 0" [ 0 ]
              (Rtree.sink_ids_in_order tree))
         curve)
    out;
  Alcotest.(check bool) "some curve nonempty" true
    (Array.exists (fun c -> not (Curve.is_empty c)) out)

let test_star_order_preserved () =
  let net = mk_net 4 2 in
  let terminals =
    Array.map (fun s -> Star_ptree.Sink_term s) net.Net.sinks
  in
  let out = star_run net terminals in
  Array.iter
    (fun curve ->
       Curve.iter
         (fun sol ->
            Alcotest.(check (list int)) "terminal order preserved" [ 0; 1; 2; 3 ]
              (Rtree.sink_ids_in_order sol.Solution.data.Build.tree))
         curve)
    out

let test_star_internal_consistency () =
  (* Engine coordinates without quantisation match the evaluator. *)
  let net = mk_net 3 5 in
  let terminals = Array.map (fun s -> Star_ptree.Sink_term s) net.Net.sinks in
  let out = star_run net terminals in
  Array.iter
    (fun curve ->
       Curve.iter
         (fun sol ->
            let ev = Eval.subtree tech sol.Solution.data.Build.tree in
            Alcotest.(check (float 1e-6)) "req" ev.Eval.req sol.Solution.req;
            Alcotest.(check (float 1e-6)) "load" ev.Eval.load sol.Solution.load;
            Alcotest.(check (float 1e-6)) "area" ev.Eval.buf_area sol.Solution.area)
         curve)
    out

(* A series of runs sharing one context's cell table returns exactly
   what the same runs return on fresh contexts: coordinates bit for bit
   and the same trees.  The series mixes windows of a random sink order,
   random source-first active subsets, a sub-group terminal (released and
   then used again) and repeated runs, in exact mode and quantised. *)
type series_term = S of int | Sub

let same_solution (a : Build.t Solution.t) (b : Build.t Solution.t) =
  Float.equal a.Solution.req b.Solution.req
  && Float.equal a.Solution.load b.Solution.load
  && Float.equal a.Solution.area b.Solution.area
  && a.Solution.data.Build.tree = b.Solution.data.Build.tree
  && a.Solution.data.Build.members = b.Solution.data.Build.members

let same_curves a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y ->
          Curve.size x = Curve.size y
          && List.for_all2 same_solution (Curve.to_list x) (Curve.to_list y))
       a b

let star_series ~quantised ~seed ~n =
  let net = mk_net n seed in
  let candidates = Bubble_construct.candidate_set tiny_cfg net in
  let k = Array.length candidates in
  let st = Random.State.make [| seed; n |] in
  let order = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  done;
  let active () =
    if Random.State.bool st then Array.init k Fun.id
    else
      Array.of_list
        (List.filter (fun p -> p = 0 || Random.State.int st 3 > 0) (List.init k Fun.id))
  in
  let windows =
    List.concat_map
      (fun len -> List.init (n - len + 1) (fun lo -> List.init len (fun d -> S order.(lo + d))))
      (List.init n (fun len -> len + 1))
  in
  let rest = List.init (n - 2) (fun d -> S order.(d + 2)) in
  let with_sub = [ Sub :: rest; rest @ [ Sub ]; List.rev (Sub :: rest) ] in
  let calls =
    List.map (fun ts -> (active (), ts, false)) (windows @ with_sub @ windows)
    @ [ (active (), Sub :: rest, true); (active (), rest @ [ Sub ], false) ]
  in
  let ctx () =
    Star_ptree.create ~tech ~buffers ~trials:3
      ~max_curve:(if quantised then 5 else 10_000)
      ~grids:(if quantised then (20.0, 15.0, 10.0) else (0.0, 0.0, 0.0))
      ~bbox_slack:0.4 ~candidates ()
  in
  let base_active = Array.init k Fun.id in
  let base = [| Star_ptree.Sink_term (Net.sink net order.(0));
                Star_ptree.Sink_term (Net.sink net order.(1)) |] in
  (* [fresh] makes a context per run; otherwise one context serves all. *)
  let series ~fresh =
    let shared = ctx () in
    let ctx () = if fresh then ctx () else shared in
    let sub_curves = Star_ptree.run (ctx ()) ~active:base_active ~terminals:base in
    let sub = Star_ptree.sub_term shared sub_curves in
    let outs =
      List.map
        (fun (active, ts, release_after) ->
           let c = ctx () in
           let sub = if fresh then Star_ptree.sub_term c sub_curves else sub in
           let terminals =
             Array.of_list
               (List.map
                  (function S i -> Star_ptree.Sink_term (Net.sink net i) | Sub -> sub)
                  ts)
           in
           let out = Star_ptree.run c ~active ~terminals in
           if release_after then Star_ptree.release c sub;
           out)
        calls
    in
    (sub_curves :: outs, Star_ptree.cells_reused shared)
  in
  let fresh, _ = series ~fresh:true and shared, reused = series ~fresh:false in
  reused > 0 && List.for_all2 same_curves fresh shared

let qtest_star_shared_table =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"star: shared cell table = fresh runs" ~count:30
       QCheck.(triple bool (int_range 0 10_000) (int_range 3 6))
       (fun (quantised, seed, n) -> star_series ~quantised ~seed ~n))

(* ---------- Bubble_construct ---------- *)

let construct ?(cfg = tiny_cfg) net order =
  Bubble_construct.construct ~cfg ~tech ~buffers net order

let test_bubble_valid_and_in_neighborhood () =
  (* Lemma 5: every realized order is in N(Pi); plus tree validity,
     hierarchy well-formedness and the engine/evaluator agreement. *)
  List.iter
    (fun (n, seed) ->
       let net = mk_net n seed in
       let order = Tsp.order net in
       let r = construct net order in
       Alcotest.(check bool) "final curve nonempty" false
         (Curve.is_empty r.Bubble_construct.curve);
       Curve.iter
         (fun sol ->
            let tree = sol.Solution.data.Build.tree in
            Alcotest.(check bool) "tree covers the net" true (Check.is_valid net tree);
            let realized = Bubble_construct.realized_order sol in
            Alcotest.(check bool) "Lemma 5: realized in N(order)" true
              (Order.in_neighborhood order realized);
            let h = Bubble_construct.hierarchy sol in
            Alcotest.(check bool) "C-alpha well formed" true
              (Catree.well_formed ~alpha:tiny_cfg.Config.alpha h);
            Alcotest.(check (list int)) "hierarchy order = tree DFS order"
              (Catree.sinks_in_order h)
              (Rtree.sink_ids_in_order tree))
         r.Bubble_construct.curve)
    [ (2, 3); (3, 4); (4, 5); (5, 6) ]

let test_bubble_pessimistic_req () =
  (* Quantisation rounds required time down and load/area up, so the
     engine's claim never exceeds what the evaluator certifies. *)
  let net = mk_net 4 8 in
  let r = construct net (Tsp.order net) in
  Curve.iter
    (fun sol ->
       let ev = Eval.net tech net sol.Solution.data.Build.tree in
       Alcotest.(check bool) "engine req <= eval req" true
         (sol.Solution.req <= ev.Eval.root_req +. 1e-6);
       Alcotest.(check bool) "engine area >= eval area" true
         (sol.Solution.area >= ev.Eval.area -. 1e-6))
    r.Bubble_construct.curve

let test_bubble_covers_swap () =
  (* Lemma 6 witness: two sinks whose optimal connection order is the
     reverse of the given order; bubbling must find the swap. *)
  let s0 = Sink.make ~id:0 ~pt:(Point.make 2000 0) ~cap:5.0 ~req:3000.0 in
  let s1 = Sink.make ~id:1 ~pt:(Point.make 1000 0) ~cap:5.0 ~req:1200.0 in
  let net = Net.make ~name:"swap" ~source:Point.origin ~driver:Net.default_driver [ s0; s1 ] in
  (* Give the engine the "wrong" order (s0 before s1). *)
  let r = construct net (Order.of_list [ 0; 1 ]) in
  let orders =
    Curve.to_list r.Bubble_construct.curve
    |> List.map (fun sol -> Order.to_list (Bubble_construct.realized_order sol))
    |> List.sort_uniq (List.compare Int.compare)
  in
  Alcotest.(check bool) "the swapped order was explored" true
    (List.length orders >= 1);
  (* The best solution should chain s1 (closer, less critical window)
     without being forced through s0 first; at minimum both orders are
     reachable across the curve or the best solution is valid. *)
  let best = Option.get (Curve.best_req r.Bubble_construct.curve) in
  Alcotest.(check bool) "best is valid" true
    (Check.is_valid net best.Solution.data.Build.tree)

let test_bubble_rejects_bad_order () =
  let net = mk_net 3 1 in
  Alcotest.check_raises "bad order"
    (Invalid_argument "Bubble_construct.construct: bad order") (fun () ->
        ignore (construct net (Order.of_list [ 0; 1 ])))

let test_single_sink_net () =
  let net = mk_net 1 2 in
  let r = construct net (Order.identity 1) in
  let best = Option.get (Curve.best_req r.Bubble_construct.curve) in
  Alcotest.(check bool) "valid" true (Check.is_valid net best.Solution.data.Build.tree)

(* ---------- Merlin ---------- *)

let test_bubbling_off_keeps_order () =
  (* With chi_1..chi_3 disabled the engine cannot perturb the order, so
     every solution realises exactly the initial order. *)
  let cfg = { tiny_cfg with Config.bubbling = false } in
  List.iter
    (fun seed ->
       let net = mk_net 4 seed in
       let order = Tsp.order net in
       let r = Bubble_construct.construct ~cfg ~tech ~buffers net order in
       Curve.iter
         (fun sol ->
            Alcotest.(check (list int)) "order fixed" (Order.to_list order)
              (Order.to_list (Bubble_construct.realized_order sol)))
         r.Bubble_construct.curve)
    [ 3; 9; 21 ]

let test_merlin_converges () =
  List.iter
    (fun (n, seed) ->
       let net = mk_net n seed in
       match Merlin.run ~cfg:tiny_cfg ~tech ~buffers net with
       | None -> Alcotest.fail "unexpected infeasible"
       | Some out ->
         Alcotest.(check bool) "loops within bound" true
           (out.Merlin.loops <= tiny_cfg.Config.max_iters);
         Alcotest.(check bool) "valid tree" true (Check.is_valid net out.Merlin.tree);
         Alcotest.(check int) "history length = loops" out.Merlin.loops
           (List.length out.Merlin.req_history);
         (* Theorem 7 analogue under pruning: the returned solution is the
            best ever seen. *)
         let best_seen =
           List.fold_left max neg_infinity out.Merlin.req_history
         in
         Alcotest.(check (float 1e-9)) "returns the best iterate" best_seen
           out.Merlin.best.Solution.req)
    [ (3, 31); (4, 32); (5, 33) ]

let test_merlin_respects_area_budget () =
  let net = mk_net 4 41 in
  match
    Merlin.run ~cfg:tiny_cfg ~objective:(Objective.Max_req_under_area 20.0)
      ~tech ~buffers net
  with
  | None -> () (* a tight budget may be infeasible; that is a valid answer *)
  | Some out ->
    Alcotest.(check bool) "area within budget" true
      (out.Merlin.best.Solution.area <= 20.0 +. 1e-9)

let test_merlin_variant2 () =
  let net = mk_net 4 42 in
  (* First find the best achievable req, then ask for a bit less with
     minimum area. *)
  let unconstrained = Option.get (Merlin.run ~cfg:tiny_cfg ~tech ~buffers net) in
  let target = unconstrained.Merlin.best.Solution.req -. 100.0 in
  match
    Merlin.run ~cfg:tiny_cfg ~objective:(Objective.Min_area_over_req target)
      ~tech ~buffers net
  with
  | None -> Alcotest.fail "relaxed target should be feasible"
  | Some out ->
    Alcotest.(check bool) "meets the floor" true
      (out.Merlin.best.Solution.req >= target -. 1e-9);
    Alcotest.(check bool) "area no larger than unconstrained best" true
      (out.Merlin.best.Solution.area
       <= unconstrained.Merlin.best.Solution.area +. 1e-9)

let test_config_presets () =
  Config.validate Config.default;
  Config.validate Config.paper_table1;
  Config.validate Config.paper_table2;
  List.iter (fun n -> Config.validate (Config.scaled n)) [ 1; 5; 15; 30; 80 ];
  Alcotest.(check int) "table 1 alpha" 15 Config.paper_table1.Config.alpha;
  Alcotest.(check int) "table 2 alpha" 10 Config.paper_table2.Config.alpha;
  Alcotest.(check int) "table 2 loop bound" 3 Config.paper_table2.Config.max_iters;
  Alcotest.check_raises "bad alpha" (Invalid_argument "Config.validate: alpha < 2")
    (fun () -> Config.validate { Config.default with Config.alpha = 1 })

(* Work pin for the golden route's net (test/golden_route_r7s5.expected): the
   same net and configuration as `merlin-cli route --random 7 --seed 5`.
   Deterministic counts, so a change that loses the cell sharing of a
   construct, or changes how much work the *P_Tree kernel does, fails
   here without any timing.  The kernel counters are process-wide, so
   the pin reads their growth over this one run. *)
let test_merlin_cell_sharing_pin () =
  let net = Net_gen.random_net ~seed:5 ~name:"random" ~n:7 tech in
  let counters =
    Star_ptree.
      [ ("joins", n_joins, 19551); ("join adds", n_join_adds, 1924015);
        ("join survivors", n_join_survivors, 440129);
        ("close adds", n_close_adds, 1627024) ]
  in
  let before = List.map (fun (_, c, _) -> Atomic.get c) counters in
  let out =
    Option.get (Merlin.run ~cfg:(Config.scaled 7) ~tech ~buffers net)
  in
  Alcotest.(check int) "loops" 2 out.Merlin.loops;
  Alcotest.(check int) "merges" 1124 out.Merlin.merges;
  Alcotest.(check int) "cells built" 1914 out.Merlin.cells_built;
  Alcotest.(check int) "cells reused" 4898 out.Merlin.cells_reused;
  List.iter2
    (fun (name, c, want) b -> Alcotest.(check int) name want (Atomic.get c - b))
    counters before

let suite =
  ( "core",
    [ Alcotest.test_case "grouping stretch" `Quick test_stretch;
      Alcotest.test_case "grouping covered (Fig 13)" `Quick test_covered_fig13;
      Alcotest.test_case "grouping len 1" `Quick test_covered_len1;
      Alcotest.test_case "grouping slots partition" `Quick test_slots_partition;
      Alcotest.test_case "catree basics" `Quick test_catree_basics;
      Alcotest.test_case "objective variants" `Quick test_objective;
      Alcotest.test_case "star single sink" `Quick test_star_single_sink;
      Alcotest.test_case "star order preserved" `Quick test_star_order_preserved;
      Alcotest.test_case "star engine = evaluator" `Quick test_star_internal_consistency;
      qtest_star_shared_table;
      Alcotest.test_case "bubble: validity, Lemma 5, C-alpha" `Slow
        test_bubble_valid_and_in_neighborhood;
      Alcotest.test_case "bubble: pessimistic quantisation" `Quick
        test_bubble_pessimistic_req;
      Alcotest.test_case "bubble: swap coverage" `Quick test_bubble_covers_swap;
      Alcotest.test_case "bubble: bad order" `Quick test_bubble_rejects_bad_order;
      Alcotest.test_case "bubble: single sink" `Quick test_single_sink_net;
      Alcotest.test_case "bubbling off keeps order" `Quick test_bubbling_off_keeps_order;
      Alcotest.test_case "merlin converges (Thm 7)" `Slow test_merlin_converges;
      Alcotest.test_case "merlin area budget (variant I)" `Quick
        test_merlin_respects_area_budget;
      Alcotest.test_case "merlin min area (variant II)" `Quick test_merlin_variant2;
      Alcotest.test_case "merlin cell sharing pin (golden r7s5)" `Quick
        test_merlin_cell_sharing_pin;
      Alcotest.test_case "config presets" `Quick test_config_presets ] )
