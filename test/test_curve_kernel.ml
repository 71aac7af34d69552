open Merlin_curves

(* Observational equivalence of the array-backed batch kernel (Curve,
   Curve.Builder) against the retained list implementation
   (Curve_reference).  Payloads are the push indices, so the properties
   check not just the frontier coordinates but which candidate won each
   tie — the batch kernel must keep the first-pushed among equal keys,
   exactly like folding Curve_reference.add over the same sequence. *)

let sol ~data req load area = Solution.make ~req ~load ~area data

(* Small integer coordinates so random bags are dense in ties and
   dominations. *)
let gen_coords =
  QCheck.Gen.(
    triple (int_range 0 8) (int_range 0 8) (int_range 0 8)
    |> map (fun (r, l, a) ->
        (float_of_int r, float_of_int l, float_of_int a)))

let arb_bag =
  QCheck.make
    ~print:(fun bag ->
      String.concat "; "
        (List.map (fun (r, l, a) -> Printf.sprintf "(%g,%g,%g)" r l a) bag))
    QCheck.Gen.(list_size (int_range 0 60) gen_coords)

let bag_to_sols bag =
  List.mapi (fun i (r, l, a) -> sol ~data:i r l a) bag

let obs c =
  List.map
    (fun s -> (s.Solution.req, s.Solution.load, s.Solution.area, s.Solution.data))
    (Curve.to_list c)

let obs_ref c =
  List.map
    (fun s -> (s.Solution.req, s.Solution.load, s.Solution.area, s.Solution.data))
    (Curve_reference.to_list c)

let qtest name ?(count = 500) arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb prop)

let build_sols ?epsilon ?max_frontier ?max_size sols =
  let bld = Curve.Builder.create () in
  List.iter (Curve.Builder.add bld) sols;
  Curve.Builder.build ?epsilon ?max_frontier ?max_size bld Fun.id

(* The cap every DP build applies, on an existing curve's own points. *)
let cap ~max_size c =
  let bld = Curve.Builder.create () in
  Curve.Builder.add_curve bld c;
  Curve.Builder.build ~max_size bld Fun.id

(* The DP cores' push-time quantisation (Star_ptree's [push_quant]):
   the coordinates are bucketed before they reach the builder. *)
let push_quantised bld (rg, lg, ag) ~req ~load ~area data =
  Curve.Builder.push bld ~req:(Solution.grid_down rg req)
    ~load:(Solution.grid_up lg load) ~area:(Solution.grid_up ag area) data

let equiv =
  [ qtest "of_list = reference (coords and tie winners)" arb_bag (fun bag ->
        let sols = bag_to_sols bag in
        obs (Curve.of_list sols) = obs_ref (Curve_reference.of_list sols));
    qtest "Builder.build = reference fold add" arb_bag (fun bag ->
        let sols = bag_to_sols bag in
        obs (build_sols sols)
        = obs_ref
            (List.fold_left Curve_reference.add Curve_reference.empty sols));
    qtest "incremental add = reference add" arb_bag (fun bag ->
        let sols = bag_to_sols bag in
        obs (List.fold_left Curve.add Curve.empty sols)
        = obs_ref
            (List.fold_left Curve_reference.add Curve_reference.empty sols));
    qtest "union = reference union" (QCheck.pair arb_bag arb_bag)
      (fun (ba, bb) ->
         let sa = bag_to_sols ba
         and sb = List.mapi (fun i (r, l, a) -> sol ~data:(1000 + i) r l a) bb in
         obs (Curve.union (Curve.of_list sa) (Curve.of_list sb))
         = obs_ref
             (Curve_reference.union (Curve_reference.of_list sa)
                (Curve_reference.of_list sb)));
    qtest "quantise = reference quantise" arb_bag (fun bag ->
        let sols = bag_to_sols bag in
        obs
          (Curve.quantise ~req_grid:3.0 ~load_grid:2.0 ~area_grid:5.0
             (Curve.of_list sols))
        = obs_ref
            (Curve_reference.quantise ~req_grid:3.0 ~load_grid:2.0
               ~area_grid:5.0
               (Curve_reference.of_list sols)));
    qtest "quantise_load = reference" arb_bag (fun bag ->
        let sols = bag_to_sols bag in
        obs (Curve.quantise_load ~grid:2.5 (Curve.of_list sols))
        = obs_ref
            (Curve_reference.quantise_load ~grid:2.5
               (Curve_reference.of_list sols)));
    qtest "push-time quantisation = quantise-then-add reference" arb_bag
      (fun bag ->
        (* The DP cores quantise each cost before pushing it: the build
           must equal quantising each candidate and folding reference
           add in the same order. *)
        let sols = bag_to_sols bag in
        let bld = Curve.Builder.create () in
        List.iter
          (fun s ->
             push_quantised bld (3.0, 2.0, 5.0) ~req:s.Solution.req
               ~load:s.Solution.load ~area:s.Solution.area s.Solution.data)
          sols;
        let batch = Curve.Builder.build bld Fun.id in
        let reference =
          List.fold_left
            (fun acc s ->
               Curve_reference.add acc
                 (Solution.quantise ~req_grid:3.0 ~load_grid:2.0 ~area_grid:5.0
                    s))
            Curve_reference.empty sols
        in
        obs batch = obs_ref reference);
    qtest "map_solutions = reference map_solutions" arb_bag (fun bag ->
        let sols = bag_to_sols bag in
        let shift s =
          { s with Solution.req = s.Solution.req +. 1.0;
                   Solution.load = s.Solution.load *. 2.0 }
        in
        let a = Curve.map_solutions shift (Curve.of_list sols)
        and b =
          Curve_reference.map_solutions shift (Curve_reference.of_list sols)
        in
        Curve.size a = Curve_reference.size b && obs a = obs_ref b);
    qtest "capped build = reference cap" arb_bag (fun bag ->
        let sols = bag_to_sols bag in
        obs (build_sols ~max_size:5 sols)
        = obs_ref
            (Curve_reference.cap ~max_size:5 (Curve_reference.of_list sols)));
    qtest "best_min_area early-exit = reference fold"
      (QCheck.pair arb_bag (QCheck.float_range 0.0 9.0))
      (fun (bag, req) ->
         let sols = bag_to_sols bag in
         let a = Curve.best_min_area (Curve.of_list sols) ~req
         and b =
           Curve_reference.best_min_area (Curve_reference.of_list sols) ~req
         in
         match (a, b) with
         | None, None -> true
         | Some x, Some y ->
           x.Solution.area = y.Solution.area
           && x.Solution.req = y.Solution.req
           && x.Solution.data = y.Solution.data
         | _ -> false) ]

(* The arena/knob surface of the builder (DESIGN.md §9): cleared-and-
   reused builders, the neutral settings of the epsilon / max_frontier /
   max_size knobs, and the approximation guarantees of the non-neutral
   ones. *)
let build_bag ?epsilon ?max_frontier ?max_size bag =
  build_sols ?epsilon ?max_frontier ?max_size (bag_to_sols bag)

let modes =
  [ qtest "cleared builder = fresh (across capped/exact cycles)"
      (QCheck.pair arb_bag arb_bag)
      (fun (b1, b2) ->
         (* One long-lived builder runs exact and capped builds over two
            bags; after every clear it must be observationally a fresh
            builder, scratch reuse notwithstanding. *)
         let bld = Curve.Builder.create () in
         let cycle ?max_size bag =
           Curve.Builder.clear bld;
           List.iter (Curve.Builder.add bld) (bag_to_sols bag);
           obs (Curve.Builder.build ?max_size bld Fun.id)
         in
         cycle ~max_size:3 b1 = obs (build_bag ~max_size:3 b1)
         && cycle b2 = obs (build_bag b2)
         && cycle ~max_size:3 b2 = obs (build_bag ~max_size:3 b2)
         && cycle b1 = obs (build_bag b1));
    qtest "push_cost = push" arb_bag (fun bag ->
        let bld = Curve.Builder.create () in
        let c = Curve.Builder.new_cost () in
        List.iteri
          (fun i (r, l, a) ->
             c.Curve.Builder.creq <- r;
             c.Curve.Builder.cload <- l;
             c.Curve.Builder.carea <- a;
             Curve.Builder.push_cost bld c i)
          bag;
        obs (Curve.Builder.build bld Fun.id) = obs (build_bag bag));
    qtest "epsilon 0 and unbounded max_frontier = exact"
      arb_bag
      (fun bag ->
         obs (build_bag ~epsilon:0.0 ~max_frontier:max_int bag)
         = obs (build_bag bag)
         && obs
              (build_bag ~epsilon:0.0 ~max_frontier:max_int ~max_size:max_int
                 bag)
            = obs (build_bag bag));
    qtest "epsilon build: subset of exact, prunes only eps-dominated"
      (QCheck.pair arb_bag (QCheck.float_range 0.5 3.0))
      (fun (bag, eps) ->
         let exact = Curve.to_list (build_bag bag) in
         let pruned = Curve.to_list (build_bag ~epsilon:eps bag) in
         let in_exact s =
           List.exists
             (fun k ->
                k.Solution.req = s.Solution.req
                && k.Solution.load = s.Solution.load
                && k.Solution.area = s.Solution.area
                && k.Solution.data = s.Solution.data)
             exact
         in
         let eps_covered s =
           List.exists
             (fun k ->
                k.Solution.req >= s.Solution.req
                && k.Solution.load <= s.Solution.load +. eps
                && k.Solution.area <= s.Solution.area +. eps)
             pruned
         in
         List.for_all in_exact pruned && List.for_all eps_covered exact);
    qtest "max_frontier keeps the best-req prefix of the exact frontier"
      (QCheck.pair arb_bag (QCheck.int_range 2 8))
      (fun (bag, cap) ->
         let exact = obs (build_bag bag) in
         let capped = obs (build_bag ~max_frontier:cap bag) in
         capped = List.filteri (fun i _ -> i < cap) exact) ]

(* Prune on push against the unpruned specification
   (Curve_reference.frontier).  The push sequences are built to hit the
   pruning rule's edge cases: every base point may come with an exact
   duplicate (same key, later payload: the earlier push must win), a
   dominated neighbour pushed just before it (popped by it) or just
   after it (dropped against it), or a dominating one pushed just after
   it (popping it).  Wider coordinates than [arb_bag], so epsilon 10
   still leaves a frontier. *)
type neighbour = Alone | Duplicate | Worse_before | Worse_after | Better_after

let gen_pushes =
  QCheck.Gen.(
    list_size (int_range 0 40)
      (pair
         (triple (int_range 0 40) (int_range 0 40) (int_range 0 40))
         (pair
            (oneofl [ Alone; Duplicate; Worse_before; Worse_after; Better_after ])
            (triple (int_range 0 1) (int_range 0 1) (int_range 0 1))))
    |> map (fun items ->
        List.concat_map
          (fun ((r, l, a), (nb, (dr, dl, da))) ->
             let p = (float_of_int r, float_of_int l, float_of_int a) in
             (* A weak domination step; all zero is a duplicate key. *)
             let worse = (float_of_int (r - dr), float_of_int (l + dl),
                          float_of_int (a + da))
             and better = (float_of_int (r + dr), float_of_int (l - dl),
                           float_of_int (a - da)) in
             match nb with
             | Alone -> [ p ]
             | Duplicate -> [ p; p ]
             | Worse_before -> [ worse; p ]
             | Worse_after -> [ p; worse ]
             | Better_after -> [ p; better ])
          items))

let arb_pushes =
  QCheck.make
    ~print:(fun bag ->
      String.concat "; "
        (List.map (fun (r, l, a) -> Printf.sprintf "(%g,%g,%g)" r l a) bag))
    gen_pushes

let pruning =
  [ qtest "prune on push = unpruned reference sweep (eps 0/10, max_frontier 0/3)"
      arb_pushes
      (fun bag ->
         let sols = bag_to_sols bag in
         List.for_all
           (fun (epsilon, max_frontier) ->
              let bld = Curve.Builder.create () in
              List.iter (Curve.Builder.add bld) sols;
              let built =
                obs (Curve.Builder.build ~epsilon ~max_frontier bld Fun.id)
              in
              built
              = obs_ref (Curve_reference.frontier ~epsilon ~max_frontier sols)
              && Curve.Builder.survivors bld = List.length built
              && Curve.Builder.length bld = List.length sols)
           [ (0.0, 0); (0.0, 3); (10.0, 0); (10.0, 3) ]
         && obs (build_sols sols)
            = obs_ref
                (List.fold_left Curve_reference.add Curve_reference.empty sols));
    qtest "capped build = rebuild cap of the uncapped build (max_size 2-8)"
      (QCheck.pair arb_pushes (QCheck.int_range 2 8))
      (fun (bag, max_size) ->
         let sols = bag_to_sols bag in
         let bld = Curve.Builder.create () in
         List.iter (Curve.Builder.add bld) sols;
         let full = Curve.Builder.build bld Fun.id in
         let capped = Curve.Builder.build ~max_size bld Fun.id in
         obs capped = obs (Curve_reference.cap_rebuild ~max_size full)
         && Curve.size capped <= max_size
         && Curve.Builder.survivors bld = Curve.size full
         && (Curve.size full > max_size || obs capped = obs full)) ]

(* Join-shaped batch: every (a, b) pair of two curves, pushed as the
   join cost with a packed (a, b) payload; close-shaped batch: a curve's
   own points (payload: position) then each point under two pseudo
   buffers (payload: position plus 1 + buffer index above it) — the
   payload shapes of Star_ptree's join and buffer-closure batches, with
   its push-time quantisation when [grids] is given.  Each returns the
   filled builder and the payload map. *)
let bits = 21
let mask = (1 lsl bits) - 1

let push_batch ?grids bld ~req ~load ~area data =
  match grids with
  | None -> Curve.Builder.push bld ~req ~load ~area data
  | Some g -> push_quantised bld g ~req ~load ~area data

let join_batch ?grids la lb =
  let bld = Curve.Builder.create () in
  List.iteri
    (fun a sa ->
       List.iteri
         (fun b sb ->
            push_batch ?grids bld
              ~req:(Float.min sa.Solution.req sb.Solution.req)
              ~load:(sa.Solution.load +. sb.Solution.load)
              ~area:(sa.Solution.area +. sb.Solution.area)
              ((a lsl bits) lor b))
         lb)
    la;
  let left = Array.of_list la and right = Array.of_list lb in
  ( bld,
    fun code ->
      (left.(code lsr bits).Solution.data, right.(code land mask).Solution.data) )

let close_batch ?grids c =
  let bld = Curve.Builder.create () in
  let n = Curve.size c in
  for i = 0 to n - 1 do
    let s = Curve.get c i in
    push_batch ?grids bld ~req:s.Solution.req ~load:s.Solution.load
      ~area:s.Solution.area i
  done;
  let bufs = [| (1.0, 0.5, 2.0); (0.5, 1.5, 4.0) |] in
  for i = 0 to n - 1 do
    let s = Curve.get c i in
    Array.iteri
      (fun b (r, cin, area) ->
         push_batch ?grids bld
           ~req:(s.Solution.req -. 1.0 -. (r *. s.Solution.load))
           ~load:cin ~area:(s.Solution.area +. area)
           (((b + 1) lsl bits) lor i))
      bufs
  done;
  (bld, fun code -> ((Curve.get c (code land mask)).Solution.data, code lsr bits))

(* Materialising only the cap's picks = materialising the whole frontier
   and capping it afterwards. *)
let capped_materialise_ok (bld, mat) max_size =
  obs (Curve.Builder.build ~max_size bld mat)
  = obs (Curve_reference.cap_rebuild ~max_size (Curve.Builder.build bld mat))

let fused =
  [ qtest "join batch: capped build with map = build with map, then cap"
      (QCheck.triple arb_bag arb_bag (QCheck.int_range 2 8))
      (fun (ba, bb, max_size) ->
         let la = Curve.to_list (Curve.of_list (bag_to_sols ba))
         and lb = Curve.to_list (Curve.of_list (bag_to_sols bb)) in
         List.for_all
           (fun grids -> capped_materialise_ok (join_batch ?grids la lb) max_size)
           [ None; Some (3.0, 2.0, 5.0) ]);
    qtest "close batch: capped build with map = build with map, then cap"
      (QCheck.pair arb_bag (QCheck.int_range 2 8))
      (fun (bag, max_size) ->
         let c = Curve.of_list (bag_to_sols bag) in
         List.for_all
           (fun grids -> capped_materialise_ok (close_batch ?grids c) max_size)
           [ None; Some (3.0, 2.0, 5.0) ]) ]

(* Regression for the batch cap: the four extreme points — best required
   time, least load, least area, and the last curve element — survive
   capping whenever the cap has room for them. *)
let test_cap_preserves_extremes () =
  let rand = Random.State.make [| 42 |] in
  for _trial = 1 to 50 do
    let bag =
      List.init 80 (fun i ->
          sol ~data:i
            (float_of_int (Random.State.int rand 40))
            (float_of_int (Random.State.int rand 40))
            (float_of_int (Random.State.int rand 40)))
    in
    let c = Curve.of_list bag in
    if Curve.size c > 6 then begin
      let capped = cap ~max_size:6 c in
      let full = Curve.to_list c and kept = Curve.to_list capped in
      let extreme proj =
        List.fold_left
          (fun acc s -> if proj s < proj acc then s else acc)
          (List.hd full) full
      in
      let mem s =
        List.exists
          (fun x ->
             x.Solution.req = s.Solution.req
             && x.Solution.load = s.Solution.load
             && x.Solution.area = s.Solution.area)
          kept
      in
      let last = List.nth full (List.length full - 1) in
      Alcotest.(check bool) "best req kept" true (mem (List.hd full));
      Alcotest.(check bool) "min load kept" true
        (mem (extreme (fun s -> s.Solution.load)));
      Alcotest.(check bool) "min area kept" true
        (mem (extreme (fun s -> s.Solution.area)));
      Alcotest.(check bool) "last point kept" true (mem last);
      Alcotest.(check bool) "within cap" true (Curve.size capped <= 6)
    end
  done

(* The builder reports and clears its pending candidates. *)
let test_builder_lifecycle () =
  let bld = Curve.Builder.create ~hint:2 () in
  Alcotest.(check int) "fresh builder empty" 0 (Curve.Builder.length bld);
  for i = 1 to 10 do
    Curve.Builder.push bld ~req:(float_of_int i) ~load:1.0 ~area:1.0 i
  done;
  Alcotest.(check int) "ten pushed" 10 (Curve.Builder.length bld);
  let c = Curve.Builder.build bld Fun.id in
  Alcotest.(check int) "frontier of ten" 1 (Curve.size c);
  Curve.Builder.clear bld;
  Alcotest.(check int) "cleared" 0 (Curve.Builder.length bld);
  Alcotest.(check int) "empty build" 0
    (Curve.size (Curve.Builder.build bld Fun.id))

(* Under MERLIN_CHECK the batch results must satisfy the full array
   contracts too. *)
let test_batch_contracts () =
  Contract.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Contract.set_enabled false)
    (fun () ->
       let rand = Random.State.make [| 7 |] in
       for _trial = 1 to 20 do
         let bld = Curve.Builder.create () in
         for i = 0 to 99 do
           push_quantised bld (2.0, 3.0, 0.0)
             ~req:(float_of_int (Random.State.int rand 30))
             ~load:(float_of_int (Random.State.int rand 30))
             ~area:(float_of_int (Random.State.int rand 30))
             i
         done;
         let c = Curve.Builder.build bld Fun.id in
         Alcotest.(check bool) "contracted build is a frontier" true
           (Curve.is_frontier c);
         let capped = Curve.Builder.build ~max_size:4 bld Fun.id in
         Alcotest.(check bool) "contracted capped build is a frontier" true
           (Curve.is_frontier capped)
       done)

let suite =
  ( "curve_kernel",
    [ Alcotest.test_case "cap preserves the four extreme points" `Quick
        test_cap_preserves_extremes;
      Alcotest.test_case "builder lifecycle" `Quick test_builder_lifecycle;
      Alcotest.test_case "batch results pass contracts" `Quick
        test_batch_contracts ]
    @ equiv @ modes @ pruning @ fused )
