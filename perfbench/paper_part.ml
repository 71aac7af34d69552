(* The paper's two tables: Table-1 nets through Flows I, II and III, and
   the quick Table-2 circuits through the circuit driver's three flows.
   Single core; the MERLIN DP dominates. *)

open Merlin_geometry
open Merlin_tech
open Merlin_net
open Merlin_rtree
module Flows = Merlin_flows.Flows
module FR = Merlin_circuit.Flow_runner
module Netlist = Merlin_circuit.Netlist
module Clock = Merlin_exec.Clock
module Config = Merlin_core.Config
module Merlin = Merlin_core.Merlin
module BC = Merlin_core.Bubble_construct
module Build = Merlin_core.Build
module Lttree = Merlin_lttree.Lttree
module Solution = Merlin_curves.Solution
module Curve = Merlin_curves.Curve

let tech = Inputs.tech
let buffers = Inputs.buffers

type inputs = {
  nets : (string * Net.t) list;
  circuits : (string * Netlist.t * int) list;
      (** name, placed netlist, nets the circuit driver must optimize *)
}

let setup size =
  { nets = Inputs.table1 size;
    circuits =
      List.map
        (fun name ->
           let netlist = Inputs.circuit ~scale_down:200 name in
           (name, netlist, List.length (FR.nets ~tech netlist)))
        (Inputs.table2 size) }

let algo1 = Flows.Lttree_ptree { max_fanout = 10 }
let algo2 = Flows.Ptree_vg { refine_seg = None }

let algo3 net =
  Flows.Merlin
    { cfg = Some (Inputs.flow3_cfg net);
      objective = Merlin_core.Objective.Best_req }

(* What one flow produced on one net, whichever way it was called. *)
type routed = {
  area : float;
  delay : float;
  loops : int;
  merges : int;     (** MERLIN merges; 0 outside Flow III *)
  best_req : float; (** MERLIN's best required time; 0 outside Flow III *)
  frontier : int;   (** size of MERLIN's driver curve *)
}

let of_flows (m : Flows.metrics) =
  { area = m.Flows.area; delay = m.Flows.delay; loops = m.Flows.loops;
    merges = 0; best_req = 0.0; frontier = 0 }

(* The replays evaluate their trees themselves, so there the gate
   checks the sinks only; what they report is compared with the
   untraced pass's figures afterwards. *)
let gate_replay tr g (name, net) tree =
  Gate.record g ("route " ^ name) (Gate.covers ~tr net tree)

(* Flows.run on one net and its seconds; the gate is not timed. *)
let via_flows g algo (name, net) =
  let m, t = Clock.timed (fun () -> Flows.run { Flows.tech; buffers; algo } net) in
  Gate.record g ("route " ^ name) (Gate.flow ~tech net m);
  (of_flows m, t)

(* What a timed route gave on each net, and its seconds summed, with
   their window ({!Calib}).  A pass starts from a settled heap
   (untimed), so the garbage collector does the same work in it on
   every run. *)
let pass route nets =
  Gc.full_major ();
  let rs, w = Calib.around (fun () -> List.map route nets) in
  (List.map fst rs, (List.fold_left (fun a (_, t) -> a +. t) 0.0 rs, w))

(* The circuit driver's three flows on every circuit. *)
let circuit_flows = [ FR.Flow1; FR.Flow2; FR.Flow3 ]

let check_circuit g ~expected (r : FR.result) =
  Gate.record g ~ops:expected
    ("circuit " ^ r.FR.circuit ^ " " ^ FR.flow_name r.FR.flow)
    (Gate.check
       (r.FR.nets_optimized = expected && r.FR.nets_timed_out = 0
        && Float.is_finite r.FR.area && r.FR.area > 0.0
        && Float.is_finite r.FR.delay && r.FR.delay > 0.0)
       "optimized %d of %d nets (%d timed out), area %g, delay %g"
       r.FR.nets_optimized expected r.FR.nets_timed_out r.FR.area r.FR.delay)

let circuit_pass ?(tr = Trace.off) g circuits =
  pass
    (fun (netlist, expected, flow) ->
       let r, t =
         Clock.timed (fun () ->
             Trace.span tr "circuit.flow" (fun () -> FR.run ~tech ~buffers ~flow netlist))
       in
       check_circuit g ~expected r;
       ((r.FR.area, r.FR.delay), t))
    (List.concat_map
       (fun (_, netlist, expected) ->
          List.map (fun flow -> (netlist, expected, flow)) circuit_flows)
       circuits)

(* Flow III / Flow I ratios, averaged over the nets. *)
let ratios r1 r3 =
  ( Spec.mean (List.map2 (fun a b -> b.delay /. a.delay) r1 r3),
    Spec.mean (List.map2 (fun a b -> b.area /. a.area) r1 r3) )

(* Repeated results must be identical: every flow is deterministic. *)
let same_as g what first later =
  List.iter
    (fun x ->
       Gate.record g ~ops:0 what
         (Gate.check (x = first) "differs between repetitions"))
    later

type item = Net_item of (string * Net.t) | Circuit_item of (string * Netlist.t * int)

(* net, circuit, net, circuit, ... *)
let rec interleave nets circuits =
  match nets, circuits with
  | n :: ns, c :: cs -> Net_item n :: Circuit_item c :: interleave ns cs
  | ns, [] -> List.map (fun n -> Net_item n) ns
  | [], cs -> List.map (fun c -> Circuit_item c) cs

(* End-to-end measurement through the user-facing entry points.  A
   heavy pass — Flow III on every net, the circuits — runs one net or
   circuit per step, once in full and four times as the minor slice.
   Every step ends with three Flow II passes over the nets, and every
   circuit step (every step of the minor slice) also with a Flow I
   pass, so that the short Flow I and II samples are spread over the
   whole run. *)
let measure g size inp =
  let heavy_reps = match size with Inputs.Full -> 1 | Inputs.Minor -> 4 in
  let f1 = ref [] and f2 = ref [] in
  let flow2 () = f2 := List.init 3 (fun _ -> pass (via_flows g algo2) inp.nets) @ !f2 in
  let round () =
    f1 := pass (via_flows g algo1) inp.nets :: !f1;
    flow2 ()
  in
  let f3 = Array.make heavy_reps ([], []) and circ = Array.make heavy_reps ([], []) in
  let add a p (r, sample) =
    let rs, samples = a.(p) in
    a.(p) <- (rs @ r, sample :: samples)
  in
  let step p = function
    | Net_item x ->
      add f3 p (pass (fun x -> via_flows g (algo3 (snd x)) x) [ x ]);
      if size = Inputs.Minor then round () else flow2 ()
    | Circuit_item c ->
      add circ p (circuit_pass g [ c ]);
      round ()
  in
  let items = interleave inp.nets inp.circuits in
  let finish () =
    let check what = function
      | (first, _) :: later -> same_as g what first (List.map fst later)
      | [] -> ()
    in
    let f1 = List.rev !f1 and f2 = !f2 in
    let f3 = Array.to_list f3 and circ = Array.to_list circ in
    check "Flow I" f1;
    check "Flow II" f2;
    check "Flow III" f3;
    check "circuits" circ;
    let first l = fst (List.hd l) in
    let times l = Spec.median (List.map (fun (_, s) -> Calib.seconds s) l) in
    (* a repetition's seconds, summed over its steps *)
    let sums l =
      Spec.median
        (List.map (fun (_, ss) -> List.fold_left (fun a s -> a +. Calib.seconds s) 0.0 ss) l)
    in
    let d3, a3 = ratios (first f1) (first f3) in
    [ ("flow1_s", times f1); ("flow2_s", times f2); ("flow3_s", sums f3);
      ("circuit_s", sums circ); ("delay3_ratio", d3); ("area3_ratio", a3) ]
  in
  { Spec.steps =
      List.concat
        (List.init heavy_reps (fun p -> List.map (fun it () -> step p it) items));
    fill = round;
    finish }

(* ------------------------------------------------------------------ *)
(* Traced pass: the flows replayed through their layers' public calls  *)
(* ------------------------------------------------------------------ *)

(* Flow III as Flows.run finishes it: the cheapest point within two
   quantisation buckets of the best required time, evaluated. *)
let finish_flow3 ~tr g ~cfg x ~curve ~(best : Build.t Solution.t)
    ~loops ~merges =
  let slack = 2.0 *. cfg.Config.quant_req in
  let chosen =
    match Curve.best_min_area curve ~req:(best.Solution.req -. slack) with
    | Some s -> s
    | None -> best
  in
  let tree = chosen.Solution.data.Build.tree in
  let ev = Trace.span tr "rtree.eval" (fun () -> Eval.net tech (snd x) tree) in
  gate_replay tr g x tree;
  { area = ev.Eval.area; delay = ev.Eval.net_delay; loops; merges;
    best_req = best.Solution.req; frontier = Curve.size curve }

let via_merlin_run g x =
  let net = snd x in
  let cfg = Inputs.flow3_cfg net in
  match Merlin.run ~cfg ~objective:Merlin_core.Objective.Best_req ~tech ~buffers net with
  | None -> failwith "Merlin.run: Best_req found no solution"
  | Some o ->
    finish_flow3 ~tr:Trace.off g ~cfg x ~curve:o.Merlin.curve ~best:o.Merlin.best
      ~loops:o.Merlin.loops ~merges:o.Merlin.merges

type loop_stats = {
  merges_by_loop : int array;
  mutable alloc_bytes : float;
}

(* Merlin.run's loop, step for step, with each BUBBLE_CONSTRUCT call in
   a span of its own. *)
let merlin_replay tr stats g x =
  let net = snd x in
  let cfg = Inputs.flow3_cfg net in
  let init = Trace.span tr "order.tsp" (fun () -> Merlin_order.Tsp.order net) in
  let tolerance = Float.max cfg.Config.quant_req 1e-6 in
  let construct loops order =
    let a0 = Gc.allocated_bytes () in
    let r =
      Trace.span tr (Printf.sprintf "core.loop%d" loops) (fun () ->
          BC.construct ~cfg ~tech ~buffers net order)
    in
    stats.alloc_bytes <- stats.alloc_bytes +. (Gc.allocated_bytes () -. a0);
    let i = min (loops - 1) (Array.length stats.merges_by_loop - 1) in
    stats.merges_by_loop.(i) <- stats.merges_by_loop.(i) + r.BC.merges;
    r
  in
  let rec loop order loops history total best_so_far =
    let result = construct loops order in
    let total = total + result.BC.merges in
    match Merlin_core.Objective.choose Merlin_core.Objective.Best_req result.BC.curve with
    | None -> (best_so_far, history, total)
    | Some best ->
      let next = BC.realized_order best in
      let improved, best_so_far =
        match best_so_far with
        | Some (_, prev) when prev.Solution.req >= best.Solution.req -. 1e-12 ->
          (false, best_so_far)
        | _ -> (true, Some (result, best))
      in
      let small_step =
        match history with
        | prev :: _ -> best.Solution.req -. prev < tolerance
        | [] -> false
      in
      let history = best.Solution.req :: history in
      if Merlin_order.Order.equal next order || small_step || (not improved)
         || loops >= cfg.Config.max_iters
      then (best_so_far, history, total)
      else loop next (loops + 1) history total best_so_far
  in
  match loop init 1 [] 0 None with
  | None, _, _ -> failwith "MERLIN replay: no solution"
  | Some (result, best), history, merges ->
    finish_flow3 ~tr g ~cfg x ~curve:result.BC.curve ~best
      ~loops:(List.length history) ~merges

(* Flow I: LTTREE fanout optimization, every chain level routed by
   PTREE, as Flows.run does it. *)
let route_level tr ~source ~driver_model ~directs ~sub =
  let pseudo_id = List.length directs in
  let local =
    List.mapi
      (fun i (s : Sink.t) -> Sink.make ~id:i ~pt:s.Sink.pt ~cap:s.Sink.cap ~req:s.Sink.req)
      directs
  in
  let local, substitute =
    match sub with
    | None -> (local, None)
    | Some (subtree, req, load) ->
      ( local
        @ [ Sink.make ~id:pseudo_id ~pt:(Rtree.attach_point subtree) ~cap:load ~req ],
        Some subtree )
  in
  let net = Net.make ~name:"lt-level" ~source ~driver:driver_model local in
  let routed = Trace.span tr "ptree.route" (fun () -> Merlin_ptree.Ptree.route ~tech net) in
  let original = Array.of_list directs in
  let rec restore = function
    | Rtree.Leaf s when s.Sink.id = pseudo_id ->
      (match substitute with Some t -> t | None -> failwith "pseudo sink without subtree")
    | Rtree.Leaf s -> Rtree.Leaf original.(s.Sink.id)
    | Rtree.Node n -> Rtree.Node { n with Rtree.children = List.map restore n.Rtree.children }
  in
  restore routed

let flow1_replay tr g ((_, (net : Net.t)) as x) =
  let best =
    Trace.span tr "lttree.best" (fun () ->
        Lttree.best ~buffers ~max_fanout:10 ~driver:net.Net.driver
          (Array.to_list net.Net.sinks))
  in
  let plan = best.Solution.data in
  let with_eval subtree =
    let ev = Trace.span tr "rtree.eval" (fun () -> Eval.subtree tech subtree) in
    (subtree, ev.Eval.req, ev.Eval.load)
  in
  let rec embed (c : Lttree.chain) =
    let sub = Option.map (fun next -> with_eval (embed next)) c.Lttree.chain in
    let pts =
      List.map (fun (s : Sink.t) -> s.Sink.pt) c.Lttree.directs
      @ (match sub with None -> [] | Some (t, _, _) -> [ Rtree.attach_point t ])
    in
    let pos = Point.center_of_mass pts in
    let routed =
      route_level tr ~source:pos ~driver_model:c.Lttree.buffer.Buffer_lib.model
        ~directs:c.Lttree.directs ~sub
    in
    Rtree.node ~buffer:c.Lttree.buffer pos [ routed ]
  in
  let sub = Option.map (fun c -> with_eval (embed c)) plan.Lttree.root_chain in
  let tree =
    route_level tr ~source:net.Net.source ~driver_model:net.Net.driver
      ~directs:plan.Lttree.root_directs ~sub
  in
  let ev = Trace.span tr "rtree.eval" (fun () -> Eval.net tech net tree) in
  gate_replay tr g x tree;
  { area = ev.Eval.area; delay = ev.Eval.net_delay; loops = 1; merges = 0;
    best_req = 0.0; frontier = 0 }

let flow2_replay tr g ((_, net) as x) =
  let routed = Trace.span tr "ptree.route" (fun () -> Merlin_ptree.Ptree.route ~tech net) in
  let tree =
    Trace.span tr "ginneken.insert" (fun () ->
        Merlin_ginneken.Van_ginneken.insert ~tech ~buffers net routed)
  in
  let ev = Trace.span tr "rtree.eval" (fun () -> Eval.net tech net tree) in
  gate_replay tr g x tree;
  { area = ev.Eval.area; delay = ev.Eval.net_delay; loops = 1; merges = 0;
    best_req = 0.0; frontier = 0 }

(* One pass of the part for the traced run.  With the tracer off the
   flows go through the user-facing calls (Flows.run, and Merlin.run
   for Flow III so its outcome can be compared); with it on, through
   the replays above.  Circuits are placed and timed again inside the
   pass so placement and STA get spans of their own.  Returns what was
   routed (compared between the two passes) and the layer counters. *)
let traced_pass tr g inp =
  let replay = Trace.enabled tr in
  let stats = { merges_by_loop = Array.make 2 0; alloc_bytes = 0.0 } in
  let flow name route =
    List.mapi
      (fun i x -> Trace.span tr ~group:(1000 + i) ("w." ^ name) (fun () -> route x))
      inp.nets
  in
  let r1 = flow "flow1" (if replay then flow1_replay tr g else fun x -> fst (via_flows g algo1 x)) in
  let r2 = flow "flow2" (if replay then flow2_replay tr g else fun x -> fst (via_flows g algo2 x)) in
  let r3 = flow "flow3" (if replay then merlin_replay tr stats g else via_merlin_run g) in
  let optimized = ref 0 in
  let circ =
    List.concat_map
      (fun (name, _, expected) ->
         let netlist =
           Trace.span tr "circuit.place" (fun () -> Inputs.circuit ~scale_down:200 name)
         in
         ignore
           (Trace.span tr "circuit.sta" (fun () ->
                Merlin_circuit.Sta.analyse ~tech (Merlin_circuit.Sta.init netlist)));
         optimized := !optimized + (3 * expected);
         fst (circuit_pass ~tr g [ (name, netlist, expected) ]))
      inp.circuits
  in
  let frontier = Spec.mean (List.map (fun r -> float_of_int r.frontier) r3) in
  ( (r1, r2, r3, circ),
    [ ("core.merges_loop1", float_of_int stats.merges_by_loop.(0));
      ("core.merges_loop2", float_of_int stats.merges_by_loop.(1));
      ("core.alloc_bytes", stats.alloc_bytes);
      ("curves.driver_frontier", frontier);
      ("circuit.nets_optimized", float_of_int !optimized) ] )
