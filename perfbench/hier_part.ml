(* Flow IV on large nets over a pool of one worker domain per core:
   hundreds of tiny one-loop MERLIN runs, so clustering, pool
   scheduling, stitching and re-verification carry the weight. *)

open Merlin_net
open Merlin_rtree
module Flows = Merlin_flows.Flows
module Pool = Merlin_exec.Pool
module Clock = Merlin_exec.Clock
module Hier = Merlin_hier.Hier
module Cluster = Merlin_hier.Cluster

let tech = Inputs.tech

let spec =
  match Flows.default_algo "hier" with
  | Some algo -> { Flows.tech; buffers = Inputs.buffers; algo }
  | None -> failwith "no default hier flow"

let cluster, inner =
  match spec.Flows.algo with
  | Flows.Hier { cluster; inner } -> (cluster, inner)
  | Flows.Lttree_ptree _ | Flows.Ptree_vg _ | Flows.Merlin _ ->
    failwith "the default hier flow is not Flow IV"

let route g ~pool (net : Net.t) =
  let m, sample = Calib.timed (fun () -> Flows.run ~pool spec net) in
  Gate.record g ("Flow IV " ^ net.Net.name) (Gate.flow ~tech net m);
  ((m.Flows.area, m.Flows.delay), sample)

(* One step per net and repetition, each on a pool of its own:
   seconds summed over the nets (the median over [reps] repetitions),
   and the mean delay and area.  Repetitions must agree. *)
let measure g ~reps nets =
  let n = List.length nets in
  let res = Array.make_matrix reps n ((0.0, 0.0), (0.0, Calib.{ length = 0.0; local = 1.0 })) in
  let finish () =
    let quality = Array.map (Array.map fst) res in
    Array.iter
      (fun q ->
         Gate.record g ~ops:0 "Flow IV"
           (Gate.check (q = quality.(0)) "differs between repetitions"))
      quality;
    let first = Array.to_list quality.(0) in
    [ ("flow4_s",
       Spec.median
         (Array.to_list
            (Array.map (Array.fold_left (fun a (_, s) -> a +. Calib.seconds s) 0.0) res)));
      ("flow4_delay_ps", Spec.mean (List.map snd first));
      ("flow4_area", Spec.mean (List.map fst first)) ]
  in
  { Spec.steps =
      List.concat
        (List.init reps (fun p ->
             List.mapi
               (fun i net () ->
                  res.(p).(i) <-
                    Pool.with_pool ~domains:(Inputs.domains ()) (fun pool -> route g ~pool net))
               nets));
    fill = ignore;
    finish }

(* One pass for the traced run.  Both passes partition each net once
   more on their own; the traced one then calls Hier.route directly
   with every router callback in a "hier.part" span, the untraced one
   goes through Flows.run. *)
let traced_pass tr g ~pool nets =
  let parts = ref 0 and clusters = ref 0 and levels = ref 0 in
  let s0 = Pool.stats pool in
  let t0 = Clock.monotonic_s () in
  let results =
    List.mapi
      (fun i (net : Net.t) ->
         Trace.span tr ~group:(2000 + i) "w.flow4" (fun () ->
             ignore
               (Trace.span tr "hier.partition" (fun () -> Cluster.partition cluster net));
             if not (Trace.enabled tr) then fst (route g ~pool net)
             else begin
               let h =
                 Trace.span tr "hier.route" (fun () ->
                     let ctx = Trace.here tr in
                     Hier.route ~tech ~cluster ~pool
                       ~route:(fun _ sub ->
                           Trace.span tr ~ctx "hier.part" (fun () ->
                               Flows.run { spec with Flows.algo = inner } sub))
                       ~tree_of:(fun (m : Flows.metrics) -> m.Flows.tree)
                       net)
               in
               parts := !parts + Array.length h.Hier.parts;
               clusters := !clusters + h.Hier.n_clusters;
               levels := max !levels h.Hier.levels;
               let ev = Trace.span tr "rtree.eval" (fun () -> Eval.net tech net h.Hier.tree) in
               (* evaluated just above; compared with Flows.run's
                  figures after the passes *)
               Gate.record g ("Flow IV " ^ net.Net.name) (Gate.covers ~tr net h.Hier.tree);
               (ev.Eval.area, ev.Eval.net_delay)
             end))
      nets
  in
  let wall = Clock.elapsed_s t0 in
  let s1 = Pool.stats pool in
  let busy st =
    Array.fold_left (fun a (d : Pool.domain_stat) -> a +. d.Pool.busy_s) 0.0 st.Pool.per_domain
  in
  let busy_s = busy s1 -. busy s0 in
  ( results,
    [ ("hier.parts", float_of_int !parts);
      ("hier.clusters", float_of_int !clusters);
      ("hier.levels", float_of_int !levels);
      ("exec.tasks", float_of_int (s1.Pool.completed - s0.Pool.completed));
      ("exec.busy_s", busy_s);
      ("exec.queue_wait_s", s1.Pool.total_queue_wait_s -. s0.Pool.total_queue_wait_s);
      (* share of the executors' time (the workers and the caller, which
         helps while it awaits) spent inside task bodies *)
      ("exec.utilisation", busy_s /. (float_of_int (Pool.size pool + 1) *. wall)) ] )
