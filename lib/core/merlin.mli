(** MERLIN — the outer local-neighborhood-search engine (paper Fig. 14).

    Starting from an initial sink order (TSP by default, as in the paper's
    Setup III), each iteration runs {!Bubble_construct} — which optimally
    searches the whole neighborhood N(Pi) — takes the realised sink order
    of the best structure, and repeats until the order is a fixed point.
    Theorem 7 guarantees the best cost strictly improves until the last
    visit, so termination needs no other safeguard; [max_iters] is kept as
    a defensive bound. *)

open Merlin_tech
open Merlin_net
open Merlin_curves
open Merlin_order

type outcome = {
  best : Build.t Solution.t;  (** chosen per the objective *)
  curve : Build.t Curve.t;    (** final non-inferior curve at the driver *)
  tree : Merlin_rtree.Rtree.t;
  hierarchy : Catree.t;
  order : Order.t;            (** realised sink order of [best] *)
  loops : int;                (** iterations until convergence *)
  req_history : float list;   (** best required time per loop, oldest first *)
  merges : int;               (** total *PTREE invocations *)
  cells_built : int;          (** *P_Tree cells computed, over all loops *)
  cells_reused : int;         (** *P_Tree cells shared within a construct *)
}

(** [run ?cfg ?objective ?init ~tech ~buffers net] runs the full search.
    Defaults: {!Config.default}, {!Objective.Best_req}, TSP initial order.
    Returns [None] when the objective is infeasible on the final curve
    (only possible for constrained objectives). *)
val run :
  ?candidates:Merlin_geometry.Point.t array ->
  ?cfg:Config.t ->
  ?objective:Objective.t ->
  ?init:Order.t ->
  tech:Tech.t ->
  buffers:Buffer_lib.t ->
  Net.t ->
  outcome option
