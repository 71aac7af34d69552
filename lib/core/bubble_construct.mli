(** BUBBLE_CONSTRUCT — the inner optimization engine (paper Fig. 9).

    Bottom-up over sub-group length L, grouping structure E and right
    window border R, each sub-group absorbs one already-built sub-group
    (the C-alpha chain continuation) plus at most alpha-1 direct sinks;
    the level routing is a *P_Tree built by {!Star_ptree}; three
    dimensional solution curves are pruned to the non-inferior frontier
    after every step.  The four grouping structures chi_0..chi_3 let the
    sink order deviate from the initial order by one position per sink, so
    the final curve covers the whole neighborhood N(Pi) (Lemmas 5 and 6). *)

open Merlin_geometry
open Merlin_tech
open Merlin_net
open Merlin_curves
open Merlin_order

type result = {
  curve : Build.t Curve.t;
      (** final non-inferior curve measured at the driver input: [req] is
          the required time at the root, [area] the total buffer area *)
  candidates : Point.t array;  (** candidate set actually used *)
  merges : int;  (** number of *PTREE merge invocations (cost metric) *)
  cells_built : int;  (** *P_Tree interval cells computed *)
  cells_reused : int;
      (** *P_Tree interval cells taken from the construct's cell table
          instead of being recomputed *)
}

(** [candidate_set cfg net] is the candidate-location set the engine uses:
    the (possibly reduced) Hanan grid of the net's terminals, capped at
    [cfg.candidate_limit]. *)
val candidate_set : Config.t -> Net.t -> Point.t array

(** [construct ~cfg ~tech ~buffers net order] runs the engine for the
    given initial sink order.  [candidates] overrides the candidate set
    (the net source is appended if missing); by default it comes from
    {!candidate_set}.  Raises [Invalid_argument] if [order] is not a
    permutation of the net's sinks. *)
val construct :
  ?candidates:Point.t array ->
  cfg:Config.t ->
  tech:Tech.t ->
  buffers:Buffer_lib.t ->
  Net.t ->
  Order.t ->
  result

(** The C-alpha hierarchy of a solution from the final curve. *)
val hierarchy : Build.t Solution.t -> Catree.t

(** The realised sink order of a solution (paper SINK_ORDER), read from
    the hierarchy. *)
val realized_order : Build.t Solution.t -> Order.t
