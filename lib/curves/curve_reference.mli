(** The pre-batch, list-based curve implementation, retained as the
    executable specification for the array-backed batch kernel in
    {!Curve}.  [test/test_curve_kernel.ml] property-tests that both
    produce identical frontiers (same solutions, same order, same
    tie-breaks) for every batch operation.  Not used by the DP cores. *)

type 'a t = 'a Solution.t list

val empty : 'a t

val size : 'a t -> int

val to_list : 'a t -> 'a Solution.t list

(** Incremental insert with domination pruning — the O(frontier) list
    rebuild the batch kernel replaces. *)
val add : 'a t -> 'a Solution.t -> 'a t

val of_list : 'a Solution.t list -> 'a t

val union : 'a t -> 'a t -> 'a t

val map_solutions : ('a Solution.t -> 'b Solution.t) -> 'a t -> 'b t

(** Reference for the early-exit {!Curve.best_min_area}: folds the whole
    list. *)
val best_min_area : 'a t -> req:float -> 'a Solution.t option

val cap : max_size:int -> 'a t -> 'a t

(** The rebuild-based {!Curve.cap}: the picks are pushed into a fresh
    {!Curve.Builder} and re-pruned.  The oracle for the selection cap. *)
val cap_rebuild : max_size:int -> 'a Curve.t -> 'a Curve.t

val quantise_load : grid:float -> 'a t -> 'a t

val quantise :
  req_grid:float -> load_grid:float -> area_grid:float -> 'a t -> 'a t
