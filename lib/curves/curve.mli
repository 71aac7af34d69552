(** Non-inferior three-dimensional solution curves.

    A curve holds only mutually non-inferior solutions (Definition 6) and
    keeps them in the deterministic {!Solution.compare_key} order, backed
    by a sorted array.  All dynamic programs in the repository combine,
    extend and prune these curves; Lemma 9 (pruning loses no non-inferior
    solution) is enforced here and property-tested in
    [test/test_curves.ml] and [test/test_curve_kernel.ml] (observational
    equivalence against the list-based {!Curve_reference}).

    The DP hot paths should not [add] candidates one at a time: they
    accumulate a whole cell-root's candidate bag into a {!Builder} and
    prune once with {!Builder.build} — one stable sort plus one staircase
    sweep instead of a per-candidate frontier rebuild (DESIGN.md §"Curve
    kernel"). *)

type 'a t

val empty : 'a t

val is_empty : 'a t -> bool

val size : 'a t -> int

(** Solutions in {!Solution.compare_key} order. *)
val to_list : 'a t -> 'a Solution.t list

(** [get c i] is the [i]-th solution in {!Solution.compare_key} order
    ([0 <= i < size c]; raises [Invalid_argument] otherwise). *)
val get : 'a t -> int -> 'a Solution.t

(** Batch accumulator: push candidate coordinates (and their payloads)
    into structure-of-arrays storage, then prune the whole bag at once.
    Ties on {!Solution.compare_key} keep the earliest push, matching the
    incremental {!add}. *)
module Builder : sig
  type 'a b

  (** [create ?hint ()] is an empty accumulator with initial capacity
      [hint] (it grows as needed). *)
  val create : ?hint:int -> unit -> 'a b

  (** [push b ~req ~load ~area data] records one candidate without
      allocating a {!Solution.t} — the hot paths push raw costs and defer
      building the carried structure to the frontier survivors. *)
  val push : 'a b -> req:float -> load:float -> area:float -> 'a -> unit

  (** Mutable all-float coordinate carrier for the DP hot paths.  An
      all-float record is stored flat, so a cost computation can write
      its three results as unboxed float stores and {!push_cost} can
      move them straight into the builder's columns — no [(req, load,
      area)] tuple and no boxed floats per candidate, which the
      non-flambda compiler cannot eliminate across a function boundary
      on its own (DESIGN.md §9). *)
  type cost = {
    mutable creq : float;
    mutable cload : float;
    mutable carea : float;
  }

  val new_cost : unit -> cost

  (** [push_cost b c data] is [push] reading its coordinates from [c]. *)
  val push_cost : 'a b -> cost -> 'a -> unit

  (** [add b s] pushes an existing solution. *)
  val add : 'a b -> 'a Solution.t -> unit

  (** [add_curve b c] pushes every solution of [c]. *)
  val add_curve : 'a b -> 'a t -> unit

  (** Candidates pushed so far (pre-pruning). *)
  val length : 'a b -> int

  (** Forget all pushed candidates, keeping all storage — including the
      sort/staircase scratch grown by previous {!build}s, so a cleared
      builder reused across a DP's cells reaches a fixed point where
      steady-state builds allocate only the survivor array.  A cleared
      builder is observationally identical to a fresh one (property
      tested in [test/test_curve_kernel.ml]). *)
  val clear : 'a b -> unit

  (** [build ?name ?grids ?epsilon ?max_frontier b] prunes the
      accumulated bag to its non-inferior frontier: one sort + one
      staircase sweep, O(P log P + P·F_insert) for P candidates and
      frontier size F, versus O(P·F) for P repeated {!add}s.  [grids]
      applies {!Solution.quantise} bucketing to every candidate during
      the sweep (the DP cores' per-candidate quantisation, fused into
      the batch pass).  The sort is one monomorphic merge sort with
      the comparison inlined (DESIGN.md §9).  [name] labels
      {!Contract} violations.

      [epsilon > 0] additionally drops candidates epsilon-dominated by a
      kept point (within [epsilon] in both load and area at no-worse
      req, measured on the quantised coordinates); [max_frontier > 0]
      keeps only that prefix of the frontier (best req first).  Both
      default off; [~epsilon:0.0] and an unreachably large
      [max_frontier] are byte-identical to the exact build.  The result
      is always mutually non-inferior — epsilon-domination subsumes
      exact domination — so every {!Contract} invariant holds in every
      mode. *)
  val build :
    ?name:string ->
    ?grids:float * float * float ->
    ?epsilon:float ->
    ?max_frontier:int ->
    'a b ->
    'a t
end

(** [add curve s] inserts [s] unless an existing solution dominates it and
    removes every solution [s] dominates.  Placement is a binary search
    over the sorted array; kept for genuinely incremental callers — batch
    producers should use {!Builder}. *)
val add : 'a t -> 'a Solution.t -> 'a t

val of_list : 'a Solution.t list -> 'a t

(** [union a b] is the pruned merge of both curves. *)
val union : 'a t -> 'a t -> 'a t

(** [map_data f c] maps only the carried payloads; coordinates — and
    hence the frontier — are unchanged.  This is how hot paths
    materialise deferred payloads after {!Builder.build}. *)
val map_data : ('a -> 'b) -> 'a t -> 'b t

(** [map_solutions f c] rebuilds the curve from [f] applied to each
    solution, re-pruning (used to push a solution through a wire or a
    buffer, which changes all three coordinates). *)
val map_solutions : ('a Solution.t -> 'b Solution.t) -> 'a t -> 'b t

val fold : ('acc -> 'a Solution.t -> 'acc) -> 'acc -> 'a t -> 'acc

val iter : ('a Solution.t -> unit) -> 'a t -> unit

(** Solution with the largest required time, ties broken by smaller load
    then area (the curve's first element). *)
val best_req : 'a t -> 'a Solution.t option

(** [best_under_area curve ~area] is the max-required-time solution with
    area at most [area] (problem variant I). *)
val best_under_area : 'a t -> area:float -> 'a Solution.t option

(** [best_min_area curve ~req] is the min-area solution with required time
    at least [req] (problem variant II).  The scan early-exits at the
    first element below the floor (the curve is req-descending). *)
val best_min_area : 'a t -> req:float -> 'a Solution.t option

(** [cap ~max_size curve] reduces the curve to at most [max_size]
    points by keeping an even spread along the required-time axis
    (always keeping both extremes and the least-load and least-area
    points); [max_size >= 2].  It selects: the kept points are the
    curve's own solutions, in curve order, and nothing is re-pruned
    (DESIGN.md §5, §9). *)
val cap : max_size:int -> 'a t -> 'a t

(** [quantise_load ~grid curve] rounds every load {e up} to a multiple of
    [grid] and re-prunes — the "capacitances mapped to polynomially bounded
    integers" proviso of Lemmas 1 and 10.  Rounding up is pessimistic, so
    any solution kept remains electrically valid. *)
val quantise_load : grid:float -> 'a t -> 'a t

(** [quantise ~req_grid ~load_grid ~area_grid curve] buckets all three
    dimensions pessimistically (required time down, load and area up) and
    re-prunes.  With all three grids set, the frontier size is bounded by
    the number of distinct (load, area) buckets, which is what makes the
    paper's dynamic programs pseudo-polynomial without the instability of
    a hard count cap.  A grid of 0 leaves that dimension untouched. *)
val quantise :
  req_grid:float -> load_grid:float -> area_grid:float -> 'a t -> 'a t

(** [is_frontier c] checks the internal invariant: no element dominates
    another.  Exposed for tests. *)
val is_frontier : 'a t -> bool

val pp : Format.formatter -> 'a t -> unit
