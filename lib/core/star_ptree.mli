(** The *PTREE engine (paper Section 3.2.3).

    Given an ordered list of terminals — direct sinks and at most a few
    already-constructed sub-groups — and a set of candidate locations, the
    engine computes, for every candidate root p, the non-inferior
    three-dimensional solution curve of rectilinear buffered routings of
    the terminals that respect the terminal order (the P_Tree property),
    may place a buffer at any routing root (the * of *P_Tree) and may route
    through other candidate locations (the d(p,p') relocation of the
    paper's recurrence).

    The interval DP follows the paper's recurrences:
    - S_b(p,i,j) = min over u of S(p,i,u) + S(p,u+1,j) (joins at p)
    - S(p,i,j)  = min over p' of d(p,p') + S_b(p',i,j) (one-hop moves;
      multi-hop paths compose across DP levels since Manhattan distance is
      a metric, and buffered hops are covered because every curve is
      "closed" under root-buffer insertion before it is extended). *)

open Merlin_geometry
open Merlin_tech
open Merlin_net
open Merlin_curves

(** A per-construct *P_Tree context: the run-constant parameters, the
    scratch builders and a table of finished interval cells S(i..j).
    Every {!run} on the same context looks a cell up by its terminals
    i..j (a sink by its id, a sub-group by the {!sub_term} that wrapped
    it) and its active-candidate set before building it, so the merges
    of one BUBBLE_CONSTRUCT share every sub-interval they have in
    common, relocation memos included.  A sub-cell's active set is a
    function of its parent's (inflated bounding boxes are monotone), so
    equal keys give byte-identical curves.  A context is single-domain
    and is meant to live for one construct. *)
type t

type sub

type terminal =
  | Sink_term of Sink.t  (** identified by its id within a context *)
  | Sub_term of sub
      (** an already-built sub-group, made by {!sub_term} on the context
          it is run on *)

(** [create ~tech ~buffers ~trials ~max_curve ~grids ~bbox_slack
    ~candidates ()] is a context with an empty cell table.  [trials]
    bounds how many library buffers are tried at each root (evenly
    spaced over the graded library); [grids] are the (req, load, area)
    quantisation buckets of {!Curve.quantise}.  [epsilon] and
    [max_frontier] are {!Curve.Builder.build}'s frontier knobs, applied
    to every build of the DP ({!Config.t}'s [curve_epsilon] /
    [max_frontier]; both default off, leaving the exact kernel
    byte-identical).  Raises [Invalid_argument] on empty [candidates]. *)
val create :
  ?epsilon:float ->
  ?max_frontier:int ->
  tech:Tech.t ->
  buffers:Buffer_lib.t ->
  trials:int ->
  max_curve:int ->
  grids:float * float * float ->
  bbox_slack:float ->
  candidates:Point.t array ->
  unit ->
  t

(** [sub_term t curves] wraps an already-built sub-group — one curve per
    candidate index, each solution rooted at that candidate — as a
    terminal with a fresh identity in [t].  The curves must not change
    afterwards.  Raises [Invalid_argument] if every curve is empty. *)
val sub_term : t -> Build.t Curve.t array -> terminal

(** [release t term] drops every table cell whose terminals include the
    sub-group [term] (no-op on a sink).  Call it once no later {!run}
    will use [term]; using it again only costs a rebuild. *)
val release : t -> terminal -> unit

(** [run t ~active ~terminals] is the per-candidate solution curve
    array (length [Array.length candidates]) for routing all
    [terminals] rooted at each candidate whose index appears in
    [active]; curves at inactive indices are empty.  Every returned
    curve is closed under root-buffer insertion.  Raises
    [Invalid_argument] on empty [terminals] or [active]. *)
val run : t -> active:int array -> terminals:terminal array -> Build.t Curve.t array

(** Cells computed, and cells taken from the table, by the runs on [t]
    so far. *)
val cells_built : t -> int

val cells_reused : t -> int

(**/**)
val n_join_adds : int Atomic.t
val n_close_adds : int Atomic.t
val n_pull_adds : int Atomic.t
val n_base_adds : int Atomic.t
val n_cells : int Atomic.t
val n_pulls : int Atomic.t

(* Bytes-moved telemetry: Gc.allocated_bytes deltas accumulated around
   each kernel entry point, plus join-build/survivor counts, consumed by
   `bench/main.exe curve --json` and `merlin-cli route --stats`. *)
val n_joins : int Atomic.t
val n_join_survivors : int Atomic.t
val bytes_join : int Atomic.t
val bytes_close : int Atomic.t
val bytes_pull : int Atomic.t
val bytes_base : int Atomic.t
(**/**)
