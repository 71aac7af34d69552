(** A net: a driver (source) and a set of sinks to be connected by a
    buffered routing tree (paper Section III.1). *)

open Merlin_geometry
open Merlin_tech

type t = {
  name : string;
  source : Point.t;            (** position of the driver output pin *)
  driver : Delay_model.t;      (** 4-parameter model of the driving gate *)
  sinks : Sink.t array;        (** indexed by sink id: [sinks.(i).id = i] *)
}

(** [make ~name ~source ~driver sinks] validates that sink ids are exactly
    [0 .. n-1] in order, that the source and every sink lie within
    [|x|, |y| <= 2^30] (so Manhattan sums cannot overflow), that every
    sink capacitance is finite and non-negative and that every required
    time is finite.  Raises [Invalid_argument] otherwise or if the net
    has no sinks. *)
val make :
  name:string -> source:Point.t -> driver:Delay_model.t -> Sink.t list -> t

val n_sinks : t -> int

val sink : t -> int -> Sink.t

(** All terminal positions: source plus sinks. *)
val terminals : t -> Point.t list

(** Smallest box containing all terminals. *)
val bounding_box : t -> Rect.t

(** Sum of the sink capacitive loads, fF. *)
val total_sink_cap : t -> float

(** A default driver model: a mid-strength gate of the synthetic library. *)
val default_driver : Delay_model.t

val pp : Format.formatter -> t -> unit
