open Merlin_geometry
open Merlin_tech

type t = {
  name : string;
  source : Point.t;
  driver : Delay_model.t;
  sinks : Sink.t array;
}

let make ~name ~source ~driver sinks =
  (match sinks with [] -> invalid_arg "Net.make: no sinks" | _ :: _ -> ());
  let arr = Array.of_list sinks in
  Array.iteri
    (fun i s ->
       if s.Sink.id <> i then
         invalid_arg
           (Printf.sprintf "Net.make: sink at index %d has id %d" i s.Sink.id);
       (* Every DP assumes finite, strictly ordered coordinates: a NaN
          or infinite value would silently break the frontier order. *)
       if not (Float.is_finite s.Sink.cap && s.Sink.cap >= 0.0) then
         invalid_arg
           (Printf.sprintf "Net.make: sink %d has capacitance %g" i s.Sink.cap);
       if not (Float.is_finite s.Sink.req) then
         invalid_arg
           (Printf.sprintf "Net.make: sink %d has required time %g" i
              s.Sink.req))
    arr;
  { name; source; driver; sinks = arr }

let n_sinks t = Array.length t.sinks

let sink t i = t.sinks.(i)

let terminals t =
  t.source :: Array.to_list (Array.map (fun s -> s.Sink.pt) t.sinks)

let bounding_box t = Rect.bounding_box (terminals t)

let total_sink_cap t =
  Array.fold_left (fun acc s -> acc +. s.Sink.cap) 0.0 t.sinks

(* A mid-size 0.35um-class cell: weak enough that driving a multi-fanout
   net unbuffered is painful, which is the regime the paper evaluates. *)
let default_driver =
  Delay_model.make ~d0:80.0 ~r_drive:6000.0 ~k_slew:0.12 ~s0:30.0

let pp ppf t =
  Format.fprintf ppf "net %s: src=%a, %d sinks" t.name Point.pp t.source
    (n_sinks t)
