(* The correctness gate every run applies to every result.  An
   operation is a net routed or a request answered; a check that fails
   counts its operations as failed and says why on stderr, so nothing
   passes silently. *)

open Merlin_net
open Merlin_rtree

type t = { mutable attempted : int; mutable failed : int }

let create () = { attempted = 0; failed = 0 }

let record g ?(ops = 1) what = function
  | Ok () -> g.attempted <- g.attempted + ops
  | Error msg ->
    g.attempted <- g.attempted + ops;
    g.failed <- g.failed + ops;
    Printf.eprintf "perfbench: FAILED %s: %s\n%!" what msg

let check cond fmt =
  Printf.ksprintf (fun msg -> if cond then Ok () else Error msg) fmt

let ( let* ) = Result.bind

(* A routed tree must connect exactly the net's sinks. *)
let covers ?(tr = Trace.off) (net : Net.t) tree =
  match Trace.span tr "rtree.check" (fun () -> Check.covers net tree) with
  | Ok () -> Ok ()
  | Error errs ->
    Error
      (Format.asprintf "tree does not cover %s: %a" net.Net.name
         (Format.pp_print_list ~pp_sep:Format.pp_print_space Check.pp_error)
         errs)

(* ... and evaluating it again must give the area and delay the flow
   reported. *)
let tree ?(tr = Trace.off) ~tech (net : Net.t) tree ~area ~delay =
  let* () = covers ~tr net tree in
  let ev = Trace.span tr "rtree.eval" (fun () -> Eval.net tech net tree) in
  check
    (Float.equal ev.Eval.area area && Float.equal ev.Eval.net_delay delay)
    "%s: re-evaluated area %g delay %g, reported %g %g" net.Net.name
    ev.Eval.area ev.Eval.net_delay area delay

let flow ?tr ~tech net (m : Merlin_flows.Flows.metrics) =
  tree ?tr ~tech net m.Merlin_flows.Flows.tree ~area:m.Merlin_flows.Flows.area
    ~delay:m.Merlin_flows.Flows.delay
