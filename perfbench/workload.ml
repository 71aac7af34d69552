(* The two workloads.  Each runs all three parts of the system, so that
   every workload reports every metric and a change to one layer can be
   checked on a workload where it should not move: the part a workload
   is about in full, Flow IV on one 1000-sink net, and a small slice of
   the remaining part.

     paper        one core: Table-1 nets through Flows I-III, the
                  quick Table-2 circuits.  The MERLIN DP dominates.
     serve-c7552  the daemon serving all 503 nets of C7552.

   Minor slices: one 6-sink net and C432 (paper); B9's 20 nets (serve). *)

module Clock = Merlin_exec.Clock
module Pool = Merlin_exec.Pool
open Inputs

type t = Paper | Serve_c7552

let names = [ ("paper", Paper); ("serve-c7552", Serve_c7552) ]

let of_string s = List.assoc_opt s names

(* Sizes of the paper and serve parts. *)
let sizes = function Paper -> (Full, Minor) | Serve_c7552 -> (Minor, Full)

type inputs = {
  paper : Paper_part.inputs;
  hier : Merlin_net.Net.t list;
  serve : Serve_part.inputs;
}

(* Flow IV: the 1000-sink net, twice, rides with the pool-heavy serve
   workload; paper, whose runs Flow III already makes long, routes a
   400-sink net once. *)
let hier_sinks = function Paper -> 400 | Serve_c7552 -> 1000
let hier_reps = function Paper -> 1 | Serve_c7552 -> 2

let make_inputs w ~seed =
  let p, s = sizes w in
  { paper = Paper_part.setup p; hier = Inputs.hier_nets (hier_sinks w); serve = Serve_part.setup ~seed s }

(* One set-up: input generation, pool start-up and daemon start-up
   (fresh store, one connection).  Returns the inputs and the seconds
   of the three with their window ({!Calib}). *)
let setup_once w ~seed =
  let (inp, t), win =
    Calib.around (fun () ->
        let inp, gen_s = Clock.timed (fun () -> make_inputs w ~seed) in
        let pool, pool_s = Clock.timed (fun () -> Pool.create ~domains:(domains ()) ()) in
        Pool.shutdown pool;
        let (store, d), daemon_s = Clock.timed (fun () -> Serve_part.start_fresh inp.serve) in
        Serve_part.stop d;
        Serve_part.rm_rf store;
        (inp, gen_s +. pool_s +. daemon_s))
  in
  (inp, (t, win))

(* [minor] spread evenly between the steps of [full]: after full step
   [i] of [n] come minor steps [i m / n] up to [(i + 1) m / n]. *)
let spread full minor =
  let n = List.length full and m = Array.length minor in
  List.concat
    (List.mapi
       (fun i f -> f :: List.init (((i + 1) * m / n) - (i * m / n)) (fun j -> minor.((i * m / n) + j)))
       full)

(* Round-robin merge of step lists. *)
let rec round_robin = function
  | [] -> []
  | lists ->
    List.filter_map (function x :: _ -> Some x | [] -> None) lists
    @ round_robin (List.filter_map (function _ :: rest when rest <> [] -> Some rest | _ -> None) lists)

let setups = 9

(* The untraced run: every end-to-end metric.  The minor parts' steps
   are spread between the full part's steps, and the set-ups after the
   first between all of them, so that each samples the whole run; the
   full part then repeats its fill step until [seconds] have passed
   since measuring began. *)
let measure w ~seed ~seconds =
  let g = Gate.create () in
  let inp, first_setup = setup_once w ~seed in
  let setup_s = ref [ first_setup ] in
  let until = Clock.monotonic_s () +. float_of_int seconds in
  let sp, ss = sizes w in
  let paper = Paper_part.measure g sp inp.paper in
  let hier = Hier_part.measure g ~reps:(hier_reps w) inp.hier in
  let serve = Serve_part.measure g ~traced:false ss inp.serve in
  let full, minor = if sp = Full then (paper, [ hier; serve ]) else (serve, [ paper; hier ]) in
  let setup () = setup_s := snd (setup_once w ~seed) :: !setup_s in
  let steps =
    spread
      (spread full.Spec.steps
         (Array.of_list (round_robin (List.map (fun p -> p.Spec.steps) minor))))
      (Array.make (setups - 1) setup)
  in
  let run step =
    (* every step starts from a settled heap, so its times do not carry
       the garbage of the step before *)
    Gc.full_major ();
    step ()
  in
  let values =
    Fun.protect ~finally:Serve_part.stop_all (fun () ->
        List.iter run steps;
        while Clock.monotonic_s () < until do run full.Spec.fill done;
        ("setup_s", Spec.median (List.map Calib.seconds !setup_s))
        :: List.concat_map (fun p -> p.Spec.finish ()) [ paper; hier; serve ])
  in
  Printf.eprintf "perfbench: host speed factor %.4f (median over %d windows)\n%!"
    (Calib.run_factor ()) (List.length !Calib.windows);
  { Spec.correct = g.Gate.failed = 0;
    attempted = g.Gate.attempted;
    failed = g.Gate.failed;
    values }

(* One pass of the traced run; the same calls whether [tr] records or
   not.  Returns the routed results (compared between the passes), the
   layer counters, the wall time and the kernel counter deltas. *)
let pass w tr g inp =
  let _, ss = sizes w in
  let k0 = Trace.kernel () in
  let t0 = Clock.monotonic_s () in
  let paper, paper_layers = Paper_part.traced_pass tr g inp.paper in
  let hier, hier_layers =
    Pool.with_pool ~domains:(domains ()) (fun pool -> Hier_part.traced_pass tr g ~pool inp.hier)
  in
  let serve = Serve_part.measure g ~tr ~traced:true ss inp.serve in
  let serve_layers =
    Fun.protect ~finally:Serve_part.stop_all (fun () ->
        List.iter (fun step -> step ()) serve.Spec.steps;
        serve.Spec.finish ())
  in
  let t1 = Clock.monotonic_s () in
  ( (paper, hier),
    paper_layers @ hier_layers @ serve_layers,
    (t0, t1),
    Trace.kernel_since k0 )

let trace w ~seed =
  let g = Gate.create () in
  let inp, _ = setup_once w ~seed in
  let ((p1, p2, p3, pc), h), _, (u0, u1), _ = pass w Trace.off g inp in
  let tr = Trace.create ~enabled:true in
  let ((q1, q2, q3, qc), h'), counters, (t0, t1), k = pass w tr g inp in
  let agree what a b =
    Gate.record g ~ops:0 what
      (Gate.check (a = b) "the traced replay differs from the untraced calls")
  in
  agree "Flow I replay" p1 q1;
  agree "Flow II replay" p2 q2;
  agree "MERLIN replay (loops, merges, best req)" p3 q3;
  agree "circuits" pc qc;
  agree "Flow IV via Hier.route" h h';
  let spans = Trace.spans tr in
  let file = Serve_part.fresh "trace" ^ ".json" in
  Trace.write spans file;
  Printf.eprintf "perfbench: %d spans written to %s\n%!" (List.length spans) file;
  let stat = Trace.by_name spans in
  let self name = let _, _, s = stat name in s in
  let total name = let _, t, _ = stat name in t in
  let per_call_us name =
    let n, t, _ = stat name in
    if n = 0 then 0.0 else t /. float_of_int n *. 1e6
  in
  let f = float_of_int in
  let ratio a b = if b = 0 then 0.0 else f a /. f b in
  let values =
    [ ("order.tsp_s", self "order.tsp");
      ("core.loop1_s", self "core.loop1"); ("core.loop2_s", self "core.loop2");
      ("core.joins", f k.Trace.joins); ("core.join_adds", f k.Trace.join_adds);
      ("core.join_survivors", f k.Trace.join_survivors);
      ("core.survivor_ratio", ratio k.Trace.join_survivors k.Trace.join_adds);
      ("core.bytes_per_join", ratio k.Trace.bytes_join k.Trace.joins);
      ("lttree.best_s", self "lttree.best"); ("ptree.route_s", self "ptree.route");
      ("ginneken.insert_s", self "ginneken.insert");
      ("rtree.eval_s", self "rtree.eval"); ("rtree.check_s", self "rtree.check");
      ("circuit.place_s", self "circuit.place"); ("circuit.sta_s", self "circuit.sta");
      ("hier.partition_s", self "hier.partition");
      ("hier.parts_s", total "hier.part"); ("hier.self_s", self "hier.route");
      ("serve.encode_us", per_call_us "serve.encode");
      ("serve.decode_us", per_call_us "serve.decode");
      ("serve.key_us", per_call_us "serve.key");
      ("serve.reply_us", per_call_us "serve.reply");
      ("net.fingerprint_us", per_call_us "net.fingerprint");
      ("serve.store_find_us", per_call_us "serve.store_find");
      ("serve.store_add_us", per_call_us "serve.store_add");
      ("serve.route_s", self "serve.route");
      ("trace.overhead_s", (t1 -. t0) -. (u1 -. u0));
      ("trace.coverage", Trace.coverage spans ~lo:t0 ~hi:t1) ]
    @ counters
  in
  Printf.eprintf "perfbench: untraced pass %.2f s, traced pass %.2f s\n%!" (u1 -. u0)
    (t1 -. t0);
  { Spec.correct = g.Gate.failed = 0;
    attempted = g.Gate.attempted;
    failed = g.Gate.failed;
    values }
