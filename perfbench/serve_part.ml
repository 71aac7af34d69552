(* The routing daemon over a whole netlist: a persistent store, a pool
   of one worker domain per core, one client connection with one
   request in flight (closed loop).  Compute is cheap (1-loop tight
   knobs), so decoding, keying, caching and encoding carry the weight.

   Phases, in order:
     cold     one batch of every net, nothing cached;
     warm     the same batch again, repeatedly, from the memory cache;
     eco      a quarter of the nets perturbed, sent with the original
              fingerprint manifest: only those re-route;
     restart  a fresh daemon over the same store serves the batch;
     hits     single-net Route requests, every one a cache hit. *)

open Merlin_net
module Flows = Merlin_flows.Flows
module Pool = Merlin_exec.Pool
module Clock = Merlin_exec.Clock
module Serve = Merlin_serve
module Wire = Merlin_serve.Wire
module Metrics = Merlin_report.Metrics
module Json = Merlin_report.Json

let tech = Inputs.tech
let spec = Inputs.serve_spec

(* Sockets, stores and traces live under this directory of the
   checkout the benchmark runs from. *)
let work_dir = ".perfbench"

let fresh =
  let k = ref 0 in
  fun prefix ->
    incr k;
    if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
    Filename.concat work_dir (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !k)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

type inputs = {
  nets : (string * Net.t) list;
  eco_nets : (string * Net.t) list array;
      (** one netlist per ECO round (two for the full netlist, eight
          for the short minor one); round [k] moves the required times
          of its changed nets by [50 (k + 1)] ps *)
  changed : bool array array;  (** per round, which nets it changes *)
  manifest : (string * string) list;
}

let setup ~seed size =
  let eco_rounds = match size with Inputs.Full -> 2 | Inputs.Minor -> 8 in
  (* the minor slice is the same on every seed *)
  let seed = match size with Inputs.Full -> seed | Inputs.Minor -> Inputs.default_seed in
  let nets = Inputs.serve_nets ~seed size in
  let sinks = Array.of_list (List.map (fun (_, net) -> Net.n_sinks net) nets) in
  let changed = Array.init eco_rounds (fun round -> Inputs.eco_changed ~seed ~round sinks) in
  { nets;
    eco_nets =
      Array.init eco_rounds (fun k ->
          List.mapi
            (fun i (name, net) ->
               if changed.(k).(i) then (name, Inputs.perturb ~by:(50.0 *. float_of_int (k + 1)) net)
               else (name, net))
            nets);
    changed;
    manifest = List.map (fun (name, net) -> (name, Net_io.fingerprint net)) nets }

(* The daemon runs as its own process, the repository's
   `merlin-cli serve`; [daemon_exe] is its path. *)
let daemon_exe = ref "_build/default/bin/merlin_cli.exe"

type daemon = { pid : int; client : Serve.Client.t }

(* Daemons started and not yet stopped, so a run that fails midway can
   stop them on its way out ({!stop_all}). *)
let live = ref []

let start ~store ~n =
  let socket = fresh "sock" in
  let args =
    [| !daemon_exe; "serve"; "--socket"; socket;
       "-j"; string_of_int (Inputs.domains ());
       "--cache"; string_of_int (max 256 (2 * n));
       "--store"; store |]
  in
  (* its stdout would mix with the result line *)
  let quiet = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid = Unix.create_process !daemon_exe args Unix.stdin quiet Unix.stderr in
  Unix.close quiet;
  let rec connect tries =
    match Serve.Client.connect_unix socket with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when tries > 0 ->
      Unix.sleepf 0.001;
      connect (tries - 1)
  in
  match connect 10_000 with
  | client ->
    let d = { pid; client } in
    live := d :: !live;
    d
  | exception e ->
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid);
    raise e

(* Shutdown over the wire, then wait for the process; one that has not
   exited after ten seconds is killed. *)
let stop d =
  live := List.filter (fun x -> x != d) !live;
  ignore (Serve.Client.call d.client (Wire.Admin { job = "stop"; op = Wire.Shutdown }));
  Serve.Client.close d.client;
  let rec reap k =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when k > 0 -> Unix.sleepf 0.01; reap (k - 1)
    | 0, _ -> Unix.kill d.pid Sys.sigkill; ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  reap 1000

let stop_all () = List.iter stop !live

(* Daemon start-up as the set-up step measures it: a fresh store, the
   server and one connection. *)
let start_fresh inp =
  let store = fresh "store" in
  (store, start ~store ~n:(List.length inp.nets))

type counters = {
  lru_hits : int;
  lru_misses : int;
  lru_evictions : int;
  submitted : int;
  store_hits : int;
  store_writes : int;
  store_read : int;
  store_written : int;
}

let counters d =
  let stats =
    match Serve.Client.call d.client (Wire.Admin { job = "stats"; op = Wire.Stats }) with
    | Ok (Wire.Stats_reply { stats; _ }) -> stats
    | Ok _ -> failwith "stats: unexpected reply"
    | Error msg -> failwith ("stats: " ^ msg)
  in
  let get path =
    let rec go j = function
      | [] -> Option.value ~default:0.0 (Json.to_num j)
      | k :: rest -> (match Json.member k j with Some v -> go v rest | None -> 0.0)
    in
    int_of_float (go stats path)
  in
  { lru_hits = get [ "cache"; "hits" ];
    lru_misses = get [ "cache"; "misses" ];
    lru_evictions = get [ "cache"; "evictions" ];
    submitted = get [ "pool"; "submitted" ];
    store_hits = get [ "cache"; "store"; "hits" ];
    store_writes = get [ "cache"; "store"; "writes" ];
    store_read = get [ "cache"; "store"; "bytes_read" ];
    store_written = get [ "cache"; "store"; "bytes_written" ] }

let diff a b =
  { lru_hits = b.lru_hits - a.lru_hits;
    lru_misses = b.lru_misses - a.lru_misses;
    lru_evictions = b.lru_evictions - a.lru_evictions;
    submitted = b.submitted - a.submitted;
    store_hits = b.store_hits - a.store_hits;
    store_writes = b.store_writes - a.store_writes;
    store_read = b.store_read - a.store_read;
    store_written = b.store_written - a.store_written }

(* What the daemon answered for one net, checked once the in-process
   reference exists. *)
type answer = {
  phase : string;
  index : int;
  eco : int option;  (** the ECO round, when the net is a perturbed one *)
  expect : [ `Miss | `Hit | `Unchanged ];
  got : Wire.net_status option;
}

(* Throughput samples (nets/s) per phase, and hit latencies (s), one
   list per chunk of requests; each with its window ({!Calib}). *)
type samples = {
  cold : (float * Calib.window) list;
  warm : (float * Calib.window) list;
  eco : (float * Calib.window) list;
  restarts : (float * Calib.window) list;
  lat : (float list * Calib.window) list;
}

type run = {
  g : Gate.t;
  tr : Trace.t;
  traced : bool;
      (** the traced run: every hit request adds the in-process codec
          and key calls, and closing adds the store calls; both passes
          of the traced run make them *)
  inp : inputs;
  store : string;
  mutable d : daemon;
  mutable answers : answer list;
  mutable phase_counters : (string * counters) list;
  mutable store_totals : counters list;  (** one per daemon stopped *)
  mutable s : samples;
  mutable frame_bytes : int;  (** summed over the hit requests *)
}

let batch r ~phase ?manifest ?eco expect =
  let nets = match eco with Some k -> r.inp.eco_nets.(k) | None -> r.inp.nets in
  let got = Array.make (List.length nets) None in
  let b =
    { Wire.job = phase; spec; nets; deadline_s = None; want_tree = false; manifest }
  in
  let res, wall =
    Clock.timed (fun () ->
        Trace.span r.tr "serve.batch" (fun () ->
            Serve.Client.run_batch r.d.client b
              ~on_progress:(fun p -> got.(p.Wire.index) <- Some p.Wire.status)))
  in
  (match res with
   | Ok _ -> ()
   | Error msg -> Printf.eprintf "perfbench: batch %s: %s\n%!" phase msg);
  Array.iteri
    (fun index got ->
       let eco = match eco with Some k when r.inp.changed.(k).(index) -> eco | _ -> None in
       r.answers <- { phase; index; eco; expect = expect index; got } :: r.answers)
    got;
  (List.length nets, wall)

(* Nets per second over [k] batches, and their window. *)
let rate ?(k = 1) send =
  let sent, w = Calib.around (fun () -> List.init k (fun _ -> send ())) in
  let nets = List.fold_left (fun a (n, _) -> a + n) 0 sent in
  let wall = List.fold_left (fun a (_, t) -> a +. t) 0.0 sent in
  (float_of_int nets /. wall, w)

(* The codec and key work one Route request implies, called in
   process so the traced run can time each step. *)
let side_calls r (net : Net.t) msg reply =
  let tr = r.tr in
  let frame = Trace.span tr "serve.encode" (fun () -> Wire.encode_client msg) in
  ignore (Trace.span tr "serve.decode" (fun () -> Wire.decode_client frame));
  ignore (Trace.span tr "serve.key" (fun () -> Wire.request_key spec net));
  ignore (Trace.span tr "net.fingerprint" (fun () -> Net_io.fingerprint net));
  ignore
    (Trace.span tr "serve.reply" (fun () -> Wire.decode_server (Wire.encode_server reply)));
  String.length frame

let hits r ~count =
  let nets = Array.of_list r.inp.nets in
  let n = Array.length nets in
  let first = List.fold_left (fun a (l, _) -> a + List.length l) 0 r.s.lat in
  let lat = ref [] in
  let (), w =
    Calib.around (fun () ->
        for k = first to first + count - 1 do
          let index = k mod n in
          let name, net = nets.(index) in
          let msg =
            Wire.Route { job = name; spec; net; deadline_s = None; want_tree = false }
          in
          let reply, t =
            Clock.timed (fun () ->
                Trace.span r.tr ~group:(3000 + index) "serve.request" (fun () ->
                    Serve.Client.call r.d.client msg))
          in
          lat := t :: !lat;
          let got =
            match reply with
            | Ok (Wire.Reply { cached; metrics; _ }) ->
              if r.traced then
                r.frame_bytes <-
                  r.frame_bytes + side_calls r net msg (Wire.Reply { job = name; cached; metrics });
              Some (Wire.Routed { cached; metrics })
            | Ok _ | Error _ -> None
          in
          r.answers <- { phase = "hits"; index; eco = None; expect = `Hit; got } :: r.answers
        done)
  in
  r.s <- { r.s with lat = (!lat, w) :: r.s.lat }

let phase r name f =
  let c0 = counters r.d in
  let v = Trace.span r.tr ("w." ^ name) f in
  r.phase_counters <- (name, diff c0 (counters r.d)) :: r.phase_counters;
  v

(* The in-process reference: Flows.run of every net the daemon routed,
   on a pool of its own.  Every served answer must equal it with the
   runtime zeroed, and every reference tree passes the gate. *)
let check_answers r =
  let refs nets =
    Pool.with_pool ~domains:(Inputs.domains ()) (fun pool ->
        Pool.map ~chunk:1 pool (fun (_, net) -> Flows.run spec net) nets)
  in
  let rounds =
    List.sort_uniq compare (List.filter_map (fun (a : answer) -> a.eco) r.answers)
  in
  let changed_of k = List.filteri (fun i _ -> r.inp.changed.(k).(i)) r.inp.eco_nets.(k) in
  let plain, eco =
    Trace.span r.tr "serve.route" (fun () ->
        ( Array.of_list (refs r.inp.nets),
          List.map (fun k -> (k, refs (changed_of k))) rounds ))
  in
  List.iteri
    (fun i (name, net) ->
       Gate.record r.g ~ops:0 ("reference " ^ name) (Gate.flow ~tr:r.tr ~tech net plain.(i)))
    r.inp.nets;
  (* eco references by round, then by net index *)
  let eco =
    List.map
      (fun (k, ms) ->
         let by_index = Hashtbl.create 64 in
         List.iter2
           (fun (name, net) m ->
              Gate.record r.g ~ops:0 ("reference eco " ^ name) (Gate.flow ~tr:r.tr ~tech net m);
              Hashtbl.replace by_index name m)
           (changed_of k) ms;
         (k, by_index))
      eco
  in
  let names = Array.of_list (List.map fst r.inp.nets) in
  let zero (m : Metrics.t) = { m with Metrics.runtime = 0.0 } in
  List.iter
    (fun (a : answer) ->
       let name = names.(a.index) in
       let reference =
         match a.eco with
         | Some k -> Hashtbl.find (List.assoc k eco) name
         | None -> plain.(a.index)
       in
       let expected = zero (Flows.wire_metrics reference) in
       let verdict =
         match a.expect, a.got with
         | `Unchanged, Some Wire.Unchanged -> Ok ()
         | `Miss, Some (Wire.Routed { cached = Wire.Miss; metrics })
         | `Hit, Some (Wire.Routed { cached = Wire.Hit; metrics }) ->
           Gate.check (zero metrics = expected) "differs from in-process Flows.run"
         | _, None -> Error "no answer"
         | _, Some _ -> Error "unexpected status"
       in
       Gate.record r.g (Printf.sprintf "%s %s" a.phase name) verdict)
    (List.rev r.answers)

(* The store's own calls, timed in process on a store of its own: one
   add and one find per cached reply blob. *)
let store_calls r =
  let dir = fresh "probe-store" in
  let st = Serve.Store.open_dir dir in
  List.iter
    (fun (_, net) ->
       let key = Wire.request_key spec net in
       let blob = Json.to_string (Metrics.to_json (Flows.wire_metrics (Flows.run spec net))) in
       Trace.span r.tr "serve.store_add" (fun () -> Serve.Store.add st key blob);
       match Trace.span r.tr "serve.store_find" (fun () -> Serve.Store.find st key) with
       | Some b when b = blob -> ()
       | Some _ | None -> Gate.record r.g ~ops:0 "store probe" (Error "blob lost"))
    (List.filteri (fun i _ -> i < 64) r.inp.nets);
  rm_rf dir

(* Each chunk's hit latencies at the reference speed. *)
let latencies s = List.map (fun (l, w) -> List.map (fun t -> Calib.seconds (t, w)) l) s.lat

(* Medians of the throughput samples and of all hit latencies. *)
let values s =
  let ms x = x *. 1000.0 in
  let rate l = Spec.median (List.map Calib.per_second l) in
  [ ("cold_nets_per_s", rate s.cold);
    ("warm_nets_per_s", rate s.warm);
    ("eco_nets_per_s", rate s.eco);
    ("restart_nets_per_s", rate s.restarts);
    ("hit_p50_ms", ms (Spec.median (List.concat (latencies s)))) ]

(* ---------- the phases, against a daemon over a fresh store ---------- *)

let open_run g ~tr ~traced inp =
  let store = fresh "store" in
  let d = start ~store ~n:(List.length inp.nets) in
  { g; tr; traced; inp; store; d; answers = []; phase_counters = []; store_totals = [];
    s = { cold = []; warm = []; eco = []; restarts = []; lat = [] };
    frame_bytes = 0 }

let cold r =
  let v = phase r "cold" (fun () -> rate (fun () -> batch r ~phase:"cold" (fun _ -> `Miss))) in
  r.s <- { r.s with cold = v :: r.s.cold }

(* [batches] warm batches back to back make one throughput sample. *)
let warm ~batches r =
  let v =
    phase r "warm" (fun () ->
        rate ~k:batches (fun () -> batch r ~phase:"warm" (fun _ -> `Hit)))
  in
  r.s <- { r.s with warm = v :: r.s.warm }

let n_changed inp k = Array.fold_left (fun a c -> if c then a + 1 else a) 0 inp.changed.(k)

(* ECO round [k]: exactly the changed nets go to the pool. *)
let eco r k =
  let v =
    phase r "eco" (fun () ->
        rate (fun () ->
            batch r ~phase:"eco" ~manifest:r.inp.manifest ~eco:k (fun i ->
                if r.inp.changed.(k).(i) then `Miss else `Unchanged)))
  in
  let submitted = (List.assoc "eco" r.phase_counters).submitted in
  Gate.record r.g ~ops:0 "eco pool tasks"
    (Gate.check (submitted = n_changed r.inp k)
       "eco round %d submitted %d pool tasks for %d changed nets" k submitted
       (n_changed r.inp k));
  r.s <- { r.s with eco = v :: r.s.eco }

(* A fresh daemon over the same store serves the batch without a single
   pool task. *)
let restart r =
  r.store_totals <- counters r.d :: r.store_totals;
  stop r.d;
  r.d <- start ~store:r.store ~n:(List.length r.inp.nets);
  let v = phase r "restart" (fun () -> rate (fun () -> batch r ~phase:"restart" (fun _ -> `Hit))) in
  let submitted = (List.assoc "restart" r.phase_counters).submitted in
  Gate.record r.g ~ops:0 "restart pool tasks"
    (Gate.check (submitted = 0) "restart submitted %d pool tasks" submitted);
  r.s <- { r.s with restarts = v :: r.s.restarts }

(* Stop the daemon and check everything it answered.  Returns the
   per-phase and store counters. *)
let close r =
  r.store_totals <- counters r.d :: r.store_totals;
  Fun.protect
    ~finally:(fun () -> stop r.d; rm_rf r.store)
    (fun () ->
       if r.traced then store_calls r;
       check_answers r);
  let per_phase =
    List.concat_map
      (fun name ->
         (* the last occurrence of a repeated phase *)
         let c = List.assoc name r.phase_counters in
         let p s = "serve." ^ name ^ "." ^ s and f = float_of_int in
         let looked = c.lru_hits + c.lru_misses in
         [ (p "lru_hits", f c.lru_hits); (p "lru_misses", f c.lru_misses);
           (p "lru_evictions", f c.lru_evictions);
           (p "hit_ratio", if looked = 0 then 0.0 else f c.lru_hits /. f looked);
           (p "pool_submitted", f c.submitted) ])
      Spec.serve_phases
  in
  let sum f = float_of_int (List.fold_left (fun a c -> a + f c) 0 r.store_totals) in
  let chunks = latencies r.s in
  let hits = List.length (List.concat chunks) in
  per_phase
  @ [ ("serve.store_hits", sum (fun c -> c.store_hits));
      ("serve.store_writes", sum (fun c -> c.store_writes));
      ("serve.store_bytes_read", sum (fun c -> c.store_read));
      ("serve.store_bytes_written", sum (fun c -> c.store_written));
      ("serve.frame_bytes", float_of_int r.frame_bytes /. float_of_int (max 1 hits));
      ("serve.hit_samples", float_of_int hits);
      (* each chunk's 99th percentile, median over the chunks *)
      ("hit_p99_ms", 1000.0 *. Spec.median (List.map (Spec.quantile 0.99) chunks)) ]

(* Another cold batch: a fresh daemon over a fresh, empty store. *)
let cold_again r =
  r.store_totals <- counters r.d :: r.store_totals;
  stop r.d;
  rm_rf r.store;
  r.d <- start ~store:r.store ~n:(List.length r.inp.nets);
  cold r

(* The phases as steps against one daemon session, with warm batches,
   restarts and hit requests alternating so that each samples the
   whole run.  The full netlist's cold batch runs once, two ECO
   rounds follow warm batches and five chunks of 400 hits follow five
   restarts; the minor slice's are short, so its cold batch runs twice
   (over a fresh store each time), eight ECO rounds change every net
   twice, six restarts alternate with 1000 hits in eight chunks, and a
   warm sample is eight batches.  More hits and warm batches fill any
   time left.

   The untraced run reports the end-to-end metrics; the traced run
   ([traced], once with the tracer [tr] off and once on) runs the same
   steps, without filling, and reports the layer counters. *)
let measure g ?(tr = Trace.off) ~traced size inp =
  let r = ref None in
  let on f () = match !r with Some r -> f r | None -> () in
  let colds, restarts, hits_chunk, chunks =
    match size with Inputs.Full -> (1, 5, 400, 5) | Inputs.Minor -> (2, 6, 125, 8)
  in
  let warm = warm ~batches:(match size with Inputs.Full -> 1 | Inputs.Minor -> 8) in
  let hits r = phase r "hits" (fun () -> hits r ~count:hits_chunk) in
  let rounds = Array.length inp.eco_nets in
  let steps =
    (fun () ->
       let x = open_run g ~tr ~traced inp in
       r := Some x;
       cold x)
    :: List.map on
         (List.init (colds - 1) (fun _ -> cold_again)
          @ List.concat (List.init rounds (fun k -> [ warm; (fun r -> eco r k) ]))
          @ List.concat
              (List.init chunks (fun i -> if i < restarts then [ restart; hits; warm ] else [ hits ])))
  in
  { Spec.steps;
    fill = on (fun r -> hits r; warm r);
    finish =
      (fun () ->
         match !r with
         | None -> []
         | Some r ->
           let layers = close r in
           if traced then layers else values r.s) }
