(* The metrics the benchmark reports, by name, unit and direction, and
   the one JSON line a run ends with.  BENCHMARK.json lists the same
   tables (with the regression bounds); the tests check the two agree. *)

type better = Lower | Higher

type metric = { name : string; unit : string; better : better }

let lower unit name = { name; unit; better = Lower }
let higher unit name = { name; unit; better = Higher }

(* What a user of the system sees; measured with tracing off. *)
let end_to_end =
  [ lower "s" "setup_s";
    (* paper: Table-1 nets through Flows I-III, Table-2 circuits *)
    lower "s" "flow1_s"; lower "s" "flow2_s"; lower "s" "flow3_s";
    lower "s" "circuit_s";
    lower "ratio" "delay3_ratio"; lower "ratio" "area3_ratio";
    (* Flow IV on a 1000-sink net *)
    lower "s" "flow4_s"; lower "ps" "flow4_delay_ps";
    lower "klambda2" "flow4_area";
    (* serve-c7552: the daemon over a whole netlist *)
    higher "nets/s" "cold_nets_per_s"; higher "nets/s" "warm_nets_per_s";
    higher "nets/s" "eco_nets_per_s"; higher "nets/s" "restart_nets_per_s";
    lower "ms" "hit_p50_ms" ]

let serve_phases = [ "cold"; "warm"; "eco"; "restart"; "hits" ]

(* One layer each; reported by the traced run only.  A layer's time is
   its self time: span durations minus what child spans cover. *)
let per_layer =
  [ lower "s" "order.tsp_s";
    lower "s" "core.loop1_s"; lower "s" "core.loop2_s";
    lower "count" "core.merges_loop1"; lower "count" "core.merges_loop2";
    lower "B" "core.alloc_bytes";
    lower "count" "core.joins"; lower "count" "core.join_adds";
    lower "count" "core.join_survivors"; lower "ratio" "core.survivor_ratio";
    lower "B" "core.bytes_per_join";
    lower "count" "curves.driver_frontier";
    lower "s" "lttree.best_s"; lower "s" "ptree.route_s";
    lower "s" "ginneken.insert_s";
    lower "s" "rtree.eval_s"; lower "s" "rtree.check_s";
    lower "s" "circuit.place_s"; lower "s" "circuit.sta_s";
    higher "count" "circuit.nets_optimized";
    lower "s" "hier.partition_s"; lower "s" "hier.parts_s";
    lower "s" "hier.self_s";
    lower "count" "hier.parts"; lower "count" "hier.clusters";
    lower "count" "hier.levels";
    lower "count" "exec.tasks"; lower "s" "exec.busy_s";
    lower "s" "exec.queue_wait_s"; higher "ratio" "exec.utilisation";
    lower "us" "serve.encode_us"; lower "us" "serve.decode_us";
    lower "us" "serve.key_us"; lower "us" "serve.reply_us";
    lower "B" "serve.frame_bytes"; lower "us" "net.fingerprint_us" ]
  @ List.concat_map
      (fun phase ->
         let n s = "serve." ^ phase ^ "." ^ s in
         [ higher "count" (n "lru_hits"); lower "count" (n "lru_misses");
           lower "count" (n "lru_evictions"); higher "ratio" (n "hit_ratio");
           lower "count" (n "pool_submitted") ])
      serve_phases
  @ [ higher "count" "serve.store_hits"; lower "count" "serve.store_writes";
      lower "B" "serve.store_bytes_read"; lower "B" "serve.store_bytes_written";
      lower "us" "serve.store_find_us"; lower "us" "serve.store_add_us";
      lower "s" "serve.route_s"; higher "count" "serve.hit_samples";
      (* The hit tail: this host's preemptions moved it by more than any
         bound allows (quartile spread 0.5-1.1 of the median over ten
         runs), so it is reported with the layers, unbounded. *)
      lower "ms" "hit_p99_ms";
      lower "s" "trace.overhead_s"; higher "ratio" "trace.coverage" ]

let name_char = function
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
  | _ -> false

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with
      | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true
      | _ -> false)
  && String.for_all name_char s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (fun c -> name_char c || c = '/' || c = '%')
       s

(* The [p] quantile, interpolated between the nearest ranks. *)
let quantile p xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let h = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor h) in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))
  end

let median xs = quantile 0.5 xs

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* A part's measurement split into steps, so a workload can spread the
   steps of all its parts over the whole run: this host's speed drifts
   over seconds, and a metric sampled in one short window would carry
   that window's speed.  [fill] is one more cheap step, repeated while
   the run has time left; [finish] turns the samples into metrics. *)
type steps = {
  steps : (unit -> unit) list;
  fill : unit -> unit;
  finish : unit -> (string * float) list;
}

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;
}

module Json = Merlin_report.Json

(* The run's last stdout line.  Every metric of [table] must be present
   exactly once and finite; anything else is a benchmark bug and raises
   [Failure] rather than printing a partial result. *)
let result_line table r =
  let value m =
    match List.filter (fun (n, _) -> n = m.name) r.values with
    | [ (_, v) ] when Float.is_finite v -> v
    | [ (_, v) ] -> failwith (Printf.sprintf "metric %s is %g" m.name v)
    | [] -> failwith ("metric missing: " ^ m.name)
    | _ -> failwith ("metric reported twice: " ^ m.name)
  in
  List.iter
    (fun (n, _) ->
       if not (List.exists (fun m -> m.name = n) table) then
         failwith ("metric not in the table: " ^ n))
    r.values;
  if r.attempted < 1 then failwith "no operation attempted";
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool r.correct);
         ("attempted", Json.Num (float_of_int r.attempted));
         ("failed", Json.Num (float_of_int r.failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun m ->
                   ( m.name,
                     Json.Obj
                       [ ("value", Json.Num (value m));
                         ("unit", Json.Str m.unit) ] ))
                table) ) ])
