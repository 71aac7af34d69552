(* The repository benchmark.

     main.exe --workload paper|serve-c7552 --seed N --seconds S
              --trace 0|1 [--daemon PATH-TO-merlin_cli.exe]

   --trace 0 measures every end-to-end metric; --trace 1 runs the
   workload once untraced and once with spans around every layer call
   and reports every per-layer metric.  The last line of standard
   output is the result as one JSON object; progress goes to stderr.
   Usually started through run.py, which builds this program first. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload paper|serve-c7552 --seed N --seconds S \
     --trace 0|1";
  exit 2

let () =
  let workload = ref None and seed = ref Perfbench.Inputs.default_seed in
  let seconds = ref 20 and trace = ref 0 in
  let int_arg r v = match int_of_string_opt v with Some n -> r := n | None -> usage () in
  let rec parse = function
    | "--workload" :: v :: rest ->
      (match Perfbench.Workload.of_string v with
       | Some w -> workload := Some w
       | None -> usage ());
      parse rest
    | "--seed" :: v :: rest -> int_arg seed v; parse rest
    | "--seconds" :: v :: rest -> int_arg seconds v; parse rest
    | "--trace" :: v :: rest -> int_arg trace v; parse rest
    | "--daemon" :: v :: rest -> Perfbench.Serve_part.daemon_exe := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w = match !workload with Some w -> w | None -> usage () in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  (* paper is the plain -j 1 baseline and keeps the default GC
     settings; serve-c7552's own part is pool work, so it gets the
     minor heap the CLI gives any -j > 1 run (this re-executes the
     program once, before any output).  The daemon it starts inherits
     the same setting. *)
  if w = Perfbench.Workload.Serve_c7552 then Merlin_exec.Runparam.ensure_minor_heap ();
  let table, result =
    if !trace = 1 then (Perfbench.Spec.per_layer, Perfbench.Workload.trace w ~seed:!seed)
    else
      ( Perfbench.Spec.end_to_end,
        Perfbench.Workload.measure w ~seed:!seed ~seconds:!seconds )
  in
  List.iter
    (fun (n, v) -> Printf.eprintf "perfbench: %-32s %.6g\n" n v)
    result.Perfbench.Spec.values;
  Printf.eprintf "perfbench: %d operations, %d failed\n%!" result.Perfbench.Spec.attempted
    result.Perfbench.Spec.failed;
  print_endline (Perfbench.Spec.result_line table result)
