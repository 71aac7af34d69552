open Merlin_geometry
open Merlin_tech
open Merlin_net
open Merlin_curves
open Merlin_order

type result = {
  curve : Build.t Curve.t;
  candidates : Point.t array;
  merges : int;
  cells_built : int;
  cells_reused : int;
}

type gamma_entry = {
  curves : Build.t Curve.t array;
  mutable chain : Star_ptree.terminal option;
}

let candidate_set (cfg : Config.t) net =
  let pts = Net.terminals net in
  let limit =
    if cfg.Config.full_hanan then cfg.Config.candidate_limit
    else min cfg.Config.candidate_limit (max 8 (2 * Net.n_sinks net))
  in
  Array.of_list (Hanan.reduced pts ~limit)

let hierarchy (sol : Build.t Solution.t) =
  Catree.level sol.Solution.data.Build.members

let realized_order sol = Order.of_list (Catree.sinks_in_order (hierarchy sol))

(* A closed sub-group becomes a single chain member when absorbed by the
   enclosing level. *)
let as_chain_terminal star curves =
  let wrap (sol : Build.t Solution.t) =
    let data = sol.Solution.data in
    { sol with
      Solution.data =
        { data with Build.members = [ Catree.Chain (Catree.level data.Build.members) ] } }
  in
  Star_ptree.sub_term star (Array.map (fun c -> Curve.map_solutions wrap c) curves)

let construct ?candidates ~cfg ~tech ~buffers (net : Net.t) order =
  Config.validate cfg;
  if not (Order.is_permutation order) || Order.length order <> Net.n_sinks net
  then invalid_arg "Bubble_construct.construct: bad order";
  let n = Net.n_sinks net in
  let alpha = cfg.Config.alpha in
  let candidates =
    match candidates with
    | None -> candidate_set cfg net
    | Some given ->
      (* The source must be a candidate (it anchors every active set). *)
      if Array.exists (Point.equal net.Net.source) given then given
      else Array.append [| net.Net.source |] given
  in
  let k = Array.length candidates in
  let source_index =
    (* The source is a net terminal, hence always in the candidate set. *)
    let rec find p =
      if p >= k then 0
      else if Point.equal candidates.(p) net.Net.source then p
      else find (p + 1)
    in
    find 0
  in
  (* Convention shared with Star_ptree: the source is the first active. *)
  let all_active =
    Array.init k (fun i ->
        if i = 0 then source_index
        else if i <= source_index then i - 1
        else i)
  in
  (* One *P_Tree context for the whole construct: every merge of every
     window, and the base curves, share its table of finished interval
     cells (DESIGN.md §"Cell table"). *)
  let ctx =
    Star_ptree.create ~epsilon:cfg.Config.curve_epsilon
      ~max_frontier:cfg.Config.max_frontier ~tech ~buffers
      ~trials:cfg.Config.buffer_trials ~max_curve:cfg.Config.max_curve
      ~grids:(cfg.Config.quant_req, cfg.Config.quant_load, cfg.Config.quant_area)
      ~bbox_slack:cfg.Config.bbox_slack ~candidates ()
  in
  let merges = ref 0 in
  let star ~active terminals =
    incr merges;
    Star_ptree.run ctx ~active ~terminals
  in
  (* Merge accumulators, shared by every window of the construction: one
     scratch builder per candidate, cleared on first use inside a window
     (the stamp check).  A window touches few candidates, so the pool
     stays small while merges allocate only their surviving curves. *)
  let merge_blds = Array.make k None in
  let merge_stamp = Array.make k 0 in
  let window_id = ref 0 in
  (* Gamma table: (covered length, structure code, right window end) ->
     per-candidate curves, plus the entry's chain terminal once an
     enclosing window has wrapped it.  Only non-empty entries are
     stored. *)
  let gamma : (int * int * int, gamma_entry) Hashtbl.t = Hashtbl.create 256 in
  let gamma_find len e r = Hashtbl.find_opt gamma (len, Grouping.code e, r) in
  let gamma_put len e r curves =
    if Array.exists (fun c -> not (Curve.is_empty c)) curves then
      Hashtbl.replace gamma (len, Grouping.code e, r) { curves; chain = None }
  in
  (* The entry as a chain member, wrapped once: its identity is the
     cell-table key of every merge that absorbs it. *)
  let chain_terminal entry =
    match entry.chain with
    | Some term -> term
    | None ->
      let term = as_chain_terminal ctx entry.curves in
      entry.chain <- Some term;
      term
  in
  let sink_at pos = Net.sink net order.(pos) in
  let structures =
    if cfg.Config.bubbling then Grouping.all else [ Grouping.Chi0 ]
  in
  (* INITIALIZATION (Fig. 9 lines 1-4): single-sink paths, one entry per
     grouping structure whose window fits. *)
  let sink_base = Hashtbl.create 16 in
  let base_curves pos =
    match Hashtbl.find_opt sink_base pos with
    | Some curves -> curves
    | None ->
      let curves =
        star ~active:all_active [| Star_ptree.Sink_term (sink_at pos) |]
      in
      Hashtbl.replace sink_base pos curves;
      curves
  in
  (* Candidates offered to a merge: those inside the covered sinks' bounding
     box inflated by the configured slack, plus the source. *)
  let active_for covered_positions =
    let pts = List.map (fun pos -> (sink_at pos).Sink.pt) covered_positions in
    let box = Rect.bounding_box pts in
    let margin =
      1 + int_of_float (cfg.Config.bbox_slack *. float_of_int (Rect.half_perimeter box))
    in
    let box = Rect.inflate box margin in
    let inside = ref [] in
    for p = k - 1 downto 0 do
      if p <> source_index && Rect.contains box candidates.(p) then
        inside := p :: !inside
    done;
    Array.of_list (source_index :: !inside)
  in
  let init_one e =
    let stretch = Grouping.stretch e in
    for r = stretch to n - 1 do
      match Grouping.covered ~r ~len:1 e with
      | [ pos ] -> gamma_put 1 e r (base_curves pos)
      | _ -> assert false
    done
  in
  List.iter
    (fun e -> if Grouping.valid ~len:1 e then init_one e)
    structures;
  (* CONSTRUCTION (Fig. 9 lines 5-20). *)
  let module IS = Set.Make (Int) in
  let merge_window ~cov_len ~e_out ~r_out =
    let covered_out = Grouping.covered ~r:r_out ~len:cov_len e_out in
    let set_out = IS.of_list covered_out in
    let start_out = Grouping.window_start ~r:r_out ~len:cov_len e_out in
    let active = active_for covered_out in
    (* Per-candidate batch accumulators (most candidates never receive a
       curve): every inner placement's curves are pushed and the frontier
       computed once per candidate, instead of a re-pruning union per
       placement.  Builders come from the construct-level pool; the stamp
       marks which candidates this window actually touched. *)
    incr window_id;
    let acc_builder p =
      let bld =
        match merge_blds.(p) with
        | Some bld -> bld
        | None ->
          let bld = Curve.Builder.create () in
          merge_blds.(p) <- Some bld;
          bld
      in
      if merge_stamp.(p) <> !window_id then begin
        merge_stamp.(p) <- !window_id;
        Curve.Builder.clear bld
      end;
      bld
    in
    let seen_signatures = Hashtbl.create 16 in
    let try_inner l_in e_in r_in =
      match gamma_find l_in e_in r_in with
      | None -> ()
      | Some inner ->
        let covered_in = Grouping.covered ~r:r_in ~len:l_in e_in in
        let set_in = IS.of_list covered_in in
        (* Line 15: skip if the inner group covers a sink outside the
           enclosing group. *)
        if IS.subset set_in set_out then begin
          let directs = IS.elements (IS.diff set_out set_in) in
          let start_in = Grouping.window_start ~r:r_in ~len:l_in e_in in
          let sl = Grouping.skipped_left ~r:r_in ~len:l_in e_in in
          let sr = Grouping.skipped_right ~r:r_in ~len:l_in e_in in
          let skipped_at opt pos =
            match opt with Some p -> p = pos | None -> false
          in
          let is_bubbled pos = skipped_at sl pos || skipped_at sr pos in
          let lefts =
            List.filter (fun pos -> pos < start_in && not (is_bubbled pos)) directs
          and rights =
            List.filter (fun pos -> pos > r_in && not (is_bubbled pos)) directs
          in
          let opt_term skipped =
            match skipped with
            | Some pos when IS.mem pos set_out ->
              [ Star_ptree.Sink_term (sink_at pos) ]
            | Some _ | None -> []
          in
          let sink_terms = List.map (fun pos -> Star_ptree.Sink_term (sink_at pos)) in
          (* A single-sink chain is just that sink: routing-wise the two
             are identical, and collapsing them lets the signature check
             below share merges across equivalent (e, r) placements. *)
          let chain_terms, chain_sig =
            if l_in = 1 then (sink_terms covered_in, covered_in)
            else
              ( [ chain_terminal inner ],
                [ -1000000 - (((l_in * 4) + Grouping.code e_in) * 1024) - r_in ] )
          in
          let signature =
            List.map (fun pos -> pos) lefts
            @ List.map (fun (pos : int) -> pos) (List.filter (fun pos -> IS.mem pos set_out) (Option.to_list sl))
            @ chain_sig
            @ List.map (fun (pos : int) -> pos) (List.filter (fun pos -> IS.mem pos set_out) (Option.to_list sr))
            @ rights
          in
          if not (Hashtbl.mem seen_signatures signature) then begin
            Hashtbl.add seen_signatures signature ();
            let terminals =
              sink_terms lefts
              @ opt_term sl
              @ chain_terms
              @ opt_term sr
              @ sink_terms rights
            in
            (* Every direct sink must be accounted for: left of, bubbled
               out of, or right of the inner window. *)
            assert (List.length terminals = 1 + (cov_len - l_in));
            let out = star ~active (Array.of_list terminals) in
            Array.iteri
              (fun p c ->
                 if not (Curve.is_empty c) then
                   Curve.Builder.add_curve (acc_builder p) c)
              out
          end
        end
    in
    let inner_r_positions l_in' =
      let lo = start_out + l_in' - 1 and hi = r_out in
      match cfg.Config.chain_placement with
      | Config.All_positions -> List.init (max 0 (hi - lo + 1)) (fun i -> lo + i)
      | Config.Flush_ends ->
        if lo > hi then [] else if lo = hi then [ lo ] else [ lo; hi ]
    in
    for l_in = max 1 (cov_len - alpha + 1) to cov_len - 1 do
      List.iter
        (fun e_in ->
           if Grouping.valid ~len:l_in e_in then begin
             let l_in' = l_in + Grouping.stretch e_in in
             List.iter (fun r_in -> try_inner l_in e_in r_in)
               (inner_r_positions l_in')
           end)
        structures
    done;
    let capped =
      Array.init k (fun p ->
          if merge_stamp.(p) <> !window_id then Curve.empty
          else
            match merge_blds.(p) with
            | None -> Curve.empty
            | Some bld ->
              Curve.cap ~max_size:cfg.Config.max_curve
                (Curve.Builder.build ~name:"Bubble_construct.merge"
                   ~epsilon:cfg.Config.curve_epsilon
                   ~max_frontier:cfg.Config.max_frontier bld))
    in
    gamma_put cov_len e_out r_out capped
  in
  (* A Gamma entry of length L is absorbed only by windows of length
     L+1 .. L+alpha-1: once the sweep passes that, the cells holding its
     chain terminal are dead. *)
  let release_chains len =
    List.iter
      (fun e ->
         for r = 0 to n - 1 do
           match gamma_find len e r with
           | Some ({ chain = Some term; _ } as entry) ->
             Star_ptree.release ctx term;
             entry.chain <- None
           | Some { chain = None; _ } | None -> ()
         done)
      structures
  in
  for cov_len = 2 to n do
    List.iter
      (fun e_out ->
         if Grouping.valid ~len:cov_len e_out then begin
           let l_out' = cov_len + Grouping.stretch e_out in
           for r_out = l_out' - 1 to n - 1 do
             merge_window ~cov_len ~e_out ~r_out
           done
         end)
      structures;
    release_chains (cov_len - alpha + 1)
  done;
  (* EXTRACTION (Fig. 9 lines 21-23): connect the driver. *)
  let final =
    match gamma_find n Grouping.Chi0 (n - 1) with
    | None -> Curve.empty
    | Some { curves = top; _ } ->
      let bld = Curve.Builder.create () in
      Array.iter
        (Curve.iter (fun sol ->
           let at_source = Build.extend_wire tech ~to_:net.Net.source sol in
           let gate =
             Delay_model.delay net.Net.driver ~load:at_source.Solution.load
           in
           Curve.Builder.push bld
             ~req:(at_source.Solution.req -. gate)
             ~load:at_source.Solution.load ~area:at_source.Solution.area
             at_source.Solution.data))
        top;
      Curve.Builder.build ~name:"Bubble_construct.to_driver" bld
  in
  { curve = final; candidates; merges = !merges;
    cells_built = Star_ptree.cells_built ctx;
    cells_reused = Star_ptree.cells_reused ctx }
