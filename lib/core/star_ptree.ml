open Merlin_geometry
open Merlin_curves

type sub = {
  sid : int;
  curves : Build.t Curve.t array;
  box : Rect.t;
  (* Keys of the table cells whose terminals include this sub-group,
     dropped together by [release]. *)
  mutable cells : int array list;
}

type terminal =
  | Sink_term of Merlin_net.Sink.t
  | Sub_term of sub

(* Evenly spaced subset of the library tried at every routing root.  The
   library is a graded single-parameter family, so a spread of strengths
   loses little; the knob is documented in Config. *)
let buffer_subset buffers ~trials =
  let n = Array.length buffers in
  if n <= trials then buffers
  else
    Array.init trials (fun i -> buffers.(i * (n - 1) / (max 1 (trials - 1))))

(* Operation counters used by the diagnostics in bench/ and by tuning
   sessions; atomic so concurrent flows under the execution engine do
   not lose increments, and still free next to the curve work. *)
let n_join_adds = Atomic.make 0
let n_close_adds = Atomic.make 0
let n_pull_adds = Atomic.make 0
let n_base_adds = Atomic.make 0
let n_cells = Atomic.make 0
let n_pulls = Atomic.make 0

(* Bytes-moved telemetry: [Gc.allocated_bytes] deltas around each kernel
   entry point (join, buffer closure, pull, base), plus join-build and
   survivor counts so bytes-per-join and mean frontier width fall out of
   a single counter snapshot.  [Gc.allocated_bytes] is per-domain, so a
   delta taken inside one task is that task's own allocation; the atomic
   accumulation makes the totals safe under the execution engine. *)
let n_joins = Atomic.make 0
let n_join_survivors = Atomic.make 0
let bytes_join = Atomic.make 0
let bytes_close = Atomic.make 0
let bytes_pull = Atomic.make 0
let bytes_base = Atomic.make 0

let add_bytes counter before =
  ignore
    (Atomic.fetch_and_add counter
       (int_of_float (Gc.allocated_bytes () -. before)))

(* A finished cell S(i..j): curves at its own active roots plus a memo of
   lazy relocations to other roots — the paper's d(p,p') move applied on
   demand instead of as a k^2 sweep. *)
type cell = {
  computed : Build.t Curve.t array;
  memo : Build.t Curve.t option array;
}

(* Cell key: [| n; id_i; ...; id_j; active roots... |] with n = j-i+1
   terminal identities (2 * sink id for a sink, 2 * sid + 1 for a
   sub-group).  Hashed in full: the polymorphic Hashtbl.hash stops after
   ten meaningful values, so long keys sharing a prefix would collide. *)
module Key = struct
  type t = int array

  let equal (a : t) (b : t) =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec same i = i >= n || (a.(i) = b.(i) && same (i + 1)) in
    same 0

  let hash (a : t) =
    let h = ref (Array.length a) in
    for i = 0 to Array.length a - 1 do
      h := (!h lxor a.(i)) * 0x100000001b3
    done;
    let h = !h in
    let h = (h lxor (h lsr 29)) * 0x3fb5d329728ea185 in
    (h lxor (h lsr 32)) land max_int
end

module Cells = Hashtbl.Make (Key)

type t = {
  tech : Merlin_tech.Tech.t;
  subset : Merlin_tech.Buffer_lib.buffer array;
  max_curve : int;
  req_grid : float;
  load_grid : float;
  area_grid : float;
  epsilon : float;
  max_frontier : int;
  bbox_slack : float;
  candidates : Point.t array;
  (* One scratch builder per batch kind, shared by every cell of every
     run (the builders own their sort/staircase scratch, see
     Curve.Builder): joins, buffer closures and extend-to-root batches
     (pull and bases never interleave).  Steady-state cells allocate
     only their survivor arrays. *)
  join_bld : int Curve.Builder.b;
  close_bld : int Curve.Builder.b;
  extend_bld : Build.sol Curve.Builder.b;
  (* One flat cost record threaded through every cost computation:
     Build.*_cost_into writes the three coordinates as unboxed float
     stores, [push_quant] quantises them in place (the same floor/ceil
     expressions as Solution.grid_down/grid_up, so bit-identical) and
     Curve.Builder.push_cost moves them into the builder columns — no
     (req, load, area) tuple and no boxed floats per candidate. *)
  cost : Curve.Builder.cost;
  table : cell Cells.t;
  mutable next_sid : int;
  mutable built : int;
  mutable reused : int;
}

let create ?(epsilon = 0.0) ?(max_frontier = 0) ~tech ~buffers ~trials
    ~max_curve ~grids ~bbox_slack ~candidates () =
  if Array.length candidates = 0 then
    invalid_arg "Star_ptree.create: no candidates";
  let req_grid, load_grid, area_grid = grids in
  { tech; subset = buffer_subset buffers ~trials; max_curve; req_grid;
    load_grid; area_grid; epsilon; max_frontier; bbox_slack; candidates;
    join_bld = Curve.Builder.create ();
    close_bld = Curve.Builder.create ();
    extend_bld = Curve.Builder.create ();
    cost = Curve.Builder.new_cost ();
    table = Cells.create 64;
    next_sid = 0;
    built = 0;
    reused = 0 }

let cells_built t = t.built
let cells_reused t = t.reused

let sub_term t curves =
  let pts = ref [] in
  Array.iteri
    (fun p c -> if not (Curve.is_empty c) then pts := t.candidates.(p) :: !pts)
    curves;
  let box =
    match !pts with
    | [] -> invalid_arg "Star_ptree.sub_term: sub-group with empty curves"
    | pts -> Rect.bounding_box pts
  in
  let sid = t.next_sid in
  t.next_sid <- sid + 1;
  Sub_term { sid; curves; box; cells = [] }

let release t = function
  | Sink_term _ -> ()
  | Sub_term s ->
    List.iter (Cells.remove t.table) s.cells;
    s.cells <- []

(* Bounding box of the points a terminal can occupy. *)
let terminal_box = function
  | Sink_term s -> Rect.make s.Merlin_net.Sink.pt s.Merlin_net.Sink.pt
  | Sub_term s -> s.box

let terminal_id = function
  | Sink_term s -> 2 * s.Merlin_net.Sink.id
  | Sub_term s -> (2 * s.sid) + 1

let push_quant t bld payload =
  let cost = t.cost in
  if t.req_grid <> 0.0 then
    cost.Curve.Builder.creq <-
      floor (cost.Curve.Builder.creq /. t.req_grid) *. t.req_grid;
  if t.load_grid <> 0.0 then
    cost.Curve.Builder.cload <-
      ceil (cost.Curve.Builder.cload /. t.load_grid) *. t.load_grid;
  if t.area_grid <> 0.0 then
    cost.Curve.Builder.carea <-
      ceil (cost.Curve.Builder.carea /. t.area_grid) *. t.area_grid;
  Curve.Builder.push_cost bld cost payload

(* Payloads of the join and buffer-closure batches are packed ints of
   [index_bits]-wide fields (solution positions read back with
   Curve.get), so the hot loops push one immediate per candidate and
   only the capped survivors build a tree. *)
let index_bits = 21
let index_mask = (1 lsl index_bits) - 1

(* Curve.Builder.build with the run-wide epsilon / frontier-cap knobs
   (both default off = exact). *)
let build t ~name bld =
  Curve.Builder.build ~name ~epsilon:t.epsilon ~max_frontier:t.max_frontier bld

let finish t curve = Curve.cap ~max_size:t.max_curve curve

(* Try each buffer on every unbuffered root; re-buffering an existing
   buffer (a same-point repeater) is dominated by picking the right
   single size from the graded library, so it is skipped.  Two push
   passes — existing solutions first, then buffered candidates — so
   equal-cost ties resolve exactly as they did when the candidates were
   added one by one into the existing curve.  The payload is the
   solution's position, plus 1 + the buffer's index above it for a
   buffered candidate; the cap runs before any tree is built. *)
let close_buffers t curve =
  if Curve.is_empty curve then curve
  else begin
    let before = Gc.allocated_bytes () in
    let bld = t.close_bld in
    let n = Curve.size curve and nb = Array.length t.subset in
    Curve.Builder.clear bld;
    for i = 0 to n - 1 do
      let sol = Curve.get curve i in
      Curve.Builder.push bld ~req:sol.Solution.req ~load:sol.Solution.load
        ~area:sol.Solution.area i
    done;
    for i = 0 to n - 1 do
      let sol = Curve.get curve i in
      match sol.Solution.data.Build.tree with
      | Merlin_rtree.Rtree.Node { buffer = Some _; _ } -> ()
      | Merlin_rtree.Rtree.Leaf _
      | Merlin_rtree.Rtree.Node { buffer = None; _ } ->
        ignore (Atomic.fetch_and_add n_close_adds nb);
        for b = 0 to nb - 1 do
          Build.add_root_buffer_cost_into t.cost t.subset.(b) sol;
          push_quant t bld (((b + 1) lsl index_bits) lor i)
        done
    done;
    let out =
      finish t (build t ~name:"Star_ptree.close_buffers" bld)
      |> Curve.map_data (fun code ->
          let sol = Curve.get curve (code land index_mask) in
          match code lsr index_bits with
          | 0 -> sol.Solution.data
          | b -> (Build.add_root_buffer t.subset.(b - 1) sol).Solution.data)
    in
    add_bytes bytes_close before;
    out
  end

(* Extend-to-[root] batches: coordinates are pushed (quantised) from
   extend_wire_cost; only the capped frontier grows a wire in its
   trees. *)
let push_extend t root sol =
  Build.extend_wire_cost_into t.cost t.tech ~to_:root sol;
  push_quant t t.extend_bld sol

let materialise_extend t ~name root =
  Curve.map_data
    (fun sol -> (Build.extend_wire t.tech ~to_:root sol).Solution.data)
    (finish t (build t ~name t.extend_bld))

let extend_all t ~name root curves =
  Curve.Builder.clear t.extend_bld;
  Array.iter (Curve.iter (push_extend t root)) curves;
  materialise_extend t ~name root

let pull t cell p =
  Atomic.incr n_pulls;
  let before = Gc.allocated_bytes () in
  ignore
    (Atomic.fetch_and_add n_pull_adds
       (Array.fold_left (fun acc c -> acc + Curve.size c) 0 cell.computed));
  let out = extend_all t ~name:"Star_ptree.pull" t.candidates.(p) cell.computed in
  add_bytes bytes_pull before;
  out

let cell_at t cell p =
  if not (Curve.is_empty cell.computed.(p)) then cell.computed.(p)
  else
    match cell.memo.(p) with
    | Some curve -> curve
    | None ->
      let curve = pull t cell p in
      cell.memo.(p) <- Some curve;
      curve

let run t ~active ~terminals =
  let m = Array.length terminals and k = Array.length t.candidates in
  if m = 0 then invalid_arg "Star_ptree.run: no terminals";
  if Array.length active = 0 then
    invalid_arg "Star_ptree.run: no active candidates";
  let ids = Array.map terminal_id terminals in
  let term_boxes = Array.map terminal_box terminals in
  (* Bounding box of terminals i..j, precomputed for all ranges by
     extending each row left to right: O(m^2) once, instead of an O(j-i)
     refold inside every cell_active call (O(m^3) over the run). *)
  let range_box =
    let tbl = Array.make (m * m) term_boxes.(0) in
    for i = 0 to m - 1 do
      tbl.((i * m) + i) <- term_boxes.(i);
      for j = i + 1 to m - 1 do
        let prev = tbl.((i * m) + j - 1) in
        tbl.((i * m) + j) <-
          Rect.bounding_box
            [ prev.Rect.lo; prev.Rect.hi; term_boxes.(j).Rect.lo;
              term_boxes.(j).Rect.hi ]
      done
    done;
    tbl
  in
  (* Active candidates of a cell: global actives within the inflated box of
     the cell's terminals.  The first global active is always kept (the
     caller places the source there, see Bubble_construct) so every cell
     can route toward the driver. *)
  let cell_active i j =
    let box = range_box.((i * m) + j) in
    let margin =
      1 + int_of_float (t.bbox_slack *. float_of_int (Rect.half_perimeter box))
    in
    let box = Rect.inflate box margin in
    let keep idx p = idx = 0 || Rect.contains box t.candidates.(p) in
    let inside = ref [] in
    for idx = Array.length active - 1 downto 0 do
      if keep idx active.(idx) then inside := active.(idx) :: !inside
    done;
    Array.of_list !inside
  in
  let key i j act =
    let n = j - i + 1 in
    let key = Array.make (1 + n + Array.length act) n in
    Array.blit ids i key 1 n;
    Array.blit act 0 key (1 + n) (Array.length act);
    key
  in
  let cells = Array.make (m * m) None in
  (* Cells resolve top-down: a cell already in the context's table
     (same terminals, same active set) is taken as is, so its sub-cells
     are never looked at; a missing one resolves its sub-cells first. *)
  let rec resolve i j =
    match cells.((i * m) + j) with
    | Some cell -> cell
    | None ->
      let act = cell_active i j in
      let key = key i j act in
      let cell =
        match Cells.find_opt t.table key with
        | Some cell ->
          t.reused <- t.reused + 1;
          cell
        | None ->
          let cell = compute_cell i j act in
          t.built <- t.built + 1;
          Cells.add t.table key cell;
          for x = i to j do
            match terminals.(x) with
            | Sub_term s -> s.cells <- key :: s.cells
            | Sink_term _ -> ()
          done;
          cell
      in
      cells.((i * m) + j) <- Some cell;
      cell
  and compute_cell i j act =
    let raw =
      if i = j then fun p ->
        let before = Gc.allocated_bytes () in
        let root = t.candidates.(p) in
        let out =
          match terminals.(i) with
          | Sink_term s ->
            Atomic.incr n_base_adds;
            Curve.Builder.clear t.extend_bld;
            push_extend t root (Build.of_sink s);
            materialise_extend t ~name:"Star_ptree.raw" root
          | Sub_term s ->
            ignore
              (Atomic.fetch_and_add n_base_adds
                 (Array.fold_left (fun acc c -> acc + Curve.size c) 0 s.curves));
            extend_all t ~name:"Star_ptree.raw" root s.curves
        in
        add_bytes bytes_base before;
        out
      else begin
        let subs =
          Array.init (j - i) (fun d ->
              let l = resolve i (i + d) in
              (l, resolve (i + d + 1) j))
        in
        fun p ->
          let root = t.candidates.(p) in
          (* Memoised relocations first, so any pull they trigger is
             attributed to [bytes_pull] instead of this join's delta. *)
          Array.iter
            (fun (l, r) ->
               ignore (cell_at t l p);
               ignore (cell_at t r p))
            subs;
          let before = Gc.allocated_bytes () in
          (* The join product: push every (a, b) cost pair, keyed by
             the split (relative to the cell's first terminal) and both
             positions; prune and cap once, and only build the joined
             trees that survive. *)
          let bld = t.join_bld in
          Curve.Builder.clear bld;
          Array.iteri
            (fun d (l, r) ->
               let left = cell_at t l p and right = cell_at t r p in
               let nl = Curve.size left and nr = Curve.size right in
               if nl > index_mask || nr > index_mask then
                 invalid_arg "Star_ptree.run: curve too large to index";
               ignore (Atomic.fetch_and_add n_join_adds (nl * nr));
               for a = 0 to nl - 1 do
                 let sa = Curve.get left a in
                 for b = 0 to nr - 1 do
                   Build.join_cost_into t.cost sa (Curve.get right b);
                   push_quant t bld
                     ((((d lsl index_bits) lor a) lsl index_bits) lor b)
                 done
               done)
            subs;
          let frontier = build t ~name:"Star_ptree.join" bld in
          let out =
            finish t frontier
            |> Curve.map_data (fun code ->
                let l, r = subs.(code lsr (2 * index_bits)) in
                let a = (code lsr index_bits) land index_mask
                and b = code land index_mask in
                (Build.join root (Curve.get (cell_at t l p) a)
                   (Curve.get (cell_at t r p) b)).Solution.data)
          in
          Atomic.incr n_joins;
          ignore (Atomic.fetch_and_add n_join_survivors (Curve.size frontier));
          add_bytes bytes_join before;
          out
      end
    in
    Atomic.incr n_cells;
    let computed = Array.make k Curve.empty in
    Array.iter
      (fun p -> computed.(p) <- close_buffers t (raw p))
      act;
    { computed; memo = Array.make k None }
  in
  Array.copy (resolve 0 (m - 1)).computed
