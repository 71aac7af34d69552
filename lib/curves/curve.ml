(* Array-backed frontier kernel.

   A curve is a sorted (Solution.compare_key), pairwise non-dominated
   array of solutions.  The empty curve is its own constructor so the
   polymorphic [empty] constant generalises (a bare [|]|] would be
   weakly typed under the value restriction); every non-empty curve
   carries a non-empty array.

   The batch path is [Builder]: candidates accumulate into
   structure-of-arrays floatarray storage (req/load/area) plus a data
   array, and [Builder.build] prunes the whole bag at once with one
   stable sort and one staircase sweep.  The sweep exploits the key
   order (req descending, then load, then area ascending): a processed
   point can only be dominated by an earlier one, and a kept point is
   never invalidated later, so maintaining the 2-D (load, area) minima
   staircase of the kept points answers every dominance query with a
   binary search.  Cost: O(P log P) for the sort plus O(log F) per
   query and O(F) per staircase insertion (F = frontier size, F << P
   in the DP hot paths), versus O(P·F) list rebuilding for P repeated
   [add]s. *)

type 'a t =
  | Empty
  | F of 'a Solution.t array

let empty = Empty

let is_empty = function Empty -> true | F _ -> false

let size = function Empty -> 0 | F arr -> Array.length arr

let to_array = function Empty -> [||] | F arr -> arr

let get c i =
  match c with
  | F arr -> arr.(i)
  | Empty -> invalid_arg "Curve.get: empty curve"

let to_list c = Array.to_list (to_array c)

let strictly_dominates a b =
  Solution.dominates a b && Solution.compare_key a b <> 0

module Builder = struct
  type 'a b = {
    mutable req : floatarray;
    mutable load : floatarray;
    mutable area : floatarray;
    mutable data : 'a array; (* empty until the first push, then >= len *)
    mutable len : int;
    (* Build-time scratch, owned by the builder so a cleared and reused
       builder allocates nothing on the next build (grow-only; sized to
       the push-storage capacity in one step).  [qreq]/[qload]/[qarea]
       hold the quantised coordinates, [keys] the sort keys (push
       indices), [tmp] the merge buffer, [keep] the surviving indices
       and [st_load]/[st_area] the staircase. *)
    mutable qreq : floatarray;
    mutable qload : floatarray;
    mutable qarea : floatarray;
    mutable keys : int array;
    mutable tmp : int array;
    mutable keep : int array;
    mutable st_load : floatarray;
    mutable st_area : floatarray;
  }

  let create ?(hint = 16) () =
    let hint = max 4 hint in
    { req = Float.Array.create hint;
      load = Float.Array.create hint;
      area = Float.Array.create hint;
      data = [||];
      len = 0;
      qreq = Float.Array.create 0;
      qload = Float.Array.create 0;
      qarea = Float.Array.create 0;
      keys = [||];
      tmp = [||];
      keep = [||];
      st_load = Float.Array.create 0;
      st_area = Float.Array.create 0 }

  let length b = b.len

  (* [clear] keeps all storage (including payload references past the
     new length, until they are overwritten by later pushes — scratch
     builders hold whatever the hot path last routed, never less). *)
  let clear b = b.len <- 0

  (* Ensure room for one more element; [elt] seeds the data array (an
     'a array cannot grow without a fill element). *)
  let reserve b elt =
    let cap = Float.Array.length b.req in
    if b.len = cap then begin
      let ncap = 2 * cap in
      let grow a =
        let n = Float.Array.create ncap in
        Float.Array.blit a 0 n 0 b.len;
        n
      in
      b.req <- grow b.req;
      b.load <- grow b.load;
      b.area <- grow b.area
    end;
    let cap = Float.Array.length b.req in
    if Array.length b.data < cap then begin
      let nd = Array.make cap elt in
      Array.blit b.data 0 nd 0 b.len;
      b.data <- nd
    end

  (* Inlined into the DP push sites so the float coordinates reach the
     floatarray stores unboxed instead of boxing at the call. *)
  let[@inline] push b ~req ~load ~area data =
    reserve b data;
    Float.Array.set b.req b.len req;
    Float.Array.set b.load b.len load;
    Float.Array.set b.area b.len area;
    b.data.(b.len) <- data;
    b.len <- b.len + 1

  (* Boxing-free coordinate hand-off for the DP hot paths: an all-float
     record is flat (fields stored unboxed), so a cost writer fills it
     with plain float stores and [push_cost] moves the fields straight
     into the floatarray columns — no (req, load, area) tuple and no
     boxed floats per candidate, which the non-flambda compiler cannot
     eliminate on its own at a function boundary. *)
  type cost = { mutable creq : float; mutable cload : float; mutable carea : float }

  let new_cost () = { creq = 0.0; cload = 0.0; carea = 0.0 }

  let push_cost b (c : cost) data =
    reserve b data;
    Float.Array.set b.req b.len c.creq;
    Float.Array.set b.load b.len c.cload;
    Float.Array.set b.area b.len c.carea;
    b.data.(b.len) <- data;
    b.len <- b.len + 1

  let add b (s : 'a Solution.t) =
    push b ~req:s.Solution.req ~load:s.Solution.load ~area:s.Solution.area
      s.Solution.data

  let add_curve b c =
    match c with Empty -> () | F arr -> Array.iter (add b) arr

  (* Grow every scratch array to the push-storage capacity (>= len) in
     one step, so a long-lived builder reaches a fixed point and later
     builds allocate nothing here. *)
  let ensure_scratch b =
    let cap = Float.Array.length b.req in
    if Array.length b.keys < cap then begin
      b.qreq <- Float.Array.create cap;
      b.qload <- Float.Array.create cap;
      b.qarea <- Float.Array.create cap;
      b.keys <- Array.make cap 0;
      b.tmp <- Array.make cap 0;
      b.keep <- Array.make cap 0;
      b.st_load <- Float.Array.create cap;
      b.st_area <- Float.Array.create cap
    end

  (* Candidate [i] sorts no later than [j] in compare_key order (req
     descending, then load, then area ascending), ties broken by push
     index so the sort is stable.  The strict float tests settle the
     common case; equal or NaN coordinates fall through to
     [Float.compare], the order [Solution.compare_key] uses. *)
  let[@inline] key_le qreq qload qarea i j =
    let ri = Float.Array.get qreq i and rj = Float.Array.get qreq j in
    if ri > rj then true
    else if ri < rj then false
    else
      let c = Float.compare rj ri in
      if c <> 0 then c < 0
      else
        let li = Float.Array.get qload i and lj = Float.Array.get qload j in
        if li < lj then true
        else if li > lj then false
        else
          let c = Float.compare li lj in
          if c <> 0 then c < 0
          else
            let c =
              Float.compare (Float.Array.get qarea i) (Float.Array.get qarea j)
            in
            if c <> 0 then c < 0 else i <= j

  (* Ascending bottom-up merge sort of [keys.(0 .. n-1)] under [key_le],
     merging back and forth between [keys] and the builder-owned [tmp]
     scratch.  Monomorphic with the comparison inlined: no comparator
     closure, no allocation (the stdlib cannot sort a prefix of a larger
     scratch array, and [Array.stable_sort] allocates a fresh run buffer
     per call).  Small runs are seeded with an insertion pass, like the
     stdlib's cutoff. *)
  let sort_keys qreq qload qarea keys tmp n =
    let run = 16 in
    let lo = ref 0 in
    while !lo < n do
      let hi = min n (!lo + run) in
      for i = !lo + 1 to hi - 1 do
        let v = keys.(i) in
        let j = ref i in
        while !j > !lo && not (key_le qreq qload qarea keys.(!j - 1) v) do
          keys.(!j) <- keys.(!j - 1);
          decr j
        done;
        keys.(!j) <- v
      done;
      lo := hi
    done;
    let src = ref keys and dst = ref tmp in
    let width = ref run in
    while !width < n do
      let s = !src and d = !dst in
      let lo = ref 0 in
      while !lo < n do
        let mid = min n (!lo + !width) in
        let hi = min n (mid + !width) in
        let i = ref !lo and j = ref mid and w = ref !lo in
        while !i < mid && !j < hi do
          if key_le qreq qload qarea s.(!i) s.(!j) then begin
            d.(!w) <- s.(!i);
            incr i
          end
          else begin
            d.(!w) <- s.(!j);
            incr j
          end;
          incr w
        done;
        Array.blit s !i d !w (mid - !i);
        Array.blit s !j d (!w + mid - !i) (hi - !j);
        lo := hi
      done;
      let t = !src in
      src := !dst;
      dst := t;
      width := 2 * !width
    done;
    if !src != keys then Array.blit !src 0 keys 0 n (* lint: physical-eq *)

  (* One sort + one staircase sweep over the accumulated bag.  Ties
     (equal coordinate keys) keep the earliest push, matching the
     incremental [add]'s first-wins behaviour.  [grids] quantises every
     coordinate before the sweep (the per-candidate quantisation of the
     DP cores, fused into the batch pass).

     [epsilon] > 0 additionally drops a candidate when some kept point
     is within [epsilon] of it in both load and area (at automatically
     no-worse req, given the sweep order) — epsilon-domination subsumes
     exact domination, so the kept set stays mutually non-inferior.
     [max_frontier] > 0 stops the sweep after that many survivors; the
     result is the best-req prefix of the unbounded frontier.  Both
     default off, and exact mode is byte-identical to the knob-free
     build. *)
  let build ?(name = "Curve.Builder.build") ?(grids = (0.0, 0.0, 0.0))
      ?(epsilon = 0.0) ?(max_frontier = 0) b =
    let n = b.len in
    if epsilon < 0.0 then invalid_arg "Curve.Builder.build: epsilon < 0";
    if max_frontier < 0 then
      invalid_arg "Curve.Builder.build: max_frontier < 0";
    if n = 0 then Empty
    else begin
      ensure_scratch b;
      let cap = if max_frontier = 0 then max_int else max_frontier in
      let req_grid, load_grid, area_grid = grids in
      let quantised =
        req_grid <> 0.0 || load_grid <> 0.0 || area_grid <> 0.0
      in
      let qreq = if quantised then b.qreq else b.req in
      let qload = if quantised then b.qload else b.load in
      let qarea = if quantised then b.qarea else b.area in
      if quantised then
        for i = 0 to n - 1 do
          Float.Array.set qreq i
            (Solution.grid_down req_grid (Float.Array.get b.req i));
          Float.Array.set qload i
            (Solution.grid_up load_grid (Float.Array.get b.load i));
          Float.Array.set qarea i
            (Solution.grid_up area_grid (Float.Array.get b.area i))
        done;
      for i = 0 to n - 1 do
        b.keys.(i) <- i
      done;
      sort_keys qreq qload qarea b.keys b.tmp n;
      (* Staircase of the kept points' (load, area) minima: load strictly
         increasing, area strictly decreasing. *)
      let st_load = b.st_load and st_area = b.st_area in
      let st_len = ref 0 in
      let keep = b.keep in
      let nkeep = ref 0 in
      let t = ref 0 in
      while !t < n && !nkeep < cap do
        let i = b.keys.(!t) in
        let l = Float.Array.get qload i and a = Float.Array.get qarea i in
        (* Rightmost staircase entry with load <= l + epsilon (all kept
           points have req >= this one's, so load/area decide dominance;
           at epsilon 0 this is the exact dominance query). *)
        let lb = l +. epsilon and ab = a +. epsilon in
        let p =
          let lo = ref 0 and hi = ref !st_len in
          while !lo < !hi do
            let mid = (!lo + !hi) / 2 in
            if Float.Array.get st_load mid <= lb then lo := mid + 1
            else hi := mid
          done;
          !lo - 1
        in
        let dominated = p >= 0 && Float.Array.get st_area p <= ab in
        if not dominated then begin
          keep.(!nkeep) <- i;
          incr nkeep;
          (* Re-find the insertion point for the exact [l] (the query
             above ran at [l + epsilon]); with epsilon 0 the staircase
             position is [p] itself, so this second search is skipped. *)
          let p =
            if epsilon = 0.0 then p
            else begin
              let lo = ref 0 and hi = ref !st_len in
              while !lo < !hi do
                let mid = (!lo + !hi) / 2 in
                if Float.Array.get st_load mid <= l then lo := mid + 1
                else hi := mid
              done;
              !lo - 1
            end
          in
          (* Insert (l, a): entries with load >= l and area >= a are now
             redundant; areas decrease rightward so they form a run. *)
          let q =
            if p >= 0 && Float.Array.get st_load p = l then p else p + 1
          in
          let r = ref q in
          while !r < !st_len && Float.Array.get st_area !r >= a do incr r done;
          let removed = !r - q in
          if removed = 0 then begin
            Float.Array.blit st_load q st_load (q + 1) (!st_len - q);
            Float.Array.blit st_area q st_area (q + 1) (!st_len - q);
            incr st_len
          end
          else if removed > 1 then begin
            Float.Array.blit st_load !r st_load (q + 1) (!st_len - !r);
            Float.Array.blit st_area !r st_area (q + 1) (!st_len - !r);
            st_len := !st_len - removed + 1
          end;
          Float.Array.set st_load q l;
          Float.Array.set st_area q a
        end;
        incr t
      done;
      let out =
        Array.init !nkeep (fun t ->
            let i = keep.(t) in
            Solution.make
              ~req:(Float.Array.get qreq i)
              ~load:(Float.Array.get qload i)
              ~area:(Float.Array.get qarea i)
              b.data.(i))
      in
      F (Contract.check_arr ~name out)
    end
end

(* Incremental insertion: binary-search placement over the sorted array,
   then a prefix dominance scan (only earlier elements can dominate [s])
   and a suffix filter (only later elements can be dominated by [s]). *)
let add c s =
  match c with
  | Empty -> F [| s |]
  | F arr ->
    let n = Array.length arr in
    (* First index whose key is greater than [s]'s. *)
    let pos =
      let lo = ref 0 and hi = ref n in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if Solution.compare_key arr.(mid) s <= 0 then lo := mid + 1
        else hi := mid
      done;
      !lo
    in
    if pos > 0 && Solution.compare_key arr.(pos - 1) s = 0 then c
    else begin
      (* Every element before [pos] has req >= s.req, so domination of
         [s] reduces to load/area. *)
      let dominated = ref false in
      let i = ref 0 in
      while (not !dominated) && !i < pos do
        let x = arr.(!i) in
        if x.Solution.load <= s.Solution.load
           && x.Solution.area <= s.Solution.area
        then dominated := true;
        incr i
      done;
      if !dominated then c
      else begin
        (* Elements from [pos] on have req <= s.req: drop those [s]
           dominates. *)
        let survives x =
          not
            (s.Solution.load <= x.Solution.load
             && s.Solution.area <= x.Solution.area)
        in
        let kept = ref 0 in
        for i = pos to n - 1 do
          if survives arr.(i) then incr kept
        done;
        let out = Array.make (pos + 1 + !kept) s in
        Array.blit arr 0 out 0 pos;
        let w = ref (pos + 1) in
        for i = pos to n - 1 do
          if survives arr.(i) then begin
            out.(!w) <- arr.(i);
            incr w
          end
        done;
        F (Contract.check_sorted_arr ~name:"Curve.add" out)
      end
    end

let of_list sols =
  let b = Builder.create ~hint:(List.length sols) () in
  List.iter (Builder.add b) sols;
  Builder.build ~name:"Curve.of_list" b

let union a b =
  match (a, b) with
  | Empty, c | c, Empty -> c
  | F _, F _ ->
    let bld = Builder.create ~hint:(size a + size b) () in
    Builder.add_curve bld a;
    Builder.add_curve bld b;
    Builder.build ~name:"Curve.union" bld

let map_data f c =
  match c with Empty -> Empty | F arr -> F (Array.map (Solution.map f) arr)

let map_solutions f c =
  match c with
  | Empty -> Empty
  | F arr ->
    let bld = Builder.create ~hint:(Array.length arr) () in
    Array.iter (fun s -> Builder.add bld (f s)) arr;
    Builder.build ~name:"Curve.map_solutions" bld

let fold f acc c = Array.fold_left f acc (to_array c)

let iter f c = Array.iter f (to_array c)

let best_req = function Empty -> None | F arr -> Some arr.(0)

let best_under_area c ~area =
  match c with
  | Empty -> None
  | F arr ->
    (* Curve order is req-descending, so the first fitting point wins. *)
    let n = Array.length arr in
    let rec find i =
      if i >= n then None
      else if arr.(i).Solution.area <= area then Some arr.(i)
      else find (i + 1)
    in
    find 0

let best_min_area c ~req =
  match c with
  | Empty -> None
  | F arr ->
    (* The curve is req-descending: stop at the first element below the
       floor instead of scanning the whole frontier. *)
    let n = Array.length arr in
    let rec scan i best =
      if i >= n then best
      else
        let s = arr.(i) in
        if s.Solution.req < req then best
        else
          let best =
            match best with
            | Some b when b.Solution.area <= s.Solution.area -> best
            | Some _ | None -> Some s
          in
          scan (i + 1) best
    in
    scan 0 None

(* Always keep the extreme point of each dimension (best required time,
   least load, least area) and the last point, then spread the rest
   evenly along the required-time axis.  The curve is a strictly sorted
   frontier, so any subset of it is one too: the picks are sorted,
   deduplicated and kept in curve order, with no rebuild.  For very
   small caps the four extremes may overflow the cap; the selection is
   then truncated in curve order. *)
let cap ~max_size c =
  if max_size < 2 then invalid_arg "Curve.cap: max_size < 2";
  match c with
  | Empty -> Empty
  | F arr ->
    let n = Array.length arr in
    if n <= max_size then c
    else begin
      let argmin_load = ref 0 and argmin_area = ref 0 in
      for i = 1 to n - 1 do
        if arr.(i).Solution.load < arr.(!argmin_load).Solution.load then
          argmin_load := i;
        if arr.(i).Solution.area < arr.(!argmin_area).Solution.area then
          argmin_area := i
      done;
      let spread = max 0 (max_size - 4) in
      let picks = Array.make (4 + spread) 0 in
      picks.(1) <- !argmin_load;
      picks.(2) <- !argmin_area;
      picks.(3) <- n - 1;
      for k = 0 to spread - 1 do
        picks.(4 + k) <- 1 + (k * (n - 2) / max 1 spread)
      done;
      Array.sort Int.compare picks;
      let len = ref 0 in
      Array.iter
        (fun i ->
           if !len < max_size && (!len = 0 || picks.(!len - 1) <> i) then begin
             picks.(!len) <- i;
             incr len
           end)
        picks;
      F (Contract.check_arr ~name:"Curve.cap"
           (Array.init !len (fun t -> arr.(picks.(t)))))
    end

let quantise_load ~grid c =
  if grid <= 0.0 then invalid_arg "Curve.quantise_load: grid <= 0";
  match c with
  | Empty -> Empty
  | F _ ->
    let bld = Builder.create ~hint:(size c) () in
    Builder.add_curve bld c;
    Builder.build ~name:"Curve.quantise_load" ~grids:(0.0, grid, 0.0) bld

let quantise ~req_grid ~load_grid ~area_grid c =
  if req_grid < 0.0 || load_grid < 0.0 || area_grid < 0.0 then
    invalid_arg "Curve.quantise: negative grid";
  match c with
  | Empty -> Empty
  | F _ ->
    let bld = Builder.create ~hint:(size c) () in
    Builder.add_curve bld c;
    Builder.build ~name:"Curve.quantise"
      ~grids:(req_grid, load_grid, area_grid) bld

(* Pairwise non-domination scan; only reachable when the sorted-order
   invariant is somehow broken (see [is_frontier]). *)
let is_frontier_quadratic arr =
  let n = Array.length arr in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if
        strictly_dominates arr.(i) arr.(j)
        || strictly_dominates arr.(j) arr.(i)
      then ok := false
    done
  done;
  !ok

let is_frontier c =
  let arr = to_array c in
  let n = Array.length arr in
  let sorted = ref true in
  for i = 0 to n - 2 do
    if Solution.compare_key arr.(i) arr.(i + 1) > 0 then sorted := false
  done;
  if not !sorted then
    (* Can only happen through an invariant bug elsewhere; keep the old
       order-insensitive answer rather than trusting the sweep below. *)
    is_frontier_quadratic arr
  else begin
    (* Sorted-order staircase pass (the dominance structure of
       [Builder.build]): in compare_key order a point can only be
       strictly dominated by an earlier one, so one (load, area) minima
       staircase over the prefix answers every query — O(n log n)
       instead of the pairwise O(n^2) scan.  Equal-key runs are queried
       before any of them is inserted: exact duplicates never strictly
       dominate each other. *)
    let st_load = Float.Array.create n in
    let st_area = Float.Array.create n in
    let st_len = ref 0 in
    let query l a =
      let lo = ref 0 and hi = ref !st_len in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if Float.Array.get st_load mid <= l then lo := mid + 1 else hi := mid
      done;
      let p = !lo - 1 in
      p >= 0 && Float.Array.get st_area p <= a
    in
    let insert l a =
      let lo = ref 0 and hi = ref !st_len in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if Float.Array.get st_load mid <= l then lo := mid + 1 else hi := mid
      done;
      let p = !lo - 1 in
      if not (p >= 0 && Float.Array.get st_area p <= a) then begin
        let q = if p >= 0 && Float.Array.get st_load p = l then p else p + 1 in
        let r = ref q in
        while !r < !st_len && Float.Array.get st_area !r >= a do incr r done;
        let removed = !r - q in
        if removed = 0 then begin
          Float.Array.blit st_load q st_load (q + 1) (!st_len - q);
          Float.Array.blit st_area q st_area (q + 1) (!st_len - q);
          incr st_len
        end
        else if removed > 1 then begin
          Float.Array.blit st_load !r st_load (q + 1) (!st_len - !r);
          Float.Array.blit st_area !r st_area (q + 1) (!st_len - !r);
          st_len := !st_len - removed + 1
        end;
        Float.Array.set st_load q l;
        Float.Array.set st_area q a
      end
    in
    let ok = ref true in
    let g = ref 0 in
    while !ok && !g < n do
      let h = ref (!g + 1) in
      while !h < n && Solution.compare_key arr.(!g) arr.(!h) = 0 do
        incr h
      done;
      for t = !g to !h - 1 do
        if query arr.(t).Solution.load arr.(t).Solution.area then ok := false
      done;
      if !ok then
        for t = !g to !h - 1 do
          insert arr.(t).Solution.load arr.(t).Solution.area
        done;
      g := !h
    done;
    !ok
  end

let pp ppf c =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       Solution.pp)
    (to_list c)
