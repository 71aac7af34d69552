(* Array-backed frontier kernel.

   A curve is a sorted (Solution.compare_key), pairwise non-dominated
   array of solutions.  The empty curve is its own constructor so the
   polymorphic [empty] constant generalises (a bare [|]|] would be
   weakly typed under the value restriction); every non-empty curve
   carries a non-empty array.

   The batch path is [Builder]: candidates accumulate into
   structure-of-arrays floatarray storage (req/load/area) plus a data
   array, each push dropping itself or popping the stored candidates it
   dominates, and [Builder.build] prunes what is left at once with one
   stable sort and one staircase sweep, then allocates solutions only
   for the picks of its optional cap.  The sweep exploits the key
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
    mutable len : int; (* stored candidates: the pushes not pruned yet *)
    mutable pushed : int; (* candidates offered since the last clear *)
    mutable survivors : int; (* frontier of the last build, before its cap *)
    (* Build-time scratch, owned by the builder so a cleared and reused
       builder allocates nothing on the next build (grow-only; sized to
       the push-storage capacity in one step).  [keys] holds the sort
       keys (storage indices), [tmp] the merge buffer and then the cap's
       picks, [keep] the surviving indices and [st_load]/[st_area] the
       staircase. *)
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
      pushed = 0;
      survivors = 0;
      keys = [||];
      tmp = [||];
      keep = [||];
      st_load = Float.Array.create 0;
      st_area = Float.Array.create 0 }

  let length b = b.pushed

  let survivors b = b.survivors

  (* [clear] keeps all storage (including payload references past the
     new length, until they are overwritten by later pushes — scratch
     builders hold whatever the hot path last routed, never less). *)
  let clear b =
    b.len <- 0;
    b.pushed <- 0

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

  (* Prune on push: the one path every candidate enters by.  The last
     stored candidate is compared with the new one: if it weakly
     dominates the new one in all three coordinates (equal keys
     included) the new one is dropped; while the new one dominates the
     top (then strictly), the top is popped.  Either way the loser is
     dominated by a candidate that precedes it in the sort order (weak
     dominance plus an earlier push, or strict dominance), and such a
     candidate is never kept by the sweep in [build] — in exact, epsilon
     and max_frontier mode alike — so the build's output, tie winners
     included, is that of the unpruned bag (DESIGN.md §9).  NaN
     comparisons are false: a NaN candidate is never pruned here.
     Inlined into [push] and [push_cost] so the coordinates stay
     unboxed. *)
  let[@inline] store b req load area data =
    b.pushed <- b.pushed + 1;
    let len = ref b.len and admit = ref true and scan = ref true in
    while !scan && !len > 0 do
      let t = !len - 1 in
      let r = Float.Array.get b.req t
      and l = Float.Array.get b.load t
      and a = Float.Array.get b.area t in
      if r >= req && l <= load && a <= area then begin
        admit := false;
        scan := false
      end
      else if req >= r && load <= l && area <= a then len := t
      else scan := false
    done;
    b.len <- !len;
    if !admit then begin
      reserve b data;
      Float.Array.set b.req b.len req;
      Float.Array.set b.load b.len load;
      Float.Array.set b.area b.len area;
      b.data.(b.len) <- data;
      b.len <- b.len + 1
    end

  let[@inline] push b ~req ~load ~area data = store b req load area data

  (* Boxing-free coordinate hand-off for the DP hot paths: an all-float
     record is flat (fields stored unboxed), so a cost writer fills it
     with plain float stores and [push_cost] moves the fields straight
     into the floatarray columns — no (req, load, area) tuple and no
     boxed floats per candidate, which the non-flambda compiler cannot
     eliminate on its own at a function boundary. *)
  type cost = { mutable creq : float; mutable cload : float; mutable carea : float }

  let new_cost () = { creq = 0.0; cload = 0.0; carea = 0.0 }

  let push_cost b (c : cost) data = store b c.creq c.cload c.carea data

  let add b (s : 'a Solution.t) =
    store b s.Solution.req s.Solution.load s.Solution.area s.Solution.data

  let add_curve b c =
    match c with Empty -> () | F arr -> Array.iter (add b) arr

  (* Grow every scratch array to the push-storage capacity (>= len) in
     one step, so a long-lived builder reaches a fixed point and later
     builds allocate nothing here. *)
  let ensure_scratch b =
    let cap = Float.Array.length b.req in
    if Array.length b.keys < cap then begin
      b.keys <- Array.make cap 0;
      b.tmp <- Array.make cap 0;
      b.keep <- Array.make cap 0;
      b.st_load <- Float.Array.create cap;
      b.st_area <- Float.Array.create cap
    end

  (* Candidate [i] sorts no later than [j] in compare_key order (req
     descending, then load, then area ascending), ties broken by storage
     index — push order — so the sort is stable.  The strict float tests
     settle the common case; equal or NaN coordinates fall through to
     [Float.compare], the order [Solution.compare_key] uses. *)
  let[@inline] key_le req load area i j =
    let ri = Float.Array.get req i and rj = Float.Array.get req j in
    if ri > rj then true
    else if ri < rj then false
    else
      let c = Float.compare rj ri in
      if c <> 0 then c < 0
      else
        let li = Float.Array.get load i and lj = Float.Array.get load j in
        if li < lj then true
        else if li > lj then false
        else
          let c = Float.compare li lj in
          if c <> 0 then c < 0
          else
            let c =
              Float.compare (Float.Array.get area i) (Float.Array.get area j)
            in
            if c <> 0 then c < 0 else i <= j

  (* Ascending bottom-up merge sort of [keys.(0 .. n-1)] under [key_le],
     merging back and forth between [keys] and the builder-owned [tmp]
     scratch.  Monomorphic with the comparison inlined: no comparator
     closure, no allocation (the stdlib cannot sort a prefix of a larger
     scratch array, and [Array.stable_sort] allocates a fresh run buffer
     per call).  Small runs are seeded with an insertion pass, like the
     stdlib's cutoff. *)
  let sort_keys req load area keys tmp n =
    let run = 16 in
    let lo = ref 0 in
    while !lo < n do
      let hi = min n (!lo + run) in
      for i = !lo + 1 to hi - 1 do
        let v = keys.(i) in
        let j = ref i in
        while !j > !lo && not (key_le req load area keys.(!j - 1) v) do
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
          if key_le req load area s.(!i) s.(!j) then begin
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

  (* The cap's selection over the [n] kept indices (positions in sweep
     order): the first (best required time), least-load, least-area and
     last points, then an even spread along the required-time axis.
     The picks go through [tmp] (free once the sort is done), sorted and
     deduplicated, truncated to [max_size] in curve order when the four
     extremes overflow a very small cap; [keep] is then compacted to the
     picks in place (picks ascend, so no pick is overwritten before it is
     read).  Returns the number of picks. *)
  let select b n max_size =
    let keep = b.keep and picks = b.tmp in
    let argmin_load = ref 0 and argmin_area = ref 0 in
    for t = 1 to n - 1 do
      let i = keep.(t) in
      if Float.Array.get b.load i < Float.Array.get b.load keep.(!argmin_load)
      then argmin_load := t;
      if Float.Array.get b.area i < Float.Array.get b.area keep.(!argmin_area)
      then argmin_area := t
    done;
    let spread = max 0 (max_size - 4) in
    let np = 4 + spread in
    picks.(0) <- 0;
    picks.(1) <- !argmin_load;
    picks.(2) <- !argmin_area;
    picks.(3) <- n - 1;
    for k = 0 to spread - 1 do
      picks.(4 + k) <- 1 + (k * (n - 2) / max 1 spread)
    done;
    for t = 1 to np - 1 do
      let v = picks.(t) in
      let j = ref t in
      while !j > 0 && picks.(!j - 1) > v do
        picks.(!j) <- picks.(!j - 1);
        decr j
      done;
      picks.(!j) <- v
    done;
    let len = ref 0 in
    for t = 0 to np - 1 do
      let i = picks.(t) in
      if !len < max_size && (!len = 0 || picks.(!len - 1) <> i) then begin
        picks.(!len) <- i;
        incr len
      end
    done;
    for t = 0 to !len - 1 do
      keep.(t) <- keep.(picks.(t))
    done;
    !len

  (* One sort + one staircase sweep over the stored candidates.  Ties
     (equal coordinate keys) keep the earliest push, matching the
     incremental [add]'s first-wins behaviour.

     [epsilon] > 0 additionally drops a candidate when some kept point
     is within [epsilon] of it in both load and area (at automatically
     no-worse req, given the sweep order) — epsilon-domination subsumes
     exact domination, so the kept set stays mutually non-inferior.
     [max_frontier] > 0 stops the sweep after that many survivors; the
     result is the best-req prefix of the unbounded frontier.  Both
     default off, and exact mode is byte-identical to the knob-free
     build.  [max_size] then selects the cap's picks on the kept
     indices, and only the picks become solutions, their payloads
     mapped through [f]. *)
  let build ?(name = "Curve.Builder.build") ?(epsilon = 0.0)
      ?(max_frontier = 0) ?max_size b f =
    let n = b.len in
    if epsilon < 0.0 then invalid_arg "Curve.Builder.build: epsilon < 0";
    if max_frontier < 0 then
      invalid_arg "Curve.Builder.build: max_frontier < 0";
    (match max_size with
     | Some m when m < 2 -> invalid_arg "Curve.Builder.build: max_size < 2"
     | Some _ | None -> ());
    if n = 0 then begin
      b.survivors <- 0;
      Empty
    end
    else begin
      ensure_scratch b;
      let cap = if max_frontier = 0 then max_int else max_frontier in
      let req = b.req and load = b.load and area = b.area in
      for i = 0 to n - 1 do
        b.keys.(i) <- i
      done;
      sort_keys req load area b.keys b.tmp n;
      (* Staircase of the kept points' (load, area) minima: load strictly
         increasing, area strictly decreasing. *)
      let st_load = b.st_load and st_area = b.st_area in
      let st_len = ref 0 in
      let keep = b.keep in
      let nkeep = ref 0 in
      let t = ref 0 in
      while !t < n && !nkeep < cap do
        let i = b.keys.(!t) in
        let l = Float.Array.get load i and a = Float.Array.get area i in
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
      b.survivors <- !nkeep;
      let len =
        match max_size with
        | Some m when !nkeep > m -> select b !nkeep m
        | Some _ | None -> !nkeep
      in
      let out =
        Array.init len (fun t ->
            let i = keep.(t) in
            Solution.make ~req:(Float.Array.get req i)
              ~load:(Float.Array.get load i) ~area:(Float.Array.get area i)
              (f b.data.(i)))
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
  Builder.build ~name:"Curve.of_list" b Fun.id

let union a b =
  match (a, b) with
  | Empty, c | c, Empty -> c
  | F _, F _ ->
    let bld = Builder.create ~hint:(size a + size b) () in
    Builder.add_curve bld a;
    Builder.add_curve bld b;
    Builder.build ~name:"Curve.union" bld Fun.id

(* Push [f] of every solution and re-prune. *)
let rebuild ~name f c =
  match c with
  | Empty -> Empty
  | F arr ->
    let bld = Builder.create ~hint:(Array.length arr) () in
    Array.iter (fun s -> Builder.add bld (f s)) arr;
    Builder.build ~name bld Fun.id

let map_solutions f c = rebuild ~name:"Curve.map_solutions" f c

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

let quantise_load ~grid c =
  if grid <= 0.0 then invalid_arg "Curve.quantise_load: grid <= 0";
  rebuild ~name:"Curve.quantise_load"
    (Solution.quantise ~req_grid:0.0 ~load_grid:grid ~area_grid:0.0)
    c

let quantise ~req_grid ~load_grid ~area_grid c =
  if req_grid < 0.0 || load_grid < 0.0 || area_grid < 0.0 then
    invalid_arg "Curve.quantise: negative grid";
  rebuild ~name:"Curve.quantise"
    (Solution.quantise ~req_grid ~load_grid ~area_grid)
    c

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
