(* Spans recorded from outside the program, around the calls the
   benchmark makes into each layer's public functions.

   A span has a name, a start, an end, its parent span and a group id:
   the spans of one net or one request share a group.  Spans stay in
   memory (any domain may record; one lock guards the list) and are
   written once, at the end of the run.  A disabled tracer runs the
   wrapped call and records nothing, so the traced and the untraced
   pass execute the same calls. *)

module Clock = Merlin_exec.Clock

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  group : int;
  name : string;
  t0 : float;
  t1 : float;
}

(* Where a new span hangs: the enclosing span and its group.  Pool
   tasks run on other domains, so callers pass it across explicitly. *)
type ctx = { cur : int; cur_group : int }

type t = {
  enabled : bool;
  lock : Mutex.t;
  mutable spans : span list;
  next : int Atomic.t;
  here : ctx Domain.DLS.key;
}

let create ~enabled =
  { enabled;
    lock = Mutex.create ();
    spans = [];
    next = Atomic.make 1;
    here = Domain.DLS.new_key (fun () -> { cur = 0; cur_group = 0 }) }

(* The disabled tracer. *)
let off = create ~enabled:false

let enabled t = t.enabled
let here t = Domain.DLS.get t.here

(* [span t name f] runs [f] inside a span named [name].  [ctx] defaults
   to the calling domain's current span; [group] starts a new group
   (default: the parent's). *)
let span t ?ctx ?group name f =
  if not t.enabled then f ()
  else begin
    let parent = match ctx with Some c -> c | None -> here t in
    let id = Atomic.fetch_and_add t.next 1 in
    let group = Option.value group ~default:parent.cur_group in
    let saved = here t in
    Domain.DLS.set t.here { cur = id; cur_group = group };
    let t0 = Clock.monotonic_s () in
    Fun.protect
      ~finally:(fun () ->
          let t1 = Clock.monotonic_s () in
          Domain.DLS.set t.here saved;
          Mutex.protect t.lock (fun () ->
              t.spans <-
                { id; parent = parent.cur; group; name; t0; t1 } :: t.spans))
      f
  end

let spans t = Mutex.protect t.lock (fun () -> List.rev t.spans)

(* Total length of the union of [(a, b)] intervals, clipped to
   [lo, hi]. *)
let union_length ~lo ~hi intervals =
  let sorted =
    List.sort compare
      (List.filter_map
         (fun (a, b) ->
            let a = Float.max a lo and b = Float.min b hi in
            if b > a then Some (a, b) else None)
         intervals)
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
         match cur with
         | None -> (total, Some (a, b))
         | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
         | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Per name: (count, total seconds, self seconds).  Self time is the
   span's length minus the part of it its children cover. *)
let by_name spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> Hashtbl.replace children s.parent
        ((s.t0, s.t1) :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  let acc = Hashtbl.create 64 in
  List.iter
    (fun s ->
       let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
       let self =
         (s.t1 -. s.t0) -. union_length ~lo:s.t0 ~hi:s.t1 kids
       in
       let n, tot, slf =
         Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt acc s.name)
       in
       Hashtbl.replace acc s.name (n + 1, tot +. (s.t1 -. s.t0), slf +. self))
    spans;
  fun name -> Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt acc name)

(* Share of [lo, hi] that spans of the program's layers cover.  Spans
   named "w.*" only group the workload's own steps and do not count. *)
let coverage spans ~lo ~hi =
  let layer s = not (String.length s.name >= 2 && String.sub s.name 0 2 = "w.") in
  union_length ~lo ~hi
    (List.filter_map (fun s -> if layer s then Some (s.t0, s.t1) else None) spans)
  /. (hi -. lo)

let write spans file =
  let module Json = Merlin_report.Json in
  let num f = Json.Num f and int i = Json.Num (float_of_int i) in
  let doc =
    Json.List
      (List.map
         (fun s ->
            Json.Obj
              [ ("id", int s.id); ("parent", int s.parent);
                ("group", int s.group); ("name", Json.Str s.name);
                ("start_s", num s.t0); ("end_s", num s.t1) ])
         spans)
  in
  Out_channel.with_open_bin file (fun oc ->
      output_string oc (Json.to_string doc);
      output_char oc '\n')

(* The kernel's exported work counters ({!Merlin_core.Star_ptree}),
   read in this one place.  Only the traced run reads them, and only as
   deltas around its own work; they never feed an end-to-end metric. *)
type kernel = {
  joins : int;
  join_adds : int;
  join_survivors : int;
  bytes_join : int;
}

let kernel () =
  let open Merlin_core.Star_ptree in
  { joins = Atomic.get n_joins;
    join_adds = Atomic.get n_join_adds;
    join_survivors = Atomic.get n_join_survivors;
    bytes_join = Atomic.get bytes_join }

let kernel_since k0 =
  let k = kernel () in
  { joins = k.joins - k0.joins;
    join_adds = k.join_adds - k0.join_adds;
    join_survivors = k.join_survivors - k0.join_survivors;
    bytes_join = k.bytes_join - k0.bytes_join }
