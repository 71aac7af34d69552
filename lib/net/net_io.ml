open Merlin_geometry
open Merlin_tech

(* Shortest decimal that parses back to the same float.  The text form
   doubles as the canonical fingerprint pre-image, so printing must be
   lossless: save -> load -> fingerprint has to land on the same key a
   live in-memory net hashes to. *)
let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else begin
    let exact p =
      let s = Printf.sprintf "%.*g" p f in
      if Float.equal (float_of_string s) f then Some s else None
    in
    match exact 12 with
    | Some s -> s
    | None ->
      (match exact 15 with
       | Some s -> s
       | None -> Printf.sprintf "%.17g" f)
  end

let to_string (net : Net.t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "net %s\n" net.Net.name);
  Buffer.add_string buf
    (Printf.sprintf "source %d %d\n" net.Net.source.Point.x
       net.Net.source.Point.y);
  let d = net.Net.driver in
  Buffer.add_string buf
    (Printf.sprintf "driver %s %s %s %s\n"
       (float_repr d.Delay_model.d0)
       (float_repr d.Delay_model.r_drive)
       (float_repr d.Delay_model.k_slew)
       (float_repr d.Delay_model.s0));
  Array.iter
    (fun s ->
       Buffer.add_string buf
         (Printf.sprintf "sink %d %d %d %s %s\n" s.Sink.id s.Sink.pt.Point.x
            s.Sink.pt.Point.y
            (float_repr s.Sink.cap)
            (float_repr s.Sink.req)))
    net.Net.sinks;
  Buffer.contents buf

(* The cache key has to separate nets that differ only in sink order —
   every flow is order-sensitive (MERLIN is only *semi*
   order-independent), so order is part of the problem, not noise.  The
   canonical text keeps sinks in id order, which IS the sink order
   ([Net.make] pins [sinks.(i).id = i]).  The name line is dropped:
   renaming a net does not change the routing problem, so it must not
   split the cache.  Reloading a saved net reproduces the text
   byte-for-byte because [float_repr] prints losslessly and
   text -> float -> text is stable. *)
let fingerprint (net : Net.t) =
  let text = to_string net in
  let body =
    match String.index_opt text '\n' with
    | Some i -> String.sub text (i + 1) (String.length text - i - 1)
    | None -> text
  in
  Digest.to_hex (Digest.string body)

let fail lineno msg = failwith (Printf.sprintf "Net_io.of_string: line %d: %s" lineno msg)

let of_string text =
  let lines = String.split_on_char '\n' text in
  let name = ref None and source = ref None and driver = ref None in
  let sinks = ref [] in
  let parse lineno line =
    match String.split_on_char ' ' (String.trim line) with
    | [ "" ] -> ()
    | [ "net"; n ] -> name := Some n
    | [ "source"; x; y ] ->
      (try source := Some (Point.make (int_of_string x) (int_of_string y))
       with Failure _ -> fail lineno "bad source coordinates")
    | [ "driver"; d0; r; k; s0 ] ->
      (try
         driver :=
           Some
             (Delay_model.make ~d0:(float_of_string d0)
                ~r_drive:(float_of_string r) ~k_slew:(float_of_string k)
                ~s0:(float_of_string s0))
       with Failure _ -> fail lineno "bad driver parameters")
    | [ "sink"; id; x; y; cap; req ] ->
      (try
         let s =
           Sink.make ~id:(int_of_string id)
             ~pt:(Point.make (int_of_string x) (int_of_string y))
             ~cap:(float_of_string cap) ~req:(float_of_string req)
         in
         sinks := s :: !sinks
       with Failure _ -> fail lineno "bad sink fields")
    | _ -> fail lineno (Printf.sprintf "unrecognised line %S" line)
  in
  List.iteri (fun i line -> parse (i + 1) line) lines;
  match (!name, !source, !driver) with
  | Some name, Some source, Some driver -> (
    match Net.make ~name ~source ~driver (List.rev !sinks) with
    | net -> net
    | exception Invalid_argument msg -> failwith ("Net_io.of_string: " ^ msg))
  | None, _, _ -> failwith "Net_io.of_string: missing 'net' line"
  | _, None, _ -> failwith "Net_io.of_string: missing 'source' line"
  | _, _, None -> failwith "Net_io.of_string: missing 'driver' line"

(* A netlist file is just nets concatenated: every [to_string] block
   starts with its own "net <name>" line, which doubles as the record
   separator, so the multi-net form needs no extra framing. *)
let to_string_many nets = String.concat "" (List.map to_string nets)

let of_string_many text =
  let is_header line =
    let line = String.trim line in
    String.length line >= 4 && String.equal (String.sub line 0 4) "net "
  in
  let chunk_to_net chunk =
    match chunk with
    | [] -> None
    | lines -> Some (of_string (String.concat "\n" (List.rev lines)))
  in
  let rec go acc chunk = function
    | [] -> (
      match chunk_to_net chunk with
      | None -> List.rev acc
      | Some net -> List.rev (net :: acc))
    | line :: rest ->
      if is_header line then
        let acc =
          match chunk_to_net chunk with None -> acc | Some net -> net :: acc
        in
        go acc [ line ] rest
      else (
        match chunk with
        | [] ->
          if String.equal (String.trim line) "" then go acc [] rest
          else
            failwith
              (Printf.sprintf
                 "Net_io.of_string_many: content before the first 'net' \
                  line: %S"
                 line)
        | _ :: _ -> go acc (line :: chunk) rest)
  in
  go [] [] (String.split_on_char '\n' text)

let save path net =
  let oc = open_out path in
  output_string oc (to_string net);
  close_out oc

let load path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  of_string text

let save_many path nets =
  let oc = open_out path in
  output_string oc (to_string_many nets);
  close_out oc

let load_many path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  of_string_many text
