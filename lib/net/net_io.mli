(** Plain-text (de)serialisation of nets, one item per line:

    {v
    net <name>
    source <x> <y>
    driver <d0> <r_drive> <k_slew> <s0>
    sink <id> <x> <y> <cap> <req>
    ...
    v}

    The text form is canonical: floats print as the shortest decimal
    that parses back to the same value, so [to_string] is stable under
    save/load round trips and doubles as the fingerprint pre-image. *)

val to_string : Net.t -> string

(** [fingerprint net] — hex digest of the canonical text without the
    name line.  Two nets differing only in sink order (the ids) hash
    differently — every flow is order-sensitive, so order is part of
    the problem — while renaming, saving and reloading a net preserves
    its fingerprint.  This is the net component of the serving layer's
    cache key. *)
val fingerprint : Net.t -> string

(** Raises [Failure] with a line-numbered message on malformed input,
    and with {!Net.make}'s message on a net it rejects (sink ids out of
    order or repeated, a non-finite or negative capacitance, a
    non-finite required time). *)
val of_string : string -> Net.t

(** Canonical multi-net (netlist file) form: the [to_string] blocks
    concatenated — every "net <name>" line starts a new record, so the
    single-net and multi-net forms are mutually parseable. *)
val to_string_many : Net.t list -> string

(** Splits on "net" header lines and parses each record with
    {!of_string}; empty input yields [[]].  Raises [Failure] (with
    record-relative line numbers) on malformed records or content
    before the first header. *)
val of_string_many : string -> Net.t list

val save : string -> Net.t -> unit

val load : string -> Net.t

val save_many : string -> Net.t list -> unit

val load_many : string -> Net.t list
