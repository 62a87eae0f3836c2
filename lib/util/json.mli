(** The repository's one JSON codec: model-server payloads, the dist
    protocol, Chrome traces, the run journal and the bench gate.

    The encoder renders every float with the shortest decimal string
    that parses back to the exact same value, so a number that makes a
    round trip through a request/response, a trace or a journal is
    {e bit-identical} on the other side — the property the
    served-vs-local equivalence guarantee rests on.  Non-finite floats
    have no JSON representation and encode as [null].

    The decoder is a strict recursive-descent parser over the RFC 8259
    value grammar (objects, arrays, strings with escapes incl.
    [\uXXXX] surrogate pairs, numbers, booleans, null), with a depth
    limit instead of unbounded recursion. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (no-whitespace) rendering. *)

val shortest : float -> string
(** The shortest of 15, 16 or 17 significant digits that
    [float_of_string] maps back to exactly the input.  Non-finite values
    print as [Printf] does ([inf], [-inf], [nan]); SPICE export relies
    on that. *)

val float_repr : float -> string
(** The encoder's float rendering: {!shortest}, or [null] when not
    finite.  Exposed so text outside a JSON document (the trace merge's
    span arguments) prints floats the same way the wire does. *)

val of_string : string -> (t, string) result
(** Parse one JSON value; trailing non-whitespace is an error. *)

(* accessors — every lookup returns a result with a path-flavoured
   message so endpoint handlers can surface precise 400s *)

val member : string -> t -> t option
(** Object field lookup ([None] on missing field or non-object).
    Duplicate keys resolve to the first occurrence. *)

val duplicate_key : t -> string option
(** Dotted path of the first repeated object key anywhere in the value
    ([None] when every object has distinct keys).  For consumers that
    must reject silently-shadowed fields, e.g. the bench gate. *)

val get_field : string -> t -> (t, string) result
val get_float : string -> t -> (float, string) result
val get_string : string -> t -> (string, string) result
val to_float : t -> (float, string) result
