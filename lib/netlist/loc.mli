(** Source positions and structured front-end errors.

    Every diagnostic the netlist front end produces carries the file
    (when known) and the 1-based line/column of the offending token, so
    the CLI can print [file:line:col: message] and editors can jump to
    the spot.  Nothing in [repro_netlist] raises a bare [Failure]. *)

type pos = { line : int; col : int }
(** 1-based position in the original source text — columns refer to the
    physical line, before continuation-line joining. *)

exception
  Netlist_error of { file : string option; pos : pos; msg : string }
(** The only exception the front end raises on malformed input. *)

val fail : ?file:string -> pos -> ('a, unit, string, 'b) format4 -> 'a
(** [fail pos fmt ...] raises {!Netlist_error} at [pos]. *)

val error_to_string : exn -> string
(** ["file:line:col: message"] for a {!Netlist_error} ([<netlist>] when
    the file is unknown); falls back to [Printexc.to_string]. *)
