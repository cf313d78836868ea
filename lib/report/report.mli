(** Hand-rolled JSON serialization for the benchmark reports
    ([bench/main.exe --json]); no external JSON dependency.

    Emission rules the schema's consumers may rely on: non-finite
    floats serialize as [null] (JSON has no nan/infinity); strings are
    escaped with the two-character sequences for quote, backslash,
    newline, tab and carriage return, and [\uXXXX] for the remaining
    control characters; objects and nonempty lists are emitted
    multi-line with two-space indentation. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Serialize, followed by one trailing newline. *)

val to_file : string -> t -> unit
(** [to_file path v] writes [to_string v] to [path], replacing it. *)

(** A table described once, as a list of columns, and rendered three
    ways from that one description: a fixed-width text header, one
    text line per row, and one JSON object per row. A column may be
    shown in text only, in JSON only, or in both (in the same
    relative order). *)
module Table : sig
  type json := t

  type 'r column
  (** One column of a table with rows of type ['r]. *)

  type 'r t
  (** A table spec: its columns, in order. *)

  val make : 'r column list -> 'r t

  val with_heading : ('r -> string option) -> 'r t -> 'r t
  (** [with_heading f spec] prints [f r] on a line of its own, after a
      blank line, before the first row of each run of rows where [f]
      returns the same [Some _] — a sub-heading inside the table. *)

  (** {2 Columns shown in text and in JSON}

      [str key head width get] is the column emitted as [key] in JSON
      and printed under [head], padded to [width]. Strings are
      left-aligned, everything else right-aligned; the header cell
      takes the column's alignment. *)

  val str : string -> string -> int -> ('r -> string) -> 'r column
  val int : string -> string -> int -> ('r -> int) -> 'r column
  val bool : string -> string -> int -> ('r -> bool) -> 'r column

  val float : string -> string -> int -> int -> ('r -> float) -> 'r column
  (** [float key head width prec get] prints [prec] digits after the
      point; a nan prints as [nan] (JSON: [null]). *)

  val suffix : string -> 'r column -> 'r column
  (** Append a unit to every present text cell (e.g. ["x"]); the
      header is widened to match. *)

  val missing : string -> 'r column -> 'r column
  (** Print this placeholder, with no suffix, instead of a nan. *)

  (** {2 Columns shown in one rendering only} *)

  val json : string -> ('r -> json) -> 'r column
  (** A JSON-only column; the getter builds the value directly. *)

  val text_only : 'r column -> 'r column
  (** Drop the column from the JSON rendering. *)

  (** {2 Renderings} *)

  val header : 'r t -> string
  (** The text header line: every text column's head, space-separated;
      [""] when no column has a head (the table prints no header). *)

  val pp_row : 'r t -> Format.formatter -> 'r -> unit
  (** One text row, aligned under {!header}; no newline. *)

  val print : 'r t -> Format.formatter -> 'r list -> unit
  (** The whole table: the {!header} line (unless empty), then every
      row on its own line, with the sub-headings of {!with_heading}. *)

  val row : 'r t -> 'r -> json
  (** One row as a JSON object of the JSON columns, in order. *)

  val rows : 'r t -> 'r list -> json
  (** A JSON list of {!row}s. *)
end
