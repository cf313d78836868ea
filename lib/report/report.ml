(* Hand-rolled JSON serialization (no new dependencies) for the
   benchmark reports. See DESIGN.md for the document schema. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let add_escaped b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let rec emit b ~indent v =
  let pad n = String.make n ' ' in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
    (* JSON has no nan/infinity; map them to null *)
    if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.12g" f)
    else Buffer.add_string b "null"
  | Str s ->
    Buffer.add_char b '"';
    add_escaped b s;
    Buffer.add_char b '"'
  | List [] -> Buffer.add_string b "[]"
  | List xs ->
    Buffer.add_string b "[\n";
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string b ",\n";
        Buffer.add_string b (pad (indent + 2));
        emit b ~indent:(indent + 2) x)
      xs;
    Buffer.add_char b '\n';
    Buffer.add_string b (pad indent);
    Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj kvs ->
    Buffer.add_string b "{\n";
    List.iteri
      (fun i (k, x) ->
        if i > 0 then Buffer.add_string b ",\n";
        Buffer.add_string b (pad (indent + 2));
        Buffer.add_char b '"';
        add_escaped b k;
        Buffer.add_string b "\": ";
        emit b ~indent:(indent + 2) x)
      kvs;
    Buffer.add_char b '\n';
    Buffer.add_string b (pad indent);
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 4096 in
  emit b ~indent:0 v;
  Buffer.add_char b '\n';
  Buffer.contents b

let to_file path v =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string v))

(* A table is its column list: the text header, the text row and the
   JSON row are all read off the same columns, so the three renderings
   cannot drift apart. *)
module Table = struct
  type align = Left | Right

  type text = {
    head : string;
    width : int;  (** the value's width, not counting [suffix] *)
    align : align;
    prec : int;  (** digits after the point, floats only *)
    suffix : string;  (** appended to present values *)
    missing : string option;  (** printed instead of a nan *)
  }

  type 'r column = { key : string option; text : text option; get : 'r -> t }
  type 'r t = { columns : 'r column list; heading : 'r -> string option }

  let make columns = { columns; heading = (fun _ -> None) }
  let with_heading heading spec = { spec with heading }

  let shown align prec key head width get =
    {
      key = Some key;
      text = Some { head; width; align; prec; suffix = ""; missing = None };
      get;
    }

  let str key head width get =
    shown Left 0 key head width (fun r -> Str (get r))

  let int key head width get =
    shown Right 0 key head width (fun r -> Int (get r))

  let bool key head width get =
    shown Right 0 key head width (fun r -> Bool (get r))

  let float key head width prec get =
    shown Right prec key head width (fun r -> Float (get r))

  let json key get = { key = Some key; text = None; get }
  let text_only c = { c with key = None }

  let map_text f c = { c with text = Option.map f c.text }
  let suffix s = map_text (fun tx -> { tx with suffix = s })
  let missing s = map_text (fun tx -> { tx with missing = Some s })

  let pad align width s =
    let fill = String.make (max 0 (width - String.length s)) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s

  let cell tx v =
    match (v, tx.missing) with
    | Float f, Some m when Float.is_nan f -> pad tx.align tx.width m
    | _ ->
      let body =
        match v with
        | Str s -> s
        | Int i -> string_of_int i
        | Bool b -> string_of_bool b
        | Float f -> Printf.sprintf "%.*f" tx.prec f
        | Null | List _ | Obj _ -> invalid_arg "Report.Table: non-scalar cell"
      in
      pad tx.align tx.width body ^ tx.suffix

  let texts spec =
    List.filter_map
      (fun c -> Option.map (fun tx -> (c, tx)) c.text)
      spec.columns

  let header spec =
    let cols = texts spec in
    if List.for_all (fun (_, tx) -> tx.head = "") cols then ""
    else
      String.concat " "
        (List.map
           (fun (_, tx) ->
             pad tx.align (tx.width + String.length tx.suffix) tx.head)
           cols)

  let pp_row spec fmt r =
    Format.pp_print_string fmt
      (String.concat " "
         (List.map (fun (c, tx) -> cell tx (c.get r)) (texts spec)))

  let row spec r =
    Obj
      (List.filter_map
         (fun c -> Option.map (fun k -> (k, c.get r)) c.key)
         spec.columns)

  let rows spec rs = List (List.map (row spec) rs)

  let print spec fmt rs =
    let h = header spec in
    if h <> "" then Format.fprintf fmt "%s@." h;
    ignore
      (List.fold_left
         (fun prev r ->
           let h = spec.heading r in
           (match h with
           | Some line when h <> prev -> Format.fprintf fmt "@.%s@." line
           | _ -> ());
           Format.fprintf fmt "%a@." (pp_row spec) r;
           h)
         None rs)
end
