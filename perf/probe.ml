(* Tracing primitives: a nanosecond monotonic clock, (count, total ns)
   accumulators for the hot layer boundaries, and parent-linked spans
   for the coarse ones, written out as Chrome trace_event JSON once the
   traced pass ends. The untraced pass uses only the clock, to time
   set-up. *)

let now () = Int64.to_int (Monotonic_clock.now ())

type acc = { mutable calls : int; mutable ns : int }

let acc () = { calls = 0; ns = 0 }

let reset a =
  a.calls <- 0;
  a.ns <- 0

let add a t0 =
  a.ns <- a.ns + (now () - t0);
  a.calls <- a.calls + 1

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  cat : string;
  start : int;  (** ns, {!now} clock *)
  dur : int;
  args : (string * int) list;
}

let spans : span list ref = ref []
let next_id = ref 0

let clear_spans () =
  spans := [];
  next_id := 0

let fresh_id () =
  incr next_id;
  !next_id

(* Record a finished span [start, now). The id is allocated by the
   caller (so children can name their parent before it closes). *)
let record ~id ~parent ~name ~cat ~start ?(args = []) () =
  spans := { id; parent; name; cat; start; dur = now () - start; args } :: !spans

(* Run [f ~id] inside a span. *)
let with_span ~parent ~name ~cat f =
  let id = fresh_id () and start = now () in
  let r = f ~id in
  record ~id ~parent ~name ~cat ~start ();
  r

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome trace_event "complete" events, timestamps in microseconds
   relative to the earliest span; Perfetto and chrome://tracing nest
   them by time on the single track. *)
let write_chrome path =
  let all = List.rev !spans in
  let origin = List.fold_left (fun m s -> min m s.start) max_int all in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d"
        (json_string s.name) (json_string s.cat)
        (float_of_int (s.start - origin) /. 1e3)
        (float_of_int s.dur /. 1e3)
        s.id s.parent;
      List.iter (fun (k, v) -> Printf.fprintf oc ",%s:%d" (json_string k) v) s.args;
      output_string oc "}}")
    all;
  output_string oc "]}\n";
  close_out oc
