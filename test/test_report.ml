(* Golden tests for the BENCH_*.json printer and the table specs
   (lib/report, lib/experiments): the exact serialized form of an
   awkward document — non-finite floats, quotes and control characters
   inside strings, empty containers — is pinned and re-parsed with a
   minimal in-test JSON reader; the document's key list is checked;
   and one fixed row per registered section is pinned through its real
   column spec: text header, text row and JSON bytes. *)

(* -------------------------------------------------------------- *)
(* A minimal JSON reader (for this test only)                     *)
(* -------------------------------------------------------------- *)

type json =
  | JNull
  | JBool of bool
  | JNum of float
  | JStr of string
  | JList of json list
  | JObj of (string * json) list

exception Bad of string

let parse (s : string) : json =
  let i = ref 0 in
  let len = String.length s in
  let peek () = if !i < len then Some s.[!i] else None in
  let advance () = incr i in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> raise (Bad (Printf.sprintf "expected %c at %d" c !i))
  in
  let literal word v =
    if !i + String.length word <= len && String.sub s !i (String.length word) = word
    then begin
      i := !i + String.length word;
      v
    end
    else raise (Bad ("bad literal at " ^ string_of_int !i))
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> raise (Bad "unterminated string")
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some '"' -> Buffer.add_char b '"'; advance ()
        | Some '\\' -> Buffer.add_char b '\\'; advance ()
        | Some 'n' -> Buffer.add_char b '\n'; advance ()
        | Some 't' -> Buffer.add_char b '\t'; advance ()
        | Some 'r' -> Buffer.add_char b '\r'; advance ()
        | Some 'u' ->
          advance ();
          if !i + 4 > len then raise (Bad "bad \\u escape");
          let code = int_of_string ("0x" ^ String.sub s !i 4) in
          i := !i + 4;
          if code < 128 then Buffer.add_char b (Char.chr code)
          else raise (Bad "non-ascii \\u escape")
        | _ -> raise (Bad "unknown escape"));
        go ()
      | Some c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !i in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> num_char c | None -> false) do
      advance ()
    done;
    JNum (float_of_string (String.sub s start (!i - start)))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some 'n' -> literal "null" JNull
    | Some 't' -> literal "true" (JBool true)
    | Some 'f' -> literal "false" (JBool false)
    | Some '"' -> JStr (parse_string ())
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        JList []
      end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> raise (Bad "expected , or ]")
        in
        JList (items [])
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        JObj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((k, v) :: acc)
          | _ -> raise (Bad "expected , or }")
        in
        JObj (members [])
      end
    | _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !i <> len then raise (Bad "trailing garbage");
  v

(* -------------------------------------------------------------- *)
(* The pinned document                                             *)
(* -------------------------------------------------------------- *)

let awkward_doc =
  Report.Obj
    [
      ("schema_version", Report.Int 1);
      ("not_a_number", Report.Float Float.nan);
      ("too_big", Report.Float Float.infinity);
      ("too_small", Report.Float Float.neg_infinity);
      ("quoted", Report.Str {|he said "hi" \ bye|});
      ("control", Report.Str "tab\there\nline\x01end");
      ("empty_list", Report.List []);
      ("empty_obj", Report.Obj []);
      ( "rows",
        Report.List
          [ Report.Obj [ ("pass", Report.Bool true) ]; Report.Null ] );
      ("avg", Report.Float 1.5);
    ]

let golden =
  "{\n\
  \  \"schema_version\": 1,\n\
  \  \"not_a_number\": null,\n\
  \  \"too_big\": null,\n\
  \  \"too_small\": null,\n\
  \  \"quoted\": \"he said \\\"hi\\\" \\\\ bye\",\n\
  \  \"control\": \"tab\\there\\nline\\u0001end\",\n\
  \  \"empty_list\": [],\n\
  \  \"empty_obj\": {},\n\
  \  \"rows\": [\n\
  \    {\n\
  \      \"pass\": true\n\
  \    },\n\
  \    null\n\
  \  ],\n\
  \  \"avg\": 1.5\n\
   }\n"

let test_golden_exact () =
  Alcotest.(check string)
    "serialized form is pinned" golden
    (Report.to_string awkward_doc)

let test_reparse () =
  match parse (Report.to_string awkward_doc) with
  | JObj kvs ->
    let get k = List.assoc k kvs in
    (* non-finite floats became null *)
    List.iter
      (fun k ->
        match get k with
        | JNull -> ()
        | _ -> Alcotest.failf "%s must serialize as null" k)
      [ "not_a_number"; "too_big"; "too_small" ];
    (* escaped strings round-trip *)
    (match get "quoted" with
    | JStr s ->
      Alcotest.(check string) "quotes round-trip" {|he said "hi" \ bye|} s
    | _ -> Alcotest.fail "quoted: not a string");
    (match get "control" with
    | JStr s ->
      Alcotest.(check string) "control chars round-trip" "tab\there\nline\x01end" s
    | _ -> Alcotest.fail "control: not a string");
    (match get "rows" with
    | JList [ JObj [ ("pass", JBool true) ]; JNull ] -> ()
    | _ -> Alcotest.fail "rows: wrong structure");
    (match get "avg" with
    | JNum f -> Alcotest.(check (float 1e-9)) "number round-trips" 1.5 f
    | _ -> Alcotest.fail "avg: not a number")
  | _ -> Alcotest.fail "top level must be an object"

(* The document's top-level keys: schema metadata, then one key per
   section of the registry, in order. The bench builds its document
   from this same registry, so this pins the schema consumers see. *)
let test_schema_keys () =
  let doc =
    Experiments.document
      (List.map
         (fun (s : Experiments.section) -> (s.key, Report.Null))
         Experiments.sections)
  in
  match doc with
  | Report.Obj kvs ->
    Alcotest.(check (list string))
      "documented top-level keys"
      [
        "schema_version";
        "generated_at_unix";
        "e_table";
        "b1_latency";
        "b2_stabilization";
        "b3_dag_growth";
        "b5_ablation";
        "b6_model_check";
        "b7_fault_latency";
        "b8_fuzz";
        "b9_parallel";
        "b10_serve";
        "b11_dpor";
        "b12_codec";
        "b13_quorum";
        "b14_ring";
        "b4_micro";
        "run_metrics";
      ]
      (List.map fst kvs)
  | _ -> Alcotest.fail "the document must be an object"

(* -------------------------------------------------------------- *)
(* One pinned row per registered section                          *)
(* -------------------------------------------------------------- *)

let e_row : Experiments.row =
  {
    id = "E4";
    theorem = "Thm 6.27: A_nuc with (Omega, Sigma-nu+)";
    expected = "termination, validity, NU agreement in every E_t";
    measured = "6/6 runs conform";
    pass = true;
  }

let latency_row : Experiments.latency_row =
  {
    algorithm = "A_nuc";
    n = 3;
    t = 1;
    runs = 1;
    decided = 1;
    avg_rounds = 3.;
    avg_steps = 62.;
    avg_msgs = 81.;
    avg_hwm = 25.;
  }

let stack_row : Experiments.latency_row =
  {
    algorithm = "Stack";
    n = 4;
    t = 1;
    runs = 1;
    decided = 1;
    avg_rounds = 3.5;
    avg_steps = 2136.;
    avg_msgs = 2426.;
    avg_hwm = 76.;
  }

let stab_row : string * Experiments.stab_row =
  ("A_nuc", { stab_time = 150; s_runs = 1; s_avg_steps = 246. })

let dag_row : Experiments.dag_row =
  {
    d_steps = 400;
    dag_nodes = 398;
    spine_len = 79;
    extractions_total = 91;
    d_msgs = 400;
    d_hwm = 122;
    wall_ms = 41.625;
  }

let ablation_row : Experiments.ablation_row =
  {
    variant = "A_nuc[-distrust,-awareness]";
    script_outcome = "VIOLATED nonuniform agreement";
    script_violated = true;
    sweep_runs = 6;
    sweep_violations = 0;
    a_avg_rounds = 1.;
  }

let mc_row : Experiments.mc_row =
  {
    mc_algorithm = "naive-Sn";
    mc_menu = "Sigma-nu contamination family";
    mc_depth = 32;
    mc_stats =
      {
        Mc.transitions = 269087;
        distinct_states = 74236;
        dedup_hits = 55233;
        self_loops = 1234;
        sleep_skipped = 567;
        races = 0;
        backtracks = 0;
        decided_leaves = 89;
        depth_leaves = 0;
        max_depth = 32;
        truncated = false;
        wall_seconds = 2.5;
      };
    mc_outcome = "32-step cx, replay ok, history legal";
    mc_pass = true;
  }

let fault_row : Experiments.fault_row =
  {
    f_algorithm = "A_nuc";
    f_drop = 0.2;
    f_runs = 10;
    f_decided = 0;
    f_budget = 6000;
    f_avg_steps = Float.nan;
    f_avg_dropped = 282.875;
  }

let fuzz_row : Experiments.fuzz_row =
  {
    fz_algorithm = "A_nuc";
    fz_mode = "swarm";
    fz_runs = 1000;
    fz_steps = 90000;
    fz_runs_per_sec = 106.25;
    fz_states = 65306;
    fz_last_new_states = 65306;
    fz_shrink_ratio = Float.nan;
    fz_outcome = "no violation";
  }

let b9_row : Experiments.b9_row =
  {
    b9_workload = "mc A_nuc E_1(3) depth 9";
    b9_jobs = 4;
    b9_wall = 0.25;
    b9_throughput = 120000.;
    b9_speedup = 2.5;
    b9_equal = true;
  }

let b10_row : Experiments.b10_row =
  {
    b10_substrate = "exec(j=2)";
    b10_clients = 50;
    b10_batch = 4;
    b10_window = 16;
    b10_slots = 200;
    b10_ops = 780;
    b10_steps = 410000;
    b10_wall = 1.5;
    b10_ops_per_sec = 520.;
    b10_p50 = 96.;
    b10_p99 = 2048.;
    b10_divergent = false;
  }

let b11_row : Experiments.b11_row =
  {
    b11_algorithm = "A_nuc";
    b11_reduction = "dpor";
    b11_depth = 7;
    b11_transitions = 18499;
    b11_states = 10332;
    b11_dedup = 6182;
    b11_self_loops = 12777;
    b11_sleep_skipped = 17572;
    b11_races = 25026;
    b11_backtracks = 8310;
    b11_wall = 0.092;
    b11_outcome = "exhausted";
    b11_pass = true;
  }

let b12_row : Experiments.b12_row =
  {
    b12_depth = 7;
    b12_states = 6277;
    b12_heap_bytes = 481.75;
    b12_packed_bytes = 67.5;
    b12_ratio = 481.75 /. 67.5;
    b12_pass = true;
  }

let b13_row : Experiments.b13_row =
  {
    b13_family = "grid:2x2";
    b13_n = 4;
    b13_t = 2;
    b13_minq = 3;
    b13_resilience = 1;
    b13_runs = 6;
    b13_live = 0;
    b13_decided = 0;
    b13_avg_rounds = Float.nan;
    b13_avg_steps = Float.nan;
    b13_pass = true;
  }

let b14_row : Experiments.b14_row =
  {
    b14_read_mode = "snapshot";
    b14_jobs = 2;
    b14_slots = 120;
    b14_ops = 120;
    b14_ops_per_sec = 64.;
    b14_reads = 20000;
    b14_reads_per_sec = 12000000.;
    b14_read_p50_us = 0.0625;
    b14_read_p99_us = 0.5;
    b14_stale_max = 7;
    b14_stale_bound = 7;
    b14_snapshots = 16;
    b14_lock_ops = 0;
    b14_cas_retries = 3;
    b14_sync_ops = 2523;
    b14_divergent = false;
    b14_stale_ok = true;
  }

let micro_row = ("micro/pset-inter-subset", Some 104.25)

let metrics : Sim.Runner.metrics =
  {
    steps_per_process = [| 64; 64; 64; 64 |];
    sent = 266;
    delivered = 249;
    dropped = 0;
    duplicated = 0;
    reordered = 0;
    undelivered_at_stop = 17;
    mailbox_hwm = 10;
    wall_seconds = 0.001;
  }

(* A fixed row and what its spec must render: the text header, the
   text row and the JSON (as a one-row list, the form every table
   section emits). The expected strings were produced by
   the hand-written printers these specs replaced, so any drift in a
   spec shows up here. Sections whose text is not a column table (the
   E-table, the run metrics) pin empty text. *)
type pin =
  | Pin : {
      spec : 'r Report.Table.t;
      row : 'r;
      header : string;
      line : string;
      json : string;
    }
      -> pin

let pins =
  [
    ( "e_table",
      Pin
        {
          spec = Experiments.row_spec;
          row = e_row;
          header =
            "";
          line =
            "";
          json =
            "[\n\
             \  {\n\
             \    \"id\": \"E4\",\n\
             \    \"theorem\": \"Thm 6.27: A_nuc with (Omega, Sigma-nu+)\",\n\
             \    \"expected\": \"termination, validity, NU agreement in every E_t\",\n\
             \    \"measured\": \"6/6 runs conform\",\n\
             \    \"pass\": true\n\
             \  }\n\
             ]\n";
        } );
    ( "b1_latency",
      Pin
        {
          spec = Experiments.latency_spec;
          row = latency_row;
          header =
            "algorithm      n   t  runs  decided   rounds      steps   messages  mbox_hwm";
          line =
            "A_nuc          3   1     1        1     3.00       62.0       81.0      25.0";
          json =
            "[\n\
             \  {\n\
             \    \"algorithm\": \"A_nuc\",\n\
             \    \"n\": 3,\n\
             \    \"t\": 1,\n\
             \    \"runs\": 1,\n\
             \    \"decided\": 1,\n\
             \    \"avg_rounds\": 3,\n\
             \    \"avg_steps\": 62,\n\
             \    \"avg_msgs\": 81,\n\
             \    \"avg_mailbox_hwm\": 25\n\
             \  }\n\
             ]\n";
        } );
    ( "b2_stabilization",
      Pin
        {
          spec = Experiments.stab_spec;
          row = stab_row;
          header =
            "algorithm     stab_time     runs    avg_steps";
          line =
            "A_nuc               150        1        246.0";
          json =
            "[\n\
             \  {\n\
             \    \"algorithm\": \"A_nuc\",\n\
             \    \"stab_time\": 150,\n\
             \    \"runs\": 1,\n\
             \    \"avg_steps\": 246\n\
             \  }\n\
             ]\n";
        } );
    ( "b3_dag_growth",
      Pin
        {
          spec = Experiments.dag_spec;
          row = dag_row;
          header =
            "   steps  dag_nodes  weave_len  extractions   messages  mbox_hwm    wall_ms";
          line =
            "     400        398         79           91        400       122       41.6";
          json =
            "[\n\
             \  {\n\
             \    \"steps\": 400,\n\
             \    \"dag_nodes\": 398,\n\
             \    \"weave_len\": 79,\n\
             \    \"extractions\": 91,\n\
             \    \"messages_sent\": 400,\n\
             \    \"mailbox_hwm\": 122,\n\
             \    \"wall_ms\": 41.625\n\
             \  }\n\
             ]\n";
        } );
    ( "b5_ablation",
      Pin
        {
          spec = Experiments.ablation_spec;
          row = ablation_row;
          header =
            "variant                      scripted Sec-6.3 adversary                     runs  viols  rounds";
          line =
            "A_nuc[-distrust,-awareness]  VIOLATED nonuniform agreement                     6      0    1.00";
          json =
            "[\n\
             \  {\n\
             \    \"variant\": \"A_nuc[-distrust,-awareness]\",\n\
             \    \"script_outcome\": \"VIOLATED nonuniform agreement\",\n\
             \    \"script_violated\": true,\n\
             \    \"sweep_runs\": 6,\n\
             \    \"sweep_violations\": 0,\n\
             \    \"avg_rounds\": 1\n\
             \  }\n\
             ]\n";
        } );
    ( "b6_model_check",
      Pin
        {
          spec = Experiments.mc_spec;
          row = mc_row;
          header =
            "algorithm    menu                                   depth  transitions    states      dedup  states/s outcome                 ";
          line =
            "naive-Sn     Sigma-nu contamination family             32       269087     74236      55233     29694 32-step cx, replay ok, history legal";
          json =
            "[\n\
             \  {\n\
             \    \"algorithm\": \"naive-Sn\",\n\
             \    \"menu\": \"Sigma-nu contamination family\",\n\
             \    \"depth\": 32,\n\
             \    \"transitions\": 269087,\n\
             \    \"distinct_states\": 74236,\n\
             \    \"dedup_hits\": 55233,\n\
             \    \"self_loops\": 1234,\n\
             \    \"sleep_skipped\": 567,\n\
             \    \"races\": 0,\n\
             \    \"backtracks\": 0,\n\
             \    \"decided_leaves\": 89,\n\
             \    \"depth_leaves\": 0,\n\
             \    \"truncated\": false,\n\
             \    \"wall_seconds\": 2.5,\n\
             \    \"states_per_sec\": 29694.4,\n\
             \    \"outcome\": \"32-step cx, replay ok, history legal\",\n\
             \    \"pass\": true\n\
             \  }\n\
             ]\n";
        } );
    ( "b7_fault_latency",
      Pin
        {
          spec = Experiments.fault_spec;
          row = fault_row;
          header =
            "algorithm      drop  runs  decided   budget   steps_dec  net_dropped";
          line =
            "A_nuc          0.20    10        0     6000         nan        282.9";
          json =
            "[\n\
             \  {\n\
             \    \"algorithm\": \"A_nuc\",\n\
             \    \"drop_rate\": 0.2,\n\
             \    \"runs\": 10,\n\
             \    \"decided\": 0,\n\
             \    \"step_budget\": 6000,\n\
             \    \"avg_steps_decided\": null,\n\
             \    \"avg_net_dropped\": 282.875\n\
             \  }\n\
             ]\n";
        } );
    ( "b8_fuzz",
      Pin
        {
          spec = Experiments.fuzz_spec;
          row = fuzz_row;
          header =
            "algorithm  mode                 runs      steps    runs/s    states   last+new  shrink outcome                     ";
          line =
            "A_nuc      swarm                1000      90000       106     65306      65306       - no violation                ";
          json =
            "[\n\
             \  {\n\
             \    \"algorithm\": \"A_nuc\",\n\
             \    \"mode\": \"swarm\",\n\
             \    \"runs\": 1000,\n\
             \    \"steps\": 90000,\n\
             \    \"runs_per_sec\": 106.25,\n\
             \    \"distinct_states\": 65306,\n\
             \    \"last_batch_new_states\": 65306,\n\
             \    \"shrink_ratio\": null,\n\
             \    \"outcome\": \"no violation\"\n\
             \  }\n\
             ]\n";
        } );
    ( "b9_parallel",
      Pin
        {
          spec = Experiments.b9_spec;
          row = b9_row;
          header =
            "workload                       jobs   wall(s)   throughput  speedup  equal";
          line =
            "mc A_nuc E_1(3) depth 9           4     0.250       120000    2.50x   true";
          json =
            "[\n\
             \  {\n\
             \    \"workload\": \"mc A_nuc E_1(3) depth 9\",\n\
             \    \"jobs\": 4,\n\
             \    \"wall_seconds\": 0.25,\n\
             \    \"throughput\": 120000,\n\
             \    \"speedup\": 2.5,\n\
             \    \"sequential_equivalent\": true\n\
             \  }\n\
             ]\n";
        } );
    ( "b10_serve",
      Pin
        {
          spec = Experiments.b10_spec;
          row = b10_row;
          header =
            "substrate    clients batch window slots    ops     steps  wall(s)     ops/s  p50(tk)  p99(tk)   div";
          line =
            "exec(j=2)         50     4     16   200    780    410000    1.500       520       96     2048 false";
          json =
            "[\n\
             \  {\n\
             \    \"substrate\": \"exec(j=2)\",\n\
             \    \"clients\": 50,\n\
             \    \"batch\": 4,\n\
             \    \"window\": 16,\n\
             \    \"slots\": 200,\n\
             \    \"ops\": 780,\n\
             \    \"steps\": 410000,\n\
             \    \"wall_seconds\": 1.5,\n\
             \    \"ops_per_sec\": 520,\n\
             \    \"p50_ticks\": 96,\n\
             \    \"p99_ticks\": 2048,\n\
             \    \"divergent\": false\n\
             \  }\n\
             ]\n";
        } );
    ( "b11_dpor",
      Pin
        {
          spec = Experiments.b11_spec;
          row = b11_row;
          header =
            "algorithm  red    depth transitions    states     dedup  self-loop     slept   races  backtr  wall(s) outcome     pass";
          line =
            "A_nuc      dpor       7       18499     10332      6182      12777     17572   25026    8310    0.092 exhausted   true";
          json =
            "[\n\
             \  {\n\
             \    \"algorithm\": \"A_nuc\",\n\
             \    \"reduction\": \"dpor\",\n\
             \    \"depth\": 7,\n\
             \    \"transitions\": 18499,\n\
             \    \"distinct_states\": 10332,\n\
             \    \"dedup_hits\": 6182,\n\
             \    \"self_loops\": 12777,\n\
             \    \"sleep_skipped\": 17572,\n\
             \    \"races\": 25026,\n\
             \    \"backtracks\": 8310,\n\
             \    \"wall_seconds\": 0.092,\n\
             \    \"outcome\": \"exhausted\",\n\
             \    \"pass\": true\n\
             \  }\n\
             ]\n";
        } );
    ( "b12_codec",
      Pin
        {
          spec = Experiments.b12_spec;
          row = b12_row;
          header =
            "depth    states   heap(B/st)   packed(B/st)   ratio  pass";
          line =
            "    7      6277        481.8           67.5    7.1x  true";
          json =
            "[\n\
             \  {\n\
             \    \"depth\": 7,\n\
             \    \"distinct_states\": 6277,\n\
             \    \"heap_bytes_per_state\": 481.75,\n\
             \    \"packed_bytes_per_state\": 67.5,\n\
             \    \"ratio\": 7.13703703704,\n\
             \    \"pass\": true\n\
             \  }\n\
             ]\n";
        } );
    ( "b13_quorum",
      Pin
        {
          spec = Experiments.b13_spec;
          row = b13_row;
          header =
            "family                 n   t  minq  resil  runs  live  decided   rounds      steps  pass";
          line =
            "grid:2x2               4   2     3      1     6     0        0      nan        nan  true";
          json =
            "[\n\
             \  {\n\
             \    \"family\": \"grid:2x2\",\n\
             \    \"n\": 4,\n\
             \    \"t\": 2,\n\
             \    \"min_quorum\": 3,\n\
             \    \"resilience\": 1,\n\
             \    \"runs\": 6,\n\
             \    \"live\": 0,\n\
             \    \"decided\": 0,\n\
             \    \"avg_rounds\": null,\n\
             \    \"avg_steps\": null,\n\
             \    \"pass\": true\n\
             \  }\n\
             ]\n";
        } );
    ( "b14_ring",
      Pin
        {
          spec = Experiments.b14_spec;
          row = b14_row;
          header =
            "reads    jobs slots    ops     ops/s  reads    reads/s rp50(us) rp99(us) stale bound  lock_ops  cas_rt sync_ops    ok";
          line =
            "snapshot    2   120    120        64  20000   12000000    0.062    0.500     7     7         0       3     2523  true";
          json =
            "[\n\
             \  {\n\
             \    \"read_mode\": \"snapshot\",\n\
             \    \"jobs\": 2,\n\
             \    \"slots\": 120,\n\
             \    \"ops\": 120,\n\
             \    \"ops_per_sec\": 64,\n\
             \    \"reads\": 20000,\n\
             \    \"reads_per_sec\": 12000000,\n\
             \    \"read_p50_us\": 0.0625,\n\
             \    \"read_p99_us\": 0.5,\n\
             \    \"stale_max\": 7,\n\
             \    \"stale_bound\": 7,\n\
             \    \"snapshots\": 16,\n\
             \    \"lock_ops\": 0,\n\
             \    \"cas_retries\": 3,\n\
             \    \"sync_ops\": 2523,\n\
             \    \"divergent\": false,\n\
             \    \"stale_ok\": true\n\
             \  }\n\
             ]\n";
        } );
    ( "b4_micro",
      Pin
        {
          spec = Experiments.micro_spec;
          row = micro_row;
          header =
            "";
          line =
            "micro/pset-inter-subset                   104.2 ns/run";
          json =
            "[\n\
             \  {\n\
             \    \"name\": \"micro/pset-inter-subset\",\n\
             \    \"ns_per_run\": 104.25\n\
             \  }\n\
             ]\n";
        } );
    ( "run_metrics",
      Pin
        {
          spec = Experiments.metrics_spec;
          row = metrics;
          header =
            "";
          line =
            "";
          json =
            "[\n\
             \  {\n\
             \    \"steps_per_process\": [\n\
             \      64,\n\
             \      64,\n\
             \      64,\n\
             \      64\n\
             \    ],\n\
             \    \"messages_sent\": 266,\n\
             \    \"messages_delivered\": 249,\n\
             \    \"messages_dropped\": 0,\n\
             \    \"messages_duplicated\": 0,\n\
             \    \"messages_reordered\": 0,\n\
             \    \"messages_undelivered_at_stop\": 17,\n\
             \    \"mailbox_hwm\": 10,\n\
             \    \"wall_seconds\": 0.001\n\
             \  }\n\
             ]\n";
        } );
  ]

let short key = List.hd (String.split_on_char '_' key)

let test_pin key () =
  match List.assoc_opt key pins with
  | None -> Alcotest.failf "section %s has no pinned row" key
  | Some (Pin p) -> (
    Alcotest.(check string) "header line" p.header (Report.Table.header p.spec);
    Alcotest.(check string)
      "row line" p.line
      (Format.asprintf "%a" (Report.Table.pp_row p.spec) p.row);
    let json = Report.to_string (Report.Table.rows p.spec [ p.row ]) in
    Alcotest.(check string) "JSON bytes" p.json json;
    match parse json with
    | JList [ JObj _ ] -> ()
    | _ -> Alcotest.fail "a row must re-parse as a one-object list")

let test_pins_match_registry () =
  Alcotest.(check (list string))
    "one pin per section, in registry order"
    (List.map (fun (s : Experiments.section) -> s.key) Experiments.sections)
    (List.map fst pins)

(* B1 as the bench prints it: the header, then the Stack rows under a
   sub-heading after a blank line, exactly as the hand-written bench
   loop printed them. *)
let test_b1_subheading () =
  Alcotest.(check string)
    "B1 rows with the Stack sub-heading"
    "algorithm      n   t  runs  decided   rounds      steps   messages  mbox_hwm\n\
     A_nuc          3   1     1        1     3.00       62.0       81.0      25.0\n\
     \n\
     Stack (consensus from raw (Omega, Sigma-nu), incl. the emulation layer):\n\
     Stack          4   1     1        1     3.50     2136.0     2426.0      76.0\n"
    (Format.asprintf "%a"
       (Report.Table.print Experiments.latency_spec)
       [ latency_row; stack_row ])

(* A failed bechamel fit prints a placeholder, without the unit. *)
let test_b4_missing () =
  Alcotest.(check string)
    "B4 row without an estimate"
    "micro/x                           (no estimate)"
    (Format.asprintf "%a"
       (Report.Table.pp_row Experiments.micro_spec)
       ("micro/x", None))

let () =
  Alcotest.run "report"
    [
      ( "json-printer",
        [
          Alcotest.test_case "golden form" `Quick test_golden_exact;
          Alcotest.test_case "re-parses" `Quick test_reparse;
          Alcotest.test_case "schema keys" `Quick test_schema_keys;
          Alcotest.test_case "pins match the registry" `Quick
            test_pins_match_registry;
          Alcotest.test_case "b1 stack sub-heading" `Quick test_b1_subheading;
          Alcotest.test_case "b4 missing estimate" `Quick test_b4_missing;
        ]
        @ List.map
            (fun (s : Experiments.section) ->
              Alcotest.test_case
                (short s.key ^ " row pinned")
                `Quick (test_pin s.key))
            Experiments.sections );
    ]
