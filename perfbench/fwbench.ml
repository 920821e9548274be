(* The repository benchmark.  One workload per run:

     fwbench.exe --workload NAME --seed N --seconds S --trace 0|1
     fwbench.exe --alloc-probe --workload NAME --seed N

   With --trace 0 it prints every end-to-end metric; with --trace 1 it
   wraps the same public calls in spans and prints the per-layer
   metrics instead.  The last stdout line is one JSON object
   {correct, attempted, failed, metrics}; the exit code is non-zero
   when any output differs from its reference.  --alloc-probe prints
   only the engine's minor words per event (engine workloads), which
   must repeat exactly for one seed. *)

open Harness

(* The per-layer metrics of layers a workload does not exercise: they
   read 0 there.  Every other declared metric must be measured. *)
let not_exercised = function
  | "hop10_rewrite" -> [ "snap."; "recovery_s"; "spill."; "serve."; "httpd."; "loadgen." ]
  | "keyed_durable" -> [ "optimizer.measured_speedup"; "serve."; "httpd."; "loadgen." ]
  | _ -> [ "sqlfront."; "optimizer."; "engine."; "snap."; "recovery_s"; "spill." ]

let workloads =
  [
    ("hop10_rewrite", (Hop10.run, Some Hop10.alloc_probe));
    ("keyed_durable", (Keyed.run, Some Keyed.alloc_probe));
    ("serve_fanout", (Fanout.run, None));
  ]

(* Every run reports exactly these, in this order, as BENCHMARK.json
   declares them (run.py --self-test checks the two agree). *)
let end_to_end =
  [
    ("events_per_sec", "1/s");
    ("setup_s", "s");
    ("heap_peak_mb", "MB");
  ]

let per_layer =
  [
    ("sqlfront.compile_us", "us");
    ("optimizer.optimize_us", "us");
    ("optimizer.factor_windows", "count");
    ("optimizer.predicted_speedup", "x");
    ("optimizer.measured_speedup", "x");
    ("engine.feed_ns_per_event", "ns");
    ("engine.feed_batch_p99_us", "us");
    ("engine.fallback_nodes", "count");
    ("engine.items_per_event", "items/event");
    ("engine.minor_words_per_event", "words/event");
    ("engine.major_gcs", "count");
    ("engine.close_ms", "ms");
    ("engine.rows_per_event", "rows/event");
    ("engine.create_us", "us");
    ("snap.wal_ns_per_event", "ns");
    ("snap.checkpoint_pause_max_ms", "ms");
    ("snap.snapshot_bytes", "bytes");
    ("snap.wal_bytes_per_event", "bytes/event");
    ("snap.replayed_events", "count");
    ("recovery_s", "s");
    ("spill.faults_per_event", "1/event");
    ("spill.evictions_per_event", "1/event");
    ("spill.peak_resident_bytes", "bytes");
    ("serve.register_us", "us");
    ("serve.plan_cache_hit_ratio", "ratio");
    ("serve.groups", "count");
    ("serve.ingest_p99_us", "us");
    ("serve.rows_p99_us", "us");
    ("httpd.transport_p50_us", "us");
    ("loadgen.lag_p99_ms", "ms");
    ("trace.overhead_pct", "%");
    ("result_latency_p50_ms", "ms");
    ("result_latency_p99_ms", "ms");
    ("result_latency_samples", "count");
    ("error_rate", "ratio");
  ]

(* [measured] in the order of [spec]; a metric of a layer the workload
   does not exercise reads 0, any other missing, undeclared or
   mis-unitted metric is an error. *)
let complete ~not_exercised spec measured =
  List.iter
    (fun x ->
      if not (List.mem_assoc x.name spec) then
        failwith (Printf.sprintf "metric %s is not declared" x.name))
    measured;
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun x -> x.name = name) measured with
      | Some x ->
          if x.unit <> unit then
            failwith (Printf.sprintf "metric %s: unit %s, expected %s" name x.unit unit);
          x
      | None when List.exists (fun p -> String.starts_with ~prefix:p name) not_exercised ->
          m name unit 0.0
      | None -> failwith (Printf.sprintf "metric %s was not measured" name))
    spec

let usage () =
  prerr_endline
    "usage: fwbench.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       fwbench.exe --alloc-probe --workload NAME --seed N";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref false and alloc = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string v;
        parse rest
    | "--trace" :: v :: rest ->
        trace := v = "1";
        parse rest
    | "--alloc-probe" :: rest ->
        alloc := true;
        parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let run, probe =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None -> usage ()
  in
  if !alloc then
    match probe with
    | Some probe -> Printf.printf "minor_words_per_event %.6f\n" (probe !seed)
    | None -> usage ()
  else begin
    let opts =
      {
        workload = !workload;
        seed = !seed;
        seconds = !seconds;
        trace = !trace;
        out_dir = ".perfbench-out";
      }
    in
    let o = Fun.protect ~finally:(fun () -> cleanup opts) (fun () -> run opts) in
    let error_rate = ratio (float_of_int o.failed) (float_of_int o.attempted) in
    let metrics =
      if opts.trace then
        complete ~not_exercised:(not_exercised opts.workload) per_layer
          (m "error_rate" "ratio" error_rate :: o.layers)
      else complete ~not_exercised:[] end_to_end o.e2e
    in
    Printf.printf "workload %s  seed %d  %s run\n" opts.workload opts.seed
      (if opts.trace then "traced" else "untraced");
    List.iter (fun (k, v) -> Printf.printf "  %-28s %s\n" k v) o.info;
    Printf.printf "  %-28s %d of %d operations failed (%.4f)\n" "error_rate"
      o.failed o.attempted error_rate;
    List.iter
      (fun x -> Printf.printf "  %-28s %14.6g %s\n" x.name x.value x.unit)
      metrics;
    List.iter (fun s -> Printf.eprintf "mismatch: %s\n" s) o.mismatches;
    let correct = o.failed = 0 in
    print_endline
      (result_line ~correct ~attempted:(max 1 o.attempted) ~failed:o.failed metrics);
    if not correct then exit 1
  end
