(* The shipped query path shared by the engine workloads: SQL text
   through the front end and the optimizer to the plan that
   [fwopt run --incremental] executes. *)

module Optimizer = Factor_windows.Optimizer
module Plan = Fw_plan.Plan
open Harness

(* Parse and analyze ([sqlfront.compile]), then optimize with factor
   windows on ([optimizer.optimize]), each its own span. *)
let compile ?rec_ ~eta sql =
  let analysis =
    span rec_ ~name:"sqlfront.compile" (fun _ ->
        match Fw_sql.Parser.parse_result sql with
        | Error e -> failwith ("parse: " ^ e)
        | Ok ast -> (
            match Fw_sql.Analyze.check ast with
            | Ok a -> a
            | Error e -> failwith (Format.asprintf "%a" Fw_sql.Analyze.pp_error e)))
  in
  span rec_ ~name:"optimizer.optimize" (fun _ ->
      Optimizer.optimize ~eta ~factor_windows:true analysis.Fw_sql.Analyze.agg
        analysis.Fw_sql.Analyze.windows)

(* Windows the rewrite added: computed, never exposed. *)
let factor_windows plan =
  List.length (Plan.all_windows plan) - List.length (Plan.exposed_windows plan)

(* Naive model cost over chosen model cost. *)
let predicted_speedup t =
  match (Optimizer.naive_cost t, Optimizer.optimized_cost t) with
  | Some n, Some c when c > 0 -> float_of_int n /. float_of_int c
  | _ -> 0.0

let check_rows ops ~what ~reference rows =
  if not (Fw_engine.Row.equal_sets reference rows) then
    fail ops
      (Printf.sprintf "%s: %d rows differ from the reference (%d vs %d rows)"
         what
         (List.length (Fw_engine.Row.diff reference rows))
         (List.length rows) (List.length reference))

(* One closed-loop pass of a fresh incremental engine over pre-built
   batches: [engine.create], one [engine.feed_batch] per batch, then
   [engine.close].  The rate covers feed and close; creation is set-up
   work.  Every feed and the close count as operations. *)
type pass = {
  rate : float;  (** events per second, feed + close *)
  lat_ns : float list;  (** per-batch feed wall time *)
  heap_mb : float;
  major_gcs : int;
  metrics : Fw_engine.Metrics.t;
  rows : int;
}

let engine_pass ?rec_ ?spill ops ~what ~reference ~horizon plan batches =
  let probe = heap_probe () in
  let gc0 = major_collections () in
  let metrics = Fw_engine.Metrics.create () in
  span rec_ ~name:"pass" (fun pid ->
      let exec =
        span rec_ ~parent:pid ~name:"engine.create" (fun _ ->
            Fw_engine.Stream_exec.create ~metrics
              ~mode:Fw_engine.Stream_exec.Incremental ?spill plan)
      in
      let lat = ref [] and busy = ref 0 and n = ref 0 in
      Array.iteri
        (fun i b ->
          let (), ns =
            timed (fun () ->
                ignore
                  (op ops ~what:"feed_batch" (fun () ->
                       span rec_ ~parent:pid ~tag:i ~name:"engine.feed_batch"
                         (fun _ -> Fw_engine.Stream_exec.feed_batch exec b))))
          in
          busy := !busy + ns;
          n := !n + Fw_engine.Batch.length b;
          lat := float_of_int ns :: !lat)
        batches;
      let rows, close_ns =
        timed (fun () ->
            op ops ~what:"close" (fun () ->
                span rec_ ~parent:pid ~name:"engine.close" (fun _ ->
                    Fw_engine.Stream_exec.close exec ~horizon)))
      in
      let heap_mb = heap_net_mb probe in
      let nrows =
        match rows with
        | Some rows ->
            check_rows ops ~what ~reference rows;
            List.length rows
        | None -> 0
      in
      ignore (Sys.opaque_identity exec);
      {
        rate = float_of_int !n /. secs_of_ns (!busy + close_ns);
        lat_ns = List.rev !lat;
        heap_mb;
        major_gcs = major_collections () - gc0;
        metrics;
        rows = nrows;
      })

(* Minor words per event of feeding and closing a fresh engine: the
   allocation signal, which repeats exactly for one seed. *)
let minor_words_per_event ?spill ~horizon plan batches =
  let exec =
    Fw_engine.Stream_exec.create ~mode:Fw_engine.Stream_exec.Incremental ?spill
      plan
  in
  let n = Array.fold_left (fun a b -> a + Fw_engine.Batch.length b) 0 batches in
  let _, words =
    minor_words (fun () ->
        Array.iter (Fw_engine.Stream_exec.feed_batch exec) batches;
        Fw_engine.Stream_exec.close exec ~horizon)
  in
  words /. float_of_int n

(* Front-end and optimizer layers; compile and optimize times come from
   the set-up spans. *)
let optimizer_layers t plan selfs =
  [
    m "sqlfront.compile_us" "us" (median (self_of "sqlfront.compile" selfs) /. 1e3);
    m "optimizer.optimize_us" "us" (median (self_of "optimizer.optimize" selfs) /. 1e3);
    m "optimizer.factor_windows" "count" (float_of_int (factor_windows plan));
    m "optimizer.predicted_speedup" "x" (predicted_speedup t);
  ]

(* Engine layers of traced engine passes over [n] events each. *)
let engine_layers ~words ~n spans selfs passes =
  let last = List.nth passes (List.length passes - 1) in
  let mt = last.metrics in
  let fn = float_of_int n in
  [
    m "engine.feed_ns_per_event" "ns"
      (sum (self_of "engine.feed_batch" selfs) /. (fn *. float_of_int (List.length passes)));
    m "engine.feed_batch_p99_us" "us" (p99 (durs_of "engine.feed_batch" spans) /. 1e3);
    m "engine.fallback_nodes" "count" (float_of_int (List.length (Fw_engine.Metrics.fallbacks mt)));
    m "engine.items_per_event" "items/event"
      (ratio
         (float_of_int (Fw_engine.Metrics.total_processed mt))
         (float_of_int (Fw_engine.Metrics.ingested mt)));
    m "engine.minor_words_per_event" "words/event" words;
    m "engine.major_gcs" "count" (median (List.map (fun p -> float_of_int p.major_gcs) passes));
    m "engine.close_ms" "ms" (median (self_of "engine.close" selfs) /. 1e6);
    m "engine.rows_per_event" "rows/event" (float_of_int last.rows /. fn);
    m "engine.create_us" "us" (median (self_of "engine.create" selfs) /. 1e3);
  ]
