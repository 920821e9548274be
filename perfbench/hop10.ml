(* hop10_rewrite: MIN over the ten hopping windows W<50i, i>, i = 1..10,
   executing the plan the optimizer ships (it adds factor windows
   here) on the incremental engine.  4 uniform keys, eta 4, batches of
   1024, closed loop; no durability, spill or HTTP. *)

open Harness
module Optimizer = Shipped.Optimizer

let eta = 4
let horizon = 5000

let sql =
  Printf.sprintf "SELECT MIN(value) FROM input GROUP BY key, WINDOWS(%s)"
    (String.concat ", "
       (List.init 10 (fun i ->
            Printf.sprintf "WINDOW(HOPPINGWINDOW(second, %d, %d))"
              (50 * (i + 1))
              (i + 1))))

(* Set-ups per sample: a set-up takes a few ms here. *)
let setup_batch = 8

(* Set-ups the traced run records spans of. *)
let traced_setups = 51

let inputs seed =
  let events =
    gen_events ~seed ~keys:4 ~key_dist:Fw_workload.Event_gen.Uniform ~eta
      ~horizon
  in
  (events, batches events)

(* SQL text to a ready-to-ingest engine; the time to get there, in ns. *)
let setup ?rec_ () =
  snd
    (timed (fun () ->
         let t = Shipped.compile ?rec_ ~eta sql in
         let plan = Optimizer.optimized_plan t in
         span rec_ ~name:"engine.create" (fun _ ->
             Fw_engine.Stream_exec.create
               ~mode:Fw_engine.Stream_exec.Incremental plan)))

let alloc_probe seed =
  let _, batches = inputs seed in
  let t = Shipped.compile ~eta sql in
  Shipped.minor_words_per_event ~horizon (Optimizer.optimized_plan t) batches

let run opts =
  let events, batches = inputs opts.seed in
  let n = Array.length events in
  let ops = ops () in
  let rec_ = if opts.trace then Some (recorder ()) else None in
  (* first, so the allocation signal sees the same process state as
     --alloc-probe *)
  let words = if opts.trace then alloc_probe opts.seed else 0.0 in
  let t = Shipped.compile ~eta sql in
  let plan = Optimizer.optimized_plan t in
  (* reference: the naive plan through the batch oracle, untimed *)
  let reference =
    Fw_engine.Oracle.run_plan (Optimizer.naive_plan t) ~horizon
      (Array.to_list events)
  in
  let pass ?rec_ ~what plan () =
    Shipped.engine_pass ?rec_ ops ~what ~reference ~horizon plan batches
  in
  let chosen = pass ~what:"chosen plan" plan in
  let rates ps = List.map (fun p -> p.Shipped.rate) ps in
  let rate ps = pass_rate (rates ps) in
  let latencies ps = List.map (fun p -> p.Shipped.lat_ns) ps in
  let info =
    [
      ("events per pass", string_of_int n);
      ("rows per pass", string_of_int (List.length reference));
    ]
  in
  if not opts.trace then begin
    let ps, setups =
      repeat_with_setups ~seconds:opts.seconds ~min:3
        ~setup:(fun () -> setup_sample ~reps:setup_batch setup)
        chosen
    in
    outcome ops
      ~e2e:
        (end_to_end ~rates:(rates ps) ~setups
           ~heaps:(List.map (fun p -> p.Shipped.heap_mb) ps))
      (info
      @ [
          ("passes", string_of_int (List.length ps));
          ("pass events/s min/p10/med/max", spread_info (rates ps));
          ("set-up ms min/p10/med/max", spread_info ~scale:1e3 setups);
          ( "result latency p50 / p99 ms",
            Printf.sprintf "%.2f / %.2f"
              (pass_p50 (latencies ps) /. 1e6)
              (p99 (List.concat (latencies ps)) /. 1e6) );
        ])
  end
  else begin
    for _ = 1 to traced_setups do
      ignore (setup ?rec_ ())
    done;
    (* untraced chosen-plan passes, each followed by a pass of the naive
       plan on the same engine, so both sides of the paper's claim see
       the same host load *)
    let pairs =
      repeat_for ~seconds:(opts.seconds *. 0.6) ~min:3 (fun () ->
          let c = chosen () in
          (c, pass ~what:"naive plan" (Optimizer.naive_plan t) ()))
    in
    let plain = List.map fst pairs and naive = List.map snd pairs in
    let traced =
      repeat_for ~seconds:(opts.seconds *. 0.4) ~min:3 (pass ?rec_ ~what:"chosen plan" plan)
    in
    let spans = spans_of rec_ in
    let selfs = self_times spans in
    outcome ops
      ~layers:
        (Shipped.optimizer_layers t plan selfs
        @ [ m "optimizer.measured_speedup" "x" (ratio (rate plain) (rate naive)) ]
        @ Shipped.engine_layers ~words ~n spans selfs traced
        @ [
            overhead_pct ~plain:(rate plain) ~traced:(rate traced);
          ]
        @ latency_layers (latencies plain))
      (info
      @ [
          ("naive-plan events/s", Printf.sprintf "%.0f" (rate naive));
          ("chosen-plan events/s", Printf.sprintf "%.0f" (rate plain));
          ("spans", write_spans opts spans);
        ])
  end
