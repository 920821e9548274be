(* keyed_durable: SUM over the tumbling chain T10/T20/T40/T80 plus the
   hop W<60,20>, 20,000 device keys drawn Zipf(1.0), eta 8, batches of
   1024.  The shipped plan runs under Fw_snap.Checkpoint with a fixed
   checkpoint cadence and a fixed Fw_spill.Pool budget of about a
   quarter of the unbudgeted peak resident state.  Each pass crashes
   at a fixed event ordinal, recovers with Recover.load and feeds the
   rest; closed loop. *)

open Harness
module Optimizer = Shipped.Optimizer
module Checkpoint = Fw_snap.Checkpoint
module Pool = Fw_spill.Pool

let eta = 8
let horizon = 4000
let keys = 20_000
let every = 4096

(* About a quarter of the unbudgeted peak resident state of seed 1
   (Pool.peak_resident_bytes = 525,064 with an unbounded budget), so hot
   keys stay resident and the tail faults. *)
let budget = 131_072

let sql =
  "SELECT SUM(value) FROM input GROUP BY key, WINDOWS(\
   WINDOW(TUMBLINGWINDOW(second, 10)), WINDOW(TUMBLINGWINDOW(second, 20)), \
   WINDOW(TUMBLINGWINDOW(second, 40)), WINDOW(TUMBLINGWINDOW(second, 80)), \
   WINDOW(HOPPINGWINDOW(second, 60, 20)))"

(* Set-ups per sample: a set-up takes a fraction of a ms here. *)
let setup_batch = 16

(* Set-ups the traced run records spans of. *)
let traced_setups = 51

let mode = Fw_engine.Stream_exec.Incremental

let inputs seed =
  let events =
    gen_events ~seed ~keys ~key_dist:(Fw_workload.Event_gen.Zipf 1.0) ~eta
      ~horizon
  in
  (events, batches events)

(* The crash lands mid-batch, a little past the middle of the stream. *)
let crash_at n = (n / 2) + 333

(* Batches of the events after the crash ordinal, cut where the full
   stream's batches are, so the tail is fed as if nothing happened. *)
let tail_batches events k =
  let n = Array.length events and size = batch_size in
  let cut = min n ((k + size - 1) / size * size) in
  let head = batches (Array.sub events k (cut - k)) in
  Array.append head (batches (Array.sub events cut (n - cut)))

let pool opts = Pool.create ~dir:(scratch_dir opts "spill") ~budget ()

(* The checkpoint and spill directories every set-up of a run uses.
   A set-up that closes its pipeline leaves an empty WAL segment and row
   log behind, which the next one truncates: set-ups in fresh
   directories spent most of their time allocating inodes, and that
   time moved 3x with the host's I/O load. *)
let setup_dirs opts = (scratch_dir opts "setup-chk", scratch_dir opts "setup-spill")

(* SQL text to a checkpointed, budgeted pipeline ready to ingest; the
   time to get there, in ns.  Tear-down is not timed. *)
let setup ?rec_ (dir, spill_dir) () =
  let (cp, spill), ns =
    timed (fun () ->
        let t = Shipped.compile ?rec_ ~eta sql in
        let spill = Pool.create ~dir:spill_dir ~budget () in
        ( span rec_ ~name:"snap.create" (fun _ ->
              Checkpoint.create ~dir ~every ~mode ~spill
                (Optimizer.optimized_plan t)),
          spill ))
  in
  ignore (Checkpoint.close cp ~horizon);
  Pool.close spill;
  ns

let alloc_probe seed =
  let opts =
    { workload = "keyed_durable"; seed; seconds = 0.0; trace = false; out_dir = ".perfbench-out" }
  in
  Fun.protect ~finally:(fun () -> cleanup opts) (fun () ->
      let _, batches = inputs seed in
      let t = Shipped.compile ~eta sql in
      let spill = pool opts in
      let w =
        Shipped.minor_words_per_event ~spill ~horizon (Optimizer.optimized_plan t) batches
      in
      Pool.close spill;
      w)

(* Bytes of every WAL segment seen so far, by segment: a segment's
   final size is observed before retention prunes it. *)
let note_wal dir seen =
  Array.iter
    (fun f ->
      match Checkpoint.wal_seq f with
      | Some g -> (
          match (Unix.stat (Filename.concat dir f)).Unix.st_size with
          | size ->
              if size > Option.value ~default:0 (Hashtbl.find_opt seen g) then
                Hashtbl.replace seen g size
          | exception Unix.Unix_error _ -> ())
      | None -> ())
    (try Sys.readdir dir with Sys_error _ -> [||])

let hist_max metrics name =
  match Fw_obs.Registry.find (Fw_engine.Metrics.registry metrics) name with
  | Some (Fw_obs.Registry.Histogram h) ->
      float_of_int (Option.value ~default:0 (Fw_obs.Histogram.max_value h))
  | _ -> 0.0

type pass = {
  rate : float;  (** events per second, feeds + close, recovery excluded *)
  lat_ns : float list;
  heap_mb : float;
  recovery_s : float;
  replayed : int;
  pause_max_ns : float;
  snapshot_bytes : float;
  wal_bytes : int;
  faults : int;
  evictions : int;
  peak_resident : int;
}

let durable_pass ?rec_ opts ops ~reference plan events batches tail =
  let n = Array.length events in
  let k = crash_at n in
  let probe = heap_probe () in
  let dir = scratch_dir opts "chk" in
  let wal = Hashtbl.create 16 in
  let trace_wal () = if rec_ <> None then note_wal dir wal in
  let lat = ref [] and busy = ref 0 and heap_mb = ref 0.0 in
  let feed cp ~what i b =
    let r, ns =
      timed (fun () ->
          ops.n_attempted <- ops.n_attempted + 1;
          match span rec_ ~tag:i ~name:"snap.feed_batch" (fun _ -> Checkpoint.feed_batch cp b) with
          | () -> `Fed
          | exception Fw_snap.Fault.Crash _ -> `Crashed
          | exception e ->
              fail ops (Printf.sprintf "%s feed_batch raised %s" what (Printexc.to_string e));
              `Fed)
    in
    busy := !busy + ns;
    lat := float_of_int ns :: !lat;
    trace_wal ();
    r
  in
  let metrics = Fw_engine.Metrics.create () in
  let spill1 = pool opts in
  let cp =
    span rec_ ~name:"snap.create" (fun _ ->
        Checkpoint.create ~dir ~every ~mode ~spill:spill1 ~metrics
          ~fault:(Fw_snap.Fault.create ~crash_at_event:k ())
          plan)
  in
  let rec until_crash i =
    if i >= Array.length batches then false
    else match feed cp ~what:"pre-crash" i batches.(i) with
      | `Crashed -> true
      | `Fed -> until_crash (i + 1)
  in
  if not (until_crash 0) then fail ops "no crash at the configured ordinal";
  let pause1 = hist_max metrics "snap_checkpoint_pause_ns" in
  let snap1 = hist_max metrics "snap_checkpoint_bytes" in
  let f1 = Pool.faults spill1 and e1 = Pool.evictions spill1 in
  let peak1 = Pool.peak_resident_bytes spill1 in
  Pool.close spill1;
  let spill2 = pool opts in
  let recovered, rec_ns =
    timed (fun () ->
        op ops ~what:"recover" (fun () ->
            span rec_ ~name:"snap.recover" (fun _ ->
                match Fw_snap.Recover.load ~dir ~every ~mode ~spill:spill2 plan with
                | Ok r -> r
                | Error e -> failwith e)))
  in
  let result =
    match recovered with
    | None -> None
    | Some r ->
        let cp = r.Fw_snap.Recover.checkpoint in
        Array.iteri (fun i b -> ignore (feed cp ~what:"post-recovery" i b)) tail;
        let rows, close_ns =
          timed (fun () ->
              op ops ~what:"close" (fun () ->
                  span rec_ ~name:"snap.close" (fun _ -> Checkpoint.close cp ~horizon)))
        in
        busy := !busy + close_ns;
        heap_mb := heap_net_mb probe;
        trace_wal ();
        Option.iter (Shipped.check_rows ops ~what:"recovered run" ~reference) rows;
        let m2 = r.Fw_snap.Recover.metrics in
        Some
          ( r.Fw_snap.Recover.replayed_events,
            max pause1 (hist_max m2 "snap_checkpoint_pause_ns"),
            max snap1 (hist_max m2 "snap_checkpoint_bytes") )
  in
  let replayed, pause_max_ns, snapshot_bytes =
    Option.value ~default:(0, pause1, snap1) result
  in
  let p =
    {
      rate = float_of_int n /. secs_of_ns !busy;
      lat_ns = List.rev !lat;
      heap_mb = !heap_mb;
      recovery_s = secs_of_ns rec_ns;
      replayed;
      pause_max_ns;
      snapshot_bytes;
      wal_bytes = Hashtbl.fold (fun _ b a -> a + b) wal 0;
      faults = f1 + Pool.faults spill2;
      evictions = e1 + Pool.evictions spill2;
      peak_resident = max peak1 (Pool.peak_resident_bytes spill2);
    }
  in
  Pool.close spill2;
  rm_rf dir;
  p

let run opts =
  let events, batches = inputs opts.seed in
  let n = Array.length events in
  let tail = tail_batches events (crash_at n) in
  let ops = ops () in
  let rec_ = if opts.trace then Some (recorder ()) else None in
  (* first, so the allocation signal sees the same process state as
     --alloc-probe *)
  let words = if opts.trace then alloc_probe opts.seed else 0.0 in
  let dirs = setup_dirs opts in
  let t = Shipped.compile ~eta sql in
  let plan = Optimizer.optimized_plan t in
  let reference =
    Fw_engine.Oracle.run_plan (Optimizer.naive_plan t) ~horizon
      (Array.to_list events)
  in
  let pass ?rec_ () =
    durable_pass ?rec_ opts ops ~reference plan events batches tail
  in
  let durable ?rec_ seconds = repeat_for ~seconds (pass ?rec_) in
  let rates ps = List.map (fun p -> p.rate) ps in
  let rate ps = pass_rate (rates ps) in
  let med f ps = median (List.map f ps) in
  let latencies ps = List.map (fun p -> p.lat_ns) ps in
  let info =
    [
      ("events per pass", string_of_int n);
      ("rows per pass", string_of_int (List.length reference));
      ("crash at event", string_of_int (crash_at n));
      ("pool budget bytes", string_of_int budget);
    ]
  in
  if not opts.trace then begin
    let ps, setups =
      repeat_with_setups ~seconds:opts.seconds
        ~setup:(fun () -> setup_sample ~reps:setup_batch (setup dirs))
        pass
    in
    outcome ops
      ~e2e:
        (end_to_end ~rates:(rates ps) ~setups
           ~heaps:(List.map (fun p -> p.heap_mb) ps))
      (info
      @ [
          ("passes", string_of_int (List.length ps));
          ("pass events/s min/p10/med/max", spread_info (rates ps));
          ("set-up ms min/p10/med/max", spread_info ~scale:1e3 setups);
          ( "result latency p50 / p99 ms",
            Printf.sprintf "%.2f / %.2f"
              (pass_p50 (latencies ps) /. 1e6)
              (p99 (List.concat (latencies ps)) /. 1e6) );
          ("recovery_s", Printf.sprintf "%.4f" (med (fun p -> p.recovery_s) ps));
        ])
  end
  else begin
    for _ = 1 to traced_setups do
      ignore (setup ?rec_ dirs ())
    done;
    let plain = durable (opts.seconds *. 0.4) in
    let traced = durable ?rec_ (opts.seconds *. 0.35) in
    (* the same batches through a bare budgeted engine: the engine's
       share of the checkpointed feed *)
    let bare =
      repeat_for ~seconds:(opts.seconds *. 0.25) (fun () ->
          let spill = pool opts in
          let p =
            Shipped.engine_pass ?rec_ ~spill ops ~what:"bare engine" ~reference
              ~horizon plan batches
          in
          Pool.close spill;
          p)
    in
    let spans = spans_of rec_ in
    let selfs = self_times spans in
    let fn = float_of_int n in
    let per_event name passes =
      sum (self_of name selfs) /. (fn *. float_of_int (List.length passes))
    in
    outcome ops
      ~layers:
        (Shipped.optimizer_layers t plan selfs
        @ Shipped.engine_layers ~words ~n spans selfs bare
        @ [
            m "snap.wal_ns_per_event" "ns"
              (per_event "snap.feed_batch" traced -. per_event "engine.feed_batch" bare);
            m "snap.checkpoint_pause_max_ms" "ms" (med (fun p -> p.pause_max_ns) traced /. 1e6);
            m "snap.snapshot_bytes" "bytes" (med (fun p -> p.snapshot_bytes) traced);
            m "snap.wal_bytes_per_event" "bytes/event"
              (med (fun p -> float_of_int p.wal_bytes) traced /. fn);
            m "snap.replayed_events" "count" (med (fun p -> float_of_int p.replayed) traced);
            m "recovery_s" "s" (median (durs_of "snap.recover" spans) /. 1e9);
            m "spill.faults_per_event" "1/event" (med (fun p -> float_of_int p.faults) traced /. fn);
            m "spill.evictions_per_event" "1/event"
              (med (fun p -> float_of_int p.evictions) traced /. fn);
            m "spill.peak_resident_bytes" "bytes"
              (med (fun p -> float_of_int p.peak_resident) traced);
            overhead_pct ~plain:(rate plain) ~traced:(rate traced);
          ]
        @ latency_layers (latencies plain))
      (info @ [ ("spans", write_spans opts spans) ])
  end
