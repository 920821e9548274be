module Plan = Fw_plan.Plan
module Rewrite = Fw_plan.Rewrite
module Stream_exec = Fw_engine.Stream_exec
module Metrics = Fw_engine.Metrics
module Event = Fw_engine.Event
module Row = Fw_engine.Row
module Window = Fw_window.Window
module Exec = Fw_slicing.Exec

type path =
  | Reference_path
  | Naive_stream
  | Incremental_stream
  | Rewritten
  | Rewritten_no_factor
  | Sliced of Exec.mode * Exec.slicing
  | Crash_restart of Stream_exec.mode
  | Sharded_stream
  | Batched_stream
  | Sharded_batched
  | Crash_batched of Stream_exec.mode
  | Served
  | Spilled

let all =
  [
    Reference_path;
    Naive_stream;
    Incremental_stream;
    Rewritten;
    Rewritten_no_factor;
    Sliced (Exec.Unshared, Exec.Paned_slicing);
    Sliced (Exec.Shared, Exec.Paned_slicing);
    Sliced (Exec.Unshared, Exec.Paired_slicing);
    Sliced (Exec.Shared, Exec.Paired_slicing);
    Crash_restart Stream_exec.Naive;
    Crash_restart Stream_exec.Incremental;
    Sharded_stream;
    Batched_stream;
    Sharded_batched;
    Crash_batched Stream_exec.Naive;
    Crash_batched Stream_exec.Incremental;
    Served;
    Spilled;
  ]

let name = function
  | Reference_path -> "reference"
  | Naive_stream -> "naive-stream"
  | Incremental_stream -> "incremental-stream"
  | Rewritten -> "rewritten"
  | Rewritten_no_factor -> "rewritten-no-factor"
  | Sliced (mode, slicing) ->
      Printf.sprintf "%s-%s"
        (match mode with Exec.Unshared -> "unshared" | Exec.Shared -> "shared")
        (match slicing with
        | Exec.Paned_slicing -> "paned"
        | Exec.Paired_slicing -> "paired")
  | Crash_restart Stream_exec.Naive -> "crash-restart-naive"
  | Crash_restart Stream_exec.Incremental -> "crash-restart-incremental"
  | Sharded_stream -> "sharded-stream"
  | Batched_stream -> "batched-stream"
  | Sharded_batched -> "sharded-batched"
  | Crash_batched Stream_exec.Naive -> "crash-batched-naive"
  | Crash_batched Stream_exec.Incremental -> "crash-batched-incremental"
  | Served -> "served"
  | Spilled -> "spilled"

(* The incremental engine handles every scenario: time hops run on
   panes — window-fed ones too, reading their covering parent's
   sub-aggregates — and windows where panes don't apply (holistic
   aggregate, non-aligned stream-fed geometry, count or session family)
   fall back to a dedicated operator node by node.  The rewritten paths
   are also total — {!Fw_plan.Rewrite.optimize} routes non-aligned hops
   and session windows around the WCG as exposed fallback aggregates —
   so the only gated paths are the slicing ones (session windows have
   no static slice geometry) and the served one. *)
let applicable path sc =
  match path with
  | Sliced _ ->
      not (List.exists Window.is_session sc.Scenario.windows)
  | Served ->
      (* the SQL front gate: non-aligned hops are rejected at analyze
         time, so they cannot be registered over the wire *)
      not
        (List.exists
           (fun w -> Window.is_hop w && not (Window.is_aligned w))
           sc.Scenario.windows)
  | Reference_path | Naive_stream | Incremental_stream | Rewritten
  | Rewritten_no_factor | Crash_restart _ | Sharded_stream | Batched_stream
  | Sharded_batched | Crash_batched _ | Spilled ->
      true

let rewritten_plan ~factor_windows (sc : Scenario.t) =
  (Rewrite.optimize ~eta:sc.Scenario.eta ~factor_windows sc.Scenario.agg
     sc.Scenario.windows)
    .Rewrite.plan

let naive_plan (sc : Scenario.t) =
  Plan.naive sc.Scenario.agg sc.Scenario.windows

(* The uninterrupted, unbatched, all-resident run a composed leg is
   byte-compared against, with its cost-model counters. *)
let plain_run plan mode (sc : Scenario.t) =
  let m = Metrics.create () in
  ( Stream_exec.run ~metrics:m ~mode plan ~horizon:sc.Scenario.horizon
      sc.Scenario.events,
    m )

(* The (plan, mode) legs a composed path runs: the naive plan in both
   engine modes, and the rewritten plan with factor windows — the plan
   [fwopt run --incremental] ships, whose window-fed windows run on the
   pane operator — in incremental mode.  [run_legs ?mode] runs the legs
   of one engine mode (all by default), each byte-compared against its
   own plain run by [f], and answers the first leg's rows. *)
let legs =
  [
    ("naive", Stream_exec.Naive, naive_plan);
    ("incremental", Stream_exec.Incremental, naive_plan);
    ( "rewritten incremental",
      Stream_exec.Incremental,
      rewritten_plan ~factor_windows:true );
  ]

let run_legs ?mode sc f =
  match
    List.filter_map
      (fun (what, m, plan) ->
        if mode = None || mode = Some m then Some (f ~what (plan sc) m)
        else None)
      legs
  with
  | rows :: _ -> rows
  | [] -> invalid_arg "Paths.run_legs: no leg"

(* The checks a composed leg insists on, stronger than the harness's
   tolerant multiset comparison: byte-identical rows (float rounding
   included) and bit-for-bit cost-model counters against the plain run.
   A counter mismatch raises too, because row equality alone would miss
   silently double-charged or lost work. *)
let check_identical ~what ~rows0 ~rows1 m0 m1 =
  if rows1 <> rows0 then
    failwith
      (Printf.sprintf
         "%s rows are not byte-identical to the plain run's (%d vs %d rows)"
         what (List.length rows1) (List.length rows0));
  if Metrics.ingested m0 <> Metrics.ingested m1 then
    failwith
      (Printf.sprintf "%s ingest counter diverged: %d plain vs %d" what
         (Metrics.ingested m0) (Metrics.ingested m1));
  let pw m =
    List.map
      (fun (w, n) -> Printf.sprintf "%s=%d" (Window.to_string w) n)
      (Metrics.per_window m)
  in
  if pw m0 <> pw m1 then
    failwith
      (Printf.sprintf "%s per-window counters diverged: [%s] plain vs [%s]"
         what
         (String.concat " " (pw m0))
         (String.concat " " (pw m1)))

(* --- crash-restart path -------------------------------------------- *)

(* The input the streaming paths actually consume: sorted, clipped at
   the horizon (mirrors [Stream_exec.run]). *)
let fed_events (sc : Scenario.t) =
  List.filter
    (fun e -> e.Event.time < sc.Scenario.horizon)
    (Event.sort sc.Scenario.events)

(* --- deterministic batch geometry ----------------------------------- *)

(* Partition an event list into columnar batches: per-batch sizes drawn
   from a tiny LCG seeded with [hash] in [1, batch] — so single-event
   batches and batches spanning many distinct times both occur — with
   punctuation marks injected mid-batch between distinct event times.
   A mark's watermark is either the previous event's time (a stale
   punctuation the engine must coalesce away) or strictly inside the
   gap (a live one that fires pending instances mid-batch); neither can
   make the following event late.  Deterministic in (hash, batch,
   events), so shrunk and replayed scenarios rebuild the exact same
   batch boundaries. *)
let batches_of_events ~hash ~batch evs =
  let module Batch = Fw_engine.Batch in
  let state = ref (hash land max_int) in
  let rand bound =
    state := ((!state * 25214903917) + 11) land max_int;
    !state lsr 13 mod bound
  in
  let fresh_size () = 1 + rand (max 1 batch) in
  let out = ref [] in
  let cur = ref (Batch.create ()) in
  let budget = ref (fresh_size ()) in
  let prev = ref min_int in
  List.iter
    (fun e ->
      if !prev > min_int && e.Event.time > !prev && rand 3 = 0 then
        Batch.push_punct !cur
          (if rand 2 = 0 then !prev
           else !prev + 1 + rand (e.Event.time - !prev));
      Batch.push !cur e;
      prev := e.Event.time;
      decr budget;
      if !budget <= 0 then begin
        out := !cur :: !out;
        cur := Batch.create ();
        budget := fresh_size ()
      end)
    evs;
  if not (Fw_engine.Batch.is_empty !cur) then out := !cur :: !out;
  List.rev !out

let scenario_hash (sc : Scenario.t) =
  Hashtbl.hash (Scenario.to_repro sc) land max_int

let batches_of (sc : Scenario.t) =
  batches_of_events ~hash:(scenario_hash sc) ~batch:sc.Scenario.batch
    (fed_events sc)

type crash_params = { every : int; crash_at : int; torn_bytes : int option }

(* Crash geometry derived deterministically from the scenario text, so
   a replayed or shrunk scenario reproduces the exact same crash:
   checkpoint cadence ~ a third of the stream, death somewhere inside
   it, and a torn snapshot write on a quarter of the scenarios. *)
let crash_params (sc : Scenario.t) =
  let n = List.length (fed_events sc) in
  let h = Hashtbl.hash (Scenario.to_repro sc) land max_int in
  {
    every = 1 + (h mod max 1 (n / 3));
    crash_at = 1 + (h / 13 mod max 1 n);
    torn_bytes = (if h mod 4 = 0 then Some (1 + (h / 53 mod 8)) else None);
  }

type first_outcome = Crashed | Completed of Fw_snap.Checkpoint.t

(* Run the pre-crash process into [dir]: checkpointing pipeline, fault
   plan armed.  [Crashed] leaves the directory exactly as the dead
   process would have (snapshots, flushed log, possibly a torn newest
   snapshot); [Completed] only happens on an empty stream.  [batched]
   feeds via {!Fw_snap.Checkpoint.feed_batch} under the scenario's
   batch geometry, so checkpoints and the injected death land
   mid-batch.  [spill] runs the pre-crash process under a memory
   budget; its pool is scratch (snapshots are self-contained), so the
   crash legitimately leaves it behind like a dead process would. *)
let crash_first_process ?(batched = false) ?spill ~dir ~plan mode
    (sc : Scenario.t) =
  let p = crash_params sc in
  let fault =
    Fw_snap.Fault.create ~crash_at_event:p.crash_at ?torn_bytes:p.torn_bytes ()
  in
  let cp =
    Fw_snap.Checkpoint.create ~dir ~every:p.every ~fault ~mode ?spill plan
  in
  try
    (if batched then
       List.iter (Fw_snap.Checkpoint.feed_batch cp) (batches_of sc)
     else List.iter (Fw_snap.Checkpoint.feed cp) (fed_events sc));
    Completed cp
  with Fw_snap.Fault.Crash _ -> Crashed

let fresh_temp_dir () =
  let base = Filename.temp_file "fwsnap" ".d" in
  Sys.remove base;
  Sys.mkdir base 0o700;
  base

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f ->
        try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  end

(* Crash the pipeline mid-stream, recover from disk, finish the run —
   then insist both the rows and the cost-model counters are exactly
   what an uninterrupted run of the same plan and mode produces.
   [budget] runs both sides of the crash under their own
   {!Fw_spill.Pool} of that many bytes — the dead process's pool is
   abandoned like its other scratch state, the recovered process starts
   a fresh one — so checkpoint/crash/recovery and out-of-core state are
   composed. *)
let crash_restart_rows ?(batched = false) ?budget ~what plan mode
    (sc : Scenario.t) =
  let horizon = sc.Scenario.horizon in
  (* one pool per simulated process, closed when that process ends *)
  let with_pool f =
    match budget with
    | None -> f None
    | Some budget ->
        let pool = Fw_spill.Pool.create ~budget () in
        Fun.protect
          ~finally:(fun () -> Fw_spill.Pool.close pool)
          (fun () -> f (Some pool))
  in
  let rows0, m0 = plain_run plan mode sc in
  let dir = fresh_temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let first =
        with_pool (fun spill ->
            match crash_first_process ~batched ?spill ~dir ~plan mode sc with
            | Completed cp ->
                Some
                  ( Fw_snap.Checkpoint.close cp ~horizon,
                    Fw_snap.Checkpoint.metrics cp )
            | Crashed -> None)
      in
      let rows1, m1 =
        match first with
        | Some r -> r
        | None ->
            with_pool (fun spill ->
                match Fw_snap.Recover.load ~dir ~mode ?spill plan with
                | Error m -> failwith ("recovery failed: " ^ m)
                | Ok r ->
                    let k = (crash_params sc).crash_at in
                    let rest =
                      List.filteri (fun i _ -> i >= k) (fed_events sc)
                    in
                    (if batched then
                       (* the restarted process ingests batched too; a
                          distinct hash stream keeps its batch boundaries
                          independent of the pre-crash ones *)
                       List.iter
                         (Fw_snap.Checkpoint.feed_batch
                            r.Fw_snap.Recover.checkpoint)
                         (batches_of_events
                            ~hash:(scenario_hash sc lxor 0x9e3779b9)
                            ~batch:sc.Scenario.batch rest)
                     else
                       List.iter
                         (Fw_snap.Checkpoint.feed r.Fw_snap.Recover.checkpoint)
                         rest);
                    ( Fw_snap.Checkpoint.close r.Fw_snap.Recover.checkpoint
                        ~horizon,
                      r.Fw_snap.Recover.metrics ))
      in
      check_identical ~what:("recovered " ^ what) ~rows0 ~rows1 m0 m1;
      rows1)

(* Every leg of one engine mode through the crash-restart pipeline. *)
let crash_restart_legs ?batched ?budget mode sc =
  run_legs ~mode sc (fun ~what plan mode ->
      crash_restart_rows ?batched ?budget ~what plan mode sc)

(* --- sharded path --------------------------------------------------- *)

(* Run the naive plan sharded across the scenario's worker-domain count
   in both engine modes, and insist — stronger than the harness's row
   comparison — that each mode's merged rows are byte-identical to the
   corresponding single-shard run's and that the cost-model counters
   (ingest, per-window items) reconcile exactly across the shard
   merge.  Only the cost-model counters are compared: per-node counters
   like instance fires are per-replica (one instance can fire in
   several shards), so they legitimately exceed the single-shard
   values. *)
let sharded_rows ?batch (sc : Scenario.t) =
  let plan = naive_plan sc in
  let horizon = sc.Scenario.horizon in
  let check_mode mode mode_name =
    let rows0, m0 = plain_run plan mode sc in
    let r =
      Fw_shard.Runner.run ?batch ~mode ~shards:sc.Scenario.shards plan
        ~horizon sc.Scenario.events
    in
    check_identical
      ~what:(Printf.sprintf "%d-shard %s" sc.Scenario.shards mode_name)
      ~rows0 ~rows1:r.Fw_shard.Runner.rows m0 r.Fw_shard.Runner.metrics;
    rows0
  in
  let rows = check_mode Stream_exec.Naive "naive" in
  let (_ : Row.t list) = check_mode Stream_exec.Incremental "incremental" in
  rows

(* --- batched path ---------------------------------------------------- *)

(* Feed the exact per-event stream through {!Stream_exec.feed_batch}
   under the scenario's batch geometry — batch-internal punctuation
   included — and insist on the feed/feed_batch equivalence contract
   end to end: byte-identical rows and bit-for-bit cost-model counters
   against the per-event run of the same plan and mode. *)
let batched_rows ~what plan mode (sc : Scenario.t) =
  let horizon = sc.Scenario.horizon in
  let rows0, m0 = plain_run plan mode sc in
  let m1 = Metrics.create () in
  let exec = Stream_exec.create ~metrics:m1 ~mode plan in
  List.iter (Stream_exec.feed_batch exec) (batches_of sc);
  let rows1 = Stream_exec.close exec ~horizon in
  check_identical ~what:("batched " ^ what) ~rows0 ~rows1 m0 m1;
  rows0

(* --- spilled path ---------------------------------------------------- *)

(* Run a plan under the scenario's memory budget — every operator's
   per-key state held in {!Fw_spill.Store}s that evict cold entries to
   disk and fault them back on touch — and insist the rows and the
   cost-model counters are bit-identical to the unbudgeted run's:
   eviction and fault-in must be invisible to the computation, budget 0
   (everything round-trips through the spill file) included. *)
let spilled_rows ~what plan mode (sc : Scenario.t) =
  let horizon = sc.Scenario.horizon in
  let budget = sc.Scenario.budget in
  let rows0, m0 = plain_run plan mode sc in
  let m1 = Metrics.create () in
  let pool = Fw_spill.Pool.create ~budget () in
  let rows1 =
    Fun.protect
      ~finally:(fun () -> Fw_spill.Pool.close pool)
      (fun () ->
        Stream_exec.run ~metrics:m1 ~mode ~spill:pool plan ~horizon
          sc.Scenario.events)
  in
  check_identical
    ~what:(Printf.sprintf "spilled %s (budget %d)" what budget)
    ~rows0 ~rows1 m0 m1;
  rows0

(* --- served path ----------------------------------------------------- *)

(* SQL text for a sub-query over a subset of the scenario's windows:
   the wire format the query server registers.  The window definitions
   go through the parser/printer round trip ([Ast.def_of_window] /
   [Printer.window_def]), which the qcheck suite pins as exact. *)
let sql_of_windows (sc : Scenario.t) windows =
  Printf.sprintf "SELECT %s(value) FROM input GROUP BY key, WINDOWS(%s)"
    (Fw_agg.Aggregate.to_string sc.Scenario.agg)
    (String.concat ", "
       (List.map
          (fun w ->
            Printf.sprintf "WINDOW(%s)"
              (Fw_sql.Printer.window_def (Fw_sql.Ast.def_of_window w)))
          windows))

(* Register overlapping sub-queries of the scenario's window set with
   one in-process query server, feed the shared stream once, and insist
   every query's tap is byte-identical to an independent single-query
   run of its own SQL text — the server's core promise: sharing (or
   degrading) never changes a single float bit of anyone's answer.  The
   full-set query doubles as the path's row result, so the harness also
   diffs the served output against every other execution path. *)
let served_rows (sc : Scenario.t) =
  let module Server = Fw_serve.Server in
  let horizon = sc.Scenario.horizon in
  let windows = Window.dedup sc.Scenario.windows in
  let n = List.length windows in
  let subsets =
    let candidates =
      [ windows ]
      @ (if n > 1 then [ [ List.hd windows ] ] else [])
      @ if n > 2 then [ List.filteri (fun i _ -> i >= n / 2) windows ] else []
    in
    let rec dedup seen = function
      | [] -> []
      | s :: tl ->
          if List.mem s seen then dedup seen tl else s :: dedup (s :: seen) tl
    in
    dedup [] candidates
  in
  let cfg = { Server.default_config with eta = sc.Scenario.eta } in
  let server =
    match Server.create cfg with
    | Ok s -> s
    | Error e -> failwith ("server creation failed: " ^ e)
  in
  let ids =
    List.map
      (fun ws ->
        let text = sql_of_windows sc ws in
        match Server.register server ~tenant:"fuzz" text with
        | Ok r -> (r.Server.r_id, text)
        | Error rej ->
            failwith
              (Printf.sprintf "registration of %S refused: %s" text
                 (Server.reject_message rej)))
      subsets
  in
  (match Server.feed server (fed_events sc) with
  | Ok _ -> ()
  | Error rej -> failwith ("feed refused: " ^ Server.reject_message rej));
  (match Server.close server ~horizon with
  | Ok () -> ()
  | Error rej -> failwith ("close refused: " ^ Server.reject_message rej));
  let result = ref [] in
  List.iteri
    (fun i (id, text) ->
      let standalone =
        match Fw_sql.Compile.compile ~eta:sc.Scenario.eta text with
        | Ok c ->
            Stream_exec.run c.Fw_sql.Compile.outcome.Rewrite.plan ~horizon
              sc.Scenario.events
        | Error e -> failwith ("standalone compile failed: " ^ e)
      in
      let served =
        match Server.rows_from server id ~from:0 with
        | Ok rows -> Row.sort rows
        | Error rej -> failwith (Server.reject_message rej)
      in
      if served <> standalone then
        failwith
          (Printf.sprintf
             "served query %d (%s) rows are not byte-identical to its \
              independent run's (%d vs %d rows)"
             id text (List.length served) (List.length standalone));
      if i = 0 then result := served)
    ids;
  !result

let rows path (sc : Scenario.t) =
  let horizon = sc.Scenario.horizon in
  let events = sc.Scenario.events in
  try
    Ok
      (match path with
      | Reference_path ->
          Reference.run sc.Scenario.agg sc.Scenario.windows ~horizon events
      | Naive_stream -> Stream_exec.run (naive_plan sc) ~horizon events
      | Incremental_stream ->
          Stream_exec.run ~mode:Stream_exec.Incremental (naive_plan sc)
            ~horizon events
      | Rewritten ->
          (* the rewritten plan in both engine modes: pane and
             per-instance operators merge in different orders, so the
             modes agree up to the harness's float tolerance *)
          let plan = rewritten_plan ~factor_windows:true sc in
          let rows = Stream_exec.run plan ~horizon events in
          let incremental =
            Stream_exec.run ~mode:Stream_exec.Incremental plan ~horizon events
          in
          if not (Row.equal_sets rows incremental) then
            failwith
              (Printf.sprintf
                 "rewritten plan: %d incremental-mode rows disagree with \
                  naive mode"
                 (List.length (Row.diff rows incremental)));
          rows
      | Rewritten_no_factor ->
          Stream_exec.run (rewritten_plan ~factor_windows:false sc) ~horizon
            events
      | Sliced (mode, slicing) ->
          (Exec.run sc.Scenario.agg mode slicing sc.Scenario.windows ~horizon
             events)
            .Exec.rows
      | Crash_restart mode -> crash_restart_legs mode sc
      | Sharded_stream -> sharded_rows sc
      | Batched_stream ->
          run_legs sc (fun ~what plan mode -> batched_rows ~what plan mode sc)
      | Sharded_batched ->
          (* pin the runner's flush geometry to the scenario's (small)
             batch size: ring boundaries and flush-on-punctuation get
             exercised at many sizes, including 1 *)
          sharded_rows ~batch:sc.Scenario.batch sc
      | Crash_batched mode -> crash_restart_legs ~batched:true mode sc
      | Served -> served_rows sc
      | Spilled ->
          let rows =
            run_legs sc (fun ~what plan mode ->
                spilled_rows ~what plan mode sc)
          in
          (* checkpoints taken over spilled state, recovered into a
             fresh pool *)
          let budget = sc.Scenario.budget in
          let (_ : Row.t list) =
            crash_restart_legs ~budget Stream_exec.Naive sc
          and (_ : Row.t list) =
            crash_restart_rows ~budget ~what:"rewritten incremental"
              (rewritten_plan ~factor_windows:true sc)
              Stream_exec.Incremental sc
          in
          rows)
  with exn -> Error (Printexc.to_string exn)
