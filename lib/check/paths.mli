(** The independent execution paths the differential harness compares.

    Every path consumes the same (aggregate, windows, horizon, events)
    scenario and must produce the same row multiset:

    - {!Reference_path}: the definition-level evaluator ({!Reference});
    - {!Naive_stream}: the naive per-window plan through the streaming
      engine ({!Fw_engine.Stream_exec});
    - {!Incremental_stream}: the same naive plan through the engine's
      pane-based incremental mode (per-slide panes + sliding queues;
      windows where panes don't apply fall back per node, so the path
      covers every scenario);
    - {!Rewritten}: the min-cost-WCG plan with factor windows
      (Algorithm 1 + Algorithm 2, Section 4.3 best-of), in naive mode;
      its incremental-mode run, where window-fed windows read their
      parent's sub-aggregates through sliding queues, must agree with
      it under the harness's tolerance or the path raises;
    - {!Rewritten_no_factor}: plain Algorithm 1 rewriting;
    - {!Sliced}: the executable paned [Li et al. 2005] / paired
      [Krishnamurthy et al. 2006] baselines, shared and unshared
      ({!Fw_slicing.Exec});
    - {!Crash_restart}: the naive plan through a checkpointing pipeline
      ({!Fw_snap.Checkpoint}) that is killed mid-stream by an injected
      fault — sometimes with a torn snapshot write — recovered from
      disk ({!Fw_snap.Recover}) and run to completion.  Beyond the
      harness's row comparison, the path itself insists the recovered
      rows and cost-model counters are {e byte-identical} to an
      uninterrupted run's, and raises otherwise.  In incremental mode
      the rewritten plan with factor windows runs the same pipeline as
      a second leg — so do the batched and spilled paths below;
    - {!Sharded_stream}: the naive plan key-partitioned across the
      scenario's worker-domain count ({!Fw_shard.Runner}), in both
      engine modes.  Like the crash path it carries checks stronger
      than the harness's: each mode's merged rows must be
      byte-identical to the corresponding single-shard run's, and the
      cost-model counters (ingest, per-window items) must reconcile
      exactly across the shard merge;
    - {!Batched_stream}: the same stream pushed through
      {!Fw_engine.Stream_exec.feed_batch} under deterministic
      scenario-derived batch geometry — sizes in [\[1, batch\]],
      punctuation marks injected {e inside} batches — in both engine
      modes (plus the rewritten plan in incremental mode),
      byte-compared (rows and cost-model counters bit-for-bit) against
      the per-event run: the feed/feed_batch equivalence contract,
      checked end to end;
    - {!Sharded_batched}: {!Sharded_stream} with the runner's flush
      geometry pinned to the scenario's batch size, so ring boundaries
      and flush-on-punctuation are exercised at many sizes including 1;
    - {!Crash_batched}: {!Crash_restart} with batched ingestion on both
      sides of the crash ({!Fw_snap.Checkpoint.feed_batch}), so
      checkpoints and the injected death land mid-batch and recovery
      must still be byte-identical;
    - {!Served}: overlapping sub-queries of the scenario's window set
      registered as SQL with one in-process query server
      ({!Fw_serve.Server}) and fed the shared stream once.  Beyond the
      harness's row comparison, the path insists {e every} registered
      query's tap is byte-identical to an independent single-query run
      of its own text — cross-query sharing (or its degrade) must never
      change a float bit of anyone's answer;
    - {!Spilled}: the naive plan run under the scenario's memory budget
      — every operator's per-key state in {!Fw_spill.Store}s whose cold
      entries are evicted to an on-disk spill file and faulted back on
      touch — in both engine modes, plus the rewritten plan in
      incremental mode.  The path insists the rows and
      cost-model counters are bit-identical to the unbudgeted run's
      (budget [0], where every touched key round-trips through disk,
      included), then composes the budget with the crash-restart
      pipeline: checkpoint over spilled state, die, recover into a
      fresh pool, still byte-identical. *)

type path =
  | Reference_path
  | Naive_stream
  | Incremental_stream
  | Rewritten
  | Rewritten_no_factor
  | Sliced of Fw_slicing.Exec.mode * Fw_slicing.Exec.slicing
  | Crash_restart of Fw_engine.Stream_exec.mode
  | Sharded_stream
  | Batched_stream
  | Sharded_batched
  | Crash_batched of Fw_engine.Stream_exec.mode
  | Served
  | Spilled

val all : path list
(** The eighteen concrete paths, reference first. *)

val name : path -> string
(** Stable identifier used in reports ("rewritten", "shared-paired", ...). *)

val applicable : path -> Scenario.t -> bool
(** Whether the path supports the scenario: the slicing paths have no
    session geometry, and the served path cannot register non-aligned
    hops (the SQL front's analyze gate rejects them); all other paths
    accept any window set. *)

val rows : path -> Scenario.t -> (Fw_engine.Row.t list, string) result
(** Execute one path; [Error] carries the exception text if the path
    crashed (a crash is a finding too, not a harness failure). *)

(** {2 Crash-restart internals (shared with {!Artifacts})} *)

type crash_params = {
  every : int;  (** checkpoint cadence of the injected run *)
  crash_at : int;  (** event ordinal at which the process dies *)
  torn_bytes : int option;
      (** when set, the newest snapshot loses this many tail bytes *)
}

val crash_params : Scenario.t -> crash_params
(** Crash geometry, derived deterministically from the scenario text so
    shrunk or replayed scenarios reproduce the identical crash. *)

type first_outcome = Crashed | Completed of Fw_snap.Checkpoint.t

val crash_first_process :
  ?batched:bool ->
  ?spill:Fw_spill.Pool.t ->
  dir:string ->
  plan:Fw_plan.Plan.t ->
  Fw_engine.Stream_exec.mode ->
  Scenario.t ->
  first_outcome
(** Run the pre-crash process of [plan] into [dir] under the scenario's
    fault plan.  On [Crashed], [dir] holds exactly what the dead process
    left behind — {!Artifacts} copies it next to the repro.
    [batched] (default [false]) ingests via
    {!Fw_snap.Checkpoint.feed_batch} under the scenario's batch
    geometry instead of per-event {!Fw_snap.Checkpoint.feed}.
    [spill] runs the process under a memory budget; the pool is
    scratch, abandoned on the simulated death. *)

(** {2 Batch geometry (shared with tests)} *)

val batches_of_events :
  hash:int -> batch:int -> Fw_engine.Event.t list -> Fw_engine.Batch.t list
(** Deterministically partition a time-ordered event list into columnar
    batches with sizes in [\[1, batch\]] and punctuation marks injected
    between distinct event times — some stale (equal to the previous
    time), some live (inside the gap), none making a later event late. *)

val batches_of : Scenario.t -> Fw_engine.Batch.t list
(** {!batches_of_events} under the scenario's hash, batch size and fed
    (sorted, horizon-clipped) stream. *)
