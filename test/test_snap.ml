(* Checkpoint/recovery subsystem (Fw_snap): codec round-trips for every
   aggregate state (bit-exact, adversarial floats included), corrupt-
   byte rejection, fail-closed version/fingerprint checks, and full
   crash → recover → byte-identical-finish cycles on disk. *)
open Helpers
module Codec = Fw_snap.Codec
module Checkpoint = Fw_snap.Checkpoint
module Recover = Fw_snap.Recover
module Fault = Fw_snap.Fault
module Combine = Fw_agg.Combine
module Aggregate = Fw_agg.Aggregate
module Stream_exec = Fw_engine.Stream_exec
module Metrics = Fw_engine.Metrics
module Event = Fw_engine.Event
module Plan = Fw_plan.Plan

let ev t k v = Event.make ~time:t ~key:k ~value:v

(* --- aggregate state round-trips ----------------------------------- *)

let bits = Int64.bits_of_float

let eq_view a b =
  match (a, b) with
  | Combine.V_min x, Combine.V_min y | Combine.V_max x, Combine.V_max y ->
      bits x = bits y
  | Combine.V_count n, Combine.V_count m -> n = m
  | Combine.V_sum x, Combine.V_sum y -> bits x = bits y
  | ( Combine.V_avg { sum = s1; count = c1 },
      Combine.V_avg { sum = s2; count = c2 } ) ->
      bits s1 = bits s2 && c1 = c2
  | ( Combine.V_stdev { count = c1; mean = u1; m2 = q1 },
      Combine.V_stdev { count = c2; mean = u2; m2 = q2 } ) ->
      c1 = c2 && bits u1 = bits u2 && bits q1 = bits q2
  | Combine.V_median xs, Combine.V_median ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun x y -> bits x = bits y) xs ys
  | _ -> false

(* Floats that punish a codec: signed zeros, subnormals, huge
   magnitudes, and values that only differ in the last mantissa bit. *)
let gen_val =
  QCheck2.Gen.(
    oneof
      [
        float_range (-1e6) 1e6;
        oneofl
          [
            0.0;
            -0.0;
            4.9e-324;
            1e-308;
            1.7976931348623157e308;
            -1e308;
            1e8;
            1e8 +. 1e-8;
            Float.pred 1.0;
            Float.succ 1.0;
          ];
      ])

let gen_view =
  QCheck2.Gen.(
    oneof
      [
        map (fun v -> Combine.V_min v) gen_val;
        map (fun v -> Combine.V_max v) gen_val;
        map (fun n -> Combine.V_count n) (int_range 0 1_000_000);
        map (fun v -> Combine.V_sum v) gen_val;
        map2
          (fun s c -> Combine.V_avg { sum = s; count = c })
          gen_val (int_range 0 100_000);
        (* the adversarial Welford shape: a large common offset with
           tiny spread, where naive sum-of-squares loses everything —
           the codec must keep (count, mean, m2) bit-exact *)
        map2
          (fun c x ->
            Combine.V_stdev
              { count = 2 + c; mean = 1e8 +. x; m2 = Float.abs x })
          (int_range 0 10_000) gen_val;
        map
          (fun xs -> Combine.V_median xs)
          (list_size (int_range 0 24) gen_val);
      ])

let print_view v =
  Format.asprintf "%a" Combine.pp (Combine.of_view v)

let prop_state_roundtrip =
  qtest ~count:500 "state codec round-trips bit-exactly" gen_view print_view
    (fun v ->
      let st = Combine.of_view v in
      let st' = Codec.state_of_string (Codec.state_to_string st) in
      eq_view (Combine.view st) (Combine.view st'))

let prop_state_corrupt_rejected =
  (* every single-byte corruption of a state encoding must either decode
     to exactly the same view (impossible for a flip — but the property
     does not rely on that) or raise Corrupt: never crash, never return
     garbage silently accepted downstream *)
  qtest ~count:300 "corrupt state bytes rejected or harmless"
    QCheck2.Gen.(triple gen_view (int_range 0 1000) (int_range 1 255))
    (fun (v, _, _) -> print_view v)
    (fun (v, pos, x) ->
      let s = Codec.state_to_string (Combine.of_view v) in
      let pos = pos mod String.length s in
      let b = Bytes.of_string s in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor x));
      match Codec.state_of_string (Bytes.to_string b) with
      | _ -> true
      | exception Codec.Corrupt _ -> true
      | exception Invalid_argument _ -> true)

let test_state_trailing_bytes_rejected () =
  let s = Codec.state_to_string (Combine.of_value Aggregate.Sum 1.5) in
  (match Codec.state_of_string (s ^ "\x00") with
  | _ -> Alcotest.fail "trailing byte accepted"
  | exception Codec.Corrupt _ -> ());
  match Codec.state_of_string (String.sub s 0 (String.length s - 1)) with
  | _ -> Alcotest.fail "truncation accepted"
  | exception Codec.Corrupt _ -> ()

(* --- snapshot round-trip and fail-closed decoding ------------------ *)

let fixture_events n =
  List.init n (fun t ->
      ev t
        (if t mod 3 = 0 then "a" else "b")
        (1e8 +. (float_of_int ((t * 13) mod 97) /. 7.0)))

(* A running executor mid-stream, with pending instances, open panes
   and populated sliding queues (incremental) or pending per-instance
   states (naive) — the non-invertible MIN/MAX two-stacks shape
   included via the Min plan. *)
let running_exec ?(agg = Aggregate.Min) ?(mode = Stream_exec.Incremental) () =
  let plan = Plan.naive agg [ w ~r:12 ~s:4; w ~r:20 ~s:4 ] in
  let metrics = Metrics.create () in
  let exec = Stream_exec.create ~metrics ~mode plan in
  List.iter (Stream_exec.feed exec) (fixture_events 37);
  (plan, mode, metrics, exec)

let snapshot_of exec metrics =
  {
    Codec.s_export = Stream_exec.export ~rows:false exec;
    s_rows_persisted = Stream_exec.row_count exec;
    s_ingested = Metrics.ingested metrics;
    s_processed = Metrics.per_window metrics;
  }

let eq_export (a : Stream_exec.export) (b : Stream_exec.export) =
  (* structural equality is bit-exact for floats here because every
     float went through the bits codec; fixture values are never NaN *)
  a = b

let test_snapshot_roundtrip_modes () =
  List.iter
    (fun (agg, mode) ->
      let plan, mode, metrics, exec = running_exec ~agg ~mode () in
      let snap = snapshot_of exec metrics in
      let data = Codec.encode_snapshot ~plan snap in
      match Codec.decode_snapshot ~plan ~mode data with
      | Error m -> Alcotest.fail ("decode failed: " ^ m)
      | Ok snap' ->
          check_bool "rows count" true
            (snap'.Codec.s_rows_persisted = snap.Codec.s_rows_persisted);
          check_int "ingested" snap.Codec.s_ingested snap'.Codec.s_ingested;
          check_bool "processed" true
            (snap'.Codec.s_processed = snap.Codec.s_processed);
          check_bool "export states" true
            (eq_export
               { snap.Codec.s_export with Stream_exec.x_rows = [] }
               snap'.Codec.s_export))
    [
      (Aggregate.Min, Stream_exec.Incremental);
      (Aggregate.Max, Stream_exec.Incremental);
      (Aggregate.Sum, Stream_exec.Incremental);
      (Aggregate.Stdev, Stream_exec.Incremental);
      (Aggregate.Median, Stream_exec.Naive);
      (Aggregate.Avg, Stream_exec.Naive);
    ]

let prop_snapshot_corrupt_byte_rejected =
  let plan, mode, metrics, exec = running_exec () in
  let data = Codec.encode_snapshot ~plan (snapshot_of exec metrics) in
  qtest ~count:400 "snapshot single-byte corruption fails closed"
    QCheck2.Gen.(pair (int_range 0 (String.length data - 1)) (int_range 1 255))
    (fun (pos, x) -> Printf.sprintf "flip byte %d with 0x%02x" pos x)
    (fun (pos, x) ->
      let b = Bytes.of_string data in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor x));
      match Codec.decode_snapshot ~plan ~mode (Bytes.to_string b) with
      | Error _ -> true
      | Ok _ -> false)

let test_version_bump_fails_closed () =
  (* satellite: a snapshot from a future format version must be
     refused with a descriptive error, not misparsed *)
  let plan, mode, metrics, exec = running_exec () in
  let data = Codec.encode_snapshot ~plan (snapshot_of exec metrics) in
  let b = Bytes.of_string data in
  (* version u16 sits right after the 6-byte magic *)
  Bytes.set b 6 (Char.chr (Codec.version + 1));
  match Codec.decode_snapshot ~plan ~mode (Bytes.to_string b) with
  | Ok _ -> Alcotest.fail "future version accepted"
  | Error m ->
      check_bool "error names the version" true
        (Astring_contains.contains m "version")

(* A version-2 snapshot of a rewritten plan in incremental mode holds
   per-instance state at its window-fed nodes, which now restore as
   pane operators: it must fail closed on the version, not surface as a
   shape mismatch or restore wrong state.  The current version round
   trips the same executor. *)
let test_v2_rewritten_incremental_fails_closed () =
  let plan =
    (Fw_plan.Rewrite.optimize ~eta:1 ~factor_windows:true Aggregate.Min
       [ w ~r:12 ~s:4; w ~r:20 ~s:4; w ~r:24 ~s:8 ])
      .Fw_plan.Rewrite.plan
  in
  check_bool "plan has window-fed windows" true
    (List.exists
       (fun win ->
         match Plan.window_input plan win with
         | `Window _ -> true
         | `Stream -> false)
       (Plan.all_windows plan));
  let mode = Stream_exec.Incremental in
  let metrics = Metrics.create () in
  let exec = Stream_exec.create ~metrics ~mode plan in
  List.iter (Stream_exec.feed exec) (fixture_events 37);
  let data = Codec.encode_snapshot ~plan (snapshot_of exec metrics) in
  (match Codec.decode_snapshot ~plan ~mode data with
  | Ok snap ->
      check_bool "current version round-trips" true
        (eq_export snap.Codec.s_export (Stream_exec.export ~rows:false exec))
  | Error m -> Alcotest.fail ("decode failed: " ^ m));
  let b = Bytes.of_string data in
  (* version u16, little-endian, right after the 6-byte magic *)
  Bytes.set b 6 (Char.chr 2);
  Bytes.set b 7 (Char.chr 0);
  match Codec.decode_snapshot ~plan ~mode (Bytes.to_string b) with
  | Ok _ -> Alcotest.fail "version-2 snapshot accepted"
  | Error m ->
      check_bool "error names version 2" true
        (Astring_contains.contains m "version 2")

let test_foreign_plan_fails_closed () =
  let plan, mode, metrics, exec = running_exec () in
  let data = Codec.encode_snapshot ~plan (snapshot_of exec metrics) in
  let other_plan = Plan.naive Aggregate.Sum [ tumbling 10 ] in
  (match Codec.decode_snapshot ~plan:other_plan ~mode data with
  | Ok _ -> Alcotest.fail "foreign plan accepted"
  | Error m ->
      check_bool "error names the plan" true
        (Astring_contains.contains m "plan"));
  (* same plan, wrong execution mode: also a different fingerprint *)
  match Codec.decode_snapshot ~plan ~mode:Stream_exec.Naive data with
  | Ok _ -> Alcotest.fail "wrong mode accepted"
  | Error _ -> ()

let test_truncated_snapshot_fails_closed () =
  let plan, mode, metrics, exec = running_exec () in
  let data = Codec.encode_snapshot ~plan (snapshot_of exec metrics) in
  List.iter
    (fun n ->
      match
        Codec.decode_snapshot ~plan ~mode (String.sub data 0 n)
      with
      | Ok _ -> Alcotest.fail "truncated snapshot accepted"
      | Error _ -> ())
    [ 0; 3; 6; 8; 20; String.length data / 2; String.length data - 1 ]

(* --- WAL and row-log framing --------------------------------------- *)

let test_wal_roundtrip_and_torn_tail () =
  let records =
    [
      Codec.Wal_event (ev 3 "k" 1.25);
      Codec.Wal_advance 7;
      Codec.Wal_event (ev 9 "long-key-with-bytes" (-0.0));
    ]
  in
  let image =
    String.concat "" (List.map Codec.encode_wal_record records)
  in
  check_bool "full image decodes" true (Codec.decode_wal image = records);
  (* a torn tail (partial last record) must yield the clean prefix *)
  let torn = String.sub image 0 (String.length image - 3) in
  check_bool "torn tail drops last record only" true
    (Codec.decode_wal torn = [ List.nth records 0; List.nth records 1 ]);
  check_bool "garbage-only image decodes empty" true
    (Codec.decode_wal "garbage-bytes" = [])

let test_row_log_roundtrip_and_torn_tail () =
  let rows =
    let plan, _, _, exec = running_exec () in
    ignore plan;
    Stream_exec.close exec ~horizon:37
  in
  check_bool "fixture emits rows" true (List.length rows > 4);
  let image = String.concat "" (List.map Codec.encode_row_record rows) in
  check_bool "full image decodes" true (Codec.decode_rows image = rows);
  let torn = String.sub image 0 (String.length image - 2) in
  let prefix = Codec.decode_rows torn in
  check_int "torn tail drops exactly the last row"
    (List.length rows - 1)
    (List.length prefix);
  check_bool "prefix intact" true
    (prefix = List.filteri (fun i _ -> i < List.length rows - 1) rows)

(* --- checkpoint / recover cycles on disk --------------------------- *)

let temp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "fw_test_snap_%d_%d" (Unix.getpid ()) !n)
    in
    if not (Sys.file_exists d) then Sys.mkdir d 0o755;
    Array.iter
      (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
      (Sys.readdir d);
    d

let rm_rf d =
  if Sys.file_exists d then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
      (Sys.readdir d);
    try Sys.rmdir d with Sys_error _ -> ()
  end

let cycle_plan = Plan.naive Aggregate.Sum [ w ~r:12 ~s:4; w ~r:20 ~s:4 ]
let cycle_events = fixture_events 100
let cycle_horizon = 100

let plain_run mode =
  let metrics = Metrics.create () in
  let rows =
    Stream_exec.run ~metrics ~mode cycle_plan ~horizon:cycle_horizon
      cycle_events
  in
  (rows, metrics)

(* Feed the first [k] events through a checkpointed pipeline, then
   abandon it cold — exactly what a dead process leaves on disk. *)
let crash_after ~dir ~every ~mode k =
  let cp = Checkpoint.create ~dir ~every ~mode cycle_plan in
  List.iteri (fun i e -> if i < k then Checkpoint.feed cp e) cycle_events;
  ignore cp

let finish_from ~dir ~every ~mode k =
  match Recover.load ~dir ~every ~mode cycle_plan with
  | Error m -> Alcotest.fail ("recovery failed: " ^ m)
  | Ok r ->
      List.iteri
        (fun i e ->
          if i >= k then Checkpoint.feed r.Recover.checkpoint e)
        cycle_events;
      (Checkpoint.close r.Recover.checkpoint ~horizon:cycle_horizon, r)

let check_identical mode (rows, r) =
  let rows0, m0 = plain_run mode in
  check_bool "rows byte-identical" true (rows = rows0);
  check_int "ingested identical" (Metrics.ingested m0)
    (Metrics.ingested r.Recover.metrics);
  check_bool "per-window counters identical" true
    (Metrics.per_window m0 = Metrics.per_window r.Recover.metrics)

let test_crash_recover_cycle () =
  List.iter
    (fun mode ->
      let dir = temp_dir () in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          crash_after ~dir ~every:17 ~mode 61;
          let rows_r = finish_from ~dir ~every:17 ~mode 61 in
          check_identical mode rows_r))
    [ Stream_exec.Naive; Stream_exec.Incremental ]

let test_recover_falls_back_past_corrupt_snapshot () =
  let mode = Stream_exec.Incremental in
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      crash_after ~dir ~every:17 ~mode 61;
      (* bit-rot the newest snapshot on disk *)
      let newest =
        Array.to_list (Sys.readdir dir)
        |> List.filter_map Checkpoint.chk_seq
        |> List.fold_left max 0
      in
      let path = Filename.concat dir (Checkpoint.chk_name newest) in
      let data = In_channel.with_open_bin path In_channel.input_all in
      let b = Bytes.of_string data in
      Bytes.set b
        (String.length data / 2)
        (Char.chr (Char.code (Bytes.get b (String.length data / 2)) lxor 0x40));
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (Bytes.to_string b));
      let rows, r = finish_from ~dir ~every:17 ~mode 61 in
      check_bool "fell back below newest" true
        (match r.Recover.recovered_from with
        | Some g -> g < newest
        | None -> false);
      check_bool "skip reason recorded" true
        (List.exists (fun (g, _) -> g = newest) r.Recover.skipped);
      check_identical mode (rows, r))

let test_recover_rejects_short_row_log () =
  let mode = Stream_exec.Incremental in
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      crash_after ~dir ~every:17 ~mode 61;
      (* lose most of the row log: every snapshot claiming more rows
         than remain must be skipped, with the shortage as the reason *)
      let path = Filename.concat dir Checkpoint.rows_name in
      let data = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (String.sub data 0 8));
      match Recover.load ~dir ~mode cycle_plan with
      | Ok r ->
          (* only acceptable if it fell back to replaying everything
             from the full-history log segment *)
          check_bool "full replay from scratch" true
            (r.Recover.recovered_from = None)
      | Error m ->
          check_bool "error mentions rows" true
            (Astring_contains.contains m "row"))

let test_recover_empty_dir_fails () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      match Recover.load ~dir ~mode:Stream_exec.Naive cycle_plan with
      | Ok _ -> Alcotest.fail "empty dir recovered"
      | Error _ -> ())

let test_torn_snapshot_write_recovers () =
  (* fault injection: the last snapshot write is torn mid-file, then the
     process dies — recovery must fall back and still finish
     byte-identically *)
  let mode = Stream_exec.Incremental in
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let fault = Fault.create ~crash_at_event:61 ~torn_bytes:5 () in
      let cp = Checkpoint.create ~dir ~every:17 ~fault ~mode cycle_plan in
      (match
         List.iteri
           (fun i e -> if i < 70 then Checkpoint.feed cp e)
           cycle_events
       with
      | () -> Alcotest.fail "fault did not fire"
      | exception Fault.Crash _ -> ());
      let rows_r = finish_from ~dir ~every:17 ~mode 61 in
      check_identical mode rows_r)

(* --- reorder snapshots --------------------------------------------- *)

module Reorder = Fw_engine.Reorder

(* Deterministically jittered event times: out of order within the
   lateness bound, with the occasional straggler behind the frontier so
   the dropped counter is exercised too. *)
let reorder_jitter i = [| 0; 3; -2; 1; -1; 2; -3; 0 |].(i mod 8)

let reorder_events =
  List.init 90 (fun i ->
      ev
        (max 0 (i + reorder_jitter i))
        (if i mod 3 = 0 then "a" else "b")
        (1e8 +. (float_of_int ((i * 17) mod 89) /. 9.0)))

let reorder_lateness = 4
let reorder_horizon = 95

(* A reorder buffer mid-stream: events still buffered, some released,
   the wrapped executor with live operator state. *)
let running_reorder ?(k = 50) () =
  let t =
    Reorder.create ~lateness:reorder_lateness ~mode:Stream_exec.Incremental
      ~observe:false cycle_plan ()
  in
  List.iteri (fun i e -> if i < k then Reorder.feed t e) reorder_events;
  t

let test_reorder_snapshot_roundtrip () =
  let t = running_reorder () in
  let x = Reorder.export t in
  check_bool "fixture has buffered events" true (x.Reorder.x_groups <> []);
  let data = Codec.encode_reorder ~plan:cycle_plan x in
  match
    Codec.decode_reorder ~plan:cycle_plan ~mode:Stream_exec.Incremental data
  with
  | Error m -> Alcotest.fail ("decode failed: " ^ m)
  | Ok x' ->
      (* structural equality is bit-exact: every float went through the
         bits codec and fixture values are never NaN *)
      check_bool "reorder export round-trips" true (x = x')

let test_reorder_restore_and_finish () =
  let k = 50 in
  let rows0, stats0 =
    Reorder.run ~lateness:reorder_lateness ~mode:Stream_exec.Incremental
      ~observe:false cycle_plan ~horizon:reorder_horizon reorder_events
  in
  (* interrupted pipeline: serialize at event [k], restore from the
     blob, feed the remainder — rows and statistics must be identical *)
  let data =
    Codec.encode_reorder ~plan:cycle_plan
      (Reorder.export (running_reorder ~k ()))
  in
  match
    Codec.decode_reorder ~plan:cycle_plan ~mode:Stream_exec.Incremental data
  with
  | Error m -> Alcotest.fail ("decode failed: " ^ m)
  | Ok x ->
      let t = Reorder.import ~observe:false cycle_plan x in
      List.iteri
        (fun i e ->
          if i >= k && e.Event.time < reorder_horizon then Reorder.feed t e)
        reorder_events;
      let rows, stats = Reorder.close t ~horizon:reorder_horizon in
      check_bool "rows byte-identical" true (rows = rows0);
      check_bool "stats identical" true (stats = stats0)

let prop_reorder_corrupt_byte_rejected =
  let data = Codec.encode_reorder ~plan:cycle_plan
      (Reorder.export (running_reorder ())) in
  qtest ~count:300 "reorder snapshot single-byte corruption fails closed"
    QCheck2.Gen.(pair (int_range 0 (String.length data - 1)) (int_range 1 255))
    (fun (pos, x) -> Printf.sprintf "flip byte %d with 0x%02x" pos x)
    (fun (pos, x) ->
      let b = Bytes.of_string data in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor x));
      match
        Codec.decode_reorder ~plan:cycle_plan ~mode:Stream_exec.Incremental
          (Bytes.to_string b)
      with
      | Error _ -> true
      | Ok _ -> false)

let test_reorder_kind_confusion_fails_closed () =
  (* same plan, same mode, valid CRC — only the payload kind differs.
     Each decoder must refuse the other's blob. *)
  let mode = Stream_exec.Incremental in
  let reorder_blob =
    Codec.encode_reorder ~plan:cycle_plan
      (Reorder.export (running_reorder ()))
  in
  let engine_blob =
    let metrics = Metrics.create () in
    let exec = Stream_exec.create ~metrics ~mode cycle_plan in
    List.iter (Stream_exec.feed exec) (fixture_events 37);
    Codec.encode_snapshot ~plan:cycle_plan (snapshot_of exec metrics)
  in
  (match Codec.decode_snapshot ~plan:cycle_plan ~mode reorder_blob with
  | Ok _ -> Alcotest.fail "engine decoder accepted a reorder snapshot"
  | Error m ->
      check_bool "error names the reorder kind" true
        (Astring_contains.contains m "reorder"));
  match Codec.decode_reorder ~plan:cycle_plan ~mode engine_blob with
  | Ok _ -> Alcotest.fail "reorder decoder accepted an engine snapshot"
  | Error m ->
      check_bool "error names the engine kind" true
        (Astring_contains.contains m "engine")

let test_name_parsing () =
  check_bool "chk name round-trips" true
    (Checkpoint.chk_seq (Checkpoint.chk_name 42) = Some 42);
  check_bool "wal name round-trips" true
    (Checkpoint.wal_seq (Checkpoint.wal_name 0) = Some 0);
  check_bool "cross parse rejected" true
    (Checkpoint.chk_seq (Checkpoint.wal_name 3) = None);
  check_bool "junk rejected" true (Checkpoint.chk_seq "chk-x.fws" = None)

let suite =
  [
    prop_state_roundtrip;
    prop_state_corrupt_rejected;
    Alcotest.test_case "state trailing bytes rejected" `Quick
      test_state_trailing_bytes_rejected;
    Alcotest.test_case "snapshot round-trip (all modes)" `Quick
      test_snapshot_roundtrip_modes;
    prop_snapshot_corrupt_byte_rejected;
    Alcotest.test_case "version bump fails closed" `Quick
      test_version_bump_fails_closed;
    Alcotest.test_case "v2 rewritten incremental fails closed" `Quick
      test_v2_rewritten_incremental_fails_closed;
    Alcotest.test_case "foreign plan/mode fails closed" `Quick
      test_foreign_plan_fails_closed;
    Alcotest.test_case "truncated snapshot fails closed" `Quick
      test_truncated_snapshot_fails_closed;
    Alcotest.test_case "wal round-trip + torn tail" `Quick
      test_wal_roundtrip_and_torn_tail;
    Alcotest.test_case "row log round-trip + torn tail" `Quick
      test_row_log_roundtrip_and_torn_tail;
    Alcotest.test_case "crash/recover cycle (both modes)" `Quick
      test_crash_recover_cycle;
    Alcotest.test_case "fallback past corrupt snapshot" `Quick
      test_recover_falls_back_past_corrupt_snapshot;
    Alcotest.test_case "short row log rejected" `Quick
      test_recover_rejects_short_row_log;
    Alcotest.test_case "empty dir fails" `Quick test_recover_empty_dir_fails;
    Alcotest.test_case "torn snapshot write recovers" `Quick
      test_torn_snapshot_write_recovers;
    Alcotest.test_case "reorder snapshot round-trip" `Quick
      test_reorder_snapshot_roundtrip;
    Alcotest.test_case "reorder restore-and-finish identical" `Quick
      test_reorder_restore_and_finish;
    prop_reorder_corrupt_byte_rejected;
    Alcotest.test_case "snapshot kind confusion fails closed" `Quick
      test_reorder_kind_confusion_fails_closed;
    Alcotest.test_case "file name parsing" `Quick test_name_parsing;
  ]
