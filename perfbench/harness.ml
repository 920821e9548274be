(* Shared plumbing of the benchmark workloads: command-line options,
   clocks and statistics, the in-memory span recorder, allocation
   probes, seeded input generation, scratch directories and the result
   line. *)

module Event = Fw_engine.Event
module Batch = Fw_engine.Batch
module Prng = Fw_util.Prng

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  out_dir : string;  (** scratch and span files, inside the working dir *)
}

(* --- clock and statistics ------------------------------------------- *)

external now_ns : unit -> int = "perfbench_monotonic_ns" [@@noalloc]
let secs_of_ns ns = float_of_int ns /. 1e9

(* Wall time of [f ()] in ns together with its result. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, max 0 (now_ns () - t0))

(* Nearest-rank quantile over a non-empty sample; 0. when empty. *)
let quantile q xs =
  match xs with
  | [] -> 0.0
  | _ ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) k))

let median xs = quantile 0.5 xs

(* The p99, kept with at least ten samples beyond it: below 1000
   samples this is the value with exactly ten samples above it, an
   upper estimate of the p99. *)
let p99 xs =
  let n = List.length xs in
  if n <= 10 then quantile 1.0 xs
  else
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    a.(min (int_of_float (Float.ceil (0.99 *. float_of_int n)) - 1) (n - 11))

let sum xs = List.fold_left ( +. ) 0.0 xs

(* A run's figures are medians over its passes, each pass a fresh
   engine (or server) over the same input: the rate is the median
   per-pass rate, the median latency the median of the per-pass
   medians.  Over ten seeds on a loaded 2-core host this kept the
   spread of the three workloads together lowest, against the 10th
   percentile (steadier on hop10_rewrite, far less so on
   serve_fanout). *)
let pass_rate rates = median rates

let pass_p50 per_pass =
  median (List.filter_map (function [] -> None | l -> Some (median l)) per_pass)

let spread_info ?(scale = 1.0) xs =
  let q p = quantile p xs *. scale in
  Printf.sprintf "%.4g / %.4g / %.4g / %.4g" (q 0.0) (q 0.1) (q 0.5) (q 1.0)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Run [pass ()] until [seconds] have elapsed, at least [min] times;
   returns the per-pass results in order. *)
let repeat_for ~seconds ?(min = 1) pass =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec go acc n =
    if n >= min && Unix.gettimeofday () >= deadline then List.rev acc
    else go (pass () :: acc) (n + 1)
  in
  go [] 0

(* One set-up sample: the fastest of [reps] consecutive set-ups, each
   [setup ()] returning its own set-up time in ns, in seconds.  Host
   interference only ever adds to a set-up, so the fastest of a few is
   the set-up's own work; the full major collection before them keeps
   the garbage of the pass before from being collected on their time. *)
let setup_sample ~reps setup =
  Gc.full_major ();
  let best = ref max_int in
  for _ = 1 to reps do
    best := min !best (setup ())
  done;
  secs_of_ns !best

(* [repeat_for] with one set-up sample taken before each pass, so that
   the set-up times sample the host over the whole run, as the passes
   do; returns the passes and the samples, each in order. *)
let repeat_with_setups ~seconds ?min ~setup pass =
  let samples = ref [] in
  let ps =
    repeat_for ~seconds ?min (fun () ->
        samples := setup () :: !samples;
        pass ())
  in
  (ps, List.rev !samples)

(* --- memory ---------------------------------------------------------- *)

let heap_words () = (Gc.quick_stat ()).Gc.heap_words

(* The live major heap at the end of a pass, when every row is still
   held, net of what was live before the pass (the pre-generated input
   and the reference).  Both readings follow a full major collection,
   so floating garbage and GC pacing do not show. *)
type heap_probe = { base : int }

let heap_probe () =
  Gc.full_major ();
  { base = heap_words () }

let heap_net_mb p =
  Gc.full_major ();
  float_of_int ((heap_words () - p.base) * (Sys.word_size / 8)) /. 1048576.0

(* --- spans ----------------------------------------------------------- *)

(* One span per public call.  A recorder is written by one domain only;
   span ids come from a process-wide counter so spans recorded in the
   HTTP domain can name a client span as their parent. *)
type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  name : string;
  tag : int;  (** batch index or request id; -1 when none *)
  start_ns : int;
  end_ns : int;
}

type recorder = { mutable spans : span list }

let span_ids = Atomic.make 0
let fresh_span_id () = Atomic.fetch_and_add span_ids 1
let recorder () = { spans = [] }

let record r ~id ~parent ~name ~tag ~start_ns ~end_ns =
  r.spans <- { id; parent; name; tag; start_ns; end_ns } :: r.spans

(* [span rec ~name f] times [f] as a span when a recorder is given and
   just runs it otherwise.  [f] receives the span's id so nested calls
   can name it as their parent. *)
let span ?(parent = -1) ?(tag = -1) r ~name f =
  match r with
  | None -> f (-1)
  | Some r ->
      let id = fresh_span_id () in
      let start_ns = now_ns () in
      let finish () =
        record r ~id ~parent ~name ~tag ~start_ns ~end_ns:(now_ns ())
      in
      let v = try f id with e -> finish (); raise e in
      finish ();
      v

let spans_of = function Some r -> r.spans | None -> []
let dur s = max 0 (s.end_ns - s.start_ns)

(* Self time of every span: its duration minus its children's. *)
let self_times spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur s + Option.value ~default:0 (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s ->
      (s, max 0 (dur s - Option.value ~default:0 (Hashtbl.find_opt child s.id))))
    spans

let self_of name selfs =
  List.filter_map
    (fun (s, self) -> if s.name = name then Some (float_of_int self) else None)
    selfs

let durs_of name spans =
  List.filter_map
    (fun s -> if s.name = name then Some (float_of_int (dur s)) else None)
    spans

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
    end
  in
  go dir

let write_spans opts spans =
  mkdir_p opts.out_dir;
  let path =
    Filename.concat opts.out_dir
      (Printf.sprintf "spans-%s-seed%d.tsv" opts.workload opts.seed)
  in
  let oc = open_out path in
  output_string oc "id\tparent\tname\ttag\tstart_ns\tend_ns\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\t%d\n" s.id s.parent s.name s.tag
        s.start_ns s.end_ns)
    (List.sort (fun a b -> compare a.start_ns b.start_ns) spans);
  close_out oc;
  path

(* --- allocation ------------------------------------------------------ *)

(* Minor words the current domain allocates in [f ()]. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

let major_collections () = (Gc.quick_stat ()).Gc.major_collections

(* --- inputs ---------------------------------------------------------- *)

(* [eta] events per tick over [0, horizon) from the workload generator,
   [keys] keys drawn by [key_dist], sorted into the engine's own feed
   order (time, key, value) so that a float fold sees the same order
   whichever path feeds it. *)
let gen_events ~seed ~keys ~key_dist ~eta ~horizon =
  let module G = Fw_workload.Event_gen in
  let config = { G.default_config with keys = G.key_pool keys; key_dist } in
  let events = Array.of_list (G.steady (Prng.create seed) config ~eta ~horizon) in
  Array.stable_sort Event.compare_time events;
  events

let batch_size = 1024

let batches ?(size = batch_size) events =
  let n = Array.length events in
  Array.init
    ((n + size - 1) / size)
    (fun b ->
      let batch = Batch.create () in
      for i = b * size to min n ((b + 1) * size) - 1 do
        Batch.push batch events.(i)
      done;
      batch)

(* --- scratch directories --------------------------------------------- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let scratch_counter = ref 0

(* A fresh empty directory under the output dir, removed by [cleanup]. *)
let scratch_dir opts tag =
  incr scratch_counter;
  let d =
    Filename.concat opts.out_dir
      (Printf.sprintf "work-%d/%s-%d" (Unix.getpid ()) tag !scratch_counter)
  in
  rm_rf d;
  mkdir_p d;
  d

let cleanup opts =
  rm_rf (Filename.concat opts.out_dir (Printf.sprintf "work-%d" (Unix.getpid ())))

(* --- results --------------------------------------------------------- *)

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

type outcome = {
  attempted : int;
  failed : int;
  mismatches : string list;  (** reference-check failures, for stderr *)
  e2e : metric list;
  layers : metric list;
  info : (string * string) list;  (** context printed with the table *)
}

(* Operation accounting: an operation fails if it raises, answers
   non-2xx, or its rows differ from the reference. *)
type ops = {
  mutable n_attempted : int;
  mutable n_failed : int;
  mutable notes : string list;
}

let ops () = { n_attempted = 0; n_failed = 0; notes = [] }

let fail ops note =
  ops.n_failed <- ops.n_failed + 1;
  if List.length ops.notes < 20 then ops.notes <- note :: ops.notes

(* Count [f ()] as one operation; an exception counts as a failure and
   yields [None]. *)
let op ops ~what f =
  ops.n_attempted <- ops.n_attempted + 1;
  match f () with
  | v -> Some v
  | exception e ->
      fail ops (Printf.sprintf "%s raised %s" what (Printexc.to_string e));
      None

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} x.name
              (json_float x.value) x.unit)
          metrics))

let outcome ops ?(e2e = []) ?(layers = []) info =
  {
    attempted = ops.n_attempted;
    failed = ops.n_failed;
    mismatches = ops.notes;
    e2e;
    layers;
    info;
  }

(* The set-up figure of a run, from its per-pass set-up samples: the
   fastest sample in each window of [setup_window] consecutive passes,
   and the median over the windows.  From one pass to the next the
   samples jumped between two levels (1.6x apart on keyed_durable), in
   shares that differed from run to run; the fastest of a few passes
   reads the lower level in every run. *)
let setup_window = 4

let setup_figure samples =
  let rec windows = function
    | [] -> []
    | xs ->
        List.filteri (fun i _ -> i < setup_window) xs
        :: windows (List.filteri (fun i _ -> i >= setup_window) xs)
  in
  median (List.map (List.fold_left Float.min Float.infinity) (windows samples))

(* The end-to-end metrics of an untraced run: per-pass [rates], set-up
   samples and heaps. *)
let end_to_end ~rates ~setups ~heaps =
  [
    m "events_per_sec" "1/s" (pass_rate rates);
    m "setup_s" "s" (setup_figure setups);
    m "heap_peak_mb" "MB" (median heaps);
  ]

(* Result latency, reported by the traced run from its untraced or
   open-loop passes (per-pass samples in ns).  It is not a bounded
   end-to-end metric: on a shared host its run-to-run spread on
   serve_fanout was wider than any bound (0.32 of the median for the
   p50 over ten seeds, 0.47 for the p99). *)
let latency_layers latencies =
  let all = List.concat latencies in
  [
    m "result_latency_p50_ms" "ms" (pass_p50 latencies /. 1e6);
    m "result_latency_p99_ms" "ms" (p99 all /. 1e6);
    m "result_latency_samples" "count" (float_of_int (List.length all));
  ]

let overhead_pct ~plain ~traced = m "trace.overhead_pct" "%" (100.0 *. (ratio plain traced -. 1.0))
