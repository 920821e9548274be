(* serve_fanout: an in-process Fw_serve.Server behind HTTP on an
   ephemeral loopback port, sharing on, incremental engines.  24 SQL
   queries from 4 tenants: eleven chain-compatible tumbling SUM queries
   (seven of them re-sent as whitespace or case variants, which hit the
   plan cache) share one group; one more SUM query, six MAX queries over
   hopping pairs and six AVG queries with distinct WHERE filters run in
   groups of their own.  16 keys drawn Zipf.  The client, in the main domain, POSTs
   /ingest CSV batches and then GETs /query/ID/rows?from=cursor for
   every query.  A closed-loop leg gives the throughput; an open-loop
   leg at a fixed offered rate gives the result latency. *)

open Harness
module Server = Fw_serve.Server
module Httpd = Fw_obs.Httpd

let eta = 4
let horizon = 2000
let batch_size = 1024

(* Open-loop passes feed the first 1024 ticks only, so that a run holds
   a dozen of them and the latency level is taken over many passes. *)
let open_batches = 4
let open_horizon = open_batches * batch_size / eta

(* At most half the closed-loop rate of seed 1 on a loaded 2-core
   x86-64 host (6.6k-20k events/s there, depending on other load),
   frozen so that the open-loop leg offers the same load everywhere and
   stays clear of saturation. *)
let offered_rate = 3_000.0

(* Set-ups per sample: a set-up takes several ms here. *)
let setup_batch = 4

(* Set-ups the traced run records spans of. *)
let traced_setups = 21

let windows ws =
  "WINDOWS("
  ^ String.concat ", " (List.map (fun w -> "WINDOW(" ^ w ^ ")") ws)
  ^ ")"

let tumbling r = Printf.sprintf "TUMBLINGWINDOW(second, %d)" r
let hopping r s = Printf.sprintf "HOPPINGWINDOW(second, %d, %d)" r s

let sum_query rs =
  "SELECT SUM(value) FROM input GROUP BY key, " ^ windows (List.map tumbling rs)

let queries =
  (* the tumbling prefixes of T10/T20/T40/T80 keep their input chains
     when merged, so they share one group; T20/T40 does not *)
  let sums = List.map sum_query [ [ 10 ]; [ 10; 20 ]; [ 10; 20; 40 ]; [ 10; 20; 40; 80 ]; [ 20; 40 ] ] in
  let variants =
    [
      String.lowercase_ascii (sum_query [ 10; 20 ]);
      "SELECT   SUM(value)  FROM input\n GROUP BY key,  " ^ windows (List.map tumbling [ 10; 20; 40 ]);
      String.lowercase_ascii (sum_query [ 10 ]);
      "select SUM(value) from input group by key, " ^ windows (List.map tumbling [ 10; 20; 40; 80 ]);
      "SELECT SUM(value)\tFROM input GROUP BY key, " ^ windows (List.map tumbling [ 10 ]);
      "Select Sum(value) From input Group By key, " ^ windows (List.map tumbling [ 10; 20 ]);
      String.lowercase_ascii (sum_query [ 10; 20; 40; 80 ]);
    ]
  in
  let maxes =
    List.map
      (fun (r1, r2, s) ->
        "SELECT MAX(value) FROM input GROUP BY key, " ^ windows [ hopping r1 s; hopping r2 s ])
      [ (30, 60, 10); (45, 90, 15); (60, 120, 20); (50, 100, 25); (90, 180, 30); (21, 42, 7) ]
  in
  let avgs =
    List.map
      (fun lo ->
        Printf.sprintf
          "SELECT AVG(value) FROM input WHERE value > %d GROUP BY key, %s" lo
          (windows [ tumbling 30; tumbling 60 ]))
      [ 5; 15; 25; 35; 45; 55 ]
  in
  List.mapi
    (fun i q -> (Printf.sprintf "tenant%d" (i mod 4), q))
    (sums @ variants @ maxes @ avgs)

let config =
  { Server.default_config with eta; incremental = true; factor_windows = true; sharing = true }

(* --- a minimal blocking HTTP/1.1 client (Connection: close) --------- *)

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let body_start s =
  let rec go i =
    if i + 4 > String.length s then String.length s
    else if s.[i] = '\r' && String.sub s i 4 = "\r\n\r\n" then i + 4
    else go (i + 1)
  in
  go 0

(* Connect and write one request; the response is left to [receive]. *)
let send ~port ~meth ~path ~body =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    write_all fd
      (Printf.sprintf
         "%s %s HTTP/1.1\r\nHost: bench\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
         meth path (String.length body) body)
      0;
    fd
  with e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

(* Read the response to its end and close: (status code, body); raises
   on transport errors. *)
let receive fd =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
      let rec drain () =
        let k = Unix.read fd chunk 0 (Bytes.length chunk) in
        if k > 0 then begin
          Buffer.add_subbytes buf chunk 0 k;
          drain ()
        end
      in
      drain ();
      let s = Buffer.contents buf in
      let code = try int_of_string (String.sub s 9 3) with _ -> 0 in
      let b = body_start s in
      (code, String.sub s b (String.length s - b)))

(* --- server lifecycle ----------------------------------------------- *)

type live = {
  server : Server.t;
  port : int;
  stop : unit -> unit;
  handler_spans : recorder option;  (** written by the HTTP domain *)
}

let route (req : Httpd.request) =
  match (req.Httpd.meth, String.split_on_char '/' req.Httpd.path) with
  | "POST", [ ""; "ingest" ] -> "serve.ingest"
  | "GET", [ ""; "query"; _; "rows" ] -> "serve.rows"
  | "POST", [ ""; "query" ] -> "serve.register"
  | _ -> "serve.other"

(* Untraced: the public Http facade.  Traced: Http.handler inside the
   benchmark's own Httpd, each request a span whose parent is the
   client span named by the [rid] query parameter. *)
let start ~traced =
  let server =
    match Server.create config with Ok s -> s | Error e -> failwith e
  in
  if not traced then
    let h = Fw_serve.Http.start ~port:0 server in
    { server; port = Fw_serve.Http.port h; stop = (fun () -> Fw_serve.Http.stop h); handler_spans = None }
  else
    let hrec = recorder () in
    let handle req =
      let parent =
        Option.value ~default:(-1)
          (Option.bind (List.assoc_opt "rid" req.Httpd.query) int_of_string_opt)
      in
      span (Some hrec) ~parent ~name:(route req) (fun _ ->
          Fw_serve.Http.handler server None req)
    in
    let h = Httpd.start ~port:0 handle in
    { server; port = Httpd.port h; stop = (fun () -> Httpd.stop h); handler_spans = Some hrec }

(* Requests written before the first response of their group is read.
   The server answers one connection at a time, so a group is answered
   back to back, without a wake-up of the client between requests; the
   listen backlog of [Fw_obs.Httpd] (16) bounds how many may wait. *)
let pipeline_depth = 8

(* A group of HTTP operations, each a client span: every request is
   sent, then the responses are read in order.  A request's span runs
   from its send, or from the end of the response before it if that is
   later, to the end of its own response, so that it holds its own
   round trip and not the wait behind the others.  Non-2xx or an
   exception fails an operation.  Returns each body on success, in
   order. *)
let call_group ?rec_ ops live reqs =
  let sent =
    List.map
      (fun (name, meth, path, body) ->
        ops.n_attempted <- ops.n_attempted + 1;
        let id = match rec_ with Some _ -> fresh_span_id () | None -> -1 in
        let path =
          if id < 0 then path
          else path ^ (if String.contains path '?' then "&" else "?") ^ Printf.sprintf "rid=%d" id
        in
        let start_ns = now_ns () in
        let fd =
          try Ok (send ~port:live.port ~meth ~path ~body)
          with e -> Error (Printexc.to_string e)
        in
        (name, meth, path, id, start_ns, fd))
      reqs
  in
  let prev_end = ref 0 in
  List.map
    (fun (name, meth, path, id, start_ns, fd) ->
      let r =
        Result.bind fd (fun fd ->
            try Ok (receive fd) with e -> Error (Printexc.to_string e))
      in
      let end_ns = now_ns () in
      Option.iter
        (fun r -> record r ~id ~parent:(-1) ~name ~tag:id ~start_ns:(max start_ns !prev_end) ~end_ns)
        rec_;
      prev_end := end_ns;
      match r with
      | Ok (code, body) when code >= 200 && code < 300 -> Some body
      | Ok (code, body) ->
          fail ops (Printf.sprintf "%s %s answered %d: %s" meth path code (String.trim body));
          None
      | Error e ->
          fail ops (Printf.sprintf "%s %s raised %s" meth path e);
          None)
    sent

(* One HTTP operation as a client span; see [call_group]. *)
let call ?rec_ ops live ~name ~meth ~path ?(body = "") () =
  List.hd (call_group ?rec_ ops live [ (name, meth, path, body) ])

let json_int key body =
  let pat = Printf.sprintf "\"%s\":" key in
  let rec find i =
    if i + String.length pat > String.length body then None
    else if String.sub body i (String.length pat) = pat then
      let j = ref (i + String.length pat) in
      while !j < String.length body && (body.[!j] = '-' || (body.[!j] >= '0' && body.[!j] <= '9')) do incr j done;
      int_of_string_opt (String.sub body (i + String.length pat) (!j - i - String.length pat))
    else find (i + 1)
  in
  find 0

let contains body sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length body && (String.sub body i n = sub || go (i + 1)) in
  go 0

(* Register every query; (id, plan-cache hit) per query, in order. *)
let register_all ?rec_ ops live =
  List.map
    (fun (tenant, sql) ->
      match
        call ?rec_ ops live ~name:"http.register" ~meth:"POST"
          ~path:("/query?tenant=" ^ tenant) ~body:sql ()
      with
      | Some body -> (Option.value ~default:(-1) (json_int "id" body), contains body "\"cached\":true")
      | None -> (-1, false))
    queries

let setup ?rec_ ops ~traced =
  let t0 = now_ns () in
  let live = start ~traced in
  let regs = register_all ?rec_ ops live in
  (live, regs, now_ns () - t0)

(* --- inputs and reference ------------------------------------------- *)

(* CSV bodies of the ingest batches, and the events they decode to:
   the reference sees exactly what the server parses. *)
let inputs seed =
  let events =
    gen_events ~seed ~keys:16 ~key_dist:(Fw_workload.Event_gen.Zipf 1.0) ~eta
      ~horizon
  in
  let n = Array.length events in
  let bodies =
    Array.init
      ((n + batch_size - 1) / batch_size)
      (fun b ->
        Fw_engine.Csv_io.events_to_csv
          (Array.to_list (Array.sub events (b * batch_size) (min batch_size (n - (b * batch_size))))))
  in
  let parsed =
    Array.to_list bodies
    |> List.concat_map (fun body ->
           match Fw_engine.Csv_io.parse_events body with
           | Ok evs -> evs
           | Error e -> failwith e)
  in
  (bodies, parsed)

let data_lines csv =
  match String.split_on_char '\n' csv with
  | _header :: rest -> List.filter (( <> ) "") rest
  | [] -> []

(* Each query's text run standalone on the shipped path, as CSV lines. *)
let standalone_rows ~horizon events =
  List.map
    (fun (_, sql) ->
      match Factor_windows.Optimizer.of_query ~eta ~factor_windows:true sql with
      | Error e -> failwith e
      | Ok t ->
          Fw_engine.Stream_exec.run ~mode:Fw_engine.Stream_exec.Incremental
            (Factor_windows.Optimizer.optimized_plan t) ~horizon events
          |> Fw_engine.Csv_io.rows_to_csv |> data_lines |> List.sort compare)
    queries

(* --- one pass -------------------------------------------------------- *)

type pass = {
  rate : float;  (** events per second over ingest, polls and close *)
  lat_ns : float list;  (** due time to rows read, per batch and query *)
  lag_ns : float list;  (** how late each open-loop send started *)
  heap_mb : float;
}

(* Feed every batch, [events] events in all, polling each query after
   each, then close and drain; [due i] is batch [i]'s due time ([None]:
   closed loop).  Rows are checked against the reference after the
   timed part. *)
let run_pass ?rec_ ops ~traced ~reference ~due ~horizon ~events bodies =
  let live, regs, _ = setup ?rec_ ops ~traced in
  let ids = Array.of_list (List.map fst regs) in
  let q = Array.length ids in
  let got = Array.make q [] and cursor = Array.make q 0 in
  let probe = heap_probe () in
  let lat = ref [] and lag = ref [] in
  (* read each query's new rows, [pipeline_depth] polls at a time;
     [due_ns] makes each read a latency sample *)
  let poll_all ?due_ns () =
    let polls =
      List.filter_map
        (fun j ->
          if ids.(j) < 0 then None
          else
            Some
              ( j,
                ( "http.rows",
                  "GET",
                  Printf.sprintf "/query/%d/rows?from=%d" ids.(j) cursor.(j),
                  "" ) ))
        (List.init q Fun.id)
    in
    let rec groups = function
      | [] -> []
      | l ->
          List.filteri (fun i _ -> i < pipeline_depth) l
          :: groups (List.filteri (fun i _ -> i >= pipeline_depth) l)
    in
    List.iter
      (fun group ->
        List.iter2
          (fun (j, _) -> function
            | Some body ->
                let lines = data_lines body in
                cursor.(j) <- cursor.(j) + List.length lines;
                got.(j) <- List.rev_append lines got.(j);
                Option.iter (fun d -> lat := float_of_int (now_ns () - d) :: !lat) due_ns
            | None -> ())
          group
          (call_group ?rec_ ops live (List.map snd group)))
      (groups polls)
  in
  let t0 = now_ns () in
  Array.iteri
    (fun i body ->
      let due_ns =
        match due with
        | None -> now_ns ()
        | Some d ->
            let at = t0 + d i in
            let wait = at - now_ns () in
            if wait > 0 then Unix.sleepf (float_of_int wait /. 1e9);
            lag := float_of_int (max 0 (now_ns () - at)) :: !lag;
            at
      in
      ignore (call ?rec_ ops live ~name:"http.ingest" ~meth:"POST" ~path:"/ingest" ~body ());
      poll_all ~due_ns ())
    bodies;
  ignore
    (call ?rec_ ops live ~name:"http.close" ~meth:"POST"
       ~path:(Printf.sprintf "/close?horizon=%d" horizon) ());
  poll_all ();
  let elapsed = now_ns () - t0 in
  let heap_mb = heap_net_mb probe in
  live.stop ();
  List.iteri
    (fun j want ->
      let have = List.sort compare got.(j) in
      if have <> want then
        let first_diff =
          match List.find_opt (fun l -> not (List.mem l want)) have with
          | Some l -> "first unexpected row " ^ l
          | None -> "rows missing"
        in
        fail ops
          (Printf.sprintf "query %d (%s): %d rows over HTTP, %d standalone; %s"
             j (snd (List.nth queries j)) (List.length have) (List.length want)
             first_diff))
    reference;
  ( {
      rate = float_of_int events /. secs_of_ns elapsed;
      lat_ns = List.rev !lat;
      lag_ns = List.rev !lag;
      heap_mb;
    },
    live )

let run opts =
  let bodies, events = inputs opts.seed in
  let n = List.length events in
  let open_n = min n (open_batches * batch_size) in
  let ops = ops () in
  let rec_ = if opts.trace then Some (recorder ()) else None in
  let reference = standalone_rows ~horizon events in
  let open_reference =
    standalone_rows ~horizon:open_horizon
      (List.filteri (fun i _ -> i < open_n) events)
  in
  let batch_every = float_of_int batch_size /. offered_rate *. 1e9 in
  let open_due = Some (fun i -> int_of_float (float_of_int i *. batch_every)) in
  let closed_leg ?rec_ ~traced seconds =
    repeat_for ~seconds (fun () ->
        run_pass ?rec_ ops ~traced ~reference ~due:None ~horizon ~events:n
          bodies)
  in
  let open_leg ?rec_ ~traced seconds =
    repeat_for ~seconds (fun () ->
        run_pass ?rec_ ops ~traced ~reference:open_reference ~due:open_due
          ~horizon:open_horizon ~events:open_n (Array.sub bodies 0 open_batches))
  in
  let rates ps = List.map (fun (p, _) -> p.rate) ps in
  let rate ps = pass_rate (rates ps) in
  let all f ps = List.concat_map (fun (p, _) -> f p) ps in
  let latencies ps = List.map (fun (p, _) -> p.lat_ns) ps in
  let info =
    [
      ("events per pass (closed / open loop)",
       Printf.sprintf "%d / %d" n open_n);
      ("queries", string_of_int (List.length queries));
      ("offered rate (open loop)", Printf.sprintf "%.0f events/s" offered_rate);
    ]
  in
  if not opts.trace then begin
    (* the open-loop leg feeds only the latency metrics of the traced run *)
    (* set-up: server create, HTTP start and all registrations *)
    let setup () =
      let live, _, ns = setup ops ~traced:false in
      live.stop ();
      ns
    in
    let closed, setup_s =
      repeat_with_setups ~seconds:opts.seconds
        ~setup:(fun () -> setup_sample ~reps:setup_batch setup)
        (fun () ->
          run_pass ops ~traced:false ~reference ~due:None ~horizon ~events:n
            bodies)
    in
    outcome ops
      ~e2e:
        (end_to_end ~rates:(rates closed) ~setups:setup_s
           ~heaps:(List.map (fun (p, _) -> p.heap_mb) closed))
      (info
      @ [
          ("closed-loop passes", string_of_int (List.length closed));
          ("pass events/s min/p10/med/max", spread_info (rates closed));
          ("set-up ms min/p10/med/max", spread_info ~scale:1e3 setup_s);
        ])
  end
  else begin
    let setups =
      List.init traced_setups (fun _ ->
          let live, regs, _ = setup ?rec_ ops ~traced:true in
          live.stop ();
          (live, regs))
    in
    let plain = closed_leg ~traced:false (opts.seconds *. 0.3) in
    let traced = closed_leg ?rec_ ~traced:true (opts.seconds *. 0.3) in
    let opened = open_leg ?rec_ ~traced:true (opts.seconds *. 0.4) in
    let lives =
      List.map snd (traced @ opened) @ List.map fst setups
    in
    let spans =
      spans_of rec_ @ List.concat_map (fun live -> spans_of live.handler_spans) lives
    in
    (* client spans minus their handler children *)
    let transport =
      List.filter_map
        (fun ((s : span), self) ->
          if String.starts_with ~prefix:"http." s.name then Some (float_of_int self)
          else None)
        (self_times spans)
    in
    let live, regs = List.hd (List.rev setups) in
    let hits = List.length (List.filter snd regs) in
    outcome ops
      ~layers:
        ([
          m "serve.register_us" "us" (median (durs_of "serve.register" spans) /. 1e3);
          m "serve.plan_cache_hit_ratio" "ratio"
            (float_of_int hits /. float_of_int (List.length regs));
          m "serve.groups" "count" (float_of_int (Server.group_count live.server));
          m "serve.ingest_p99_us" "us" (p99 (durs_of "serve.ingest" spans) /. 1e3);
          m "serve.rows_p99_us" "us" (p99 (durs_of "serve.rows" spans) /. 1e3);
          m "httpd.transport_p50_us" "us" (median transport /. 1e3);
          m "loadgen.lag_p99_ms" "ms" (p99 (all (fun p -> p.lag_ns) opened) /. 1e6);
          overhead_pct ~plain:(rate plain) ~traced:(rate traced);
        ]
        @ latency_layers (latencies opened))
      (info @ [ ("spans", write_spans opts spans) ])
  end
