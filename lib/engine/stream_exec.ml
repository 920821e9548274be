open Fw_window
module Combine = Fw_agg.Combine
module Pane = Fw_agg.Pane
module Swag = Fw_agg.Swag
module Aggregate = Fw_agg.Aggregate
module Vec = Fw_util.Vec
module Plan = Fw_plan.Plan
module Validate = Fw_plan.Validate
module Counter = Fw_obs.Counter
module Clock = Fw_obs.Clock
module Store = Fw_spill.Store
module Bin = Fw_spill.Bin
module Bincodec = Fw_agg.Bincodec

exception Late_event of Event.t

type mode = Naive | Incremental

(* Raw events travel only through the columnar batch path
   ([bdeliver] below); the per-message path carries the irregular
   traffic — sub-aggregate emissions and watermarks. *)
type item =
  | Sub of {
      window : Window.t;
      interval : Interval.t;
      key : string;
      state : Combine.state;
    }

type msg = Item of item | Watermark of int

(* Pending instances keyed so that firing pops from the front. *)
module Fire_key = struct
  type t = { hi : int; lo : int; key : string }

  let compare a b =
    match Int.compare a.hi b.hi with
    | 0 -> (
        match Int.compare a.lo b.lo with
        | 0 -> String.compare a.key b.key
        | c -> c)
    | c -> c
end

module Pending = Map.Make (Fire_key)
module Imap = Map.Make (Int)

(* Resident fire index: the (hi, key) pairs with a pending instance,
   kept out of the spill store so a watermark sweep never faults keys
   that have nothing due.  For hop windows [lo = hi - range] always, so
   ascending (hi, key) is exactly the historical ascending
   (hi, lo, key) fire order. *)
module Fset = Set.Make (struct
  type t = int * string

  let compare (h1, k1) (h2, k2) =
    match Int.compare h1 h2 with 0 -> String.compare k1 k2 | c -> c
end)

(* Per-instance execution state: every event or sub-aggregate is folded
   into all pending instances containing it (O(r/s) work per input) and
   an instance's state is complete when it fires.  This is the cost the
   paper's model prices, and the only time-domain path that supports
   holistic aggregates and non-aligned stream-fed windows.

   The per-key map of pending instances (keyed by instance [hi]) lives
   in a {!Fw_spill.Store}: resident by default, spillable to disk under
   a memory budget. *)
type win_state = {
  window : Window.t;
  w_keys : (Combine.state * int) Imap.t Store.t;
      (** per key: sub-aggregate state and the number of items folded
          into it, per pending instance (keyed by instance [hi]) *)
  mutable w_fire : Fset.t;
  mutable wm : int;
}

(* Pane-based incremental execution state: per-key sliding queues
   ({!Fw_agg.Swag}) of indexed sub-aggregates answer each instance's
   combined state in O(1) amortized.

   Queue entries are numbered by an index [j] of width [unit].  A
   stream-fed window's entry [j] is the pane of raw events in
   [[j·s, (j+1)·s)], folded in the one open pane (O(1) per event)
   ([unit = lag = s], [k = r/s], [q = 1]).  A window fed by a covering
   parent [P⟨r₁,s₁⟩] reads P's sub-aggregates instead: entry [j] is the
   parent instance [[j·s₁, j·s₁ + r₁)] ([unit = s₁], [lag = r₁],
   [k = M(W, P)] (Theorem 3), [q = s/s₁]) — per key, a fixed-size
   sliding window over the parent's output stream.  Either way index
   [j] seals once the watermark reaches [j·unit + lag], and instance
   [m] covers indices [[m·q, m·q + k)], so it fires when index
   [m·q + k − 1] seals. *)
type pane_state = {
  p_window : Window.t;
  unit : int;  (** index width: s (stream-fed) or the parent's slide *)
  lag : int;  (** index [j] seals once the watermark is ≥ [j·unit + lag] *)
  k : int;  (** indices per instance *)
  q : int;  (** indices per instance slide *)
  fed : bool;
      (** fed by a parent window: fired indices are evicted eagerly, so
          a tumbling downstream's queues empty at every fire *)
  open_pane : Pane.t;
      (** raw events of index [cur_pane]; always empty when fed *)
  mutable cur_pane : int;
  queues : Swag.t Store.t;
  mutable p_wm : int;
}

(* Count-window (ROWS frame) execution state: instance [m] of key [k]
   covers that key's event {e ordinals} [[m·s, m·s + r)], so the
   operator is watermark-free — an instance completes, and fires, the
   moment ordinal [m·s + r − 1] of its key arrives.  Per-key pending
   instances are keyed by their ordinal upper bound [hi] ([lo] is
   always [hi − r]).  Sub-fed nodes (WCG rewrites within the count
   domain) track the key's ordinal high-water from arriving
   sub-intervals instead: upstream emits per key in ascending [hi], so
   the final covering sub of an instance — the one ending exactly at
   the instance's [hi] — arrives last and doubles as the completion
   signal. *)
type cwin_key = {
  mutable seen : int;  (** ordinal high-water: events seen (stream-fed)
                           or max sub interval end (sub-fed) *)
  mutable kpend : (Combine.state * int) Imap.t;  (** keyed by instance hi *)
}

type cwin_state = {
  c_window : Window.t;
  c_keys : cwin_key Store.t;
}

(* Session-window execution state: one open (growable) session per key
   plus rotated/expired sessions awaiting their deadline.  Join and
   rotation decisions depend only on the event sequence (an event at
   [t] joins iff [t < last + gap]), never on watermarks, so coalescing
   per-event watermarks to batch-segment boundaries cannot change
   which sessions exist — only when they are emitted, which [close]'s
   row sort makes invisible. *)
type open_session = {
  mutable s_first : int;
  mutable s_last : int;
  mutable s_state : Combine.state;
  mutable s_items : int;
}

type session_state = {
  s_window : Window.t;
  s_gap : int;
  s_open : open_session Store.t;
  mutable s_deadlines : Fset.t;
      (** resident index of (last + gap, key) per open session, so a
          watermark sweep faults in only the keys actually expiring *)
  mutable s_pending : (Combine.state * int) Pending.t;
      (** rotated/expired sessions, keyed {hi = last + gap; lo = first} *)
  mutable s_wm : int;
}

(* --- spill codecs for operator state -------------------------------- *)

(* Serializers for the per-key values the engine stores: evicted
   entries are written with exactly these (floats as IEEE bit
   patterns), so a faulted entry is bit-identical to the evicted one.
   Weights are resident-size estimates that drive eviction accounting
   only, never results. *)

let w_instances b im =
  Bin.w_list b
    (fun b (hi, (state, items)) ->
      Bin.w_i64 b hi;
      Bincodec.w_state b state;
      Bin.w_i64 b items)
    (Imap.bindings im)

let r_instances r =
  List.fold_left
    (fun acc (hi, st, items) -> Imap.add hi (st, items) acc)
    Imap.empty
    (Bin.r_list r (fun r ->
         let hi = Bin.r_i64 r in
         let st = Bincodec.r_state r in
         let items = Bin.r_i64 r in
         (hi, st, items)))

let instances_weight im =
  Imap.fold (fun _ (st, _) acc -> acc + 64 + Bincodec.state_weight st) im 48

let win_codec : (Combine.state * int) Imap.t Store.codec =
  {
    Store.kind = Bincodec.kind_win;
    enc = w_instances;
    dec = r_instances;
    weight = instances_weight;
  }

let cwin_codec : cwin_key Store.codec =
  {
    Store.kind = Bincodec.kind_cwin;
    enc =
      (fun b kc ->
        Bin.w_i64 b kc.seen;
        w_instances b kc.kpend);
    dec =
      (fun r ->
        let seen = Bin.r_i64 r in
        let kpend = r_instances r in
        { seen; kpend });
    weight = (fun kc -> 16 + instances_weight kc.kpend);
  }

let session_codec : open_session Store.codec =
  {
    Store.kind = Bincodec.kind_session;
    enc =
      (fun b os ->
        Bin.w_i64 b os.s_first;
        Bin.w_i64 b os.s_last;
        Bincodec.w_state b os.s_state;
        Bin.w_i64 b os.s_items);
    dec =
      (fun r ->
        let s_first = Bin.r_i64 r in
        let s_last = Bin.r_i64 r in
        let s_state = Bincodec.r_state r in
        let s_items = Bin.r_i64 r in
        { s_first; s_last; s_state; s_items });
    weight = (fun os -> 64 + Bincodec.state_weight os.s_state);
  }

(* Flat operator-state array: one cell per plan node, dispatched with a
   single match in [deliver] instead of an array of closures. *)
type node_state =
  | N_forward  (** source, multicast *)
  | N_filter of Fw_plan.Predicate.t
  | N_union of { sink : bool }
  | N_win of win_state
  | N_pane of pane_state
  | N_cwin of cwin_state
  | N_session of session_state

type t = {
  plan : Plan.t;
  agg : Aggregate.t;
  mode : mode;
  spill : Fw_spill.Pool.t option;
      (** memory-budget pool shared by every operator store (owned by
          the caller, never closed here); [None] = all-resident *)
  metrics : Metrics.t;
  states : node_state array;
  obs : Metrics.node_stats array;  (** per-node stats, same index as states *)
  observe : bool;
  sample_mask : int;
      (** activation-latency sampling: clock every (mask+1)-th firing *)
  subs : int array array;
  sources : int array;
  mutable source_wm : int;
  mutable wm_wall : int;
      (** wall ns when the current watermark's broadcast began (0 until
          the first observed broadcast) — the fire-delay baseline.
          Deliberately absent from the export: it is transient
          wall-clock state, and checkpoints stay deterministic. *)
  rows : Row.t Vec.t;
  scratch : Batch.t;  (** reused one-event batch backing the [feed] wrapper *)
  mutable iota : int array;  (** identity selection [0; 1; ...] for batch roots *)
  mutable closed : bool;
}

let subscribers plan =
  let nodes = Plan.nodes plan in
  let subs = Array.make (Array.length nodes) [] in
  Array.iteri
    (fun id op ->
      let inputs =
        match op with
        | Plan.Source -> []
        | Plan.Multicast i -> [ i ]
        | Plan.Filter { input; _ } -> [ input ]
        | Plan.Win_agg { input; _ } -> [ input ]
        | Plan.Union is -> is
      in
      List.iter (fun i -> subs.(i) <- id :: subs.(i)) inputs)
    nodes;
  Array.map (fun l -> Array.of_list (List.rev l)) subs

(* Instance indices of [w] whose interval contains time [t].  Note that
   OCaml's [/] truncates toward zero, so the lower bound must special-case
   [t < r] instead of relying on [(t - r) / s]. *)
let instances_containing w t =
  let r = Window.range w and s = Window.slide w in
  let hi_m = t / s in
  let lo_m = if t < r then 0 else ((t - r) / s) + 1 in
  let rec collect m acc =
    if m > hi_m then List.rev acc
    else
      let lo = m * s in
      if lo <= t && t < lo + r then collect (m + 1) (m :: acc)
      else collect (m + 1) acc
  in
  collect lo_m []

(* Instance indices of [w] whose interval includes [u, v) entirely. *)
let instances_enclosing w ~lo:u ~hi:v =
  let r = Window.range w and s = Window.slide w in
  if v - u > r then []
  else
    let hi_m = u / s in
    let lo_m = max 0 (if v - r <= 0 then 0 else ((v - r - 1) / s) + 1) in
    let rec collect m acc =
      if m > hi_m then List.rev acc
      else
        let lo = m * s in
        if lo <= u && v <= lo + r then collect (m + 1) (m :: acc)
        else collect (m + 1) acc
    in
    collect lo_m []

(* Span recording for a window activation: latencies are sampled (the
   clock call is the only instrumentation cost that isn't a plain field
   increment), every 16th activation normally, every activation when a
   trace is attached so short traced runs aren't empty. *)
let trace_span t ~name ~id ~start_ns ~dur_ns ~items_in ~items_out ~window =
  match Metrics.trace t.metrics with
  | None -> ()
  | Some tr ->
      Fw_obs.Trace.record tr
        {
          Fw_obs.Trace.name;
          node = id;
          start_ns;
          dur_ns;
          items_in;
          items_out;
          attrs = [ ("window", Window.to_string window) ];
        }

(* --- dispatch ------------------------------------------------------- *)

let rec deliver t id msg =
  (match msg with
  | Item _ -> if t.observe then Counter.inc t.obs.(id).Metrics.rows_in
  | Watermark _ -> ());
  match t.states.(id) with
  | N_forward -> forward t id msg
  | N_filter _ ->
      (* raw events are filtered on the columnar path ([bdeliver]);
         sub-aggregates and watermarks pass through *)
      forward t id msg
  | N_union { sink } ->
      (* The union merges its inputs; when it is the plan output it also
         acts as the result sink.  (Watermarks of the separate inputs
         all derive from the single source sweep, so they carry the same
         value and are simply forwarded.) *)
      (match msg with
      | Item (Sub { window; interval; key; state }) when sink ->
          Vec.push t.rows
            { Row.window; interval; key; value = Combine.finalize state }
      | Item (Sub _) | Watermark _ -> ());
      forward t id msg
  | N_win st -> win_deliver t id st msg
  | N_pane ps -> pane_deliver t id ps msg
  | N_cwin st -> cwin_deliver t id st msg
  | N_session st -> session_deliver t id st msg

and forward t id msg =
  (match msg with
  | Item _ -> if t.observe then Counter.inc t.obs.(id).Metrics.rows_out
  | Watermark _ -> ());
  let subs = t.subs.(id) in
  for i = 0 to Array.length subs - 1 do
    deliver t subs.(i) msg
  done

(* --- per-instance (naive) window operator --------------------------- *)

(* Items are tallied per pending instance and reported to the metrics
   when the instance fires, so the counters measure exactly the work of
   {e complete} instances — the quantity the analytic cost model prices.
   Insertions into instances that straddle the closing horizon are not
   charged. *)
and win_add_instance st m key state_update =
  let lo = m * Window.slide st.window in
  let hi = lo + Window.range st.window in
  st.w_fire <- Fset.add (hi, key) st.w_fire;
  Store.update st.w_keys key (fun prev ->
      let im = match prev with None -> Imap.empty | Some im -> im in
      Imap.update hi
        (function
          | None -> Some (state_update None, 1)
          | Some (s, items) -> Some (state_update (Some s), items + 1))
        im)

(* Pop the due instance [hi] of [key] out of the store: the extracted
   state is an immutable value, so it can be forwarded after the store
   operations complete — no pin needed. *)
and win_extract st key hi =
  match Store.find st.w_keys key with
  | None -> invalid_arg "Stream_exec: fire index out of sync with store"
  | Some im ->
      let entry = Imap.find hi im in
      let im' = Imap.remove hi im in
      if Imap.is_empty im' then Store.remove st.w_keys key
      else Store.set st.w_keys key im';
      entry

and win_fire t id st wm =
  (* Cheap emptiness probe first: the clock and the counters only move
     when at least one instance actually fires.  The probe reads the
     resident fire index, so a watermark that fires nothing touches no
     spilled state. *)
  match Fset.min_elt_opt st.w_fire with
  | Some (hi0, _) when hi0 <= wm ->
      let ns = t.obs.(id) in
      let sampled = t.observe && ns.Metrics.activations land t.sample_mask = 0 in
      ns.Metrics.activations <- ns.Metrics.activations + 1;
      let t0 = if sampled then Clock.now_ns () else 0 in
      let fired = ref 0 and items_tot = ref 0 in
      let rec go () =
        match Fset.min_elt_opt st.w_fire with
        | Some ((hi, key) as fk) when hi <= wm ->
            st.w_fire <- Fset.remove fk st.w_fire;
            let state, items = win_extract st key hi in
            Metrics.record t.metrics st.window items;
            incr fired;
            items_tot := !items_tot + items;
            let interval =
              Interval.make ~lo:(hi - Window.range st.window) ~hi
            in
            forward t id
              (Item (Sub { window = st.window; interval; key; state }));
            go ()
        | Some _ | None -> ()
      in
      go ();
      if t.observe then begin
        Counter.add ns.Metrics.fires !fired;
        if sampled then begin
          let dur = Clock.elapsed_ns ~since:t0 in
          Fw_obs.Histogram.record ns.Metrics.fire_ns dur;
          if t.wm_wall > 0 then
            Fw_obs.Histogram.record ns.Metrics.fire_delay_ns
              (max 0 (t0 - t.wm_wall));
          trace_span t ~name:"win-fire" ~id ~start_ns:t0 ~dur_ns:dur
            ~items_in:!items_tot ~items_out:!fired ~window:st.window
        end
      end
  | Some _ | None -> ()

and win_deliver t id st msg =
  match msg with
  | Item (Sub { interval; key; state; _ }) ->
      List.iter
        (fun m ->
          win_add_instance st m key (function
            | None -> state
            | Some s -> Combine.merge s state))
        (instances_enclosing st.window ~lo:(Interval.lo interval)
           ~hi:(Interval.hi interval))
  | Watermark w ->
      if w > st.wm then begin
        st.wm <- w;
        win_fire t id st w;
        forward t id (Watermark w)
      end

(* --- pane-based incremental window operator ------------------------- *)

(* Fire instance [m] = indices [m·q, m·q + k): evict slid-out panes from
   every key's queue, emit one row per key still holding data, and drop
   keys whose queues drained.  A fed node then also evicts the indices
   below [(m+1)·q], which no later instance reads.  The metrics record
   the final-combine work (the number of pane states merged per fired
   instance). *)
and fire_pane t id ps m =
  let lo = m * Window.slide ps.p_window in
  let interval = Interval.make ~lo ~hi:(lo + Window.range ps.p_window) in
  let below = m * ps.q and next = (m + 1) * ps.q in
  let items = ref 0 in
  let evicted = ref 0 in
  let dead = ref [] in
  (* [Store.iter] pins the visited entry, so the in-place [Swag.slide]
     and the downstream delivery (which may touch other stores of the
     same pool) can never race an eviction of the queue being slid. *)
  Store.iter
    (fun key q ->
      let before = Swag.length q in
      (match Swag.slide q ~below with
      | None -> ()
      | Some state ->
          items := !items + Swag.length q;
          forward t id
            (Item (Sub { window = ps.p_window; interval; key; state })));
      if ps.fed then Swag.evict_below q next;
      evicted := !evicted + before - Swag.length q;
      if Swag.is_empty q then dead := key :: !dead)
    ps.queues;
  List.iter (Store.remove ps.queues) !dead;
  if t.observe then begin
    let ns = t.obs.(id) in
    Counter.add ns.Metrics.swag_evictions !evicted;
    if !items > 0 then Counter.inc ns.Metrics.fires
  end;
  if !items > 0 then Metrics.record t.metrics ps.p_window !items

(* Seal every index below [upto], interleaving seals with the instance
   firings they complete so each queue holds at most [k] panes per key
   when queried. *)
and pane_roll t id ps ~upto =
  (* Same emptiness probe as [win_fire]: no seal pending, no clock. *)
  if ps.cur_pane < upto then begin
    let ns = t.obs.(id) in
    let sampled = t.observe && ns.Metrics.activations land t.sample_mask = 0 in
    ns.Metrics.activations <- ns.Metrics.activations + 1;
    let t0 = if sampled then Clock.now_ns () else 0 in
    let fires0 = Counter.get ns.Metrics.fires in
    let flushed = ref 0 in
    while ps.cur_pane < upto do
      let p = ps.cur_pane in
      if not (Pane.is_empty ps.open_pane) then begin
        Pane.iter
          (fun key state ->
            Store.pinned ps.queues key
              ~init:(fun () -> Swag.create t.agg)
              (fun q -> Swag.push q ~idx:p state))
          ps.open_pane;
        Pane.clear ps.open_pane;
        incr flushed
      end;
      let first = p + 1 - ps.k in
      if first >= 0 && first mod ps.q = 0 then fire_pane t id ps (first / ps.q);
      ps.cur_pane <- p + 1
    done;
    if t.observe then begin
      Counter.add ns.Metrics.pane_flushes !flushed;
      if sampled then begin
        let dur = Clock.elapsed_ns ~since:t0 in
        Fw_obs.Histogram.record ns.Metrics.fire_ns dur;
        if t.wm_wall > 0 then
          Fw_obs.Histogram.record ns.Metrics.fire_delay_ns
            (max 0 (t0 - t.wm_wall));
        trace_span t ~name:"pane-roll" ~id ~start_ns:t0 ~dur_ns:dur
          ~items_in:!flushed
          ~items_out:(Counter.get ns.Metrics.fires - fires0)
          ~window:ps.p_window
      end
    end
  end

(* A parent emits its instances in ascending index order, so a sub of
   index [j] first seals (and fires) everything below [j].  It then
   goes straight into its key's queue: the parent emits one sub per key
   and instance, so index [j] of a key is exactly that one state and
   there is nothing to pre-aggregate — the open pane only ever holds
   raw events. *)
and pane_deliver t id ps msg =
  match msg with
  | Item (Sub { interval; key; state; _ }) ->
      let j = Interval.lo interval / ps.unit in
      pane_roll t id ps ~upto:j;
      Store.pinned ps.queues key
        ~init:(fun () -> Swag.create t.agg)
        (fun q -> Swag.push q ~idx:j state)
  | Watermark w ->
      if w > ps.p_wm then begin
        ps.p_wm <- w;
        pane_roll t id ps
          ~upto:(if w < ps.lag then 0 else ((w - ps.lag) / ps.unit) + 1);
        forward t id (Watermark w)
      end

(* --- count-window (ROWS frame) operator ----------------------------- *)

(* All access to a key's tracker happens under a pin: the callback
   mutates [kc] in place and [cwin_fire] forwards downstream mid-access
   (which may touch other stores of the same pool), so the tracker must
   not be evictable while the callback runs. *)
and cwin_with_key st key f =
  Store.pinned st.c_keys key
    ~init:(fun () -> { seen = 0; kpend = Imap.empty })
    f

and cwin_fold st kc m state_update =
  let hi = (m * Window.slide st.c_window) + Window.range st.c_window in
  kc.kpend <-
    Imap.update hi
      (function
        | None -> Some (state_update None, 1)
        | Some (s, items) -> Some (state_update (Some s), items + 1))
      kc.kpend

(* Fire every pending instance of [key] whose ordinal upper bound has
   been reached; a {e complete} stream-fed instance folded exactly [r]
   items and a sub-fed one exactly its covering multiplier, so the
   metrics measure the same quantity the cost model prices.
   Incomplete instances (the key never reaches [hi]) never fire. *)
and cwin_fire t id st key kc ~upto =
  match Imap.min_binding_opt kc.kpend with
  | Some (hi0, _) when hi0 <= upto ->
      let ns = t.obs.(id) in
      ns.Metrics.activations <- ns.Metrics.activations + 1;
      let fired = ref 0 in
      let rec go () =
        match Imap.min_binding_opt kc.kpend with
        | Some (hi, (state, items)) when hi <= upto ->
            kc.kpend <- Imap.remove hi kc.kpend;
            Metrics.record t.metrics st.c_window items;
            incr fired;
            let interval =
              Interval.make ~lo:(hi - Window.range st.c_window) ~hi
            in
            forward t id
              (Item (Sub { window = st.c_window; interval; key; state }));
            go ()
        | Some _ | None -> ()
      in
      go ();
      if t.observe then Counter.add ns.Metrics.fires !fired
  | Some _ | None -> ()

and cwin_deliver t id st msg =
  match msg with
  | Item (Sub { interval; key; state; _ }) ->
      (* Sub intervals live in the same per-key ordinal space: fold
         into every enclosing downstream instance, then advance the
         key's high-water to the sub's end. *)
      cwin_with_key st key (fun kc ->
          List.iter
            (fun m ->
              cwin_fold st kc m (function
                | None -> state
                | Some s -> Combine.merge s state))
            (instances_enclosing st.c_window ~lo:(Interval.lo interval)
               ~hi:(Interval.hi interval));
          if Interval.hi interval > kc.seen then
            kc.seen <- Interval.hi interval;
          cwin_fire t id st key kc ~upto:kc.seen)
  | Watermark w ->
      (* count instances are watermark-free; punctuation passes through
         for any time-domain consumers downstream of the union *)
      forward t id (Watermark w)

(* --- session-window operator ----------------------------------------- *)

(* Rotate [key]'s open session into the pending (deadline-ordered)
   map. *)
and session_rotate st key os =
  st.s_deadlines <- Fset.remove (os.s_last + st.s_gap, key) st.s_deadlines;
  Store.remove st.s_open key;
  let fk = { Fire_key.hi = os.s_last + st.s_gap; lo = os.s_first; key } in
  st.s_pending <- Pending.add fk (os.s_state, os.s_items) st.s_pending

(* An event at [tm] joins its key's open session iff it lands strictly
   before the session's deadline [last + gap]; otherwise the old
   session is rotated out and a fresh one opens.  Purely event-driven:
   no watermark can change this decision.  The find → mutate → [set]
   sequence follows the store contract; the deadline index tracks every
   [s_last] move. *)
and session_add t st key tm value =
  match Store.find st.s_open key with
  | Some os when tm < os.s_last + st.s_gap ->
      if tm > os.s_last then begin
        st.s_deadlines <-
          Fset.remove (os.s_last + st.s_gap, key) st.s_deadlines;
        os.s_last <- tm;
        st.s_deadlines <- Fset.add (tm + st.s_gap, key) st.s_deadlines
      end;
      os.s_state <- Combine.add os.s_state value;
      os.s_items <- os.s_items + 1;
      Store.set st.s_open key os
  | prev ->
      (match prev with Some os -> session_rotate st key os | None -> ());
      Store.set st.s_open key
        {
          s_first = tm;
          s_last = tm;
          s_state = Combine.of_value t.agg value;
          s_items = 1;
        };
      st.s_deadlines <- Fset.add (tm + st.s_gap, key) st.s_deadlines

(* Watermark [wm]: first expire open sessions whose deadline passed
   (no future event has time < wm, so they can never be joined again),
   then emit every pending session whose deadline is due, in ascending
   (deadline, first, key) order.  Expiry walks the resident deadline
   index, so only the keys actually expiring are faulted in — a
   watermark sweep over a mostly-idle key space touches no spilled
   state. *)
and session_advance t id st wm =
  let rec expire () =
    match Fset.min_elt_opt st.s_deadlines with
    | Some ((dl, key) as e) when dl <= wm ->
        (match Store.find st.s_open key with
        | Some os when os.s_last + st.s_gap = dl -> session_rotate st key os
        | Some _ | None ->
            (* defensive: a stale index entry must not loop forever *)
            st.s_deadlines <- Fset.remove e st.s_deadlines);
        expire ()
    | Some _ | None -> ()
  in
  expire ();
  match Pending.min_binding_opt st.s_pending with
  | Some (fk0, _) when fk0.Fire_key.hi <= wm ->
      let ns = t.obs.(id) in
      ns.Metrics.activations <- ns.Metrics.activations + 1;
      let fired = ref 0 in
      let rec go () =
        match Pending.min_binding_opt st.s_pending with
        | Some (fk, (state, items)) when fk.Fire_key.hi <= wm ->
            st.s_pending <- Pending.remove fk st.s_pending;
            Metrics.record t.metrics st.s_window items;
            incr fired;
            let interval =
              Interval.make ~lo:fk.Fire_key.lo ~hi:fk.Fire_key.hi
            in
            forward t id
              (Item
                 (Sub
                    {
                      window = st.s_window;
                      interval;
                      key = fk.Fire_key.key;
                      state;
                    }));
            go ()
        | Some _ | None -> ()
      in
      go ();
      if t.observe then Counter.add ns.Metrics.fires !fired
  | Some _ | None -> ()

and session_deliver t id st msg =
  match msg with
  | Item (Sub _) ->
      (* sessions have no static coverage, so the optimizer never feeds
         them sub-aggregates *)
      invalid_arg "Stream_exec: session window fed sub-aggregates"
  | Watermark w ->
      if w > st.s_wm then begin
        st.s_wm <- w;
        session_advance t id st w;
        forward t id (Watermark w)
      end

(* --- construction --------------------------------------------------- *)

let create ?(metrics = Metrics.create ()) ?(mode = Naive) ?(observe = true)
    ?spill plan =
  (match Validate.check plan with
  | [] -> ()
  | errors ->
      invalid_arg
        (Format.asprintf "Stream_exec.create: invalid plan:@ %a"
           (Format.pp_print_list ~pp_sep:Format.pp_print_space
              Validate.pp_error)
           errors));
  let nodes = Plan.nodes plan in
  let agg = Plan.agg plan in
  let output = Plan.output plan in
  (* The pane path applies whenever a constant-size sub-aggregate
     exists (not holistic) and its inputs tile an instance exactly: a
     stream-fed window must be aligned (s | r); a window-fed one reads a
     covering parent, whose instances tile it by Theorem 1.  The result
     is the pane geometry [(unit, lag, k, q, fed)] (see [pane_state]),
     or why the window runs the per-instance fallback instead — in
     precedence order, the first disqualification is the one
     reported. *)
  let pane_geometry window =
    if Aggregate.kind agg = Aggregate.Holistic then Error "holistic-aggregate"
    else
      match Plan.window_input plan window with
      | `Window parent ->
          let s1 = Window.slide parent in
          Ok
            ( s1,
              Window.range parent,
              Coverage.multiplier ~covered:window ~by:parent,
              Window.slide window / s1,
              true )
      | `Stream ->
          if Window.is_aligned window then
            let s = Window.slide window in
            Ok (s, s, Window.k_ratio window, 1, false)
          else Error "non-aligned-window"
  in
  let states =
    Array.mapi
      (fun id op ->
        match op with
        | Plan.Source | Plan.Multicast _ -> N_forward
        | Plan.Filter { pred; _ } -> N_filter pred
        | Plan.Union _ -> N_union { sink = false }
        | Plan.Win_agg { window; _ } -> (
            match (window : Window.t) with
            | Window.Session { gap } ->
                (* Key-dependent extents: the dedicated gap-tracking
                   fallback operator in both modes.  Incremental mode
                   surfaces it through the fallback metric. *)
                if mode = Incremental then
                  Metrics.record_fallback metrics ~id ~window
                    ~reason:"session-window";
                N_session
                  {
                    s_window = window;
                    s_gap = gap;
                    s_open =
                      Store.create ?pool:spill
                        ~name:(Printf.sprintf "n%d-session" id)
                        session_codec;
                    s_deadlines = Fset.empty;
                    s_pending = Pending.empty;
                    s_wm = 0;
                  }
            | Window.Hop { domain = Window.Count; _ } ->
                (* Ordinal-space instances: the dedicated count operator
                   in both modes (panes pre-aggregate per time slide, so
                   they never apply on the count axis). *)
                if mode = Incremental then
                  Metrics.record_fallback metrics ~id ~window
                    ~reason:"count-window";
                N_cwin
                  {
                    c_window = window;
                    c_keys =
                      Store.create ?pool:spill
                        ~name:(Printf.sprintf "n%d-cwin" id)
                        cwin_codec;
                  }
            | Window.Hop { domain = Window.Time; _ } -> (
                let per_instance () =
                  N_win
                    {
                      window;
                      w_keys =
                        Store.create ?pool:spill
                          ~name:(Printf.sprintf "n%d-win" id)
                          win_codec;
                      w_fire = Fset.empty;
                      wm = 0;
                    }
                in
                match mode with
                | Naive -> per_instance ()
                | Incremental -> (
                    match pane_geometry window with
                    | Ok (unit, lag, k, q, fed) ->
                        N_pane
                          {
                            p_window = window;
                            unit;
                            lag;
                            k;
                            q;
                            fed;
                            open_pane = Pane.create ?pool:spill agg;
                            cur_pane = 0;
                            queues =
                              Store.create ?pool:spill
                                ~name:(Printf.sprintf "n%d-queues" id)
                                (Bincodec.swag_codec agg);
                            p_wm = 0;
                          }
                    | Error reason ->
                        Metrics.record_fallback metrics ~id ~window ~reason;
                        per_instance ()))))
      nodes
  in
  (match states.(output) with
  | N_union _ -> states.(output) <- N_union { sink = true }
  | N_forward | N_filter _ | N_win _ | N_pane _ | N_cwin _ | N_session _ -> ());
  let obs =
    Array.mapi
      (fun id op ->
        let kind, window =
          match (op, states.(id)) with
          | Plan.Source, _ -> ("source", None)
          | Plan.Multicast _, _ -> ("multicast", None)
          | Plan.Filter _, _ -> ("filter", None)
          | Plan.Union _, _ -> ("union", None)
          | Plan.Win_agg { window; _ }, N_pane _ -> ("win-pane", Some window)
          | Plan.Win_agg { window; _ }, N_cwin _ -> ("win-count", Some window)
          | Plan.Win_agg { window; _ }, N_session _ ->
              ("win-session", Some window)
          | Plan.Win_agg { window; _ }, _ -> ("win-naive", Some window)
        in
        Metrics.node metrics ~id ~kind ?window ())
      nodes
  in
  let sources =
    let acc = ref [] in
    Array.iteri
      (fun id op -> match op with Plan.Source -> acc := id :: !acc | _ -> ())
      nodes;
    Array.of_list (List.rev !acc)
  in
  {
    plan;
    agg;
    mode;
    spill;
    metrics;
    states;
    obs;
    observe;
    sample_mask = (match Metrics.trace metrics with Some _ -> 0 | None -> 15);
    subs = subscribers plan;
    sources;
    source_wm = 0;
    wm_wall = 0;
    rows = Vec.create ();
    scratch = Batch.create ();
    iota = [||];
    closed = false;
  }

(* --- snapshot support ---------------------------------------------- *)

(* The export is a plain public mirror of every mutable cell: the
   pending per-instance states, the pane ring position, the per-key
   sliding queues (exact internal shape, see {!Fw_agg.Swag.export}),
   the watermark, and the rows emitted so far.  Restoring it through
   [import] onto the same plan and mode yields an executor whose
   subsequent behavior is indistinguishable from the original —
   including float rounding, which is why the queues are not rebuilt by
   replaying pushes. *)
type node_export =
  | X_stateless
  | X_win of {
      x_pending : (int * int * string * Combine.state * int) list;
          (* (hi, lo, key, state, items), in Fire_key order *)
      x_wm : int;
    }
  | X_pane of {
      x_cur_pane : int;
      x_p_wm : int;
      x_open_pane : Pane.export;
      x_queues : (string * Swag.export) list;  (* sorted by key *)
    }
  | X_cwin of {
      xc_keys : (string * int * (int * Combine.state * int) list) list;
          (* (key, seen, [(hi, state, items)] ascending), sorted by key *)
    }
  | X_session of {
      xs_open : (string * int * int * Combine.state * int) list;
          (* (key, first, last, state, items), sorted by key *)
      xs_pending : (int * int * string * Combine.state * int) list;
          (* (hi, lo, key, state, items), in Fire_key order *)
      xs_wm : int;
    }

type export = {
  x_mode : mode;
  x_source_wm : int;
  x_rows : Row.t list;  (* in emission order *)
  x_nodes : node_export array;
}

let row_count t = Vec.length t.rows
let row t i = Vec.get t.rows i

let export ?(rows = true) t =
  if t.closed then invalid_arg "Stream_exec.export: executor is closed";
  let node_x st =
    match st with
    | N_forward | N_filter _ | N_union _ -> X_stateless
    | N_win w ->
        (* Folding the store faults every spilled key back in, so the
           export is self-contained — snapshots never reference spill
           files.  [lo = hi - range] for every pending instance, and
           sorting by (hi, key) reproduces the historical ascending
           (hi, lo, key) order exactly. *)
        let range = Window.range w.window in
        X_win
          {
            x_pending =
              List.sort
                (fun (h1, _, k1, _, _) (h2, _, k2, _, _) ->
                  match Int.compare h1 h2 with
                  | 0 -> String.compare k1 k2
                  | c -> c)
                (Store.fold
                   (fun key im acc ->
                     Imap.fold
                       (fun hi (state, items) acc ->
                         (hi, hi - range, key, state, items) :: acc)
                       im acc)
                   w.w_keys []);
            x_wm = w.wm;
          }
    | N_pane ps ->
        X_pane
          {
            x_cur_pane = ps.cur_pane;
            x_p_wm = ps.p_wm;
            x_open_pane = Pane.export ps.open_pane;
            x_queues =
              List.sort
                (fun (a, _) (b, _) -> String.compare a b)
                (Store.fold
                   (fun k q acc -> (k, Swag.export q) :: acc)
                   ps.queues []);
          }
    | N_cwin st ->
        X_cwin
          {
            xc_keys =
              List.sort
                (fun (a, _, _) (b, _, _) -> String.compare a b)
                (Store.fold
                   (fun key kc acc ->
                     ( key,
                       kc.seen,
                       List.map
                         (fun (hi, (state, items)) -> (hi, state, items))
                         (Imap.bindings kc.kpend) )
                     :: acc)
                   st.c_keys []);
          }
    | N_session st ->
        X_session
          {
            xs_open =
              List.sort
                (fun (a, _, _, _, _) (b, _, _, _, _) -> String.compare a b)
                (Store.fold
                   (fun key os acc ->
                     (key, os.s_first, os.s_last, os.s_state, os.s_items)
                     :: acc)
                   st.s_open []);
            xs_pending =
              List.map
                (fun (fk, (state, items)) ->
                  (fk.Fire_key.hi, fk.Fire_key.lo, fk.Fire_key.key, state, items))
                (Pending.bindings st.s_pending);
            xs_wm = st.s_wm;
          }
  in
  {
    x_mode = t.mode;
    x_source_wm = t.source_wm;
    x_rows = (if rows then Vec.to_list t.rows else []);
    x_nodes = Array.map node_x t.states;
  }

let import ?metrics ?observe ?spill plan x =
  let t = create ?metrics ~mode:x.x_mode ?observe ?spill plan in
  if Array.length t.states <> Array.length x.x_nodes then
    invalid_arg
      "Stream_exec.import: node count mismatch (snapshot from a different \
       plan)";
  Array.iteri
    (fun id nx ->
      match (t.states.(id), nx) with
      | (N_forward | N_filter _ | N_union _), X_stateless -> ()
      | N_win st, X_win { x_pending; x_wm } ->
          st.wm <- x_wm;
          List.iter
            (fun (hi, _lo, key, state, items) ->
              st.w_fire <- Fset.add (hi, key) st.w_fire;
              Store.update st.w_keys key (fun prev ->
                  let im =
                    match prev with None -> Imap.empty | Some im -> im
                  in
                  Imap.add hi (state, items) im))
            x_pending
      | N_pane ps, X_pane { x_cur_pane; x_p_wm; x_open_pane; x_queues } ->
          List.iter
            (fun (k, xq) ->
              Store.set ps.queues k (Swag.import t.agg xq))
            x_queues;
          t.states.(id) <-
            N_pane
              {
                ps with
                cur_pane = x_cur_pane;
                p_wm = x_p_wm;
                open_pane = Pane.import ?pool:t.spill t.agg x_open_pane;
              }
      | N_cwin st, X_cwin { xc_keys } ->
          Store.clear st.c_keys;
          List.iter
            (fun (key, seen, pend) ->
              Store.set st.c_keys key
                {
                  seen;
                  kpend =
                    List.fold_left
                      (fun acc (hi, state, items) ->
                        Imap.add hi (state, items) acc)
                      Imap.empty pend;
                })
            xc_keys
      | N_session st, X_session { xs_open; xs_pending; xs_wm } ->
          Store.clear st.s_open;
          st.s_deadlines <- Fset.empty;
          List.iter
            (fun (key, s_first, s_last, s_state, s_items) ->
              Store.set st.s_open key { s_first; s_last; s_state; s_items };
              st.s_deadlines <-
                Fset.add (s_last + st.s_gap, key) st.s_deadlines)
            xs_open;
          st.s_pending <-
            List.fold_left
              (fun acc (hi, lo, key, state, items) ->
                Pending.add { Fire_key.hi; lo; key } (state, items) acc)
              Pending.empty xs_pending;
          st.s_wm <- xs_wm
      | ( ( N_forward | N_filter _ | N_union _ | N_win _ | N_pane _ | N_cwin _
          | N_session _ ),
          _ ) ->
          invalid_arg
            (Printf.sprintf
               "Stream_exec.import: node %d shape mismatch (snapshot from a \
                different plan or mode)"
               id))
    x.x_nodes;
  t.source_wm <- x.x_source_wm;
  List.iter (Vec.push t.rows) x.x_rows;
  t

let root_deliver t msg =
  Array.iter (fun id -> deliver t id msg) t.sources

(* --- batched dispatch ----------------------------------------------- *)

(* Vectorized delivery of raw events: one node visit per batch segment
   instead of one per event.  [sel.(lo .. hi-1)] are column indices
   into [b]; filters narrow the selection, window operators fold the
   whole run inline.  Watermarks still travel through the per-message
   [deliver] above — firing is where rows are born and order matters,
   so that path stays shared between the per-event and batched modes.

   The equivalence argument (why coalescing per-event watermarks to
   segment boundaries is invisible): an event at time [t] only folds
   into instances with [hi > t], which is disjoint from the instances
   a watermark [<= t] fires; firing pops {!Pending} in ascending
   (hi, lo, key) order, so the per-node emission order of a coalesced
   fire equals the concatenation of the per-event fires; and the
   cost-model counters are order-insensitive sums.  Engine state at
   every punctuation boundary is therefore exactly the per-event
   state — which is what makes mid-batch checkpoints sound
   ({!Fw_snap.Checkpoint}).  Per-node activation counts and sampled
   latencies may legitimately differ (fewer, larger activations). *)
let rec bdeliver t id b sel lo hi =
  if hi > lo then begin
    if t.observe then Counter.add t.obs.(id).Metrics.rows_in (hi - lo);
    match t.states.(id) with
    | N_forward -> bforward t id b sel lo hi
    | N_filter pred ->
        let times = Batch.times b
        and keys = Batch.keys b
        and values = Batch.values b in
        let keep = Array.make (hi - lo) 0 in
        let m = ref 0 in
        for i = lo to hi - 1 do
          let j = sel.(i) in
          if
            Fw_plan.Predicate.eval pred ~key:keys.(j) ~value:values.(j)
              ~time:times.(j)
          then begin
            keep.(!m) <- j;
            incr m
          end
        done;
        bforward t id b keep 0 !m
    | N_union _ ->
        (* raw events never become rows at the sink; pass through *)
        bforward t id b sel lo hi
    | N_win st -> bwin_add t st b sel lo hi
    | N_pane ps -> bpane_add t id ps b sel lo hi
    | N_cwin st -> bcwin_add t id st b sel lo hi
    | N_session st -> bsession_add t st b sel lo hi
  end

and bforward t id b sel lo hi =
  if t.observe then Counter.add t.obs.(id).Metrics.rows_out (hi - lo);
  let subs = t.subs.(id) in
  for i = 0 to Array.length subs - 1 do
    bdeliver t subs.(i) b sel lo hi
  done

(* Per-instance fold of a run: the instance loop is inlined (no
   per-event index-list allocation), visiting the same instances in
   the same ascending order as {!instances_containing}. *)
and bwin_add t st b sel lo hi =
  let times = Batch.times b
  and keys = Batch.keys b
  and values = Batch.values b in
  let r = Window.range st.window and s = Window.slide st.window in
  for i = lo to hi - 1 do
    let j = sel.(i) in
    let tm = times.(j) in
    let v = values.(j) in
    let hi_m = tm / s in
    let lo_m = if tm < r then 0 else ((tm - r) / s) + 1 in
    for m = lo_m to hi_m do
      let l = m * s in
      if l <= tm && tm < l + r then
        win_add_instance st m keys.(j) (function
          | None -> Combine.of_value t.agg v
          | Some st' -> Combine.add st' v)
    done
  done

(* Count-window fold of a run: firing happens inside the event loop
   (instances complete on arrival, not at punctuation), so downstream
   consumers see sub-aggregates in exactly the per-event order —
   byte-identity at any batch size is structural, not argued. *)
and bcwin_add t id st b sel lo hi =
  let keys = Batch.keys b
  and values = Batch.values b in
  let r = Window.range st.c_window and s = Window.slide st.c_window in
  for i = lo to hi - 1 do
    let j = sel.(i) in
    cwin_with_key st keys.(j) (fun kc ->
        let n = kc.seen in
        kc.seen <- n + 1;
        let v = values.(j) in
        let hi_m = n / s in
        let lo_m = if n < r then 0 else ((n - r) / s) + 1 in
        for m = lo_m to hi_m do
          let l = m * s in
          if l <= n && n < l + r then
            cwin_fold st kc m (function
              | None -> Combine.of_value t.agg v
              | Some st' -> Combine.add st' v)
        done;
        cwin_fire t id st keys.(j) kc ~upto:kc.seen)
  done

(* Session fold of a run: join/rotate per event (order-dependent but
   watermark-free); emission happens at the segment's trailing
   watermark through the shared per-message path. *)
and bsession_add t st b sel lo hi =
  let times = Batch.times b
  and keys = Batch.keys b
  and values = Batch.values b in
  for i = lo to hi - 1 do
    let j = sel.(i) in
    session_add t st keys.(j) times.(j) values.(j)
  done

(* Pane fold of a run: roll once per pane boundary, then absorb the
   maximal run landing in the open pane with one columnar
   {!Pane.add_run} — the events between two boundaries would each have
   hit [pane_roll] as a no-op in the per-event path. *)
and bpane_add t id ps b sel lo hi =
  let times = Batch.times b
  and keys = Batch.keys b
  and values = Batch.values b in
  let i = ref lo in
  while !i < hi do
    pane_roll t id ps ~upto:(times.(sel.(!i)) / ps.unit);
    let bound = (ps.cur_pane + 1) * ps.unit in
    let j = ref (!i + 1) in
    while !j < hi && times.(sel.(!j)) < bound do
      incr j
    done;
    Pane.add_run ps.open_pane ~keys ~values ~sel ~lo:!i ~hi:!j;
    i := !j
  done

let ensure_iota t n =
  if Array.length t.iota < n then
    t.iota <- Array.init (max n (2 * Array.length t.iota)) (fun i -> i)

(* Broadcast a new source watermark.  [stamp] is the wall clock when
   the punctuation entered the engine — taken lazily, at most once per
   feed_batch call (or pre-filled by the sharding driver, so queue
   wait is visible in the delay): the clock is only read when a
   watermark actually advances, keeping observe-mode clock cost off
   the per-event path.  It baselines the sampled watermark-to-fire
   delay and feeds the progress gauges the meter turns into watermark
   lag. *)
let broadcast_wm t ~stamp wm =
  t.source_wm <- wm;
  if t.observe then begin
    if !stamp = 0 then stamp := Clock.now_ns ();
    t.wm_wall <- !stamp;
    Metrics.record_watermark t.metrics ~wm ~at_ns:t.wm_wall
  end;
  root_deliver t (Watermark wm)

let feed_batch t b =
  if t.closed then invalid_arg "Stream_exec.feed_batch: executor is closed";
  let n = Batch.length b in
  let nm = Batch.mark_count b in
  let times = Batch.times b in
  (* Atomic validation: replay the interleaved slot order against the
     watermark before touching any state, so a late event rejects the
     whole batch with no partial effects. *)
  let running = ref t.source_wm in
  let mj = ref 0 in
  for i = 0 to n - 1 do
    while !mj < nm && fst (Batch.mark b !mj) <= i do
      let _, wm = Batch.mark b !mj in
      if wm > !running then running := wm;
      incr mj
    done;
    if times.(i) < !running then raise (Late_event (Batch.event b i));
    if times.(i) > !running then running := times.(i)
  done;
  if n > 0 then Metrics.record_ingest t.metrics n;
  ensure_iota t n;
  let iota = t.iota in
  (* one lazy wall-clock stamp per batch: every broadcast below shares it *)
  let stamp = ref 0 in
  (* Deliver one segment of events, then broadcast its trailing
     watermark (the last event's time): per-event execution would have
     broadcast after every time increase, but no state distinguishable
     at a segment boundary depends on the intermediate broadcasts. *)
  let seg lo hi =
    if hi > lo then begin
      Array.iter (fun id -> bdeliver t id b iota lo hi) t.sources;
      let tm = times.(hi - 1) in
      if tm > t.source_wm then broadcast_wm t ~stamp tm
    end
  in
  let pos = ref 0 in
  for j = 0 to nm - 1 do
    let at, wm = Batch.mark b j in
    let at = min (max at !pos) n in
    seg !pos at;
    pos := at;
    if wm > t.source_wm then broadcast_wm t ~stamp wm
  done;
  seg !pos n

let feed t e =
  if t.closed then invalid_arg "Stream_exec.feed: executor is closed";
  Batch.reset t.scratch;
  Batch.push t.scratch e;
  feed_batch t t.scratch

let advance ?(at_ns = 0) t time =
  if t.closed then invalid_arg "Stream_exec.advance: executor is closed";
  if time > t.source_wm then broadcast_wm t ~stamp:(ref at_ns) time

let close t ~horizon =
  advance t horizon;
  t.closed <- true;
  Row.sort (Vec.to_list t.rows)

let run ?metrics ?mode ?observe ?spill plan ~horizon events =
  let t = create ?metrics ?mode ?observe ?spill plan in
  List.iter
    (fun e -> if e.Event.time < horizon then feed t e)
    (Event.sort events);
  close t ~horizon
