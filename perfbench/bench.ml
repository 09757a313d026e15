(* End-to-end and per-layer benchmark of the beaconing -> segments ->
   traffic pipeline.

   One process runs one workload. It derives the workload's inputs from
   [--seed], sets up, runs a fixed number of timed repetitions of the
   workload's unit of work, each followed by one pass of each probe
   phase (for the metrics whose layer the timed unit does not exercise)
   and by a timed set-up, checks every output against invariants and
   reference digests, and prints one JSON result line. Every layer call
   is timed from outside, around the libraries' public functions; an
   end-to-end timing sums each call's best time over the passes and is
   scaled to a reference host speed. See README.md. *)

let clock = Unix.gettimeofday

(* Words allocated so far by this domain (minor + direct major). *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let mwords w = w /. 1e6

(* --- spans ------------------------------------------------------------- *)

(* A span brackets one call into a layer. Spans are kept in memory and
   written out when the run ends; all spans of a run share its trace
   id. Allocation is recorded at the same boundaries. *)
type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  t0 : float;
  t1 : float;
  alloc : float;  (** words allocated inside the span *)
}

let tracing = ref false
let spans : span list ref = ref []
let span_stack : int list ref = ref []
let next_span = ref 0

let span name f =
  if not !tracing then f ()
  else begin
    let id = !next_span in
    incr next_span;
    let parent = match !span_stack with p :: _ -> p | [] -> -1 in
    span_stack := id :: !span_stack;
    let a0 = alloc_words () in
    let t0 = clock () in
    let close () =
      let t1 = clock () in
      span_stack := List.tl !span_stack;
      spans := { id; name; parent; t0; t1; alloc = alloc_words () -. a0 } :: !spans
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(* Self time: duration minus the time covered by direct children (the
   benchmark is single-threaded, so children never overlap). *)
let self_times all =
  let child = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (s.t1 -. s.t0 +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    all;
  List.map
    (fun s -> (s, s.t1 -. s.t0 -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    all

(* --- metrics ------------------------------------------------------------- *)

(* Metrics print in insertion order; every timing also records its
   sample count in [samples]. *)
let metrics : (string * float * string) list ref = ref []
let samples : (string * int) list ref = ref []
let medians : (string * float) list ref = ref []

let metric ?n name value unit =
  metrics := (name, value, unit) :: !metrics;
  Option.iter (fun n -> samples := (name, n) :: !samples) n

let median_of l = Stats.median (Array.of_list l)

(* --- inputs ---------------------------------------------------------------- *)

(* The same graph with its AS indices permuted by the seed: identical
   structure, but every tie-break on an AS index resolves differently.
   Link ids keep their order: shuffling them too made beaconing 40 %
   slower on every seed, so it would measure link-id locality. *)
let relabel g rng =
  let n = Graph.n g in
  let perm = Array.init n Fun.id in
  Rng.shuffle rng perm;
  let new_of_old = Array.make n 0 in
  Array.iteri (fun i o -> new_of_old.(o) <- i) perm;
  let b = Graph.builder () in
  Array.iter
    (fun o ->
      let info = Graph.as_info g o in
      ignore
        (Graph.add_as b ~tier:info.Graph.tier ~cities:info.Graph.cities
           ~core:info.Graph.core info.Graph.ia))
    perm;
  for l = 0 to Graph.num_links g - 1 do
    let k = Graph.link g l in
    Graph.add_link b ~rel:k.Graph.rel new_of_old.(k.Graph.a) new_of_old.(k.Graph.b)
  done;
  Graph.freeze b

let beacon_config algorithm scope rounds =
  {
    Exp_common.beacon_config with
    Beaconing.algorithm;
    scope;
    duration = Exp_common.beacon_config.Beaconing.interval *. float_of_int rounds;
  }

(* Offered paths per pair are capped like the traffic scenario caps
   them, so strategy scoring stays bounded per flow. *)
let max_offered = 16

(* Demand is fixed: which pairs it draws moves the resolve and traffic
   cost by tens of percent, so a seeded demand would measure the draw,
   not the code. The seed orders the resolve calls and times the
   outage instead. *)
let demand_seed = Runner.job_seed 0x7AF1CL 1

(* --- output checks -------------------------------------------------------- *)

let add_int b i =
  Buffer.add_string b (string_of_int i);
  Buffer.add_char b ';'

let add_float b f = Buffer.add_string b (Printf.sprintf "%h;" f)

let add_str b s =
  add_int b (String.length s);
  Buffer.add_string b s

let hex b = Digest.to_hex (Digest.string (Buffer.contents b))

let joins (l : Graph.link) x y = (l.Graph.a = x && l.Graph.b = y) || (l.Graph.a = y && l.Graph.b = x)

(* Digest of a beaconing outcome: total PCBs and bytes and every
   store's canonical dump. On the way, check that no origin exceeds the
   storage limit and that every stored PCB is a walk over real links
   from its origin to the AS holding it. *)
let digest_outcome gate (out : Beaconing.outcome) =
  let b = Buffer.create (1 lsl 20) in
  let g = out.Beaconing.graph in
  add_int b out.Beaconing.stats.Beaconing.total_pcbs;
  add_float b out.Beaconing.stats.Beaconing.total_bytes;
  Array.iteri
    (fun holder store ->
      let d = Beacon_store.dump store in
      add_int b d.Beacon_store.d_limit;
      List.iter
        (fun (origin, last_modified, pcbs) ->
          add_int b origin;
          add_float b last_modified;
          Gate.check gate
            (List.length pcbs <= d.Beacon_store.d_limit)
            (Printf.sprintf "store %d over its limit for origin %d" holder origin);
          List.iter
            (fun (p : Pcb.t) ->
              add_str b p.Pcb.key;
              add_float b p.Pcb.timestamp;
              let hops = p.Pcb.hops in
              let n = Array.length hops in
              let ok = ref (n > 0 && p.Pcb.origin = origin && hops.(0).Pcb.asn = origin) in
              Array.iteri
                (fun i (h : Pcb.hop) ->
                  let next = if i + 1 < n then hops.(i + 1).Pcb.asn else holder in
                  if not (joins (Graph.link g h.Pcb.link) h.Pcb.asn next) then ok := false)
                hops;
              Gate.check gate !ok (Printf.sprintf "store %d holds an invalid path" holder))
            pcbs)
        d.Beacon_store.d_origins)
    out.Beaconing.stores;
  hex b

(* A resolved path runs from [src] to [dst] over links that join each
   pair of consecutive crossings. *)
let valid_path g ~src ~dst (p : Fwd_path.t) =
  let c = p.Fwd_path.crossings in
  let n = Array.length c in
  n >= 2
  && Fwd_path.src p = src
  && Fwd_path.dst p = dst
  &&
  let ok = ref true in
  for i = 0 to n - 2 do
    let l = c.(i).Fwd_path.out_link in
    if l <> c.(i + 1).Fwd_path.in_link
       || not (joins (Graph.link g l) c.(i).Fwd_path.as_idx c.(i + 1).Fwd_path.as_idx)
    then ok := false
  done;
  !ok

let digest_report b (r : Traffic_sim.report) =
  List.iter (add_int b)
    [
      r.Traffic_sim.slots_done;
      r.Traffic_sim.flows_admitted;
      r.Traffic_sim.flows_rejected;
      r.Traffic_sim.flows_completed;
      r.Traffic_sim.flows_unfinished;
      r.Traffic_sim.path_switches;
    ];
  List.iter (add_float b)
    [
      r.Traffic_sim.mean_fct_s;
      r.Traffic_sim.delivered_mbit;
      r.Traffic_sim.mean_utilization;
      r.Traffic_sim.max_utilization;
    ];
  let s = r.Traffic_sim.recovery in
  List.iter (add_int b)
    [
      s.Recovery.events_down;
      s.Recovery.events_up;
      s.Recovery.affected_pairs;
      s.Recovery.failovers;
      s.Recovery.blackouts;
      s.Recovery.unrecovered;
      s.Recovery.revoked_segments;
      s.Recovery.revocation_msgs;
      s.Recovery.dropped_pcbs;
    ];
  add_float b s.Recovery.blackout_time_s;
  Array.iter (add_float b) s.Recovery.recovery_samples

(* --- layers ------------------------------------------------------------------ *)

(* Per-layer counts of the traced repetitions and probes. *)
type layers = {
  mutable round_s : float list;
  mutable selection_s : float;
  mutable core_alloc : float;
  mutable pcbs_sent : int;
  mutable bytes_sent : float;
  mutable store_pcbs : int;
  mutable beacon_units : int;  (** beaconing runs the core counts cover *)
  mutable build_s : float;
  mutable resolve_s : float;
  mutable resolves : int;
  mutable resolve_alloc : float;
  mutable paths : int;
  mutable offered : int;
  mutable lookups : int;
  mutable reply_segments : int;
  mutable resolve_units : int;
  mutable advance_s : float;
  mutable traffic_alloc : float;
  mutable encode_s : float;
  mutable restore_s : float;
  mutable codec_alloc : float;
  mutable snapshot_bytes : int;
  mutable report : Traffic_sim.report option;
  mutable traffic_units : int;
  mutable minor_gcs : int;
  mutable major_gcs : int;
  mutable gc_units : int;
  mutable traced_wall : float list;
  mutable untraced_wall : float list;
}

let layers =
  {
    round_s = [];
    selection_s = 0.0;
    core_alloc = 0.0;
    pcbs_sent = 0;
    bytes_sent = 0.0;
    store_pcbs = 0;
    beacon_units = 0;
    build_s = 0.0;
    resolve_s = 0.0;
    resolves = 0;
    resolve_alloc = 0.0;
    paths = 0;
    offered = 0;
    lookups = 0;
    reply_segments = 0;
    resolve_units = 0;
    advance_s = 0.0;
    traffic_alloc = 0.0;
    encode_s = 0.0;
    restore_s = 0.0;
    codec_alloc = 0.0;
    snapshot_bytes = 0;
    report = None;
    traffic_units = 0;
    minor_gcs = 0;
    major_gcs = 0;
    gc_units = 0;
    traced_wall = [];
    untraced_wall = [];
  }

(* [f]'s result, duration and allocated words. *)
let timed f =
  let a0 = alloc_words () in
  let t0 = clock () in
  let v = f () in
  (v, clock () -. t0, alloc_words () -. a0)

(* --- beaconing ----------------------------------------------------------------- *)

(* Run a beaconing configuration round by round. A traced run passes an
   enabled [Obs.t], whose [beacon.selection_round] timer splits
   selection from delivery. Returns the outcome and per-round times. *)
let beacon g cfg =
  let obs = if !tracing then Obs.create () else Obs.disabled in
  let a0 = alloc_words () in
  let e = Beaconing.engine ~obs g cfg in
  let rounds = (Beaconing.engine_stats e).Beaconing.rounds in
  let times =
    List.init rounds (fun r ->
        let t0 = clock () in
        span "core.engine_round" (fun () -> Beaconing.engine_round e ~round:r);
        clock () -. t0)
  in
  let out = Beaconing.engine_outcome e in
  if !tracing then begin
    layers.round_s <- times @ layers.round_s;
    layers.selection_s <-
      layers.selection_s +. Timer.total (Obs.timers obs) "beacon.selection_round";
    layers.core_alloc <- layers.core_alloc +. (alloc_words () -. a0);
    layers.pcbs_sent <- layers.pcbs_sent + out.Beaconing.stats.Beaconing.total_pcbs;
    layers.bytes_sent <- layers.bytes_sent +. out.Beaconing.stats.Beaconing.total_bytes;
    layers.store_pcbs <-
      layers.store_pcbs
      + Array.fold_left (fun acc s -> acc + Beacon_store.total s) 0 out.Beaconing.stores;
    layers.beacon_units <- layers.beacon_units + 1
  end;
  (out, times)

(* --- lookups and traffic --------------------------------------------------------- *)

let server_totals cs g =
  List.fold_left
    (fun (lk, rs) c ->
      match Control_service.core_path_server cs c with
      | None -> (lk, rs)
      | Some ps ->
          let s = Path_server.stats ps in
          ( lk + s.Path_server.lookups_down + s.Path_server.lookups_core,
            rs + s.Path_server.reply_segments_down + s.Path_server.reply_segments_core ))
    (0, 0) (Graph.core_ases g)

let build_cs ~core ~intra =
  let cs, dt, _ = timed (fun () -> span "segments.build" (fun () -> Control_service.build ~core ~intra ())) in
  if !tracing then layers.build_s <- dt;
  cs

(* One closed-loop resolve per pair, in the given order, calls issued
   back to back. Returns the per-call latencies (seconds, call order)
   and the capped offered-path set of every pair (pair order). *)
let resolve_all gate cs pairs order =
  let g = Control_service.graph cs in
  let lk0, rs0 = server_totals cs g in
  let lat = Array.make (Array.length order) 0.0 in
  let offered = Array.make (Array.length pairs) [||] in
  let n_paths = ref 0 and n_offered = ref 0 in
  let (), phase_s, alloc =
    timed (fun () ->
        Array.iteri
          (fun i k ->
            let src, dst = pairs.(k) in
            let t0 = clock () in
            let l = span "segments.resolve" (fun () -> Control_service.resolve cs ~src ~dst) in
            lat.(i) <- clock () -. t0;
            let a = Array.of_list l in
            n_paths := !n_paths + Array.length a;
            let a = if Array.length a > max_offered then Array.sub a 0 max_offered else a in
            n_offered := !n_offered + Array.length a;
            offered.(k) <- a)
          order)
  in
  Array.iteri
    (fun k (src, dst) ->
      Gate.check gate
        (Array.for_all (valid_path g ~src ~dst) offered.(k))
        (Printf.sprintf "invalid path resolved for %d -> %d" src dst))
    pairs;
  if !tracing then begin
    let lk1, rs1 = server_totals cs g in
    layers.resolve_s <- layers.resolve_s +. phase_s;
    layers.resolves <- layers.resolves + Array.length order;
    layers.resolve_alloc <- layers.resolve_alloc +. alloc;
    layers.paths <- layers.paths + !n_paths;
    layers.offered <- layers.offered + !n_offered;
    layers.lookups <- layers.lookups + (lk1 - lk0);
    layers.reply_segments <- layers.reply_segments + (rs1 - rs0);
    layers.resolve_units <- layers.resolve_units + 1
  end;
  (lat, offered)

let digest_paths b offered =
  Array.iter
    (fun a ->
      add_int b (Array.length a);
      Array.iter (fun p -> add_str b (Fwd_path.key p)) a)
    offered

(* Fail a link of the lowest-latency path of the most popular pair
   that has paths, preferring a link some alternate path avoids, so
   the outage produces failovers and not only blackouts (the traffic
   scenario's choice). *)
let outage_link ~latency_ms offered =
  let path_lat (p : Fwd_path.t) =
    Array.fold_left (fun a l -> a +. latency_ms.(l)) 0.0 p.Fwd_path.links
  in
  match Array.find_opt (fun a -> Array.length a > 0) offered with
  | None -> None
  | Some a ->
      let p0 = Array.fold_left (fun acc p -> if path_lat p < path_lat acc then p else acc) a.(0) a in
      let avoided l = Array.exists (fun p -> not (Fwd_path.contains_link p l)) a in
      (match List.find_opt avoided (Array.to_list p0.Fwd_path.links) with
      | Some l -> Some l
      | None -> if Array.length p0.Fwd_path.links > 0 then Some p0.Fwd_path.links.(0) else None)

let drain_s = 600.0
let chunk = 1200

let traffic_config g demand offered ~outage_at =
  let latency_ms = Geo.latency_table g in
  let horizon = (Demand.params demand).Demand.horizon_s in
  let plan =
    Fault_plan.plan
      (match outage_link ~latency_ms offered with
      | None -> []
      | Some link ->
          [ Fault_plan.Link_down { link; at = outage_at *. horizon; duration = 0.2 *. horizon } ])
  in
  {
    Traffic_sim.graph = g;
    paths = offered;
    latency_ms;
    demand;
    strategy = Strategy.Load_adaptive;
    width = 3;
    plan;
    capacity_scale = 0.2;
    slot_s = 1.0;
    slots = int_of_float (Float.ceil (horizon +. drain_s)) + 1;
    adapt_margin = 1.25;
    metric_labels = [ ("workload", "perfbench") ];
  }

(* Slots per timed advance step. Steps are short so that each is a
   fine timing unit (see [best_units]); the simulation does the same
   work whatever the step. *)
let step = 100

(* The traffic scenario's loop: advance in 1 200-slot chunks, here in
   [step]-slot steps, with an encode/restore round trip of the whole
   simulation between chunks. Returns the report and the time of every
   call in call order: create, the steps, encode and restore after each
   chunk, finish. *)
let simulate cfg =
  let units = ref [] in
  let call name f =
    let v, dt, a = timed (fun () -> span name f) in
    units := dt :: !units;
    (v, dt, a)
  in
  let t0, _, _ = call "traffic.create" (fun () -> Traffic_sim.create cfg) in
  let t = ref t0 in
  while Traffic_sim.slot !t < Traffic_sim.slots_total !t do
    let upto = min (Traffic_sim.slot !t + chunk) (Traffic_sim.slots_total !t) in
    while Traffic_sim.slot !t < upto do
      let upto = min (Traffic_sim.slot !t + step) upto in
      let (), dt, a = call "traffic.advance" (fun () -> Traffic_sim.advance !t ~upto) in
      if !tracing then begin
        layers.advance_s <- layers.advance_s +. dt;
        layers.traffic_alloc <- layers.traffic_alloc +. a
      end
    done;
    let bytes, de, ae = call "supervise.encode" (fun () -> Traffic_sim.encode !t) in
    let t', dr, ar = call "supervise.restore" (fun () -> Traffic_sim.restore cfg bytes) in
    t := t';
    if !tracing then begin
      layers.encode_s <- layers.encode_s +. de;
      layers.restore_s <- layers.restore_s +. dr;
      layers.codec_alloc <- layers.codec_alloc +. ae +. ar;
      layers.snapshot_bytes <- max layers.snapshot_bytes (String.length bytes)
    end
  done;
  ignore (call "traffic.finish" (fun () -> Traffic_sim.finish !t));
  let r = Traffic_sim.report !t in
  if !tracing then begin
    layers.report <- Some r;
    layers.traffic_units <- layers.traffic_units + 1
  end;
  (r, Array.of_list (List.rev !units))

let check_report gate label (r : Traffic_sim.report) flows =
  Gate.check gate
    (r.Traffic_sim.flows_admitted + r.Traffic_sim.flows_rejected = flows
    && r.Traffic_sim.flows_completed + r.Traffic_sim.flows_unfinished = r.Traffic_sim.flows_admitted)
    (Printf.sprintf "%s: flow accounting does not add up" label)

(* --- workloads ------------------------------------------------------------------- *)

(* One timed pass of a phase: the work items it did (PCBs sent,
   resolves, flows admitted) and the time of each of its units (an
   engine round, a resolve call, a traffic step or codec call), in the
   order every pass of the phase repeats. *)
type pass = { work : int; units : float array }

type rep = { wall_s : float; alloc : float; digest : string }

(* Everything a run measured: the repetitions' timed units and, for
   each phase, one pass per repetition. *)
type measured = {
  setup_s : pass list;  (** one pass per set-up *)
  reps : rep list;  (** timed repetitions that completed *)
  timed : pass list;  (** the units of each completed repetition *)
  beaconing : pass list;
  resolving : pass list;
  traffic : pass list;
}

type workload = {
  name : string;
  cycle_s : float;
      (** nominal seconds of one repetition with its probe passes and
          set-up, which sizes the repetition count from [--seconds] *)
  run : Gate.t -> seed:int -> reps:int -> expected:(string -> string option) -> measured;
}

(* The first digest each part of the output produced, printed so
   references can be recorded. *)
let digests : (string * string) list ref = ref []

let record_digest part d = if not (List.mem_assoc part !digests) then digests := (part, d) :: !digests

(* --- host speed -------------------------------------------------------------- *)

(* The host's speed drifts by 10-25 % for minutes at a time, longer
   than a run, and every timing of a run moves with it (README.md,
   "Host noise"). So a reference kernel that runs no code of the
   program is timed between the passes, and each end-to-end timing is
   scaled by the kernel's reference time over its p10 time in the run:
   seconds at the reference host's speed. The kernel works outside the
   OCaml heap, so its time does not depend on what the program leaves
   there. Its memory is made after the first repetition, which sets
   peak_heap_mb, because making it speeds up the next major GC cycle. *)
let kernel_words = 1 lsl 19

let kernel_mem =
  lazy Bigarray.(Array1.create int c_layout kernel_words, Array1.create int c_layout (kernel_words / 2))

(* Four times, streams through 2 MiB and makes 25 000 dependent random
   updates in 4 MiB, so it feels the cache and the core contention the
   workloads feel. *)
let kernel () =
  let open Bigarray.Array1 in
  let kernel_table, kernel_stream = Lazy.force kernel_mem in
  let x = ref 88172645463325252 in
  for r = 1 to 4 do
    for i = 0 to (kernel_words / 2) - 1 do
      unsafe_set kernel_stream i (i + r)
    done;
    for _ = 1 to 25_000 do
      x := !x lxor (!x lsl 13);
      x := !x lxor (!x lsr 7);
      x := !x lxor (!x lsl 17);
      let j = !x land (kernel_words - 1) in
      unsafe_set kernel_table j
        (unsafe_get kernel_table ((j * 7) land (kernel_words - 1))
        + unsafe_get kernel_stream (j land ((kernel_words / 2) - 1)))
    done
  done

let kernel_s : float list ref = ref []

(* Kernel calls after each pass: about 0.1 s. *)
let kernel_calls = 40

let time_kernel () =
  for _ = 1 to kernel_calls do
    let t0 = clock () in
    kernel ();
    kernel_s := (clock () -. t0) :: !kernel_s
  done

(* The kernel's p10 time on the 2-vCPU host the bounds were set on. *)
let kernel_ref_s = 0.0018

(* A probe runs one pass of a phase per call, from a clean heap, as
   one attempted operation. [f] returns the pass's output digest and
   the pass; every pass must produce the digest of the first. *)
let make_probe gate part ~expected f =
  let label = part ^ " probe" in
  let first = ref None in
  fun () ->
    Gc.full_major ();
    Gate.run gate label (fun () ->
        let d, p = f () in
        record_digest part d;
        (match !first with
        | None ->
            Gate.digest gate ~label ~expected d;
            first := Some d
        | Some d0 -> Gate.check gate (d = d0) (label ^ ": passes differ"));
        time_kernel ();
        p)

let trace_mode = ref false

(* In a traced run, repetitions alternate untraced and traced, so the
   tracing overhead is measured on the same work in the same process. *)
let traced_rep i = !trace_mode && i mod 2 = 1

(* The process's peak major heap after the first timed repetition.
   Later repetitions reuse a heap the first one fragmented, and how much
   it then grows varied by 15 % between runs. *)
let peak_words = ref 0

(* Run [reps] timed repetitions of [f], each from a clean heap and
   followed by [between i] (untimed: the probe phases and the next
   set-up). The count is fixed before the first repetition, so a faster
   build gets no more tries at a good time than a slower one. [f]
   returns a closure, run untimed, that yields the output digest and
   the passes it timed. Every repetition must match the reference
   digest, if any, and the first repetition. *)
let repetitions gate ~reps ~expected ~between f =
  let rec loop i acc =
    if i = reps then List.rev acc
    else begin
      tracing := traced_rep i;
      let r =
        Gate.run gate "repetition" (fun () ->
            Gc.full_major ();
            let q0 = Gc.quick_stat () in
            let a0 = alloc_words () in
            let t0 = clock () in
            let out = span "workload.repetition" f in
            let wall_s = clock () -. t0 in
            let alloc = alloc_words () -. a0 in
            let q1 = Gc.quick_stat () in
            if !tracing then begin
              layers.minor_gcs <- layers.minor_gcs + (q1.Gc.minor_collections - q0.Gc.minor_collections);
              layers.major_gcs <- layers.major_gcs + (q1.Gc.major_collections - q0.Gc.major_collections);
              layers.gc_units <- layers.gc_units + 1;
              layers.traced_wall <- wall_s :: layers.traced_wall
            end
            else layers.untraced_wall <- wall_s :: layers.untraced_wall;
            tracing := false;
            if i = 0 then peak_words := (Gc.quick_stat ()).Gc.top_heap_words;
            let digest, passes = out () in
            record_digest "unit" digest;
            Gate.digest gate ~label:"repetition" ~expected digest;
            ({ wall_s; alloc; digest }, passes))
      in
      time_kernel ();
      tracing := !trace_mode;
      between i;
      tracing := false;
      loop (i + 1) (r :: acc)
    end
  in
  let ok = List.filter_map Fun.id (loop 0 []) in
  (match ok with
  | (r0, _) :: rest ->
      List.iter
        (fun (r, _) -> Gate.check gate (r.digest = r0.digest) "repetitions produced different outputs")
        rest
  | [] -> ());
  ok

(* A set-up too short to time alone, repeated as one phase until it has
   lasted [setup_phase_s]: one single-unit pass per set-up. *)
let setup_phase_s = 0.5

let setup_phase f =
  Gc.full_major ();
  let rec go acc secs =
    let (), dt, _ = timed (fun () -> ignore (f ())) in
    let acc = { work = 1; units = [| dt |] } :: acc in
    if secs +. dt >= setup_phase_s then acc else go acc (secs +. dt)
  in
  go [] 0.0

let topology_s = ref []
let topology_alloc = ref 0.0

let prepare scale =
  let p, dt, a = timed (fun () -> span "topology.prepare" (fun () -> Exp_common.prepare scale)) in
  topology_s := dt :: !topology_s;
  topology_alloc := a;
  p

let shuffled seed k n =
  let order = Array.init n Fun.id in
  Rng.shuffle (Rng.create (Runner.job_seed (Int64.of_int seed) k)) order;
  order

(* The outage starts at a seeded point between 30 % and 50 % of the
   arrival horizon and lasts a fifth of it. *)
let outage_at seed = 0.3 +. Rng.float (Rng.create (Runner.job_seed (Int64.of_int seed) 2)) 0.2

let resolve_digest offered =
  let b = Buffer.create 65536 in
  digest_paths b offered;
  hex b

let traffic_digest r =
  let b = Buffer.create 256 in
  digest_report b r;
  hex b

(* The control plane of a coreified ISD: core and intra-ISD beaconing
   over [isd_rounds] intervals, then segment registration. *)
let isd_rounds = 8

let isd_beaconing g =
  let core, t_core = beacon g (beacon_config Beacon_policy.Baseline Beaconing.Core_beaconing isd_rounds) in
  let intra, t_intra = beacon g (beacon_config Beacon_policy.Baseline Beaconing.Intra_isd isd_rounds) in
  (core, intra, Array.of_list (t_core @ t_intra))

(* A lookup-and-traffic fixture: the control plane of [g], a fixed Zipf
   demand, and the order of the resolve calls and the outage start drawn
   from the seed. *)
type fixture = {
  g : Graph.t;
  core : Beaconing.outcome;
  intra : Beaconing.outcome;
  cs : Control_service.t;
  demand : Demand.t;
  order : int array;
  outage_at : float;
}

let fixture g ~seed ~n_pairs ~flows =
  let core, intra, rounds = isd_beaconing g in
  let cs, cs_s, _ = timed (fun () -> build_cs ~core ~intra) in
  let demand, demand_s, _ =
    timed (fun () -> Demand.create g { Demand.default_params with Demand.n_pairs; flows; seed = demand_seed })
  in
  ( {
      g;
      core;
      intra;
      cs;
      demand;
      order = shuffled seed 1 (Array.length (Demand.pairs demand));
      outage_at = outage_at seed;
    },
    Array.append rounds [| cs_s; demand_s |] )

(* One closed-loop resolve per demand pair, then the demand carried over
   the resolved paths. Returns the digest and both phases' passes. *)
let lookup_and_traffic gate fx =
  let pairs = Demand.pairs fx.demand in
  let lat, offered = resolve_all gate fx.cs pairs fx.order in
  let report, units = simulate (traffic_config fx.g fx.demand offered ~outage_at:fx.outage_at) in
  fun () ->
    check_report gate "lookup and traffic" report (Demand.params fx.demand).Demand.flows;
    ( resolve_digest offered ^ traffic_digest report,
      ({ work = Array.length lat; units = lat }, { work = report.Traffic_sim.flows_admitted; units }) )

(* Pairs and flows of the beacon workloads' probe demand: enough for
   resolve and traffic passes of over 2 s on the tiny ISD, when the
   host is at its fastest too. *)
let probe_pairs = 1300
let probe_flows = 160_000

(* Beacon workloads: core beaconing over the seed-relabelled tiny core,
   from empty stores to saturation, driven round by round. After each
   repetition a lookup pass and a traffic pass run on a fixed fixture,
   the tiny ISD's control plane: on these workloads the resolve and
   flow metrics must not move with a beaconing change. *)
let beacon_workload name algorithm ~cycle_s =
  let rounds = 5 in
  let run gate ~seed ~reps ~expected =
    tracing := !trace_mode;
    let setup () =
      let p = prepare Exp_common.Tiny in
      (p, relabel p.Exp_common.core (Rng.create (Int64.of_int seed)))
    in
    (* One set-up serves the repetitions; the timed set-up phases run
       after each repetition, so what the heap holds when the first one
       starts does not depend on how many set-ups a phase fitted. *)
    let p, core = setup () in
    let setup_s = ref [] in
    (* The probes' fixture is built after the first repetition, so that
       repetition's peak heap holds only the beaconing under test, and
       untraced, because its beaconing is not this workload's core layer. *)
    let probes =
      lazy
        (tracing := false;
         let fx, _ = fixture (Exp_common.coreify p.Exp_common.isd) ~seed ~n_pairs:probe_pairs ~flows:probe_flows in
         tracing := !trace_mode;
         let pairs = Demand.pairs fx.demand in
         (* The traffic probe carries the demand over the paths the first
            resolve pass returned; every pass must return the same ones. *)
         let tcfg = ref None in
         (* Every pass resolves on a control service built for it (untimed),
            so no pass finds another's lookups cached. *)
         let resolve_pass =
           make_probe gate "resolve" ~expected:(expected "resolve") (fun () ->
               let cs = build_cs ~core:fx.core ~intra:fx.intra in
               let lat, offered = resolve_all gate cs pairs fx.order in
               if !tcfg = None then tcfg := Some (traffic_config fx.g fx.demand offered ~outage_at:fx.outage_at);
               (resolve_digest offered, { work = Array.length lat; units = lat }))
         in
         let traffic_pass =
           make_probe gate "traffic" ~expected:(expected "traffic") (fun () ->
               let r, units = simulate (Option.get !tcfg) in
               check_report gate "traffic probe" r (Demand.params fx.demand).Demand.flows;
               (traffic_digest r, { work = r.Traffic_sim.flows_admitted; units }))
         in
         (resolve_pass, traffic_pass))
    in
    let resolving = ref [] and traffic = ref [] in
    let between _ =
      let resolve_pass, traffic_pass = Lazy.force probes in
      Option.iter (fun ps -> resolving := ps :: !resolving) (resolve_pass ());
      Option.iter (fun ps -> traffic := ps :: !traffic) (traffic_pass ());
      setup_s := setup_phase setup @ !setup_s
    in
    let cfg = beacon_config algorithm Beaconing.Core_beaconing rounds in
    let done_ =
      repetitions gate ~reps ~expected:(expected "unit") ~between (fun () ->
          let out, times = beacon core cfg in
          fun () ->
            ( digest_outcome gate out,
              { work = out.Beaconing.stats.Beaconing.total_pcbs; units = Array.of_list times } ))
    in
    let rounds = List.map snd done_ in
    {
      setup_s = !setup_s;
      reps = List.map fst done_;
      timed = rounds;
      beaconing = rounds;
      resolving = List.rev !resolving;
      traffic = List.rev !traffic;
    }
  in
  { name; cycle_s; run }

(* Passes of the core and intra-ISD beaconing that make one pass of
   lookup-traffic's beaconing probe, so the pass lasts at least 2 s. *)
let beacon_probe_runs = 8

(* lookup-traffic: the small-preset coreified ISD. Set-up builds the
   control plane; a repetition resolves every distinct demand pair
   once, then carries the demand over the resolved paths with a
   mid-run link outage. After each repetition a probe pass repeats the
   set-up's beaconing for pcbs_per_s, and a fresh set-up builds the
   next repetition's control plane, so no repetition finds another's
   lookups cached. *)
let lookup_workload =
  let run gate ~seed ~reps ~expected =
    tracing := !trace_mode;
    (* A set-up from a clean heap; its units are the topology, the
       engine rounds, the control-service build and the demand. *)
    let build () =
      Gc.full_major ();
      let p, prepare_s, _ = timed (fun () -> prepare Exp_common.Small) in
      let g, coreify_s, _ = timed (fun () -> Exp_common.coreify p.Exp_common.isd) in
      let fx, units = fixture g ~seed ~n_pairs:1000 ~flows:150_000 in
      (fx, { work = 1; units = Array.append [| prepare_s; coreify_s |] units })
    in
    let fx0, s0 = build () in
    let fx = ref fx0 and setup_s = ref [ s0 ] in
    let beacon_pass =
      make_probe gate "beaconing" ~expected:(expected "beaconing") (fun () ->
          let runs = List.init beacon_probe_runs (fun _ -> isd_beaconing !fx.g) in
          let core, intra, _ = List.hd runs in
          ( Digest.to_hex (Digest.string (digest_outcome gate core ^ digest_outcome gate intra)),
            {
              work =
                beacon_probe_runs
                * (core.Beaconing.stats.Beaconing.total_pcbs + intra.Beaconing.stats.Beaconing.total_pcbs);
              units = Array.concat (List.map (fun (_, _, t) -> t) runs);
            } ))
    in
    let beaconing = ref [] in
    let between i =
      Option.iter (fun ps -> beaconing := ps :: !beaconing) (beacon_pass ());
      if i + 1 < reps then begin
        let fx', s = build () in
        fx := fx';
        setup_s := s :: !setup_s
      end
    in
    let done_ = repetitions gate ~reps ~expected:(expected "unit") ~between (fun () -> lookup_and_traffic gate !fx) in
    let passes = List.map snd done_ in
    {
      setup_s = !setup_s;
      reps = List.map fst done_;
      timed = List.map (fun (r, t) -> { work = 0; units = Array.append r.units t.units }) passes;
      beaconing = List.rev !beaconing;
      resolving = List.map fst passes;
      traffic = List.map snd passes;
    }
  in
  { name = "lookup-traffic"; cycle_s = 13.0; run }

let workloads = [ beacon_workload "beacon-baseline" Beacon_policy.Baseline ~cycle_s:12.5; lookup_workload ]

(* --- main ---------------------------------------------------------------------- *)

let per n x = if n = 0 then 0.0 else x /. float_of_int n

let total = Array.fold_left ( +. ) 0.0

(* The best time of each unit over the passes of a phase. Load from
   other tenants of the host only ever adds time, and it comes and goes
   within seconds, so a short unit's shortest time over passes spread
   across the run is the steadiest estimate of the code's own cost
   (README.md, "Host noise"). Every pass times the same units in the
   same order. *)
let best_units gate what passes =
  match passes with
  | [] ->
      Gate.check gate false ("nothing measured for " ^ what);
      [||]
  | p0 :: rest ->
      let n = Array.length p0.units in
      Gate.check gate
        (List.for_all (fun p -> Array.length p.units = n) rest)
        (what ^ ": passes timed different units");
      Array.mapi
        (fun u t -> List.fold_left (fun m p -> if u < Array.length p.units then Float.min m p.units.(u) else m) t rest)
        p0.units

(* The unscaled value of every timing, printed beside the result. *)
let unscaled : (string * float) list ref = ref []

(* Each timing is a sum of best unit times, scaled to the reference
   host's speed; the pass count is its sample count, and the median
   pass time prints beside it. *)
let report_end_to_end gate (m : measured) =
  let kernel_p10 = Stats.quantile (Array.of_list !kernel_s) 0.1 in
  let speed = kernel_ref_s /. kernel_p10 in
  samples := ("kernel", List.length !kernel_s) :: !samples;
  unscaled := [ ("kernel_p10_s", kernel_p10) ];
  (* [per] is 1 for a time and -1 for a rate. *)
  let timing ?(per = 1.0) what v unit =
    unscaled := (what, v) :: !unscaled;
    metric what (v *. (speed ** per)) unit
  in
  let best what passes =
    samples := (what, List.length passes) :: !samples;
    if passes <> [] then medians := (what, median_of (List.map (fun p -> total p.units) passes)) :: !medians;
    best_units gate what passes
  in
  timing "wall_s" (total (best "wall_s" m.timed)) "s";
  timing "setup_s" (total (best "setup_s" m.setup_s)) "s";
  metric "alloc_mwords" (median_of (List.map (fun r -> mwords r.alloc) m.reps)) "Mword";
  metric "peak_heap_mb" (float_of_int (!peak_words * (Sys.word_size / 8)) /. 1e6) "MB";
  (* A rate divides a pass's work by the phase's best time. *)
  let rate what passes units =
    let work = match passes with p :: _ -> float_of_int p.work | [] -> nan in
    if total units < 2.0 then Printf.eprintf "perfbench: %s divides by %.3f s, under 2 s\n%!" what (total units);
    timing ~per:(-1.0) what (work /. total units) "1/s"
  in
  rate "pcbs_per_s" m.beaconing (best "pcbs_per_s" m.beaconing);
  let calls = best "resolves_per_s" m.resolving in
  rate "resolves_per_s" m.resolving calls;
  (* Latency percentiles are taken over the calls' best times. *)
  let percentile q =
    match Timing.tail calls q with
    | Ok v -> v *. 1e6
    | Error e ->
        Gate.check gate false e;
        nan
  in
  timing "resolve_p50_us" (percentile 0.5) "us";
  timing "resolve_p99_us" (percentile 0.99) "us";
  samples := ("resolve_calls_per_pass", Array.length calls) :: !samples;
  rate "flows_per_s" m.traffic (best "flows_per_s" m.traffic)

let report_layers () =
  let l = layers in
  let rounds = Array.of_list l.round_s in
  let nr = Array.length rounds in
  let bu = l.beacon_units and ru = l.resolve_units and tu = l.traffic_units in
  metric ~n:(List.length !topology_s) "topology.generate_s" (median_of !topology_s) "s";
  metric "topology.alloc_mwords" (mwords !topology_alloc) "Mword";
  metric ~n:nr "core.round_s.p50" (if nr = 0 then 0.0 else Stats.median rounds) "s";
  metric ~n:nr "core.round_s.max" (Array.fold_left max 0.0 rounds) "s";
  metric "core.round_s.count" (float_of_int nr) "count";
  let round_total = Array.fold_left ( +. ) 0.0 rounds in
  metric ~n:bu "core.selection_s" (per bu l.selection_s) "s";
  metric ~n:bu "core.delivery_s" (per bu (round_total -. l.selection_s)) "s";
  metric "core.store_pcbs" (per bu (float_of_int l.store_pcbs)) "count";
  metric "core.alloc_mwords" (per bu (mwords l.core_alloc)) "Mword";
  metric "core.pcbs_sent" (per bu (float_of_int l.pcbs_sent)) "count";
  metric "core.bytes_sent" (per bu (l.bytes_sent /. 1e6)) "MB";
  metric "segments.build_s" l.build_s "s";
  metric ~n:ru "segments.resolve_s" (per ru l.resolve_s) "s";
  metric "segments.alloc_mwords" (per ru (mwords l.resolve_alloc)) "Mword";
  metric "segments.paths_per_resolve" (per l.resolves (float_of_int l.paths)) "count";
  metric "segments.lookups" (per ru (float_of_int l.lookups)) "count";
  metric "segments.reply_segments" (per ru (float_of_int l.reply_segments)) "count";
  metric "segments.offered_ratio" (per l.paths (float_of_int l.offered)) "ratio";
  metric ~n:tu "traffic.advance_s" (per tu l.advance_s) "s";
  metric "traffic.alloc_mwords" (per tu (mwords l.traffic_alloc)) "Mword";
  let rep f = match l.report with Some r -> float_of_int (f r) | None -> 0.0 in
  metric "traffic.flows_admitted" (rep (fun r -> r.Traffic_sim.flows_admitted)) "count";
  metric "traffic.flows_completed" (rep (fun r -> r.Traffic_sim.flows_completed)) "count";
  metric "traffic.flows_rejected" (rep (fun r -> r.Traffic_sim.flows_rejected)) "count";
  metric "traffic.path_switches" (rep (fun r -> r.Traffic_sim.path_switches)) "count";
  metric ~n:tu "supervise.encode_s" (per tu l.encode_s) "s";
  metric ~n:tu "supervise.restore_s" (per tu l.restore_s) "s";
  metric "supervise.snapshot_bytes" (float_of_int l.snapshot_bytes) "bytes";
  metric "supervise.alloc_mwords" (per tu (mwords l.codec_alloc)) "Mword";
  metric "faults.failovers" (rep (fun r -> r.Traffic_sim.recovery.Recovery.failovers)) "count";
  metric "faults.blackouts" (rep (fun r -> r.Traffic_sim.recovery.Recovery.blackouts)) "count";
  metric "gc.minor_collections" (per l.gc_units (float_of_int l.minor_gcs)) "count";
  metric "gc.major_collections" (per l.gc_units (float_of_int l.major_gcs)) "count";
  let overhead =
    if l.traced_wall = [] || l.untraced_wall = [] then nan
    else (median_of l.traced_wall /. median_of l.untraced_wall -. 1.0) *. 100.0
  in
  metric ~n:(List.length l.traced_wall + List.length l.untraced_wall) "trace.overhead_pct" overhead "%";
  (* Share of the traced repetitions' wall time covered by the layer
     spans directly under each repetition. *)
  let roots = List.filter (fun (s : span) -> s.name = "workload.repetition") !spans in
  let root_ids = List.map (fun (s : span) -> s.id) roots in
  let covered =
    List.fold_left
      (fun acc (s : span) -> if List.mem s.parent root_ids then acc +. (s.t1 -. s.t0) else acc)
      0.0 !spans
  in
  let wall = List.fold_left (fun acc (s : span) -> acc +. (s.t1 -. s.t0)) 0.0 roots in
  let accounted = 100.0 *. covered /. wall in
  metric ~n:(List.length roots) "trace.accounted_pct" accounted "%";
  Printf.eprintf
    "perfbench: selection %.3f s + delivery %.3f s = %.3f s of engine rounds per beaconing run; \
     layer spans cover %.2f %% of the traced repetitions (tracing overhead %.2f %%)\n%!"
    (per bu l.selection_s) (per bu (round_total -. l.selection_s)) (per bu round_total) accounted overhead

(* Per span name: calls, total time, self time and allocation. *)
let write_trace ~dir ~trace_id =
  let with_self = self_times (List.rev !spans) in
  let oc = open_out (Filename.concat dir (trace_id ^ "-spans.jsonl")) in
  List.iter
    (fun ((s : span), self) ->
      output_string oc
        (Obs_json.to_string
           (Obs_json.Obj
              [
                ("trace_id", Obs_json.String trace_id);
                ("id", Obs_json.Int s.id);
                ("name", Obs_json.String s.name);
                ("parent", Obs_json.Int s.parent);
                ("start", Obs_json.Float s.t0);
                ("end", Obs_json.Float s.t1);
                ("self_s", Obs_json.Float self);
                ("alloc_words", Obs_json.Float s.alloc);
              ]));
      output_char oc '\n')
    with_self;
  close_out oc;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun ((s : span), self) ->
      let n, tot, sf, a = Option.value ~default:(0, 0.0, 0.0, 0.0) (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (n + 1, tot +. (s.t1 -. s.t0), sf +. self, a +. s.alloc))
    with_self;
  let rows = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name []) in
  let summary = Filename.concat dir (trace_id ^ "-layers.txt") in
  let oc = open_out summary in
  Printf.fprintf oc "%-26s %8s %12s %12s %12s\n" "span" "calls" "total_s" "self_s" "alloc_Mw";
  List.iter
    (fun (name, (n, tot, sf, a)) ->
      Printf.fprintf oc "%-26s %8d %12.6f %12.6f %12.3f\n" name n tot sf (mwords a))
    rows;
  close_out oc;
  Printf.eprintf "perfbench: spans in %s, layer summary in %s\n%!"
    (Filename.concat dir (trace_id ^ "-spans.jsonl")) summary;
  prerr_string (In_channel.with_open_text summary In_channel.input_all)

(* References: lines "<workload> <seed> <part> <md5 hex>". *)
let load_references path =
  if not (Sys.file_exists path) then []
  else
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           match String.split_on_char ' ' (String.trim line) with
           | [ w; s; part; d ] when String.length line > 0 && line.[0] <> '#' -> Some ((w, s, part), d)
           | _ -> None)

let gc_settings () =
  let c = Gc.get () in
  Obs_json.Obj
    [
      ("minor_heap_size", Obs_json.Int c.Gc.minor_heap_size);
      ("major_heap_increment", Obs_json.Int c.Gc.major_heap_increment);
      ("space_overhead", Obs_json.Int c.Gc.space_overhead);
      ("max_overhead", Obs_json.Int c.Gc.max_overhead);
      ("stack_limit", Obs_json.Int c.Gc.stack_limit);
      ("allocation_policy", Obs_json.Int c.Gc.allocation_policy);
      ("window_size", Obs_json.Int c.Gc.window_size);
      ("custom_major_ratio", Obs_json.Int c.Gc.custom_major_ratio);
      ("custom_minor_ratio", Obs_json.Int c.Gc.custom_minor_ratio);
      ("custom_minor_max_size", Obs_json.Int c.Gc.custom_minor_max_size);
    ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 25 and trace = ref 0 in
  let refs = ref "perfbench/digests.txt" and out_dir = ref "." and expect = ref "" in
  let commit = ref "unknown" and source = ref "unknown" and nproc = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measuring time the repetition count is sized for");
      ("--trace", Arg.Set_int trace, "0|1 timed (end-to-end) or traced (per-layer) run");
      ("--references", Arg.Set_string refs, "FILE reference digests");
      ("--expect", Arg.Set_string expect, "HEX override the expected repetition digest");
      ("--out-dir", Arg.Set_string out_dir, "DIR where a traced run writes its spans");
      ("--commit", Arg.Set_string commit, "ID source commit, for the manifest");
      ("--source-sha256", Arg.Set_string source, "HEX source tree hash, for the manifest");
      ("--nproc", Arg.Set_int nproc, "N online CPUs, for the manifest");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "perfbench: unknown workload %S (one of: %s)\n" !workload
          (String.concat ", " (List.map (fun w -> w.name) workloads));
        exit 2
  in
  trace_mode := !trace = 1;
  let reps = max 2 (int_of_float (float_of_int !seconds /. w.cycle_s)) in
  let refs = load_references !refs in
  let expected part =
    if part = "unit" && !expect <> "" then Some !expect
    else List.assoc_opt (w.name, string_of_int !seed, part) refs
  in
  let manifest =
    Obs_json.Obj
      [
        ("workload", Obs_json.String w.name);
        ("seed", Obs_json.Int !seed);
        ("seconds", Obs_json.Int !seconds);
        ("trace", Obs_json.Int !trace);
        ("repetitions", Obs_json.Int reps);
        ("references", Obs_json.Bool (expected "unit" <> None));
        ("git_commit", Obs_json.String !commit);
        ("source_sha256", Obs_json.String !source);
        ("ocaml_version", Obs_json.String Sys.ocaml_version);
        ("nproc", Obs_json.Int !nproc);
        ("domains", Obs_json.Int 1);
        ("ocamlrunparam", match Sys.getenv_opt "OCAMLRUNPARAM" with Some s -> Obs_json.String s | None -> Obs_json.Null);
        ("gc", gc_settings ());
      ]
  in
  print_endline (Obs_json.to_string (Obs_json.Obj [ ("manifest", manifest) ]));
  let gate = Gate.create () in
  let m = w.run gate ~seed:!seed ~reps ~expected in
  if !trace_mode then begin
    report_layers ();
    let trace_id = Printf.sprintf "%s-seed%d-%d" w.name !seed (Unix.getpid ()) in
    write_trace ~dir:!out_dir ~trace_id
  end
  else report_end_to_end gate m;
  List.iter (fun p -> Printf.eprintf "perfbench: FAILED %s\n" p) (Gate.problems gate);
  let ms = List.rev !metrics in
  print_endline
    (Obs_json.to_string
       (Obs_json.Obj
          [
            ( "samples",
              Obs_json.Obj (List.rev_map (fun (k, n) -> (k, Obs_json.Int n)) !samples) );
            ( "medians",
              Obs_json.Obj (List.rev_map (fun (k, v) -> (k, Obs_json.Float v)) !medians) );
            ( "unscaled",
              Obs_json.Obj (List.rev_map (fun (k, v) -> (k, Obs_json.Float v)) !unscaled) );
            ( "digests",
              Obs_json.Obj (List.rev_map (fun (p, d) -> (p, Obs_json.String d)) !digests) );
          ]));
  print_endline
    (Obs_json.to_string
       (Obs_json.Obj
          [
            ("correct", Obs_json.Bool (Gate.correct gate));
            ("attempted", Obs_json.Int (Gate.attempted gate));
            ("failed", Obs_json.Int (Gate.failed gate));
            ( "metrics",
              Obs_json.Obj
                (List.map
                   (fun (name, v, u) ->
                     (name, Obs_json.Obj [ ("value", Obs_json.Float v); ("unit", Obs_json.String u) ]))
                   ms) );
          ]))
