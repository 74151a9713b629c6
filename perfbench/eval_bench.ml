(* eval-geo: the evaluation path in-process, with no socket and no
   journal.  Build APSP, the AGM06 scheme, the Thorup–Zwick baseline
   and the path oracle over a high-aspect-ratio geometric graph, then
   serve Zipf batches of refereed routes (agm06, tz) through
   Cr_engine.Serve and oracle batches through Cr_oracle.Oserve until
   the time is up.  Afterwards every distinct pair served is refereed
   again against its stretch bound. *)

module Graph = Cr_graph.Graph
module Gio = Cr_graph.Gio
module Apsp = Cr_graph.Apsp
module Agm06 = Compact_routing.Agm06
module Scheme = Compact_routing.Scheme
module Simulator = Compact_routing.Simulator
module Baseline_tz = Compact_routing.Baseline_tz
module Path_oracle = Cr_oracle.Path_oracle
module Oserve = Cr_oracle.Oserve
module Serve = Cr_engine.Serve
module Engine = Cr_engine.Engine
module Workload = Cr_engine.Workload

let now = Cr_guard.Clock.monotonic

(* crt serve's default cache mode (one LRU per lane) at 512 entries a
   lane, on both cores *)
let cache_entries = 512

let domains = 2

(* Per-walk stretch bounds the referee enforces (k = 3): the path
   oracle's proven 2k - 1 and the TZ labeled scheme's 4k - 3.  AGM06
   under scaled constants has no per-walk bound (its fallback phase can
   run long, EXPERIMENTS.md T1b), so its walks are refereed for
   validity and delivery only. *)
let tz_bound = float ((4 * Inputs.k) - 3)

let oracle_bound = float ((2 * Inputs.k) - 1)

let build graph =
  let apsp = Apsp.compute_parallel graph in
  let agm = Agm06.build ~params:Refcheck.params apsp in
  let tz = Baseline_tz.build ~k:Inputs.k apsp in
  let oracle = Path_oracle.build ~k:Inputs.k ~seed:1 apsp in
  (apsp, agm, tz, oracle)

let run ~rep ~spans ~graph_path ~(inputs : Inputs.t) ~seconds ~trace =
  let graph = Graph.normalize (Gio.load graph_path) in
  let apsp, agm, tz, oracle =
    if trace then begin
      let apsp, agm, oracle = Layers.build rep spans graph in
      let tz = Span.record spans "tz.build" (fun _ -> Baseline_tz.build ~k:Inputs.k apsp) in
      Report.layer rep "tz.build_s" (Quant.sum (Span.durations spans "tz.build"));
      (apsp, agm, tz, oracle)
    end
    else begin
      let setups = Inputs.setups Inputs.Eval_geo in
      let last = ref None and times = Array.make setups 0.0 in
      for i = 0 to setups - 1 do
        last := None;
        Gc.compact ();
        let t0 = now () in
        last := Some (build graph);
        times.(i) <- now () -. t0
      done;
      Report.e2e rep ~samples:setups
        ~note:"median of builds: APSP + AGM06 + TZ + path oracle, graph loaded"
        "setup_s" (Quant.median_of times);
      Option.get !last
    end
  in
  let scheme = Agm06.scheme agm in
  let q = Inputs.eval_batch in
  (* per-batch percentiles, one pool per batch kind: agm06, tz, oracle *)
  let lat50 = Array.init 3 (fun _ -> Quant.create ()) in
  let lat99 = Array.init 3 (fun _ -> Quant.create ()) in
  let walls = Quant.create () in
  let hits = ref 0 and lookups = ref 0 and answered = ref 0 in
  let stretch_sum = ref 0.0 and delivered = ref 0 in
  let seeds = ref [] in
  let account ~kind ~ok ~p50 ~p99 ~wall ~h ~m =
    Report.attempt rep q;
    if ok < q then Report.fail rep ~ops:(q - ok) "eval-geo: queries not served or not refereed ok";
    answered := !answered + ok;
    Quant.add lat50.(kind) p50;
    Quant.add lat99.(kind) p99;
    Quant.add walls wall;
    hits := !hits + h;
    lookups := !lookups + h + m
  in
  let batch name f =
    if trace then Span.record spans ("engine.batch." ^ name) (fun _ -> f ()) else f ()
  in
  let serve ~kind name (s : Scheme.t) seed =
    let r =
      batch name (fun () ->
          Serve.run ~cache:cache_entries ~cache_mode:Engine.Lane ~domains ~seed ~queries:q
            ~workload:"eval-geo" apsp s)
    in
    account ~kind ~ok:(min r.Serve.guards.Engine.ok r.Serve.delivered) ~p50:r.Serve.latency.Cr_util.Stats.p50
      ~p99:r.Serve.latency.Cr_util.Stats.p99 ~wall:r.Serve.wall_s ~h:r.Serve.cache_hits
      ~m:r.Serve.cache_misses;
    r
  in
  let deadline = now () +. seconds in
  let t0 = now () in
  let i = ref 0 in
  while now () < deadline do
    let seed = Inputs.eval_seed inputs !i in
    seeds := seed :: !seeds;
    let ra = serve ~kind:0 "agm06" scheme seed in
    stretch_sum := !stretch_sum +. (ra.Serve.stretch_mean *. float ra.Serve.delivered);
    delivered := !delivered + ra.Serve.delivered;
    ignore (serve ~kind:1 "tz" tz seed);
    let ro =
      batch "oracle" (fun () ->
          Oserve.run ~cache:cache_entries ~cache_mode:Engine.Lane ~domains ~seed ~queries:q
            ~workload:"eval-geo" apsp oracle)
    in
    account ~kind:2 ~ok:ro.Oserve.ok ~p50:ro.Oserve.latency.Cr_util.Stats.p50
      ~p99:ro.Oserve.latency.Cr_util.Stats.p99 ~wall:ro.Oserve.wall_s ~h:ro.Oserve.cache_hits
      ~m:ro.Oserve.cache_misses;
    incr i
  done;
  let wall = now () -. t0 in
  let batches = Quant.length walls in
  Printf.printf "phase: %d batches of %d queries (%d rounds of agm06, tz, oracle) in %.3f s\n"
    batches q !i wall;
  if not trace then begin
    Report.e2e rep "peak_rss_mb" (float (Proc.vm_hwm_kb 0) /. 1024.0);
    Report.e2e rep ~samples:!answered "queries_per_s" (float !answered /. wall);
    (* the engine times queries with Unix.gettimeofday, which resolves
       ~0.24 us at today's epoch, so a median over batches pins to a few
       values; a few batches with a long tail would swing a plain mean.
       The trimming runs within each batch kind, whose latencies differ,
       and the kinds' values are then averaged: every kind serves the
       same number of queries, so each weighs the same *)
    let per_kind pools =
      Array.fold_left (fun acc b -> acc +. Quant.iq_mean (Quant.sorted b)) 0.0 pools /. 3.0
    in
    Report.e2e rep ~samples:batches
      ~note:"mean over agm06, tz and oracle of the interquartile mean of per-batch p50s"
      "query_p50_ms" (1e3 *. per_kind lat50);
    Report.e2e rep ~samples:batches
      ~note:
        "mean over agm06, tz and oracle of the interquartile mean of per-batch p99s (40 samples \
         beyond each)"
      "query_p99_ms" (1e3 *. per_kind lat99);
    Report.e2e rep ~samples:!delivered ~note:"refereed agm06 routes" "stretch_mean"
      (!stretch_sum /. float (max 1 !delivered))
  end;
  (* the referee: every distinct pair served, each walk valid,
     delivered and, where the scheme has one, within its stretch bound *)
  let seen = Hashtbl.create 65536 in
  List.iter
    (fun seed ->
      Array.iter
        (fun p -> Hashtbl.replace seen p ())
        (Workload.generate (Workload.Zipf 1.1) ~connected_in:apsp ~seed ~n:(Graph.n graph) ~count:q))
    !seeds;
  let pairs = Array.of_seq (Hashtbl.to_seq_keys seen) in
  Array.sort compare pairs;
  let referee ?spans () =
    let call name f = match spans with None -> f () | Some s -> Span.record s name (fun _ -> f ()) in
    let t0 = now () in
    ignore
      (Layers.query_pass rep ?spans ~apsp ~agm ~oracle ~routes:pairs ~paths:pairs ());
    Array.iter
      (fun (u, v) ->
        ignore (call "tz.route" (fun () -> tz.Scheme.route u v));
        let m = Simulator.measure apsp tz u v in
        if not (m.Simulator.delivered && m.Simulator.stretch <= tz_bound) then
          Report.fail rep (Printf.sprintf "tz route %d %d: stretch %g" u v m.Simulator.stretch);
        let o = Oserve.measure apsp oracle u v in
        if not (o.Oserve.ok && o.Oserve.stretch <= oracle_bound) then
          Report.fail rep (Printf.sprintf "oracle path %d %d: stretch %g" u v o.Oserve.stretch))
      pairs;
    Report.attempt rep (2 * Array.length pairs);
    now () -. t0
  in
  let untraced = referee () in
  Printf.printf "referee: %d distinct pairs, each through agm06, tz and the oracle, in %.3f s\n"
    (Array.length pairs) untraced;
  if trace then begin
    let traced = referee ~spans () in
    Layers.within rep spans ~phase:"the serving phase" ~wall
      [ "engine.batch.agm06"; "engine.batch.tz"; "engine.batch.oracle" ];
    Layers.within rep spans ~phase:"the traced referee pass" ~wall:traced
      [ "agm06.route"; "simulator.measure"; "oracle.path"; "tz.route" ];
    Report.layer rep ~note:"base: untraced referee pass wall time" "trace.overhead_share"
      ((traced -. untraced) /. untraced);
    Layers.layer_p50_us rep spans ~metric:"tz.route_us" "tz.route";
    Report.layer rep ~samples:batches "engine.batch_s" (Quant.median_of (Quant.sorted walls));
    Report.layer rep ~samples:!lookups "engine.hit_ratio" (Cr_util.Stats.ratio !hits !lookups)
  end
