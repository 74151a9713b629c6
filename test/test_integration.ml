(* Integration tests: miniature versions of the evaluation experiments,
   asserting the *shapes* EXPERIMENTS.md reports — so the headline claims
   are continuously checked, not just printed. *)

module Rng = Cr_util.Rng
module Graph = Cr_graph.Graph
module Apsp = Cr_graph.Apsp
module Generators = Cr_graph.Generators
module Gio = Cr_graph.Gio
open Compact_routing

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* shape: scale-freeness (T3 miniature) *)

let test_scale_freeness_shape () =
  let build base =
    let rng = Rng.create 5 in
    Apsp.compute (Graph.normalize (Graph.relabel rng (Generators.exponential_line ~n:48 ~base)))
  in
  let small = build 1.2 and big = build 8.0 in
  let ap_small = Baseline_ap.build ~k:3 small in
  let ap_big = Baseline_ap.build ~k:3 big in
  let agm_small = Agm06.scheme (Agm06.build ~params:(Params.scaled ~k:3 ()) small) in
  let agm_big = Agm06.scheme (Agm06.build ~params:(Params.scaled ~k:3 ()) big) in
  let mean s = Storage.mean_node_bits s.Scheme.storage in
  checkb "AP grows with log delta" true (mean ap_big > 1.5 *. mean ap_small);
  checkb "AGM06 flat in log delta" true (mean agm_big < 1.3 *. mean agm_small);
  (* both still deliver everything *)
  let pairs = Experiment.default_pairs ~seed:6 big ~count:200 in
  List.iter
    (fun sch ->
      let agg = Simulator.evaluate big sch pairs in
      checki (sch.Scheme.name ^ " delivers") (Array.length pairs) agg.Simulator.delivered)
    [ ap_big; agm_big ]

(* ------------------------------------------------------------------ *)
(* shape: worst-case O(k) guarantee on the adversarial chain (T1b) *)

let test_adversarial_chain_guarantee () =
  let k = 3 in
  let rng = Rng.create 7 in
  let g = Generators.scale_chain rng ~sigma:4 ~levels:k ~spacing:8.0 in
  let g = Graph.normalize (Graph.relabel rng g) in
  let apsp = Apsp.compute g in
  let agm = Agm06.build ~params:(Params.paper ~k ()) apsp in
  let sch = Agm06.scheme agm in
  let islands = Generators.scale_chain_islands ~sigma:4 ~levels:k () in
  let rng2 = Rng.create 8 in
  for _ = 1 to 150 do
    let j = Rng.int rng2 (Array.length islands - 1) in
    let s0, sz0 = islands.(j) and s1, sz1 = islands.(j + 1) in
    let s = s0 + Rng.int rng2 sz0 and d = s1 + Rng.int rng2 sz1 in
    if s <> d then begin
      let m = Simulator.measure apsp sch s d in
      checkb "delivered" true m.Simulator.delivered;
      checkb
        (Printf.sprintf "stretch %.2f within 2k+1" m.Simulator.stretch)
        true
        (m.Simulator.stretch <= float_of_int ((2 * k) + 1) +. 1e-6)
    end
  done;
  checki "no fallback needed under paper constants" 0 (Agm06.stats agm).Agm06.fallback_resolved

(* ------------------------------------------------------------------ *)
(* shape: the frontier ordering (T7 miniature) *)

let test_frontier_ordering () =
  let g = Experiment.make_graph ~seed:9 (Experiment.Geometric { n = 150; radius = 0.18 }) in
  let apsp = Apsp.compute g in
  let pairs = Experiment.default_pairs ~seed:10 apsp ~count:400 in
  let full = Experiment.run_scheme apsp (Baseline_full.build apsp) ~pairs in
  let s3 = Experiment.run_scheme apsp (Baseline_s3.build apsp) ~pairs in
  let tree = Experiment.run_scheme apsp (Baseline_tree.build apsp) ~pairs in
  let agm = Experiment.run_scheme apsp (Agm06.scheme (Agm06.build ~params:(Params.scaled ~k:3 ()) apsp)) ~pairs in
  (* everyone delivers *)
  List.iter
    (fun (r : Experiment.row) -> checki (r.Experiment.scheme ^ " all delivered") 400 r.Experiment.delivered)
    [ full; s3; tree; agm ];
  (* quality ordering *)
  checkb "full is exact" true (full.Experiment.stretch_max <= 1.0 +. 1e-9);
  checkb "s3 beats tree on tail" true (s3.Experiment.stretch_p99 < tree.Experiment.stretch_p99);
  checkb "s3 within its bound-ish" true (s3.Experiment.stretch_max <= 5.0);
  (* space ordering *)
  checkb "tree smallest" true (tree.Experiment.bits_mean < s3.Experiment.bits_mean);
  checkb "s3 below full n log n at this n? sublinear shape at least" true
    (s3.Experiment.bits_mean < 3.0 *. full.Experiment.bits_mean);
  (* headers all polylog *)
  List.iter
    (fun (r : Experiment.row) ->
      checkb (r.Experiment.scheme ^ " header small") true (r.Experiment.header_bits < 512))
    [ full; s3; tree; agm ]

(* ------------------------------------------------------------------ *)
(* end-to-end: save a workload, reload it, build and route *)

let test_roundtrip_pipeline () =
  let g = Experiment.make_graph ~seed:11 (Experiment.Ring_chords { n = 120; chords = 40 }) in
  let path = Filename.temp_file "crt_int" ".graph" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Gio.save g path;
      let g2 = Gio.load path in
      checki "same n" (Graph.n g) (Graph.n g2);
      let apsp = Apsp.compute g2 in
      let sch = Agm06.scheme (Agm06.build ~params:(Params.scaled ~k:2 ()) apsp) in
      let pairs = Experiment.default_pairs ~seed:12 apsp ~count:150 in
      let agg = Simulator.evaluate apsp sch pairs in
      checki "delivers after reload" 150 agg.Simulator.delivered)

(* ------------------------------------------------------------------ *)
(* failure injection: the referee catches corrupted schemes *)

let corrupt_scheme (inner : Scheme.t) mode =
  {
    inner with
    Scheme.name = "corrupted";
    route =
      (fun ?trace:_ s d ->
        let r = inner.Scheme.route s d in
        match (mode, r.Scheme.walk) with
        | `Truncate, _ :: _ :: _ ->
            (* drop the last hop but still claim delivery *)
            { r with Scheme.walk = List.rev (List.tl (List.rev r.Scheme.walk)) }
        | `Teleport, first :: _ ->
            (* insert a non-adjacent jump *)
            let far = (first + (Graph.n inner.Scheme.graph / 2)) mod Graph.n inner.Scheme.graph in
            { r with Scheme.walk = first :: far :: List.tl r.Scheme.walk }
        | _, _ -> r);
  }

let test_referee_catches_truncation () =
  let g = Experiment.make_graph ~seed:13 (Experiment.Erdos_renyi { n = 80; avg_degree = 4.0 }) in
  let apsp = Apsp.compute g in
  let sch = corrupt_scheme (Baseline_full.build apsp) `Truncate in
  let caught = ref 0 in
  for s = 0 to 20 do
    let d = s + 40 in
    (try ignore (Simulator.measure apsp sch s d) with Simulator.Invalid_walk _ -> incr caught)
  done;
  checkb "truncation caught" true (!caught > 15)

let test_referee_catches_teleport () =
  let g = Experiment.make_graph ~seed:14 (Experiment.Erdos_renyi { n = 80; avg_degree = 4.0 }) in
  let apsp = Apsp.compute g in
  let sch = corrupt_scheme (Baseline_full.build apsp) `Teleport in
  let caught = ref 0 in
  for s = 0 to 20 do
    let d = s + 40 in
    (try ignore (Simulator.measure apsp sch s d) with Simulator.Invalid_walk _ -> incr caught)
  done;
  checkb "teleport caught" true (!caught > 15)

(* ------------------------------------------------------------------ *)
(* consistency: oracle vs scheme on the same hierarchy seeds *)

let prepared () =
  let rng = Rng.create 15 in
  Apsp.compute (Graph.normalize (Graph.relabel rng (Generators.erdos_renyi rng ~n:90 ~avg_degree:4.0)))

(* The classic TZ distance oracle [30]: the stream-sampled hierarchy
   (seed 31 is the oracles' default) with bunches priced from SPT(u). *)
let tz_oracle ?(seed = 31) ~k apsp =
  let n = Graph.n (Apsp.graph apsp) in
  let h = Tz_hierarchy.create apsp ~k ~level:(Tz_hierarchy.sample_stream ~seed ~n ~k) in
  (h, Tz_hierarchy.bunches apsp h)

let tz_query (h, b) u v = Tz_hierarchy.query h b u v

let test_oracle_vs_tz_routing () =
  (* the TZ routing baseline can never beat the distance its own oracle
     machinery reports by more than measurement noise... in fact routing
     cost >= oracle estimate is NOT guaranteed pairwise, but both must be
     within (4k-5) resp. (2k-1) of the truth *)
  let apsp = prepared ()
  and k = 3 in
  let oracle = tz_oracle ~k ~seed:99 apsp in
  let sch = Baseline_tz.build ~k ~seed:99 apsp in
  let n = Graph.n (Apsp.graph apsp) in
  for s = 0 to n - 1 do
    let d = (s + (n / 3)) mod n in
    if s <> d then begin
      let true_d = Apsp.distance apsp s d in
      let est = tz_query oracle s d in
      let m = Simulator.measure apsp sch s d in
      checkb "oracle within bound" true (est <= (float_of_int ((2 * k) - 1) *. true_d) +. 1e-9);
      checkb "routing within bound" true
        (m.Simulator.cost <= (float_of_int ((4 * k) - 5) *. true_d) +. 1e-9)
    end
  done

(* ------------------------------------------------------------------ *)
(* determinism of the whole pipeline *)

let test_pipeline_deterministic () =
  let run () =
    let g = Experiment.make_graph ~seed:16 (Experiment.Geometric { n = 100; radius = 0.2 }) in
    let apsp = Apsp.compute g in
    let sch = Agm06.scheme (Agm06.build ~params:(Params.scaled ~k:3 ~seed:4 ()) apsp) in
    let pairs = Experiment.default_pairs ~seed:17 apsp ~count:100 in
    let agg = Simulator.evaluate apsp sch pairs in
    (agg.Simulator.delivered, agg.Simulator.stretch_stats.Cr_util.Stats.mean,
     Storage.total_bits sch.Scheme.storage)
  in
  let a = run () and b = run () in
  checkb "identical runs" true (a = b)

let () =
  Alcotest.run "integration"
    [
      ( "shapes",
        [
          Alcotest.test_case "scale-freeness (T3)" `Quick test_scale_freeness_shape;
          Alcotest.test_case "adversarial O(k) guarantee (T1b)" `Quick test_adversarial_chain_guarantee;
          Alcotest.test_case "frontier ordering (T7)" `Quick test_frontier_ordering;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "save/load/route" `Quick test_roundtrip_pipeline;
          Alcotest.test_case "deterministic" `Quick test_pipeline_deterministic;
        ] );
      ( "failure-injection",
        [
          Alcotest.test_case "truncation caught" `Quick test_referee_catches_truncation;
          Alcotest.test_case "teleport caught" `Quick test_referee_catches_teleport;
        ] );
      ( "cross-checks",
        [ Alcotest.test_case "oracle vs tz routing" `Quick test_oracle_vs_tz_routing ] );
    ]
