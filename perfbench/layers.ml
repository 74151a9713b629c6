(* Traced calls into the program's public functions, shared by every
   workload's traced run: the structure builds, and per-query route,
   referee and oracle calls. *)

module Apsp = Cr_graph.Apsp
module Agm06 = Compact_routing.Agm06
module Scheme = Compact_routing.Scheme
module Simulator = Compact_routing.Simulator
module Storage = Compact_routing.Storage
module Path_oracle = Cr_oracle.Path_oracle
module Profile = Cr_obs.Profile

let now = Cr_guard.Clock.monotonic

let params = Refcheck.params

(* Checks that the spans called [names] sum to no more than [wall], the
   wall time of the phase they cover, timed outside the spans. *)
let within rep spans ~phase ~wall names =
  let sum = List.fold_left (fun acc n -> acc +. Quant.sum (Span.durations spans n)) 0.0 names in
  Printf.printf "phase check, %s: %s spans sum to %.3f s of its %.3f s\n" phase
    (String.concat " + " names) sum wall;
  Report.check rep (sum <= wall)
    (Printf.sprintf "%s spans sum to %.3f s, more than the %.3f s of %s" (String.concat " + " names)
       sum wall phase)

(* APSP, the AGM06 scheme with its stage profile, and the path oracle,
   each in a span under one [build] root — what the daemon builds at
   start-up and eval-geo builds before serving. *)
let build rep spans graph =
  let profile = Profile.create () in
  let t0 = now () in
  let saved = !Profile.clock in
  Profile.clock := now;
  let apsp, agm, oracle =
    Fun.protect
      ~finally:(fun () -> Profile.clock := saved)
      (fun () ->
        Span.record spans "build" (fun root ->
            let apsp =
              Span.record spans ~parent:root "graph.apsp" (fun _ -> Apsp.compute_parallel graph)
            in
            let agm =
              Span.record spans ~parent:root "agm06.build" (fun _ ->
                  Agm06.build ~params ~profile apsp)
            in
            let oracle =
              Span.record spans ~parent:root "oracle.build" (fun _ ->
                  Path_oracle.build ~k:params.Compact_routing.Params.k
                    ~seed:params.Compact_routing.Params.seed apsp)
            in
            (apsp, agm, oracle)))
  in
  within rep spans ~phase:"the traced build" ~wall:(now () -. t0)
    [ "graph.apsp"; "agm06.build"; "oracle.build" ];
  let seconds name = Quant.sum (Span.durations spans name) in
  Report.layer rep "graph.apsp_s" (seconds "graph.apsp");
  Report.layer rep "agm06.build_s" (seconds "agm06.build");
  Report.layer rep "oracle.build_s" (seconds "oracle.build");
  let stage s =
    List.fold_left
      (fun acc (n, sec, _) -> if n = s then acc +. sec else acc)
      0.0 (Profile.stages profile)
  in
  Report.layer rep "agm06.decomposition_s" (stage "decomposition");
  Report.layer rep "agm06.nearby_sets_s" (stage "nearby-sets");
  Report.layer rep "agm06.sparse_trees_s" (stage "sparse-trees");
  Report.layer rep "agm06.dense_covers_s" (stage "dense-covers");
  let storage = (Agm06.scheme agm).Scheme.storage in
  Report.layer rep ~samples:(Storage.n storage) "agm06.table_kbits_per_node"
    (Storage.mean_node_bits storage /. 1000.0);
  (apsp, agm, oracle)

(* p50 of a span family, in microseconds *)
let p50_us spans name =
  let b = Span.durations spans name in
  if Quant.length b = 0 then None
  else Some (1e6 *. Quant.quantile (Quant.sorted b) ~pct:50, Quant.length b)

let layer_p50_us rep spans ~metric name =
  match p50_us spans name with
  | Some (v, n) -> Report.layer rep ~samples:n metric v
  | None -> ()

(* Routes every pair through the AGM06 scheme and referees it through
   the simulator, and answers every oracle pair, each call in its own
   span when [spans] is given.  Returns the wall time; undelivered or
   invalid walks are failures.  With spans, also reports which paper
   phase delivered each route. *)
let query_pass rep ?spans ~apsp ~agm ~oracle ~routes ~paths () =
  let scheme = Agm06.scheme agm in
  let k = params.Compact_routing.Params.k in
  let sparse = ref 0 and dense = ref 0 and global = ref 0 in
  let call name f =
    match spans with None -> f () | Some s -> Span.record s name (fun _ -> f ())
  in
  let t0 = now () in
  Array.iter
    (fun (u, v) ->
      let r = call "agm06.route" (fun () -> scheme.Scheme.route u v) in
      let m = call "simulator.measure" (fun () -> Simulator.measure apsp scheme u v) in
      if not (r.Scheme.delivered && m.Simulator.delivered) then
        Report.fail rep (Printf.sprintf "agm06 route %d %d not delivered" u v);
      let p = r.Scheme.phases_used in
      if p > k then incr global
      else if p >= 1 then
        match Agm06.phase_plan agm u (p - 1) with
        | `Sparse _ -> incr sparse
        | `Dense _ -> incr dense)
    routes;
  Array.iter
    (fun (u, v) ->
      match call "oracle.path" (fun () -> Path_oracle.path oracle u v) with
      | Some _ -> ()
      | None -> Report.fail rep (Printf.sprintf "oracle path %d %d unreachable" u v))
    paths;
  let wall = now () -. t0 in
  (match spans with
  | None -> ()
  | Some s ->
      layer_p50_us rep s ~metric:"agm06.route_us" "agm06.route";
      layer_p50_us rep s ~metric:"simulator.measure_us" "simulator.measure";
      layer_p50_us rep s ~metric:"oracle.path_us" "oracle.path";
      let total = !sparse + !dense + !global in
      let share c = Cr_util.Stats.ratio c total in
      Report.layer rep ~samples:total "agm06.phase_share.sparse" (share !sparse);
      Report.layer rep ~samples:total "agm06.phase_share.dense" (share !dense);
      Report.layer rep ~samples:total "agm06.phase_share.global" (share !global));
  Report.attempt rep (Array.length routes + Array.length paths);
  wall

let layer_p50_ms rep spans ~metric name =
  match p50_us spans name with
  | Some (v, n) -> Report.layer rep ~samples:n metric (v /. 1e3)
  | None -> ()
