(* What a run measured and whether it was right.

   End-to-end metrics go into the final JSON line of an untraced run,
   per-layer metrics into that of a traced run; both are also printed
   one per line with unit and sample count.  Every failed operation and
   every failed check is recorded here: any of them makes the run
   incorrect, and the command then exits nonzero. *)

type metric = { name : string; unit_ : string; value : float; samples : int; note : string }

(* The end-to-end metrics every workload reports, in BENCHMARK.json
   order. *)
let e2e_names =
  [
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("queries_per_s", "1/s");
    ("query_p50_ms", "ms");
    ("query_p99_ms", "ms");
    ("stretch_mean", "ratio");
  ]

(* The per-layer metrics of a traced run: name, unit, and the
   end-to-end metric (on the workload) each one should move.  A layer a
   workload does not exercise reads 0. *)
let layer_names =
  [
    ("graph.apsp_s", "s", "setup_s (all), recover_s (churn-uniform)");
    ("graph.repair_mutation_ms", "ms", "converge_p50_s (churn-uniform)");
    ("graph.repair_dirty_share", "ratio", "converge_p50_s (churn-uniform)");
    ("agm06.build_s", "s", "setup_s (all), converge_p50_s and recover_s (churn-uniform)");
    ("agm06.decomposition_s", "s", "setup_s (all)");
    ("agm06.nearby_sets_s", "s", "setup_s (all)");
    ("agm06.sparse_trees_s", "s", "setup_s (all)");
    ("agm06.dense_covers_s", "s", "setup_s (all; dominant on eval-geo)");
    ("agm06.table_kbits_per_node", "kbit", "peak_rss_mb (all)");
    ("agm06.route_us", "us", "queries_per_s (eval-geo); small share of query_p50_ms (read-zipf)");
    ("agm06.phase_share.sparse", "ratio", "explains agm06.route_us across workloads");
    ("agm06.phase_share.dense", "ratio", "explains agm06.route_us across workloads");
    ("agm06.phase_share.global", "ratio", "explains agm06.route_us across workloads");
    ("simulator.measure_us", "us", "queries_per_s (eval-geo)");
    ("tz.build_s", "s", "setup_s (eval-geo)");
    ("tz.route_us", "us", "queries_per_s (eval-geo)");
    ("oracle.build_s", "s", "setup_s (all), converge_p50_s (churn-uniform)");
    ("oracle.path_us", "us", "queries_per_s (eval-geo), path share of query_p50_ms (read-zipf)");
    ("engine.batch_s", "s", "queries_per_s (eval-geo)");
    ("engine.hit_ratio", "ratio", "queries_per_s (eval-geo)");
    ("daemon.handle_us.route.p50", "us", "query_p50_ms (read-zipf)");
    ("daemon.handle_us.route.p99", "us", "query_p99_ms (read-zipf)");
    ("daemon.handle_us.dist.p50", "us", "query_p50_ms (read-zipf)");
    ("daemon.handle_us.dist.p99", "us", "query_p99_ms (read-zipf)");
    ("daemon.handle_us.path.p50", "us", "query_p50_ms (read-zipf)");
    ("daemon.handle_us.path.p99", "us", "query_p99_ms (read-zipf)");
    ("daemon.handle_us.mutate.p50", "us", "mutate_ack_p50_ms (churn-uniform)");
    ("daemon.cache_hit_ratio", "ratio", "query_p50_ms (read-zipf); near 0 on churn-uniform");
    ("daemon.repair_batch_ms", "ms", "converge_p50_s (churn-uniform)");
    ("daemon.repair_batch_size", "count", "converge_p50_s (churn-uniform)");
    ("daemon.recovery_replayed", "count", "recover_s (churn-uniform)");
    ("snapshot.write_ms", "ms", "recover_s (churn-uniform)");
    ("server.transport_us", "us", "query_p50_ms (read-zipf)");
    ("server.served", "count", "fail_ratio (all)");
    ("server.shed", "count", "fail_ratio (all)");
    ("server.timed_out", "count", "fail_ratio (all)");
    ("server.disconnected", "count", "fail_ratio (all)");
    ("guard.shed", "count", "fail_ratio (churn-uniform)");
    ("guard.timed_out", "count", "fail_ratio (churn-uniform)");
    ("guard.breaker_open", "count", "fail_ratio (churn-uniform)");
    ("gen.cpu_share", "ratio", "none; shows the load was not generator-bound (socket workloads)");
    ("converge_p50_s", "s", "itself, end to end (churn-uniform): a burst's last ack to its sync reply");
    ("mutate_ack_p50_ms", "ms", "itself, end to end (churn-uniform): acked mutation round trip");
    ("recover_s", "s", "itself, end to end (churn-uniform): restart to first correct reply");
    ("fail_ratio", "ratio", "itself, end to end (all): failed / attempted operations");
    ("trace.overhead_share", "ratio", "none; the cost of tracing itself");
  ]

type t = {
  mutable e2e : metric list;
  layers : (string, metric) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
}

let create () = { e2e = []; layers = Hashtbl.create 64; attempted = 0; failed = 0; problems = [] }

let e2e t ?(samples = 1) ?(note = "") name value =
  let unit_ = List.assoc name e2e_names in
  t.e2e <- { name; unit_; value; samples; note } :: t.e2e

let layer t ?(samples = 1) ?(note = "") name value =
  match List.find_opt (fun (n, _, _) -> n = name) layer_names with
  | None -> invalid_arg ("Report.layer: unknown metric " ^ name)
  | Some (_, unit_, _) -> Hashtbl.replace t.layers name { name; unit_; value; samples; note }

let attempt t k = t.attempted <- t.attempted + k

let fail t ?(ops = 1) msg =
  t.failed <- t.failed + ops;
  t.problems <- msg :: t.problems

(* a failed check that is not itself an operation *)
let check t ok msg = if not ok then t.problems <- msg :: t.problems

let correct t = t.failed = 0 && t.problems = []

let fmt_value v = Printf.sprintf "%.17g" v

let print_metric prefix m =
  Printf.printf "%s %s = %s %s (n=%d)%s\n" prefix m.name (fmt_value m.value) m.unit_ m.samples
    (if m.note = "" then "" else " -- " ^ m.note)

let layer_metrics t =
  List.map
    (fun (name, unit_, _) ->
      match Hashtbl.find_opt t.layers name with
      | Some m -> m
      | None -> { name; unit_; value = 0.0; samples = 0; note = "not exercised by this workload" })
    layer_names

let print_layers t =
  List.iter2
    (fun m (_, _, moves) ->
      print_metric "layer"
        { m with note = String.concat "; " (List.filter (( <> ) "") [ m.note; "moves: " ^ moves ]) })
    (layer_metrics t) layer_names

let print_e2e t = List.iter (print_metric "metric") (List.rev t.e2e)

(* The last line of standard output. *)
let final_json t ~trace =
  let ms = if trace then layer_metrics t else List.rev t.e2e in
  let ms =
    List.map
      (fun m ->
        if Float.is_finite m.value then m
        else begin
          t.problems <- Printf.sprintf "metric %s is not finite" m.name :: t.problems;
          { m with value = 0.0 }
        end)
      ms
  in
  let body =
    String.concat ","
      (List.map
         (fun m ->
           Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" m.name (fmt_value m.value) m.unit_)
         ms)
  in
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}" (correct t)
    (max 1 t.attempted) t.failed body
