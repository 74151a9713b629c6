(* Seeded, replayable inputs for every workload.

   Everything a run feeds the program — the graph file, each
   connection's request stream, the mutation trace — is a pure function
   of (workload, seed).  The program only ever sees these generated
   inputs: the graph through a file passed with -g, requests and
   mutations over its protocol.

   The graph itself is generated from a fixed seed, so every run of a
   workload serves the same topology and the run seed varies the
   traffic and the churn: per-graph differences in mean stretch (25%
   across ER graphs at n = 512) and build time would otherwise swamp
   the run-to-run comparison the benchmark exists for. *)

module Graph = Cr_graph.Graph
module Gio = Cr_graph.Gio
module Rng = Cr_util.Rng
module Workload = Cr_engine.Workload
module Experiment = Compact_routing.Experiment

type workload = Read_zipf | Churn_uniform | Eval_geo

let all = [ Read_zipf; Churn_uniform; Eval_geo ]

let to_string = function
  | Read_zipf -> "read-zipf"
  | Churn_uniform -> "churn-uniform"
  | Eval_geo -> "eval-geo"

let of_string s = List.find_opt (fun w -> to_string w = s) all

(* sizes: read-zipf serves a 1024-node graph; churn-uniform repairs a
   512-node one; eval-geo builds the full scheme set on a 512-node
   geometric graph, where one build already takes seconds *)
let nodes = function Read_zipf -> 1024 | Churn_uniform -> 512 | Eval_geo -> 512

let k = 3

(* start-ups per run; setup_s is their median.  A read-zipf daemon takes
   ~4 s to start, the others ~1-2 s, where scheduling noise weighs more *)
let setups = function Read_zipf -> 3 | Churn_uniform | Eval_geo -> 5

let aspect = 4096.0

(* eval-geo batches: each is one Serve.run / Oserve.run call *)
let eval_batch = 4096

let burst_size = 8

let graph_seed = 1

type stream = { pairs : (int * int) array; kinds : Bytes.t }

type t = {
  workload : workload;
  seed : int;
  graph_text : string;  (** what is written to the -g file *)
  graph : Graph.t;  (** the daemon's view of that file: normalized, as crt loads it *)
  streams : stream array;  (** one request stream per query connection *)
  bursts : Graph.mutation array array;  (** churn-uniform's mutation trace *)
}

let stream_length s = Array.length s.pairs

let line s i =
  let u, v = s.pairs.(i) in
  match Bytes.get s.kinds i with
  | 'r' -> Printf.sprintf "route %d %d" u v
  | 'd' -> Printf.sprintf "dist %d %d" u v
  | _ -> Printf.sprintf "path %d %d" u v

(* integer weights in [1, 7]: mutations keep the graph normalized and
   every distance exact *)
let er_graph ~seed ~n =
  let g = Experiment.make_graph ~seed (Experiment.Erdos_renyi { n; avg_degree = 4.0 }) in
  let rng = Rng.create (seed + 0x5eed) in
  Graph.reweight g (fun _ _ _ -> float_of_int (1 + Rng.int rng 7))

let geo_graph ~seed ~n =
  Experiment.make_graph_with_aspect ~seed ~target_aspect:aspect
    (Experiment.Geometric { n; radius = 0.15 })

(* route : dist : path = 1 : 1 : 1 — bench D2's even route/dist split,
   with path, the daemon's third query kind, at the same share *)
let make_stream ~seed ~conn ~n ~dist ~len =
  let s = (seed * 16) + conn in
  let pairs = Workload.generate dist ~seed:s ~n ~count:len in
  let rng = Rng.create (s + 7919) in
  let kinds =
    Bytes.init len (fun _ -> match Rng.int rng 3 with 0 -> 'r' | 1 -> 'd' | _ -> 'p')
  in
  { pairs; kinds }

(* The mutation trace, generated against the benchmark's own model of
   the graph so that every mutation applies: reweights of existing
   edges, removals that keep the graph connected (so every query stays
   answerable), and insertions of missing edges — 1 : 1 : 1, bench D2's
   even mix of edge mutations.  D2's node_down and node_up are left out:
   a downed node makes queries to it fail. *)
let make_bursts ~seed ~graph ~bursts =
  let rng = Rng.create (seed + 0xc407) in
  let n = Graph.n graph in
  let g = ref graph in
  let weight () = float_of_int (1 + Rng.int rng 7) in
  let rec draw () =
    let es = Array.of_list (Graph.edges !g) in
    let u, v, w = es.(Rng.int rng (Array.length es)) in
    let mu =
      match Rng.int rng 3 with
      | 0 ->
          let w' = weight () in
          if w' = w then None else Some (Graph.Set_weight (u, v, w'))
      | 1 -> Some (Graph.Link_down (u, v))
      | _ ->
          let a = Rng.int rng n and b = Rng.int rng n in
          if a = b || Graph.has_edge !g a b then None else Some (Graph.Link_up (a, b, weight ()))
    in
    match mu with
    | None -> draw ()
    | Some mu ->
        let g' = Graph.apply !g mu in
        if Graph.structural mu && not (Cr_graph.Component.is_connected g') then draw ()
        else begin
          g := g';
          mu
        end
  in
  Array.init bursts (fun _ -> Array.init burst_size (fun _ -> draw ()))

let make ?(stream_len = 4096) ?(bursts = 64) workload ~seed =
  let n = nodes workload in
  let g0 =
    match workload with
    | Eval_geo -> geo_graph ~seed:graph_seed ~n
    | Read_zipf | Churn_uniform -> er_graph ~seed:graph_seed ~n
  in
  let graph_text = Gio.to_string g0 in
  let graph = Graph.normalize (Gio.of_string graph_text) in
  let streams =
    match workload with
    | Read_zipf ->
        Array.init 2 (fun conn ->
            make_stream ~seed ~conn ~n ~dist:(Workload.Zipf 1.1) ~len:stream_len)
    | Churn_uniform -> [| make_stream ~seed ~conn:0 ~n ~dist:Workload.Uniform ~len:stream_len |]
    | Eval_geo -> [||]
  in
  let bursts =
    match workload with Churn_uniform -> make_bursts ~seed ~graph ~bursts | _ -> [||]
  in
  { workload; seed; graph_text; graph; streams; bursts }

(* seed of eval-geo's i-th serving batch *)
let eval_seed t i = (t.seed * 100_003) + i

(* Digest of everything the program is fed: the graph file, the first
   4096 requests of every stream (eval-geo: of its first batch), and
   the mutation trace. *)
let digest t =
  let b = Buffer.create (String.length t.graph_text + 65536) in
  Buffer.add_string b (to_string t.workload);
  Buffer.add_char b '\n';
  Buffer.add_string b t.graph_text;
  Array.iter
    (fun s ->
      for i = 0 to min (stream_length s) 4096 - 1 do
        Buffer.add_string b (line s i);
        Buffer.add_char b '\n'
      done)
    t.streams;
  (match t.workload with
  | Eval_geo ->
      Array.iter
        (fun (u, v) -> Buffer.add_string b (Printf.sprintf "pair %d %d\n" u v))
        (Workload.generate (Workload.Zipf 1.1) ~seed:(eval_seed t 0) ~n:(Graph.n t.graph)
           ~count:eval_batch)
  | Read_zipf | Churn_uniform -> ());
  Array.iter
    (Array.iter (fun mu ->
         Buffer.add_string b (Graph.mutation_to_string mu);
         Buffer.add_char b '\n'))
    t.bursts;
  Digest.to_hex (Digest.string (Buffer.contents b))
