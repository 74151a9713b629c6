(* The benchmark command.

     bench.exe --workload read-zipf|churn-uniform|eval-geo --seed N
               --seconds S --trace 0|1 [--crt PATH]

   Generates the workload's inputs from the seed, runs it for S
   seconds of query phase, checks every answer, and prints each metric
   with its unit and sample count.  The last line of standard output is
   one JSON object: end-to-end metrics with --trace 0, per-layer
   metrics (from spans this program records around its calls into the
   system) with --trace 1.  Exits 1 if any operation or check failed,
   2 on bad arguments. *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload read-zipf|churn-uniform|eval-geo --seed N --seconds S \
     --trace 0|1 [--crt PATH]";
  exit 2

let rec rm_rf p =
  match Sys.is_directory p with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
  | false -> Sys.remove p
  | exception Sys_error _ -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* the commit, when run from a git checkout *)
let commit () =
  let read f =
    try Some (String.trim (In_channel.with_open_text f In_channel.input_all))
    with Sys_error _ -> None
  in
  match read ".git/HEAD" with
  | Some h when String.starts_with ~prefix:"ref: " h -> (
      let r = String.sub h 5 (String.length h - 5) in
      match read (Filename.concat ".git" r) with Some c -> c | None -> h)
  | Some h -> h
  | None -> "unknown (not a git checkout)"

let () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let crt = ref "_build/default/bin/crt.exe" in
  let rec parse = function
    | "--workload" :: w :: rest ->
        workload := Perfbench.Inputs.of_string w;
        if !workload = None then usage ();
        parse rest
    | "--seed" :: s :: rest ->
        seed := int_of_string_opt s;
        parse rest
    | "--seconds" :: s :: rest ->
        seconds := Option.bind (float_of_string_opt s) (fun x -> if x > 0.0 then Some x else None);
        parse rest
    | "--trace" :: t :: rest ->
        trace := (match t with "0" -> Some false | "1" -> Some true | _ -> None);
        parse rest
    | "--crt" :: c :: rest ->
        crt := c;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let workload, seed, seconds, trace =
    match (!workload, !seed, !seconds, !trace) with
    | Some w, Some s, Some x, Some t -> (w, s, x, t)
    | _ -> usage ()
  in
  if not (Sys.file_exists !crt) then begin
    Printf.eprintf "bench: %s not found (build it first: dune build bin/crt.exe)\n" !crt;
    exit 2
  end;
  let open Perfbench in
  let name = Inputs.to_string workload in
  let work = Printf.sprintf ".perfbench-run/%s-%d" name (Unix.getpid ()) in
  mkdir_p work;
  (* a SIGTERM or SIGINT still runs the at_exit cleanup below, so no
     daemon outlives the run *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 1))) [ Sys.sigterm; Sys.sigint ];
  at_exit (fun () ->
      Proc.cleanup ();
      Cr_util.Domain_pool.shutdown_shared ();
      rm_rf work;
      try Unix.rmdir (Filename.dirname work) with Unix.Unix_error _ -> ());
  let t_start = Cr_guard.Clock.monotonic () in
  (* streams long enough that no connection runs dry *)
  let stream_len = max 4096 (int_of_float (seconds *. 50_000.0)) in
  let inputs = Inputs.make workload ~seed ~stream_len in
  let graph_path = Filename.concat work "graph.txt" in
  Out_channel.with_open_text graph_path (fun oc -> output_string oc inputs.Inputs.graph_text);
  Printf.printf "host: nproc=%d ocaml=%s commit=%s\n" (Domain.recommended_domain_count ())
    Sys.ocaml_version (commit ());
  Printf.printf "workload=%s seed=%d seconds=%g trace=%b n=%d m=%d inputs-digest=%s\n%!" name seed
    seconds trace (Cr_graph.Graph.n inputs.Inputs.graph) (Cr_graph.Graph.m inputs.Inputs.graph)
    (Inputs.digest inputs);
  let rep = Report.create () and spans = Span.create () in
  (try
     match workload with
     | Inputs.Eval_geo -> Eval_bench.run ~rep ~spans ~graph_path ~inputs ~seconds ~trace
     | Inputs.Read_zipf | Inputs.Churn_uniform ->
         let ctx =
           {
             Socket_bench.crt = !crt;
             work;
             inputs;
             seconds;
             trace;
             rep;
             spans;
             graph_path;
             sock = Filename.concat work "d.sock";
             outcomes = Hashtbl.create 8;
           }
         in
         if workload = Inputs.Read_zipf then Socket_bench.read_zipf ctx
         else Socket_bench.churn_uniform ctx
   with e -> Report.fail rep ("run aborted: " ^ Printexc.to_string e));
  let wall = Cr_guard.Clock.monotonic () -. t_start in
  let fail_ratio = float rep.Report.failed /. float (max 1 rep.Report.attempted) in
  Printf.printf "metric fail_ratio = %.17g ratio (n=%d) -- base: attempted operations\n" fail_ratio
    rep.Report.attempted;
  Report.print_e2e rep;
  if trace then begin
    Report.layer rep ~samples:rep.Report.attempted "fail_ratio" fail_ratio;
    (* each workload has checked its layer spans against the wall time
       of the phase they cover *)
    let selfs = Span.self_times spans in
    let total = List.fold_left (fun acc (_, s, _) -> acc +. s) 0.0 selfs in
    List.iter
      (fun (n, s, c) -> Printf.printf "self %s = %.6f s over %d spans\n" n s c)
      selfs;
    Printf.printf "spans: %d, self-time sum %.3f s of %.3f s wall\n" (Span.length spans) total wall;
    let out = ".perfbench-out" in
    mkdir_p out;
    Span.write spans (Filename.concat out (Printf.sprintf "spans-%s-seed%d.csv" name seed));
    Report.print_layers rep
  end;
  List.iter (fun p -> Printf.printf "FAILED: %s\n" p) (List.rev rep.Report.problems);
  let json = Report.final_json rep ~trace in
  print_endline json;
  exit (if Report.correct rep then 0 else 1)
