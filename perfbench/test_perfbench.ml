(* The benchmark's own checks: replayable inputs and exact quantiles. *)

open Perfbench

let digest w seed = Inputs.digest (Inputs.make w ~seed ~stream_len:512 ~bursts:4)

let test_digest () =
  List.iter
    (fun w ->
      let name = Inputs.to_string w in
      Alcotest.(check string) (name ^ ": same seed, same digest") (digest w 3) (digest w 3);
      Alcotest.(check bool) (name ^ ": other seed, other digest") true (digest w 3 <> digest w 4))
    Inputs.all

let test_mutations_apply () =
  let t = Inputs.make Inputs.Churn_uniform ~seed:5 ~stream_len:16 ~bursts:6 in
  let g =
    Array.fold_left
      (fun g burst -> Array.fold_left Cr_graph.Graph.apply g burst)
      t.Inputs.graph t.Inputs.bursts
  in
  Alcotest.(check bool) "still connected" true (Cr_graph.Component.is_connected g)

(* the smallest sample x with at least pct% of the samples <= x *)
let brute xs pct =
  let n = Array.length xs in
  Array.fold_left
    (fun best x ->
      let le = Array.fold_left (fun c y -> if y <= x then c + 1 else c) 0 xs in
      if 100 * le >= pct * n && x < best then x else best)
    infinity xs

let test_quantiles () =
  let rng = Cr_util.Rng.create 17 in
  for n = 1 to 300 do
    let xs = Array.init n (fun _ -> float (Cr_util.Rng.int rng 50)) in
    let b = Quant.create () in
    Array.iter (Quant.add b) xs;
    let s = Quant.sorted b in
    List.iter
      (fun pct ->
        Alcotest.(check (float 0.0))
          (Printf.sprintf "n=%d p%d" n pct)
          (brute xs pct) (Quant.quantile s ~pct))
      [ 0; 1; 25; 50; 75; 90; 99; 100 ]
  done;
  Alcotest.(check (float 0.0)) "interquartile mean of 1..8" 4.5
    (Quant.iq_mean (Array.init 8 (fun i -> float (i + 1))));
  Alcotest.(check (float 0.0)) "interquartile mean of one sample" 7.0 (Quant.iq_mean [| 7.0 |]);
  Alcotest.(check bool) "p99 of 1000: 10 beyond" true (Quant.reportable ~n:1000 ~pct:99);
  Alcotest.(check bool) "p99 of 999: 9 beyond" false (Quant.reportable ~n:999 ~pct:99)

let () =
  Alcotest.run "perfbench"
    [
      ( "inputs",
        [
          Alcotest.test_case "digest follows the seed" `Quick test_digest;
          Alcotest.test_case "mutation trace applies" `Quick test_mutations_apply;
        ] );
      ("quant", [ Alcotest.test_case "matches exact quantiles" `Quick test_quantiles ]);
    ]
