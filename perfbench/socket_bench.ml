(* The two socket workloads.  The real [crt daemon --listen unix:...]
   binary serves; this process is its only client.

   read-zipf: no mutations, Zipf endpoints, answer cache on — the
   transport, protocol parsing and cache carry the load.
   churn-uniform: one connection replays the mutation trace in bursts
   (each ended by [sync]) while another queries with uniform
   endpoints; then SIGKILL, restart with --recover, and check the
   recovered daemon against a never-crashed reference. *)

module Graph = Cr_graph.Graph
module Apsp = Cr_graph.Apsp
module Daemon = Cr_daemon.Daemon
module Journal = Cr_daemon.Journal
module Snapshot = Cr_daemon.Snapshot
module Gio = Cr_graph.Gio

let now = Cr_guard.Clock.monotonic

(* answer-cache entries of the daemon, both workloads: 16 per node on
   read-zipf's 1024 nodes.  Measured hit ratios are in README.md: about
   0.6 on read-zipf, and about 0.03 on churn-uniform, where every repair
   ages the cache out *)
let cache_entries = 16384

(* churn-uniform checkpoints every 7 journaled mutations: coprime with
   the burst size, so recovery usually loads a snapshot and replays a
   journal suffix past it *)
let snapshot_every = 7

(* post-sync answers compared against a fresh reference, per burst *)
let sync_samples = 100

type ctx = {
  crt : string;
  work : string;
  inputs : Inputs.t;
  seconds : float;
  trace : bool;
  rep : Report.t;
  spans : Span.t;
  graph_path : string;
  sock : string;
  outcomes : (string, int) Hashtbl.t;  (** server outcome counters, summed over drained daemons *)
}

let path ctx f = Filename.concat ctx.work f

let fail ctx ?ops msg = Report.fail ctx.rep ?ops msg

let base_args ctx =
  [ "daemon"; "-g"; ctx.graph_path; "-k"; string_of_int Inputs.k; "--seed"; "1";
    "--cache"; string_of_int cache_entries; "--listen"; "unix:" ^ ctx.sock ]

let connect ctx =
  let rec go tries =
    match Loadgen.connect ctx.sock with
    | Some r -> r
    | None ->
        if tries = 0 then failwith ("cannot connect to " ^ ctx.sock);
        Unix.sleepf 0.01;
        go (tries - 1)
  in
  go 200

(* quit a connection and wait for the server to close it *)
let bye ctx r =
  (match Loadgen.exchange r "quit" ~timeout:10.0 with
  | Some ("ok bye", _) -> (
      match Loadgen.read_line r ~timeout:10.0 with
      | None -> ()
      | Some l -> fail ctx ("unexpected line after bye: " ^ l))
  | Some (l, _) -> fail ctx ("quit answered " ^ l)
  | None -> fail ctx "quit: no reply");
  Loadgen.close r

(* one request on a fresh connection, compared with [expect] *)
let ask ctx r line ~expect =
  Report.attempt ctx.rep 1;
  match Loadgen.exchange r line ~timeout:30.0 with
  | None -> fail ctx (line ^ ": no reply")
  | Some (reply, _) ->
      if Refcheck.strip_epoch reply <> expect then
        fail ctx (Printf.sprintf "%s: socket %S, reference %S" line reply expect)

(* Spawn a daemon, wait until it listens, and send [probe] on a fresh
   connection.  Returns the process and the seconds from spawn to the
   probe's reply. *)
let start ctx ~tag ~extra ~probe ~expect =
  let p =
    Proc.spawn ~prog:ctx.crt ~args:(base_args ctx @ extra) ~stderr_path:(path ctx (tag ^ ".stderr"))
  in
  match Proc.await_line p ~prefix:"ok listening" ~timeout:150.0 with
  | None ->
      let err = In_channel.with_open_text (path ctx (tag ^ ".stderr")) In_channel.input_all in
      failwith (Printf.sprintf "daemon %s never listened: %s" tag (String.trim err))
  | Some _ ->
      let r = connect ctx in
      ask ctx r probe ~expect;
      let t = now () -. p.Proc.t_spawn in
      bye ctx r;
      (p, t)

let count ctx key v =
  Hashtbl.replace ctx.outcomes key (v + Option.value ~default:0 (Hashtbl.find_opt ctx.outcomes key))

(* SIGTERM, then reconcile: exit 143, an [ok drained] line, and
   served + shed + timed_out + disconnected = conns_total = [conns]. *)
let stop ctx p ~tag ~conns =
  let st, lines = Proc.terminate p ~timeout:30.0 in
  Report.check ctx.rep (st = Unix.WEXITED 143)
    (Printf.sprintf "daemon %s: %s after SIGTERM, not exit 143" tag (Proc.status_to_string st));
  match List.find_opt (String.starts_with ~prefix:"ok drained ") lines with
  | None -> Report.check ctx.rep false (Printf.sprintf "daemon %s: no ok drained line" tag)
  | Some l ->
      let json = String.sub l 11 (String.length l - 11) in
      let num k = int_of_float (Option.value ~default:(-1.0) (Refcheck.json_num json k)) in
      let served = num "served" and shed = num "shed" and timed_out = num "timed_out" in
      let disc = num "disconnected" and total = num "conns" in
      Report.check ctx.rep
        (Refcheck.json_bool json "drained" = Some true)
        (Printf.sprintf "daemon %s: drain did not run" tag);
      Report.check ctx.rep
        (served + shed + timed_out + disc = total && total = conns)
        (Printf.sprintf "daemon %s: outcomes %d+%d+%d+%d vs conns_total %d, expected %d" tag served
           shed timed_out disc total conns);
      Report.check ctx.rep (served = total)
        (Printf.sprintf "daemon %s: only %d of %d connections served" tag served total);
      count ctx "server.served" served;
      count ctx "server.shed" shed;
      count ctx "server.timed_out" timed_out;
      count ctx "server.disconnected" disc

let stats ctx =
  let r = connect ctx in
  let s =
    match Loadgen.exchange r "stats" ~timeout:30.0 with
    | Some (l, _) when String.starts_with ~prefix:"ok stats " l ->
        String.sub l 9 (String.length l - 9)
    | _ ->
        fail ctx "stats: no reply";
        "{}"
  in
  bye ctx r;
  s

let stat json key = Option.value ~default:nan (Refcheck.json_num json key)

(* The first [setups - 1] daemons only measure start-up; the last one
   is returned still serving. *)
let setup ctx ~extra ~probe ~expect =
  let setups = Inputs.setups ctx.inputs.Inputs.workload in
  let times = ref [] in
  let rec go i =
    let p, t = start ctx ~tag:(Printf.sprintf "setup%d" i) ~extra:(extra i) ~probe ~expect in
    times := t :: !times;
    if i < setups then begin
      stop ctx p ~tag:(Printf.sprintf "setup%d" i) ~conns:1;
      go (i + 1)
    end
    else p
  in
  let p = go 1 in
  let ts = Array.of_list !times in
  Report.e2e ctx.rep ~samples:setups ~note:"median of daemon spawns, spawn to first correct reply"
    "setup_s" (Quant.median_of ts);
  p

(* A query connection over [stream], answering into [replies]. *)
let query_conn ctx stream ~keep_going ~replies ~rtts =
  let r = connect ctx in
  let i = ref 0 and got = ref 0 in
  let next () =
    if !i >= Inputs.stream_length stream || not (keep_going ()) then None
    else begin
      let l = Inputs.line stream !i in
      incr i;
      Some l
    end
  in
  let on_reply _ reply rtt =
    replies.(!got) <- reply;
    incr got;
    Quant.add rtts rtt
  in
  (Loadgen.conn r ~next ~on_reply, got)

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let percentile_metrics ctx rtts =
  let s = Quant.sorted rtts in
  let n = Array.length s in
  if n = 0 then fail ctx "no query was answered"
  else begin
    Report.e2e ctx.rep ~samples:n "query_p50_ms" (1e3 *. Quant.quantile s ~pct:50);
    if Quant.reportable ~n ~pct:99 then
      Report.e2e ctx.rep ~samples:n "query_p99_ms" (1e3 *. Quant.quantile s ~pct:99)
    else Report.check ctx.rep false (Printf.sprintf "p99 needs 10 samples beyond it; have %d" n)
  end

let stretch_metric ctx replies_by_conn =
  let sum = ref 0.0 and c = ref 0 in
  List.iter
    (fun (replies, got) ->
      for i = 0 to got - 1 do
        match Refcheck.route_stretch replies.(i) with
        | Some s ->
            sum := !sum +. s;
            incr c
        | None -> ()
      done)
    replies_by_conn;
  if !c = 0 then fail ctx "no delivered route answer"
  else Report.e2e ctx.rep ~samples:!c ~note:"delivered route answers" "stretch_mean" (!sum /. float !c)

(* Sets the traced-run daemon-layer metrics from the daemon's stats. *)
let daemon_stats_layers ctx json =
  let hits = stat json "cache_hits" and misses = stat json "cache_misses" in
  Report.layer ctx.rep ~samples:(int_of_float (hits +. misses)) "daemon.cache_hit_ratio"
    (if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0);
  Report.layer ctx.rep "guard.shed" (stat json "shed");
  Report.layer ctx.rep "guard.timed_out" (stat json "timed_out");
  Report.layer ctx.rep "guard.breaker_open" (stat json "breaker_open")

let outcome_layers ctx =
  List.iter
    (fun k ->
      Report.layer ctx.rep k (float (Option.value ~default:0 (Hashtbl.find_opt ctx.outcomes k))))
    [ "server.served"; "server.shed"; "server.timed_out"; "server.disconnected" ]

let handle_kinds = [ "route"; "dist"; "path"; "mutate" ]

let kind_of line =
  match String.index_opt line ' ' with
  | Some i -> (
      match String.sub line 0 i with
      | "route" | "dist" | "path" as k -> k
      | _ -> "mutate")
  | None -> line

(* Handle-span metrics, the transport share of the socket round trip,
   and two checks: one daemon.handle span per request the load
   connections sent, and in-process handling of the query requests
   taking no longer than the socket query phase [phase_wall], in which
   the daemon handled the same requests one at a time. *)
let handle_layers ctx ~rtts ~sent ~phase_wall =
  List.iter
    (fun k ->
      let b = Span.durations ctx.spans ("daemon.handle." ^ k) in
      let n = Quant.length b in
      if n > 0 then begin
        let s = Quant.sorted b in
        Report.layer ctx.rep ~samples:n
          (Printf.sprintf "daemon.handle_us.%s.p50" k)
          (1e6 *. Quant.quantile s ~pct:50);
        if k <> "mutate" && Quant.reportable ~n ~pct:99 then
          Report.layer ctx.rep ~samples:n
            (Printf.sprintf "daemon.handle_us.%s.p99" k)
            (1e6 *. Quant.quantile s ~pct:99)
      end)
    handle_kinds;
  let handles =
    List.fold_left (fun acc k -> acc + Span.count ctx.spans ("daemon.handle." ^ k)) 0
      ("sync" :: handle_kinds)
  in
  Report.check ctx.rep (handles = sent)
    (Printf.sprintf "%d daemon.handle spans for %d requests sent" handles sent);
  Layers.within ctx.rep ctx.spans ~phase:"the socket query phase" ~wall:phase_wall
    [ "daemon.handle.route"; "daemon.handle.dist"; "daemon.handle.path" ];
  let all = Quant.create () in
  List.iter
    (fun k ->
      let b = Span.durations ctx.spans ("daemon.handle." ^ k) in
      let s = Quant.sorted b in
      Array.iter (Quant.add all) s)
    [ "route"; "dist"; "path" ];
  if Quant.length all > 0 && Quant.length rtts > 0 then
    Report.layer ctx.rep ~samples:(Quant.length rtts) "server.transport_us"
      (1e6
      *. (Quant.quantile (Quant.sorted rtts) ~pct:50 -. Quant.quantile (Quant.sorted all) ~pct:50))

(* Replays [lines] through [d]'s transport-independent dispatch, each
   call in a daemon.handle.<kind> span when [traced]. *)
let replay ctx d ~traced lines =
  let t0 = now () in
  let root = if traced then Span.start ctx.spans "replay" else -1 in
  List.iteri
    (fun i line ->
      if traced then begin
        let id = Span.start ctx.spans ~parent:root ~req:i ("daemon.handle." ^ kind_of line) in
        ignore (Daemon.handle_line d ~lineno:(i + 1) line);
        Span.stop ctx.spans id
      end
      else ignore (Daemon.handle_line d ~lineno:(i + 1) line))
    lines;
  if traced then Span.stop ctx.spans root;
  now () -. t0

let overhead ctx ~untraced ~traced =
  Report.layer ctx.rep ~note:"base: untraced replay wall time" "trace.overhead_share"
    ((traced -. untraced) /. untraced)

(* Route and path requests among the first [cap] lines, as pairs. *)
let pairs_of lines ~cap =
  let routes = ref [] and paths = ref [] in
  List.iteri
    (fun i l ->
      if i < cap then
        match String.split_on_char ' ' l with
        | [ "route"; u; v ] -> routes := (int_of_string u, int_of_string v) :: !routes
        | [ "path"; u; v ] -> paths := (int_of_string u, int_of_string v) :: !paths
        | _ -> ())
    lines;
  (Array.of_list (List.rev !routes), Array.of_list (List.rev !paths))

let gen_share ctx ~cpu_s ~wall =
  Report.layer ctx.rep ~note:"load generator CPU seconds / phase wall seconds" "gen.cpu_share"
    (cpu_s /. wall)

(* ---- read-zipf ------------------------------------------------------- *)

let read_zipf ctx =
  let inputs = ctx.inputs in
  let reference = Refcheck.daemon ~cache:cache_entries inputs.Inputs.graph in
  let expected = Refcheck.memo reference in
  let probe = Inputs.line inputs.Inputs.streams.(0) 0 in
  let p = setup ctx ~extra:(fun _ -> []) ~probe ~expect:(expected probe) in
  let deadline = now () +. ctx.seconds in
  let keep_going () = now () < deadline in
  let rtts = Quant.create () in
  let conns =
    Array.map
      (fun s ->
        let replies = Array.make (Inputs.stream_length s) "" in
        let c, got = query_conn ctx s ~keep_going ~replies ~rtts in
        (c, got, replies, s))
      inputs.Inputs.streams
  in
  let cpu0 = cpu () and t0 = now () in
  Loadgen.run (Array.to_list (Array.map (fun (c, _, _, _) -> c) conns));
  let wall = now () -. t0 and cpu_s = cpu () -. cpu0 in
  let sent = Array.fold_left (fun acc (c, _, _, _) -> acc + c.Loadgen.sent) 0 conns in
  let json = stats ctx in
  let hwm = Proc.vm_hwm_kb p.Proc.pid in
  Array.iter (fun (c, _, _, _) -> bye ctx c.Loadgen.r) conns;
  stop ctx p ~tag:"serve" ~conns:(2 + Array.length conns);
  Report.check ctx.rep
    (int_of_float (stat json "queries") = sent + 1)
    (Printf.sprintf "daemon counted %.0f queries; the generator sent %d (+1 probe)"
       (stat json "queries") sent);
  (* the correctness gate: every answer byte-identical, epoch
     stripped, to the in-process reference *)
  let correct = ref 0 in
  Array.iter
    (fun (c, got, replies, s) ->
      Report.attempt ctx.rep c.Loadgen.sent;
      if c.Loadgen.cuts + c.Loadgen.timeouts > 0 then
        fail ctx ~ops:(c.Loadgen.cuts + c.Loadgen.timeouts) "a load connection was cut or timed out";
      for i = 0 to !got - 1 do
        let line = Inputs.line s i in
        if Refcheck.strip_epoch replies.(i) = expected line then incr correct
        else fail ctx (Printf.sprintf "%s: socket %S, reference %S" line replies.(i) (expected line))
      done)
    conns;
  Report.e2e ctx.rep "peak_rss_mb" (float hwm /. 1024.0);
  Report.e2e ctx.rep ~samples:!correct "queries_per_s" (float !correct /. wall);
  percentile_metrics ctx rtts;
  stretch_metric ctx (Array.to_list (Array.map (fun (_, got, replies, _) -> (replies, !got)) conns));
  Printf.printf "phase: %d requests over %d connections in %.3f s, %d correct; cache hit ratio %.4f\n"
    sent (Array.length conns) wall !correct
    (stat json "cache_hits" /. Float.max 1.0 (stat json "cache_hits" +. stat json "cache_misses"));
  if ctx.trace then begin
    daemon_stats_layers ctx json;
    outcome_layers ctx;
    gen_share ctx ~cpu_s ~wall;
    let lines =
      List.concat_map
        (fun (_, got, _, s) -> List.init !got (Inputs.line s))
        (Array.to_list conns)
    in
    Daemon.close reference;
    Gc.compact ();
    let fresh () = Refcheck.daemon ~cache:cache_entries inputs.Inputs.graph in
    let d = fresh () in
    let untraced = replay ctx d ~traced:false lines in
    Daemon.close d;
    let d = fresh () in
    let traced = replay ctx d ~traced:true lines in
    Daemon.close d;
    overhead ctx ~untraced ~traced;
    handle_layers ctx ~rtts ~sent ~phase_wall:wall;
    let apsp, agm, oracle = Layers.build ctx.rep ctx.spans inputs.Inputs.graph in
    let routes, paths = pairs_of lines ~cap:20000 in
    ignore (Layers.query_pass ctx.rep ~spans:ctx.spans ~apsp ~agm ~oracle ~routes ~paths ())
  end
  else Daemon.close reference

(* ---- churn-uniform ---------------------------------------------------- *)

let durable_args ctx ~events =
  [ "--journal"; path ctx "journal.log"; "--fsync"; "every"; "--snapshots"; path ctx "snapshots";
    "--snapshot-every"; string_of_int snapshot_every; "--events"; path ctx events ]

(* (mutations, wall ms) of every repair event in a --events file *)
let repair_events file =
  if not (Sys.file_exists file) then []
  else
    In_channel.with_open_text file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun l ->
           if String.starts_with ~prefix:"{\"event\":\"repair\"" l then
             match (Refcheck.json_num l "mutations", Refcheck.json_num l "wall_ms") with
             | Some m, Some w -> Some (m, w)
             | _ -> None
           else None)

type burst_log = {
  epoch : int;  (** the epoch its sync reported *)
  converge_s : float;
  b_index : int;  (** connection B's answered requests when the sync returned *)
}

let churn_uniform ctx =
  let inputs = ctx.inputs in
  let bursts = inputs.Inputs.bursts in
  let stream = inputs.Inputs.streams.(0) in
  let initial = Refcheck.daemon inputs.Inputs.graph in
  let probe = Inputs.line stream 0 in
  let p =
    setup ctx
      ~extra:(fun i -> durable_args ctx ~events:(Printf.sprintf "events%d.jsonl" i))
      ~probe ~expect:(Refcheck.strip_epoch (Refcheck.answer initial probe))
  in
  Daemon.close initial;
  let deadline = now () +. ctx.seconds in
  (* connection A: the mutation trace in bursts, each ended by sync *)
  let acks = Quant.create () and logs = ref [] in
  let b = ref 0 and j = ref 0 and a_done = ref false and last_ack = ref 0.0 in
  let b_got = ref (fun () -> 0) in
  let next_a () =
    if !j < Inputs.burst_size then begin
      let mu = bursts.(!b).(!j) in
      incr j;
      Some (Graph.mutation_to_string mu)
    end
    else if !j = Inputs.burst_size then begin
      incr j;
      Some "sync"
    end
    else begin
      incr b;
      j := 0;
      if !b >= Array.length bursts || now () >= deadline then begin
        a_done := true;
        None
      end
      else begin
        j := 1;
        Some (Graph.mutation_to_string bursts.(!b).(0))
      end
    end
  in
  let on_a req reply rtt =
    if req = "sync" then begin
      match (String.starts_with ~prefix:"ok sync " reply, Refcheck.epoch_of reply) with
      | true, Some e ->
          logs := { epoch = e; converge_s = now () -. !last_ack; b_index = !b_got () } :: !logs
      | _ -> fail ctx ("sync answered " ^ reply)
    end
    else if String.starts_with ~prefix:("ok mutate " ^ req ^ " ") reply then begin
      Quant.add acks rtt;
      last_ack := now ()
    end
    else fail ctx (Printf.sprintf "%s answered %s" req reply)
  in
  let conn_a = Loadgen.conn (connect ctx) ~next:next_a ~on_reply:on_a in
  let rtts = Quant.create () in
  let replies = Array.make (Inputs.stream_length stream) "" in
  let conn_b, got =
    query_conn ctx stream ~keep_going:(fun () -> now () < deadline || not !a_done) ~replies ~rtts
  in
  b_got := (fun () -> !got);
  let cpu0 = cpu () and t0 = now () in
  Loadgen.run [ conn_a; conn_b ];
  let wall = now () -. t0 and cpu_s = cpu () -. cpu0 in
  let logs = Array.of_list (List.rev !logs) in
  let done_bursts = Array.length logs in
  let mutations = done_bursts * Inputs.burst_size in
  let json = stats ctx in
  let hwm = Proc.vm_hwm_kb p.Proc.pid in
  Report.attempt ctx.rep (conn_a.Loadgen.sent + conn_b.Loadgen.sent);
  List.iter
    (fun (c : Loadgen.conn) ->
      if c.cuts + c.timeouts > 0 then
        fail ctx ~ops:(c.cuts + c.timeouts) "a load connection was cut or timed out")
    [ conn_a; conn_b ];
  Report.check ctx.rep
    (conn_a.Loadgen.sent = done_bursts * (Inputs.burst_size + 1))
    (Printf.sprintf "connection A sent %d requests for %d completed bursts" conn_a.Loadgen.sent
       done_bursts);
  Report.check ctx.rep
    (int_of_float (stat json "queries") = conn_b.Loadgen.sent + 1
    && int_of_float (stat json "mutations") = mutations)
    (Printf.sprintf "daemon counted %.0f queries and %.0f mutations; sent %d (+1 probe) and %d"
       (stat json "queries") (stat json "mutations") conn_b.Loadgen.sent mutations);
  (* crash: SIGKILL with the connections still open *)
  let st = Proc.kill9 p in
  Report.check ctx.rep (st = Unix.WSIGNALED Sys.sigkill)
    ("daemon did not die of SIGKILL: " ^ Proc.status_to_string st);
  Loadgen.close conn_a.Loadgen.r;
  Loadgen.close conn_b.Loadgen.r;
  (* the correctness gate after each sync: answers citing a synced
     epoch against a fresh daemon built on that burst's graph *)
  let graphs =
    let g = ref inputs.Inputs.graph in
    Array.init done_bursts (fun i ->
        g := Graph.apply_all !g (Array.to_list bursts.(i));
        !g)
  in
  let final_graph = if done_bursts = 0 then inputs.Inputs.graph else graphs.(done_bursts - 1) in
  let ok_answers = ref 0 and verified = ref 0 in
  for i = 0 to !got - 1 do
    if Refcheck.is_ok replies.(i) then incr ok_answers
    else fail ctx (Printf.sprintf "%s answered %s" (Inputs.line stream i) replies.(i))
  done;
  let epochs = Array.init !got (fun i -> Refcheck.epoch_of replies.(i)) in
  let final_ref = ref None in
  Array.iteri
    (fun bi log ->
      let idx = ref [] in
      for i = !got - 1 downto 0 do
        if epochs.(i) = Some log.epoch then idx := i :: !idx
      done;
      let idx = Array.of_list !idx in
      let take = min sync_samples (Array.length idx) in
      let last = bi = done_bursts - 1 in
      if take > 0 || last then begin
        let d = Refcheck.daemon graphs.(bi) in
        let expected = Refcheck.memo d in
        for s = 0 to take - 1 do
          let i = idx.(s * Array.length idx / take) in
          let line = Inputs.line stream i in
          Report.attempt ctx.rep 1;
          incr verified;
          if Refcheck.strip_epoch replies.(i) <> expected line then
            fail ctx (Printf.sprintf "after sync %d: %s: socket %S, reference %S" log.epoch line
                 replies.(i) (expected line))
        done;
        if last then final_ref := Some (d, expected) else Daemon.close d
      end)
    logs;
  let final_d, final_expected =
    match !final_ref with
    | Some x -> x
    | None ->
        let d = Refcheck.daemon final_graph in
        (d, Refcheck.memo d)
  in
  (* recovery: restart from the snapshots and journal the killed daemon
     left, and compare with the never-crashed reference *)
  let rp, recover_s =
    start ctx ~tag:"recover"
      ~extra:(durable_args ctx ~events:"events-recover.jsonl" @ [ "--recover"; path ctx "snapshots" ])
      ~probe ~expect:(final_expected probe)
  in
  let replayed =
    match List.find_opt (String.starts_with ~prefix:"ok recovered ") rp.Proc.lines with
    | Some l -> Option.bind (Refcheck.field l "replayed") float_of_string_opt
    | None -> None
  in
  Report.check ctx.rep (replayed <> None) "recovered daemon printed no ok recovered line";
  let r = connect ctx in
  for i = 1 to 50 do
    let line = Inputs.line stream (i * 7919 mod Inputs.stream_length stream) in
    ask ctx r line ~expect:(final_expected line)
  done;
  bye ctx r;
  stop ctx rp ~tag:"recover" ~conns:2;
  Daemon.close final_d;
  Report.e2e ctx.rep "peak_rss_mb" (float hwm /. 1024.0);
  Report.e2e ctx.rep ~samples:!ok_answers ~note:"connection B" "queries_per_s"
    (float !ok_answers /. wall);
  percentile_metrics ctx rtts;
  stretch_metric ctx [ (replies, !got) ];
  let converge = Array.map (fun l -> l.converge_s) logs in
  let sorted_acks = Quant.sorted acks in
  let converge_p50 = if done_bursts > 0 then Quant.median_of converge else nan in
  let ack_p50 =
    if Array.length sorted_acks > 0 then 1e3 *. Quant.quantile sorted_acks ~pct:50 else nan
  in
  Printf.printf
    "phase: %d bursts (%d mutations), %d queries in %.3f s; %d post-sync answers verified\n"
    done_bursts mutations !got wall !verified;
  Printf.printf "metric converge_p50_s = %.6f s (n=%d)\n" converge_p50 done_bursts;
  Printf.printf "metric mutate_ack_p50_ms = %.6f ms (n=%d)\n" ack_p50 (Array.length sorted_acks);
  Printf.printf "metric recover_s = %.6f s (n=1) -- replayed %s journal records\n" recover_s
    (match replayed with Some r -> Printf.sprintf "%.0f" r | None -> "?");
  if ctx.trace then begin
    Report.layer ctx.rep ~samples:done_bursts "converge_p50_s" converge_p50;
    Report.layer ctx.rep ~samples:(Array.length sorted_acks) "mutate_ack_p50_ms" ack_p50;
    Report.layer ctx.rep "recover_s" recover_s;
    (match replayed with Some r -> Report.layer ctx.rep "daemon.recovery_replayed" r | None -> ());
    daemon_stats_layers ctx json;
    outcome_layers ctx;
    gen_share ctx ~cpu_s ~wall;
    let main = Inputs.setups inputs.Inputs.workload in
    let events = repair_events (path ctx (Printf.sprintf "events%d.jsonl" main)) in
    (match events with
    | [] -> ()
    | evs ->
        let n = List.length evs in
        let sizes = List.fold_left (fun acc (m, _) -> acc +. m) 0.0 evs in
        Report.layer ctx.rep ~samples:n "daemon.repair_batch_size" (sizes /. float n);
        Report.layer ctx.rep ~samples:n "daemon.repair_batch_ms"
          (Quant.median_of (Array.of_list (List.map snd evs))));
    (* the same interleaving in-process: each burst's mutations, then
       the queries B had answered by its sync, then the sync *)
    let lines =
      let prev = ref 0 in
      let per_burst =
        Array.to_list
          (Array.mapi
             (fun bi log ->
               let ms = Array.to_list (Array.map Graph.mutation_to_string bursts.(bi)) in
               let qs = List.init (log.b_index - !prev) (fun i -> Inputs.line stream (!prev + i)) in
               prev := log.b_index;
               ms @ qs @ [ "sync" ])
             logs)
      in
      List.concat per_burst @ List.init (!got - !prev) (fun i -> Inputs.line stream (!prev + i))
    in
    let fresh tag =
      let dir = path ctx tag in
      Unix.mkdir dir 0o755;
      Refcheck.daemon ~cache:cache_entries ~journal:(Filename.concat dir "journal.log")
        ~snapshot_dir:(Filename.concat dir "snapshots") ~snapshot_every inputs.Inputs.graph
    in
    let d = fresh "inproc-untraced" in
    let untraced = replay ctx d ~traced:false lines in
    Daemon.close d;
    let d = fresh "inproc-traced" in
    let traced = replay ctx d ~traced:true lines in
    Daemon.close d;
    overhead ctx ~untraced ~traced;
    handle_layers ctx ~rtts ~sent:(conn_a.Loadgen.sent + conn_b.Loadgen.sent) ~phase_wall:wall;
    let apsp, agm, oracle = Layers.build ctx.rep ctx.spans inputs.Inputs.graph in
    (* the repair pipeline, stage by stage, over the same bursts *)
    let n = float (Graph.n inputs.Inputs.graph) in
    let dirty = ref 0.0 and repaired = ref 0 in
    let journal = Journal.create ~fsync:Journal.Every (path ctx "traced-journal.log") in
    let _ =
      Array.fold_left
        (fun apsp bi ->
          Span.record ctx.spans "repair.burst" (fun root ->
              let apsp =
                Array.fold_left
                  (fun apsp mu ->
                    Span.record ctx.spans ~parent:root "journal.append" (fun _ ->
                        Journal.append journal mu);
                    let apsp', k =
                      Span.record ctx.spans ~parent:root "graph.repair_mutation" (fun _ ->
                          Apsp.repair_mutation apsp mu)
                    in
                    dirty := !dirty +. (float k /. n);
                    incr repaired;
                    apsp')
                  apsp bursts.(bi)
              in
              ignore
                (Span.record ctx.spans ~parent:root "agm06.rebuild" (fun _ ->
                     Compact_routing.Agm06.build ~params:Refcheck.params apsp));
              ignore
                (Span.record ctx.spans ~parent:root "oracle.rebuild" (fun _ ->
                     Cr_oracle.Path_oracle.build ~k:Inputs.k ~seed:1 apsp));
              ignore
                (Span.record ctx.spans ~parent:root "snapshot.write" (fun _ ->
                     Snapshot.write ~dir:(path ctx "traced-snapshots")
                       {
                         Gio.epoch = bi + 1;
                         journal_records = Journal.records journal;
                         journal_offset = Journal.bytes journal;
                         graph = Apsp.graph apsp;
                       }));
              apsp))
        apsp (Array.init done_bursts Fun.id)
    in
    Journal.close journal;
    if !repaired > 0 then begin
      Report.layer ctx.rep ~samples:!repaired "graph.repair_dirty_share" (!dirty /. float !repaired);
      Layers.layer_p50_ms ctx.rep ctx.spans ~metric:"graph.repair_mutation_ms"
        "graph.repair_mutation";
      Layers.layer_p50_ms ctx.rep ctx.spans ~metric:"snapshot.write_ms" "snapshot.write"
    end;
    let routes, paths = pairs_of lines ~cap:20000 in
    ignore (Layers.query_pass ctx.rep ~spans:ctx.spans ~apsp ~agm ~oracle ~routes ~paths ())
  end
