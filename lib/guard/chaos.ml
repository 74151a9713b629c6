(* Deterministic chaos plans for the serving stack, mirroring
   Fault_plan's style: a plan is data, decisions are drawn from seeded
   splitmix64 streams, and the label names the plan in reports.

   Two layers of injection:
   - pool: lane crashes and stalls inside Domain_pool (the worker-pool
     fault model — a whole shard's executor dies or hiccups);
   - query: per-query transient failures ("the worker died mid-query";
     retries can save it) and per-query stalls (latency spikes that
     deadlines must cut off).

   Query decisions are keyed by the query *index*, never by the lane,
   so which queries fail is a pure function of (plan, batch) — the
   chaos suite pins Worker_lost outcomes exactly. *)

module Rng = Cr_util.Rng
module Pool = Cr_util.Domain_pool

type t = {
  label : string;
  pool : Pool.chaos option;
  qseed : int;
  fail_rate : float; (* P(a query's executor crashes on an attempt) *)
  fail_attempts : int; (* attempts the injected fault keeps eating *)
  qstall_rate : float; (* P(a query suffers an injected latency spike) *)
  qstall_s : float;
}

let none =
  {
    label = "none";
    pool = None;
    qseed = 0;
    fail_rate = 0.0;
    fail_attempts = 1;
    qstall_rate = 0.0;
    qstall_s = 0.0;
  }

let check_rate what r =
  if not (r >= 0.0 && r <= 1.0) then
    invalid_arg (Printf.sprintf "Chaos.plan: %s %g outside [0, 1]" what r)

let plan ?label ?(crash_rate = 0.0) ?(stall_rate = 0.0) ?(stall_s = 0.001) ?(fail_rate = 0.0)
    ?(fail_attempts = 1) ?(qstall_rate = 0.0) ?(qstall_s = 0.0) ~seed () =
  check_rate "crash_rate" crash_rate;
  check_rate "stall_rate" stall_rate;
  check_rate "fail_rate" fail_rate;
  check_rate "qstall_rate" qstall_rate;
  if fail_attempts < 1 then invalid_arg "Chaos.plan: fail_attempts must be >= 1";
  if not (stall_s >= 0.0) then invalid_arg "Chaos.plan: negative stall_s";
  if not (qstall_s >= 0.0) then invalid_arg "Chaos.plan: negative qstall_s";
  let pool =
    if crash_rate > 0.0 || stall_rate > 0.0 then
      Some (Pool.chaos_plan ~crash_rate ~stall_rate ~stall_s ~seed ())
    else None
  in
  let label =
    match label with
    | Some l -> l
    | None ->
        Printf.sprintf "chaos(crash=%g,stall=%g,fail=%g,qstall=%g,seed=%d)" crash_rate
          stall_rate fail_rate qstall_rate seed
  in
  { label; pool; qseed = seed; fail_rate; fail_attempts; qstall_rate; qstall_s }

let label t = t.label
let pool_chaos t = t.pool

let is_none t =
  t.pool = None && t.fail_rate = 0.0 && t.qstall_rate = 0.0

let qrng t ~q ~salt = Rng.keyed ~seed:t.qseed ~index:q ~salt

(* number of leading attempts of query [q] that the injected fault
   consumes: 0 for an untouched query, [fail_attempts] for a hit one *)
let query_fails t ~q =
  if t.fail_rate <= 0.0 then 0
  else if Rng.float (qrng t ~q ~salt:1) 1.0 < t.fail_rate then t.fail_attempts
  else 0

let query_stall_s t ~q =
  if t.qstall_rate <= 0.0 then 0.0
  else if Rng.float (qrng t ~q ~salt:2) 1.0 < t.qstall_rate then t.qstall_s
  else 0.0

(* named intensities for sweeps and the CLI *)
let presets ~seed =
  [
    ("none", none);
    ("crash", plan ~label:"crash" ~crash_rate:0.4 ~seed ());
    ("stall", plan ~label:"stall" ~stall_rate:0.3 ~stall_s:0.002 ~qstall_rate:0.05
       ~qstall_s:0.002 ~seed ());
    ("flaky", plan ~label:"flaky" ~fail_rate:0.25 ~fail_attempts:2 ~seed ());
    ( "storm",
      plan ~label:"storm" ~crash_rate:0.5 ~stall_rate:0.2 ~stall_s:0.002 ~fail_rate:0.4
        ~fail_attempts:3 ~qstall_rate:0.1 ~qstall_s:0.002 ~seed () );
  ]

let preset_of_string ~seed name =
  match List.assoc_opt name (presets ~seed) with
  | Some p -> Ok p
  | None ->
      Error
        (Printf.sprintf "unknown chaos preset %S (expected %s)" name
           (String.concat ", " (List.map fst (presets ~seed))))
