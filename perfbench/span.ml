(* In-memory spans recorded by the benchmark around calls into the
   program's public functions.  A span has a name, a parent (or -1), a
   request id (or -1), and monotonic start/end times.  Nothing is
   written until {!write}, so recording costs two clock reads and a few
   array stores. *)

type t = {
  mutable name : string array;
  mutable parent : int array;
  mutable req : int array;
  mutable t0 : float array;
  mutable t1 : float array;
  mutable len : int;
}

let now = Cr_guard.Clock.monotonic

let create () =
  let c = 4096 in
  {
    name = Array.make c "";
    parent = Array.make c (-1);
    req = Array.make c (-1);
    t0 = Array.make c 0.0;
    t1 = Array.make c 0.0;
    len = 0;
  }

let grow t =
  let c = 2 * Array.length t.name in
  let g a d =
    let a' = Array.make c d in
    Array.blit a 0 a' 0 t.len;
    a'
  in
  t.name <- g t.name "";
  t.parent <- g t.parent (-1);
  t.req <- g t.req (-1);
  t.t0 <- g t.t0 0.0;
  t.t1 <- g t.t1 0.0

let start t ?(parent = -1) ?(req = -1) name =
  if t.len = Array.length t.name then grow t;
  let id = t.len in
  t.name.(id) <- name;
  t.parent.(id) <- parent;
  t.req.(id) <- req;
  t.len <- id + 1;
  t.t0.(id) <- now ();
  id

let stop t id = t.t1.(id) <- now ()

let record t ?parent ?req name f =
  let id = start t ?parent ?req name in
  match f id with
  | v ->
      stop t id;
      v
  | exception e ->
      stop t id;
      raise e

let length t = t.len

let duration t id = t.t1.(id) -. t.t0.(id)

(* durations of every span called [name], in recording order *)
let durations t name =
  let b = Quant.create () in
  for i = 0 to t.len - 1 do
    if t.name.(i) = name then Quant.add b (duration t i)
  done;
  b

let count t name =
  let c = ref 0 in
  for i = 0 to t.len - 1 do
    if t.name.(i) = name then incr c
  done;
  !c

(* Self time per span name: a span's duration minus the durations of
   its direct children (children nest inside their parent and do not
   overlap, since one thread records them).  Returned as
   (name, self seconds, span count), in first-seen order. *)
let self_times t =
  let child = Array.make t.len 0.0 in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) +. duration t i
  done;
  let order = ref [] and tbl = Hashtbl.create 16 in
  for i = 0 to t.len - 1 do
    let s = duration t i -. child.(i) in
    match Hashtbl.find_opt tbl t.name.(i) with
    | Some (acc, c) -> Hashtbl.replace tbl t.name.(i) (acc +. s, c + 1)
    | None ->
        order := t.name.(i) :: !order;
        Hashtbl.replace tbl t.name.(i) (s, 1)
  done;
  List.rev_map
    (fun name ->
      let s, c = Hashtbl.find tbl name in
      (name, s, c))
    !order

let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "id,parent,req,name,start_us,end_us\n";
      let base = if t.len > 0 then t.t0.(0) else 0.0 in
      for i = 0 to t.len - 1 do
        Printf.fprintf oc "%d,%d,%d,%s,%.3f,%.3f\n" i t.parent.(i) t.req.(i) t.name.(i)
          (1e6 *. (t.t0.(i) -. base))
          (1e6 *. (t.t1.(i) -. base))
      done)
