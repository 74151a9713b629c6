(* Reference answers: an in-process {!Cr_daemon.Daemon} over the same
   graph, and the reply-line helpers used to compare against it.  The
   determinism contract makes socket answers byte-identical to the
   in-process ones once the per-process [epoch=] field is stripped. *)

module Daemon = Cr_daemon.Daemon

(* crt daemon is started with -k 3 --seed 1; this is its Params *)
let params = Compact_routing.Params.scaled ~k:Inputs.k ~seed:1 ()

let daemon ?journal ?snapshot_dir ?snapshot_every ?(cache = 0) graph =
  Daemon.create ~staleness_every:0 ?journal ?snapshot_dir ?snapshot_every ~cache ~params graph

let answer d line =
  match Daemon.handle_line d ~lineno:1 line with
  | [ r ], _ -> r
  | rs, _ -> String.concat " | " rs

let strip_epoch r =
  match String.rindex_opt r ' ' with
  | Some i when String.starts_with ~prefix:"epoch=" (String.sub r (i + 1) (String.length r - i - 1))
    ->
      String.sub r 0 i
  | _ -> r

(* [field r "stretch"] is the value of a [stretch=...] token *)
let field r key =
  let p = key ^ "=" in
  List.find_map
    (fun tok ->
      if String.starts_with ~prefix:p tok then
        Some (String.sub tok (String.length p) (String.length tok - String.length p))
      else None)
    (String.split_on_char ' ' r)

let epoch_of r = Option.bind (field r "epoch") int_of_string_opt

let is_ok r = String.starts_with ~prefix:"ok " r

(* delivered route replies carry their stretch *)
let route_stretch r =
  if String.starts_with ~prefix:"ok route " r && field r "delivered" = Some "true" then
    Option.bind (field r "stretch") float_of_string_opt
  else None

(* A memo over one reference daemon: each distinct request line is
   answered once. *)
let memo d =
  let tbl = Hashtbl.create 4096 in
  fun line ->
    match Hashtbl.find_opt tbl line with
    | Some a -> a
    | None ->
        let a = strip_epoch (answer d line) in
        Hashtbl.add tbl line a;
        a

(* raw value of a field of a flat JSON object, e.g. the daemon's stats *)
let json_raw json key =
  let pat = Printf.sprintf "\"%s\":" key in
  let lp = String.length pat and lj = String.length json in
  let rec find i =
    if i + lp > lj then None
    else if String.sub json i lp = pat then begin
      let j = ref (i + lp) in
      while !j < lj && not (List.mem json.[!j] [ ','; '}' ]) do
        incr j
      done;
      Some (String.sub json (i + lp) (!j - i - lp))
    end
    else find (i + 1)
  in
  find 0

let json_num json key = Option.bind (json_raw json key) float_of_string_opt

let json_bool json key = Option.bind (json_raw json key) bool_of_string_opt
