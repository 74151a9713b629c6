(* Native closed-loop load generator: one process, one thread, a
   select loop over a handful of unix-socket connections.  Each
   connection has at most one request outstanding and sends its next
   request only once the reply line arrived.  Replies are read through
   a 64 KiB buffer (one read syscall per arrival, not per byte), and
   every round trip is timed on the monotonic clock. *)

let now = Cr_guard.Clock.monotonic

type reader = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
  acc : Buffer.t;
}

let reader fd = { fd; buf = Bytes.create 65536; pos = 0; len = 0; acc = Buffer.create 256 }

(* a complete line from already-buffered bytes, if there is one *)
let buffered_line r =
  let rec find i = if i >= r.len then -1 else if Bytes.get r.buf i = '\n' then i else find (i + 1) in
  match find r.pos with
  | -1 ->
      Buffer.add_subbytes r.acc r.buf r.pos (r.len - r.pos);
      r.pos <- 0;
      r.len <- 0;
      None
  | i ->
      Buffer.add_subbytes r.acc r.buf r.pos (i - r.pos);
      r.pos <- i + 1;
      let l = Buffer.contents r.acc in
      Buffer.clear r.acc;
      Some l

(* one read; [false] at end of file *)
let fill r =
  let k = Unix.read r.fd r.buf 0 (Bytes.length r.buf) in
  r.pos <- 0;
  r.len <- k;
  k > 0

let wait_readable fd ~timeout =
  let rec go () =
    match Unix.select [ fd ] [] [] timeout with
    | [], _, _ -> false
    | _ -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* Blocking line read with a deadline: [None] on end of file or
   timeout. *)
let read_line r ~timeout =
  let deadline = now () +. timeout in
  let rec go () =
    match buffered_line r with
    | Some l -> Some l
    | None ->
        let left = deadline -. now () in
        if left <= 0.0 || not (wait_readable r.fd ~timeout:left) then None
        else if fill r then go ()
        else None
  in
  go ()

let send_all fd s =
  let len = String.length s in
  let rec go off = if off < len then go (off + Unix.write_substring fd s off (len - off)) in
  go 0

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some (reader fd)
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

let close r = try Unix.close r.fd with Unix.Unix_error _ -> ()

(* One request/reply exchange on an idle connection. *)
let exchange r req ~timeout =
  let t0 = now () in
  send_all r.fd (req ^ "\n");
  match read_line r ~timeout with
  | Some l -> Some (l, now () -. t0)
  | None -> None

(* A connection in the closed loop.  [next ()] is the next request
   line ([None]: this connection is done); [on_reply req reply rtt] sees
   every answer.  A cut or a reply slower than [timeout] seconds ends
   the connection and is counted in [cuts]/[timeouts]. *)
type conn = {
  r : reader;
  next : unit -> string option;
  on_reply : string -> string -> float -> unit;
  timeout : float;
  mutable pending : string option;
  mutable t_sent : float;
  mutable sent : int;
  mutable cuts : int;
  mutable timeouts : int;
}

let conn ?(timeout = 60.0) r ~next ~on_reply =
  { r; next; on_reply; timeout; pending = None; t_sent = 0.0; sent = 0; cuts = 0; timeouts = 0 }

let send_next c =
  match c.next () with
  | None -> c.pending <- None
  | Some req ->
      c.pending <- Some req;
      c.sent <- c.sent + 1;
      c.t_sent <- now ();
      send_all c.r.fd (req ^ "\n")

let rec drain_lines c =
  match c.pending with
  | None -> ()
  | Some req -> (
      match buffered_line c.r with
      | None -> ()
      | Some reply ->
          let rtt = now () -. c.t_sent in
          c.on_reply req reply rtt;
          send_next c;
          drain_lines c)

(* Runs every connection until each one's [next] returns [None]. *)
let run conns =
  List.iter send_next conns;
  let active () = List.filter (fun c -> c.pending <> None) conns in
  let rec loop () =
    match active () with
    | [] -> ()
    | live ->
        let fds = List.map (fun c -> c.r.fd) live in
        let ready =
          match Unix.select fds [] [] 0.5 with
          | r, _, _ -> r
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
        in
        let t = now () in
        List.iter
          (fun c ->
            if List.mem c.r.fd ready then begin
              if fill c.r then drain_lines c
              else begin
                c.cuts <- c.cuts + 1;
                c.pending <- None
              end
            end
            else if t -. c.t_sent > c.timeout then begin
              c.timeouts <- c.timeouts + 1;
              c.pending <- None
            end)
          live;
        loop ()
  in
  loop ()
