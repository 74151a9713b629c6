(* Child processes of the benchmark: the crt daemons it drives.  Every
   spawned process is tracked until it has been reaped; {!cleanup}
   (registered at exit) SIGKILLs and reaps whatever is still alive, so
   a failing run never leaves a daemon behind. *)

let now = Cr_guard.Clock.monotonic

type t = {
  pid : int;
  out : Loadgen.reader;  (** the child's stdout *)
  t_spawn : float;
  mutable lines : string list;  (** stdout lines read so far, newest first *)
  mutable status : Unix.process_status option;
}

let children : t list ref = ref []

let spawn ~prog ~args ~stderr_path =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile stderr_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
  in
  let t_spawn = now () in
  let pid = Unix.create_process prog (Array.of_list (prog :: args)) in_r out_w err in
  List.iter Unix.close [ in_r; in_w; out_w; err ];
  let t = { pid; out = Loadgen.reader out_r; t_spawn; lines = []; status = None } in
  children := t :: !children;
  t

(* Reads stdout until a line starting with [prefix]; [None] on end of
   file or after [timeout] seconds. *)
let await_line t ~prefix ~timeout =
  let deadline = now () +. timeout in
  let rec go () =
    match Loadgen.read_line t.out ~timeout:(Float.max 0.0 (deadline -. now ())) with
    | None -> None
    | Some l ->
        t.lines <- l :: t.lines;
        if String.starts_with ~prefix l then Some l else go ()
  in
  go ()

(* Peak resident set (VmHWM) of a live process, in kB. *)
let vm_hwm_kb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
        | l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
        | _ -> go ()
      in
      go ())

let rec waitpid_nohang pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> None
  | _, st -> Some st
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_nohang pid

let signal t s = try Unix.kill t.pid s with Unix.Unix_error _ -> ()

(* Waits up to [timeout] seconds for the child to exit, then SIGKILLs
   it; always reaps.  Returns the exit status. *)
let reap t ~timeout =
  match t.status with
  | Some st -> st
  | None ->
      let deadline = now () +. timeout in
      let rec go () =
        match waitpid_nohang t.pid with
        | Some st -> st
        | None ->
            if now () > deadline then begin
              signal t Sys.sigkill;
              snd (Unix.waitpid [] t.pid)
            end
            else begin
              Unix.sleepf 0.005;
              go ()
            end
      in
      let st = go () in
      t.status <- Some st;
      st

(* The rest of stdout after the child exited. *)
let rest_of_output t =
  let rec go () =
    match Loadgen.read_line t.out ~timeout:5.0 with
    | None -> ()
    | Some l ->
        t.lines <- l :: t.lines;
        go ()
  in
  go ();
  Loadgen.close t.out;
  List.rev t.lines

let terminate t ~timeout =
  signal t Sys.sigterm;
  let st = reap t ~timeout in
  (st, rest_of_output t)

let kill9 t =
  signal t Sys.sigkill;
  let st = reap t ~timeout:30.0 in
  ignore (rest_of_output t);
  st

let cleanup () =
  List.iter
    (fun t ->
      if t.status = None then begin
        signal t Sys.sigkill;
        (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ());
        t.status <- Some (Unix.WSIGNALED Sys.sigkill)
      end)
    !children

let status_to_string = function
  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s
