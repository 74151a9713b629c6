type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }

let keyed ~seed ~index ~salt = create ((seed * 1_000_003) + (index * 8191) + salt)

let copy t = { state = t.state }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let s = bits64 t in
  { state = mix64 s }

let int t bound =
  assert (bound > 0);
  (* Rejection sampling over the top 62 bits to avoid modulo bias. *)
  let mask = max_int in
  let rec draw () =
    let r = Int64.to_int (bits64 t) land mask in
    let v = r mod bound in
    if r - v > mask - bound + 1 then draw () else v
  in
  draw ()

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (r /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t 1.0 < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t m n =
  assert (m <= n && m >= 0);
  if 2 * m >= n then begin
    let all = Array.init n (fun i -> i) in
    shuffle t all;
    Array.sub all 0 m
  end else begin
    (* Floyd's algorithm: O(m) expected draws. *)
    let seen = Hashtbl.create (2 * m) in
    let out = Array.make m 0 in
    for idx = 0 to m - 1 do
      let j = n - m + idx in
      let v = int t (j + 1) in
      let pick = if Hashtbl.mem seen v then j else v in
      Hashtbl.replace seen pick ();
      out.(idx) <- pick
    done;
    shuffle t out;
    out
  end
