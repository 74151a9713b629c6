(* Exact order statistics over recorded samples.

   Every latency the benchmark reports is a quantile of the full sample
   set, never of a histogram: samples are kept in a growable buffer and
   sorted once.  Quantiles use the nearest-rank definition with integer
   arithmetic, so p99 of 1000 samples is exactly the 990th smallest. *)

type buf = { mutable a : float array; mutable len : int }

let create () = { a = Array.make 1024 0.0; len = 0 }

let add b x =
  if b.len = Array.length b.a then begin
    let a' = Array.make (2 * b.len) 0.0 in
    Array.blit b.a 0 a' 0 b.len;
    b.a <- a'
  end;
  b.a.(b.len) <- x;
  b.len <- b.len + 1

let length b = b.len

let sorted b =
  let s = Array.sub b.a 0 b.len in
  Array.sort Float.compare s;
  s

let sum b =
  let s = ref 0.0 in
  for i = 0 to b.len - 1 do
    s := !s +. b.a.(i)
  done;
  !s

(* 1-based nearest rank of the [pct]-th percentile among [n] samples:
   the smallest r with 100·r >= pct·n *)
let rank ~n ~pct = max 1 ((pct * n + 99) / 100)

let quantile sorted ~pct =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Quant.quantile: no samples";
  if pct < 0 || pct > 100 then invalid_arg "Quant.quantile: pct outside [0, 100]";
  sorted.(rank ~n ~pct - 1)

let beyond ~n ~pct = n - rank ~n ~pct

let reportable ~n ~pct = n > 0 && beyond ~n ~pct >= 10

(* Interquartile mean: the mean of the middle half of the sorted
   samples — as steady as a median against outliers, without pinning to
   one sample's value. *)
let iq_mean sorted =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Quant.iq_mean: no samples";
  let lo = n / 4 in
  let hi = max (lo + 1) (n - (n / 4)) in
  let s = ref 0.0 in
  for i = lo to hi - 1 do
    s := !s +. sorted.(i)
  done;
  !s /. float (hi - lo)

let median_of xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  quantile s ~pct:50
