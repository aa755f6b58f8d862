(* Preconditions raise [Invalid_argument] (not [assert]) so they survive
   -noassert builds, and every loop that grows a power is guarded against
   silent wraparound near [max_int]. *)

let pow2 k =
  if k < 0 || k >= 62 then invalid_arg "Ixmath.pow2: k outside 0..61";
  1 lsl k

let is_pow2 n = n > 0 && n land (n - 1) = 0

let floor_log2 n =
  if n < 1 then invalid_arg "Ixmath.floor_log2: n < 1";
  (* [v = 2^k <= n] throughout; once doubling would overflow, [v] already
     exceeds [max_int / 2 >= n / 2], so [k] is the answer. *)
  let rec loop k v =
    if v > n - v then k else loop (k + 1) (v * 2)
  in
  loop 0 1

let ceil_log2 n =
  if n < 1 then invalid_arg "Ixmath.ceil_log2: n < 1";
  let f = floor_log2 n in
  if is_pow2 n then f else f + 1

let bits_needed v =
  if v < 0 then invalid_arg "Ixmath.bits_needed: v < 0";
  if v = 0 then 1
  else if v = max_int then 62 (* v + 1 would wrap *)
  else ceil_log2 (v + 1)

let ceil_div a b =
  if b <= 0 || a < 0 then invalid_arg "Ixmath.ceil_div: b <= 0 or a < 0";
  (* (a + b - 1) / b overflows for a near max_int; divide first. *)
  (a / b) + if a mod b = 0 then 0 else 1

let ceil_log ~base n =
  if base < 2 || n < 1 then invalid_arg "Ixmath.ceil_log: base < 2 or n < 1";
  let rec loop d cap =
    if cap >= n then d
    else if cap > max_int / base then
      (* cap * base would wrap, yet cap < n <= max_int < cap * base: one
         more level certainly covers n. *)
      d + 1
    else loop (d + 1) (cap * base)
  in
  loop 1 base

let log2f x = log x /. log 2.0

let ipow b e =
  if b < 0 then invalid_arg "Ixmath.ipow: negative base";
  if e < 0 then invalid_arg "Ixmath.ipow: negative exponent";
  let rec loop acc e =
    if e = 0 then acc
    else begin
      if b > 1 && acc > max_int / b then
        invalid_arg "Ixmath.ipow: overflow";
      loop (acc * b) (e - 1)
    end
  in
  loop 1 e

let geometric ~u ~mean =
  if mean < 0 then invalid_arg "Ixmath.geometric: negative mean";
  if not (u >= 0. && u < 1.) then
    invalid_arg "Ixmath.geometric: u outside [0, 1)";
  if mean = 0 then 0
  else begin
    (* Inversion: X = floor(ln(1-u) / ln(1-p)) with success probability
       p = 1/(mean+1) is geometric on {0,1,2,...} with P(X >= k) =
       (1-p)^k and E[X] = (1-p)/p = mean.  log1p keeps precision for
       small p (large means). *)
    (* [mean + 1] as a float sum, not an int sum: for [mean = max_int]
       the int addition wraps to [min_int] and the draw went negative. *)
    let p = 1. /. (float_of_int mean +. 1.) in
    let x = Float.log1p (-.u) /. Float.log1p (-.p) in
    (* Clamp: x is finite and >= 0 for valid inputs, but guard the
       int conversion anyway. *)
    if x >= float_of_int max_int then max_int else int_of_float x
  end

(* Zipf(theta) over ranks 0..n-1 by exact CDF inversion: the cumulative
   weights sum_{i<=k} (i+1)^-theta are precomputed (normalized, O(n) floats,
   built once per population) and a draw is one binary search.  theta = 0
   degenerates to the uniform distribution; theta ~ 0.99 is the classical
   YCSB "zipfian" skew.  Pure draws: callers supply u from their own seeded
   [Random.State], exactly as for [geometric]. *)
type zipf = { z_n : int; z_theta : float; z_cum : float array }

(* [z_cum] is never written after [build_zipf] returns, so one value can
   serve every client of a population, across domains too.  The memo
   holds the last distribution built: a run asks for one (n, theta) per
   client, thousands of times in a row. *)
let last_zipf : zipf option Atomic.t = Atomic.make None

let build_zipf ~n ~theta =
  let cum = Array.make n 0. in
  let acc = ref 0. in
  for k = 0 to n - 1 do
    acc := !acc +. (Float.of_int (k + 1) ** -.theta);
    cum.(k) <- !acc
  done;
  let total = cum.(n - 1) in
  for k = 0 to n - 1 do
    cum.(k) <- cum.(k) /. total
  done;
  (* Normalization can leave the top a hair under 1.0; pin it so a draw
     at u -> 1 can never fall off the end of the search. *)
  cum.(n - 1) <- 1.0;
  { z_n = n; z_theta = theta; z_cum = cum }

let zipf ~n ~theta =
  if n < 1 then invalid_arg "Ixmath.zipf: n < 1";
  if not (Float.is_finite theta) || theta < 0. then
    invalid_arg "Ixmath.zipf: theta not finite and nonnegative";
  match Atomic.get last_zipf with
  | Some z when z.z_n = n && Float.equal z.z_theta theta -> z
  | Some _ | None ->
    let z = build_zipf ~n ~theta in
    Atomic.set last_zipf (Some z);
    z

let zipf_n z = z.z_n
let zipf_theta z = z.z_theta

let zipf_cdf z k =
  if k < 0 || k >= z.z_n then invalid_arg "Ixmath.zipf_cdf: rank outside 0..n-1";
  z.z_cum.(k)

let zipf_draw z ~u =
  if not (u >= 0. && u < 1.) then
    invalid_arg "Ixmath.zipf_draw: u outside [0, 1)";
  (* Least k with cum.(k) > u: invariant cum.(hi) > u throughout. *)
  let lo = ref 0 and hi = ref (z.z_n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if z.z_cum.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

let mix_seed root pid =
  (* splitmix64 finalizer over the packed pair: full avalanche, so the
     per-process streams [Random.State.make [| mix_seed root pid |]] are
     decorrelated even for adjacent pids under one root — crucial when a
     10^6-process rig derives a million streams from one seed.  The
     result is truncated to a nonnegative OCaml int (62 bits kept). *)
  let open Int64 in
  let z = add (mul (of_int root) 0x9E3779B97F4A7C15L) (of_int pid) in
  let z = add z 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = logxor z (shift_right_logical z 31) in
  to_int (shift_right_logical z 2)
