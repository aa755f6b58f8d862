(** Small integer/float math helpers used throughout the library.

    All logarithms are base 2 unless stated otherwise.  The complexity
    bounds of the paper are expressed with [log n] and [log log n]; the
    helpers here centralize the exact conventions (ceilings, domains) so
    that every module computes them identically.

    Every precondition violation raises [Invalid_argument] (no asserts,
    so the checks survive [-noassert]), and the power-growing loops are
    hardened against silent wraparound: the log-domain helpers return
    correct answers for arguments all the way up to [max_int], and
    {!ipow} raises instead of wrapping. *)

val pow2 : int -> int
(** [pow2 k] is [2{^k}].  Raises unless [0 <= k < 62]. *)

val is_pow2 : int -> bool
(** [is_pow2 n] holds iff [n] is a positive power of two. *)

val floor_log2 : int -> int
(** [floor_log2 n] is the greatest [k] with [2{^k} <= n].
    Requires [n >= 1]; exact for every [n] up to [max_int]. *)

val ceil_log2 : int -> int
(** [ceil_log2 n] is the least [k] with [2{^k} >= n].
    Requires [n >= 1]; [ceil_log2 1 = 0]. *)

val bits_needed : int -> int
(** [bits_needed v] is the number of bits needed to store any value in
    [0..v], i.e. [ceil_log2 (v + 1)] but at least 1.  Requires [v >= 0]. *)

val ceil_div : int -> int -> int
(** [ceil_div a b] is [⌈a / b⌉] for positive [b] and nonnegative [a];
    computed division-first, so exact even for [a] near [max_int]. *)

val ceil_log : base:int -> int -> int
(** [ceil_log ~base n] is the least [d >= 1] with [base{^d} >= n]; by
    convention it returns [1] when [n <= base] (a single tree level).
    Requires [base >= 2] and [n >= 1]; exact for every [n] up to
    [max_int]. *)

val log2f : float -> float
(** Base-2 logarithm on floats. *)

val ipow : int -> int -> int
(** [ipow b e] is [b{^e}] for [b >= 0] and [e >= 0].  Raises
    [Invalid_argument] if the result would exceed [max_int] (never wraps
    silently). *)

val geometric : u:float -> mean:int -> int
(** [geometric ~u ~mean] maps one uniform sample [u ∈ [0, 1)] to a
    geometric variate on [{0, 1, 2, …}] with expectation [mean] (success
    probability [1/(mean+1)]), by CDF inversion.  [mean = 0] always
    yields 0.  Pure: callers draw [u] from their own seeded
    [Random.State], so the simulated workload and the native lock
    service share one think-time distribution. *)

(** {2 Zipf sampling}

    The skewed key-popularity distribution of the YCSB-style workloads:
    rank [k ∈ 0..n-1] has weight [(k+1){^-theta}].  [theta = 0] is
    uniform; [theta ≈ 0.99] is the classical YCSB "zipfian" skew.  The
    sampler is exact (precomputed normalized CDF, one binary search per
    draw) and pure — like {!geometric}, callers draw [u] from their own
    seeded [Random.State], so the simulated and native KV drivers share
    one key distribution verbatim. *)

type zipf

val zipf : n:int -> theta:float -> zipf
(** Precompute the CDF over ranks [0..n-1].  O(n) time and floats, built
    once per key population: a one-entry memo returns the last
    distribution built when [n] and [theta] ([Float.equal]) match, so
    thousands of clients drawing from one population share one CDF
    instead of rebuilding it each.  A [zipf] is immutable once built,
    hence safe to share across clients and domains.  Raises
    [Invalid_argument] if [n < 1] or [theta] is negative or not
    finite. *)

val zipf_n : zipf -> int
val zipf_theta : zipf -> float

val zipf_cdf : zipf -> int -> float
(** [zipf_cdf z k] is [P(rank <= k)] — exact, monotone in [k], and
    [zipf_cdf z (n-1) = 1.0].  Raises on a rank outside [0..n-1]. *)

val zipf_draw : zipf -> u:float -> int
(** [zipf_draw z ~u] inverts the CDF at [u ∈ [0, 1)]: the least rank [k]
    with [zipf_cdf z k > u].  Deterministic in [u]. *)

val mix_seed : int -> int -> int
(** [mix_seed root pid] deterministically derives a per-process seed from
    a root seed, with a splitmix64-style finalizer providing full
    avalanche: adjacent pids yield decorrelated seeds, so a large rig can
    give each of its processes an independent
    [Random.State.make [| mix_seed root pid |]] stream instead of
    serially advancing one global stream.  Always nonnegative; pure. *)
