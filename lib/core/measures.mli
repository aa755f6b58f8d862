(** The paper's complexity measures (§2.2, §3.2), computed from traces.

    Every function is a pure query over a recorded {!Cfc_runtime.Trace.t};
    the harnesses produce the right runs (solo/sequential for
    contention-free, scheduler families for worst-case estimates) and
    these functions extract the numbers. *)

open Cfc_runtime

(** All six counting measures of one process over one run fragment:
    step/register complexity and their read/write refinements (the [r] and
    [w] of Lemma 3). *)
type sample = {
  steps : int;
  registers : int;
  read_steps : int;
  write_steps : int;
  read_registers : int;
  write_registers : int;
}

val zero : sample

val max_sample : sample -> sample -> sample
(** Componentwise maximum — the paper takes the max over processes/runs
    separately per measure. *)

val pp_sample : Format.formatter -> sample -> unit

val in_regions :
  Trace.t -> nprocs:int -> pid:int -> in_region:(Event.region -> bool) ->
  sample
(** Measures of [pid] over exactly its accesses performed while its own
    region satisfies [in_region]. *)

val mutex_contention_free : Trace.t -> nprocs:int -> pid:int -> sample
(** The §2.2 contention-free measure of [pid]: its accesses in entry
    ([Trying]) and exit ([Exiting]) code.  Meaningful on runs where all
    other processes stay in their remainder (the harness's solo runs);
    this function does not itself verify that. *)

val mutex_wc_entry : Trace.t -> nprocs:int -> (int * sample) list
(** The §2.2 worst-case entry-code fragments: for every transition of some
    [p] from [Trying] to [Critical] at event [j], the measures of [p] over
    the largest window [(i, j)] in which [p] is in its entry code and no
    process is in its critical section or exit code — "start counting only
    after the processes previously in the critical section have finished
    their exit code".  Returns one [(pid, sample)] per completed entry. *)

val mutex_wc_exit : Trace.t -> nprocs:int -> (int * sample) list
(** Worst-case exit-code fragments: measures of [p] over each of its
    [Exiting] stretches. *)

val per_process_samples : Trace.t -> nprocs:int -> sample array
(** Whole-run samples of every process, computed in one pass over the
    trace (use this instead of n calls to {!naming_process} when
    measuring contended runs). *)

val naming_process : Trace.t -> nprocs:int -> pid:int -> sample
(** §3.2 measure of one naming process: all its accesses from start to
    decision (its whole execution). *)

val decisions : Trace.t -> nprocs:int -> (int * int) list
(** [(pid, value)] for every process that reached [Decided v]. *)

val recovery_paths : Trace.t -> nprocs:int -> (int * sample) list
(** Crash–recovery extension of the §2.2 fragment measures: for every
    [Recover] of process [p] at event [i] whose next [p]-event of
    interest is an entry to [Critical] at event [j] (no intervening
    crash of [p]), the measures of [p] over the open fragment
    [(i, j)] — the cost of getting back into the critical section after
    a restart.  One [(pid, sample)] per completed recovery, in trace
    order; recoveries that crash again or never reach the critical
    section contribute nothing. *)

val recovery_rmr : Trace.t -> nprocs:int -> (int * int) list
(** Remote memory references of each completed recovery path, under the
    {!remote_accesses} write-invalidate model extended to crashes: a
    crash destroys the dying incarnation's cached copies (the
    Golab–Ramaraju restarted process starts with a cold cache), so a
    register is remote on the recovery path until first re-accessed.
    Returns [(pid, rmr)] per completed recovery, in the same order and
    one-to-one with {!recovery_paths} (both open at [Recover], are
    abandoned by a second [Crash], and close at the next entry to
    [Critical]). *)

val remote_accesses : Trace.t -> nprocs:int -> int array
(** Per-process {e remote memory references} under the write-invalidate
    coherent-cache model the paper's §1.2 appeals to (after [YA93]): a
    process's access to a register is remote iff it does not hold a valid
    cached copy — i.e. it never accessed the register before, or another
    process wrote (or won a compare-and-swap on) it since the process's
    last access.  A write leaves only the writer's copy valid; a read
    joins the set of valid holders.

    In a contention-free run this equals the register complexity (the
    §1.2 claim "the number of different registers accessed accurately
    reflects the number of remote accesses" — asserted by a qcheck
    property), and under contention it separates local-spin algorithms
    (MCS: bounded remotes per acquisition) from spin-on-shared ones. *)

(** Streaming (online) counterpart of the trace measures above.

    [Online.t] consumes events one at a time — typically as a
    {!Cfc_runtime.Wheel.sink} — and maintains every §2.2/§3.2
    accumulator incrementally, so a run never materialises its event
    list.  For any event sequence, each query below returns {e exactly}
    the value its materialised counterpart computes on the recorded
    trace of the same run (asserted exhaustively by the equivalence
    gate in the test battery), with one deliberate widening:
    {!Online.remote_accesses} has no [nprocs <= 62] restriction.  It
    keeps the write-invalidate holders as access stamps instead of
    {!remote_accesses}'s 62-bit masks: every register remembers the
    event index of its last write, every process the index of its own
    last access to it and of its last [Crash].  A process holds a valid
    copy iff its own stamp is no older than the register's last write,
    and, for {!Online.recovery_rmr}'s crash eviction, also newer than
    its last crash (same semantics where both are defined; see
    DESIGN.md §2).

    What the online fold {e cannot} give you is anything requiring
    random access into the past: [Trace.regions_at], stall diagnosis
    over recent events, or the model checker's truncate/undo — keep a
    {!Cfc_runtime.Trace.t} sink for those (small n only).

    Each process keeps {e one} register table: register id ↦ the index
    of its own last access to it (the holder stamp above) packed with
    a read/write bit pair per accumulator — whole run, contention-free
    regions, entry window, exit fragment, recovery fragment.  Each
    resettable window records the event index of its last reset, and
    its pair for a register is valid iff the register's stamp is no
    older; every access rewrites all five pairs, so a pair left stale
    by a reset reads as zero from its next touch on.  A window reset is
    therefore O(1), and an access costs two table probes (the process's
    own table and the registers' last writes).

    Memory is O(touched registers + per-pid accumulators + completed
    fragments): per-process state is allocated lazily at a pid's first
    event, and both tables (last writes, a pid's registers) grow with
    registers actually touched, never with [nprocs].  Feeding an event
    allocates nothing beyond the occasional table doubling, a pid's
    first event, a register's first touch and a completed fragment or
    decision. *)
module Online : sig
  type t

  val create : nprocs:int -> t

  val feed : t -> pid:int -> Event.body -> unit
  (** Consume one event.  [feed t] is a valid [Wheel.sink].  Events must
      arrive in emission order (the fold keeps its own implicit
      sequence numbering).  Raises [Invalid_argument] on an
      out-of-range pid. *)

  val feed_trace : t -> Trace.t -> unit
  (** Replay a recorded trace into the fold (the equivalence tests). *)

  val events_seen : t -> int

  val contention_free : t -> pid:int -> sample
  (** = {!mutex_contention_free} of the run so far. *)

  val per_process : t -> sample array
  (** = {!per_process_samples}.  Allocates O(nprocs); at large n prefer
      {!process_total}. *)

  val process_total : t -> pid:int -> sample
  (** One process's whole-run sample ({!per_process} cell), O(1). *)

  val wc_entries : t -> (int * sample) list
  (** = {!mutex_wc_entry}: completed §2.2 entry windows, trace order. *)

  val wc_exits : t -> (int * sample) list
  (** = {!mutex_wc_exit}. *)

  val recovery_paths : t -> (int * sample) list
  (** = {!recovery_paths}. *)

  val recovery_rmr : t -> (int * int) list
  (** = {!recovery_rmr}. *)

  val decisions : t -> (int * int) list
  (** = {!decisions}. *)

  val remote : t -> pid:int -> int
  (** = {!remote_accesses}[.(pid)], but valid at any [nprocs]. *)

  val remote_accesses : t -> int array
  (** = {!remote_accesses}.  Allocates O(nprocs). *)

  val touched : t -> Cfc_runtime.Register.t list
  (** Distinct registers accessed so far, in no particular order — the
      streaming harness resets exactly these between solo runs instead
      of scanning a trace. *)

  val touched_count : t -> int

  val spawned : t -> int
  (** Number of pids whose state has materialised (= pids seen). *)
end
