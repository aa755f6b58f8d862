(** The O(active-set) event-wheel scheduler.

    {!Scheduler} steps all [n] processes round-robin and is the right
    engine for adversarial interleavings at small [n]; this module is the
    large-[n] engine (ROADMAP item 2, FoundationDB-style deterministic
    simulation).  Three properties make a run cost proportional to the
    {e active set} instead of [n]:

    - a calendar queue (binary min-heap keyed by wake tick, FIFO within a
      tick) holds only processes that are runnable {e now} or parked on a
      {!Proc.sleep} timer — a process idling in its remainder section
      costs zero per turn.  The heap is flat (its entries are columns of
      four [int] arrays: tick, insertion number, pid, epoch), so queueing
      and popping allocate nothing;
    - per-process state is sparse (a hash table) and spawned lazily: a
      process materialises at its first {!wake}, so a solo run over an
      [n = 10^6] arena allocates one process record, not [10^6];
    - events are pushed to a {!sink} as they happen instead of being
      materialised in a {!Trace.t} — pair it with [Measures.Online] for
      O(active-set) memory, or with {!trace_sink} to keep full recording
      at small [n].

    Determinism: turns are totally ordered by [(wake tick, insertion
    sequence number)], so identical wake/sleep/fault inputs produce the
    identical event stream — same seed, same run.

    Faults follow {!Runner}'s convention: a {!Fault.point}'s [step] field
    counts {e turns} of the wheel, and all due faults are applied before
    each turn.  When the heap drains while fault points remain pending,
    the turn clock fast-forwards to the next fault (so a recover can
    still fire into an otherwise-quiescent system). *)

type status = Runnable | Halted | Crashed | Errored of exn

type sink = pid:int -> Event.body -> unit
(** Consumes events in emission order.  The wheel assigns no sequence
    numbers — a streaming consumer (e.g. [Measures.Online]) keeps its own
    counter, and {!trace_sink} lets {!Trace.record} assign them. *)

val null_sink : sink
val trace_sink : Trace.t -> sink
val tee : sink -> sink -> sink
(** [tee a b] feeds each event to [a] then [b]. *)

type t

val create :
  ?sink:sink ->
  ?faults:Fault.plan ->
  nprocs:int ->
  spawn:(int -> unit -> unit) ->
  unit -> t
(** [create ~nprocs ~spawn ()]: a wheel over pids [0..nprocs-1] where
    process [i] runs [spawn i] (called once, at the process's first
    {!wake} — lazy spawn).  [faults] is validated against [nprocs].
    Nothing runs until woken.  Costs O(length of [faults]) whatever
    [nprocs]. *)

val wake : ?at:int -> t -> int -> unit
(** Queue a process to run at tick [at] (default: the current {!now}).
    Materialises its state if needed.  No-op if it is already queued,
    halted, errored, or crashed (a crashed process re-enters through the
    fault plan's recover point, which re-queues it).  Raises
    [Invalid_argument] if [at] is in the past or the pid out of range. *)

type stopped =
  | Quiescent     (** heap drained and no fault points pending *)
  | Out_of_turns  (** turn budget exhausted *)

val run : ?max_turns:int -> t -> stopped
(** Drive the wheel until quiescence or [max_turns] (default [max_int])
    turns.  One turn = one queued process popped and advanced by exactly
    one shared-memory access (absorbing free region changes and pauses at
    the {!Scheduler} granularity: a pause or a fresh sleep ends the
    turn). *)

(** {2 Queries} *)

val now : t -> int
(** Current virtual tick (the wake tick of the last popped entry). *)

val turns : t -> int
val nprocs : t -> int
val status : t -> int -> status
(** [Runnable] for a never-woken process, mirroring {!Scheduler}. *)

val region : t -> int -> Event.region
val steps_taken : t -> int -> int
val total_steps : t -> int
val spawned : t -> int
(** Number of process records materialised so far (≤ active set). *)

val live_peak : t -> int
(** High-water mark of the calendar queue: the most entries (runnable or
    timer-parked, possibly a few stale) ever simultaneously queued. *)

val first_error : t -> (int * exn) option
(** The first process error in turn order, if any (deterministic). *)
