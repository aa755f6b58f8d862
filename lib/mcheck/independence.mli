(** Static independence for partial-order reduction, derived from the
    access graphs of [Cfc_analysis.Analyze].

    Two enabled steps commute when their (register, operation-class)
    footprints are disjoint or overlap read-only; a CAS or write on a
    register the other step touches always conflicts (CAS counts as a
    write even though a failed one records as a read — whether it
    succeeds depends on the interleaving).  The per-process graphs come
    from a {e bounded} symbolic exploration, so they may under-cover a
    process's behavior under contention; the {!tracker} therefore
    follows every process's position in its own graph and permanently
    degrades it to "unknown" (every query answers [None]/conservative)
    the moment an observed access fails to match — from then on the
    exploration treats that process as conflicting with everything.
    End-to-end soundness is anchored the way the engine-equivalence
    suite anchors the incremental engine: reduced and unreduced
    verdicts are asserted identical over the whole registry and the
    broken fixtures, and static independence is qcheck-validated
    against dynamic commutation on live schedulers.

    Models describe the system the checker actually runs: the mutex
    constructor analyzes [Subjects.of_mutex_checked] (the harness arena
    {e with} the critical-section witness register), so footprint bit
    positions equal the checked system's register ids. *)

(** A step footprint: registers possibly read / possibly written, as
    bitmasks over register ids in allocation order. *)
type fp = { f_read : int; f_write : int }

val fp_empty : fp
val fp_union : fp -> fp -> fp

val conflict : fp -> fp -> bool
(** May the two steps fail to commute — some register is written by one
    and touched by the other? *)

val fp_of_access :
  ?changed:bool -> reg:int -> Cfc_runtime.Event.access_kind -> fp
(** Footprint of one executed access (CAS always a write).
    [~changed:false] records that the access is known to have left every
    register value as it was — a failed CAS, an exchange returning the
    value it stored, a re-write of the current value.  Such an access is
    dynamically read-only: reordering it across any step that does not
    change what it read yields the same memory and the same local
    outcome, so its footprint carries no write bit. *)

val class_of_kind : Cfc_runtime.Event.access_kind -> string
(** The dynamic access's [Sym_mem.op_class] — the op-class name the
    analyzer writes on graph nodes. *)

val class_code : Cfc_runtime.Event.access_kind -> int
(** The op class as a small int in [0, 13): the five word operations,
    then the eight bit operations by {!Cfc_base.Ops.to_index}.  Two kinds
    share a code exactly when they share a {!class_of_kind} name — the
    node-matching key of the tracker. *)

val code_of_class : string -> int
(** The code of a class name, so [code_of_class (class_of_kind k) =
    class_code k]; [-1] for a name no access kind has. *)

type t
(** Per-process static models for one checked system ([None] for a
    process whose graph was unusable: empty, no entry node, or register
    ids beyond bitmask range). *)

val usable : t -> bool
(** At least one process has a model (otherwise the hint is pure
    overhead). *)

val mutex :
  ?config:Cfc_analysis.Analyze.config ->
  Cfc_mutex.Registry.alg ->
  Cfc_mutex.Mutex_intf.params ->
  t option
(** Analyze the checked mutex arena (algorithm + witness register) and
    build the independence hint.  [None] when the algorithm does not
    support the parameters, the analysis fails, or no per-process model
    is usable — callers just omit the hint then. *)

val detector :
  ?config:Cfc_analysis.Analyze.config ->
  Cfc_mutex.Registry.detector ->
  Cfc_mutex.Mutex_intf.params ->
  t option

val of_report : Cfc_analysis.Analyze.report -> t
(** Models straight from an existing analysis report (the report must
    describe the very system being checked — same process bodies, same
    register allocation order). *)

(** {1 Dynamic position tracking}

    The tracker answers questions about a process's {e next} step only.
    There is deliberately no static answer to the question the
    checker's singleton-ample probe asks — may the other processes,
    running on their own, reach an access that conflicts with the chosen
    step?  A shortcut that answered it from the graphs (every other
    runnable process's graph-reachable footprint conflict-free ⇒ skip
    the probe) would change the search: the graphs come from a bounded
    symbolic exploration that can under-cover contended behaviour — the
    tracker notices an uncovered access only after it has executed — and
    the probe also fails when the others-only subsystem outgrows its
    node budget.  Measured on the checker's own workload: on
    peterson-2p-tournament n=4 (POR + symmetry), 9 of the 1,201 invisible
    probes where every other runnable process's graph future was
    conflict-free still returned false; on tree-lamport n=3 the
    condition held for only 1,594 of 52,819 probes, so it would not have
    paid either. *)

type tracker
type snap

val track : t -> nprocs:int -> tracker
(** Fresh tracker with every process at its graph entry (processes
    beyond the model count are unknown from the start).  Each tracker
    interns its own position sets and memoises its own transitions, so
    one [t] may back trackers in several domains at once. *)

val observe :
  tracker -> pid:int -> reg:int -> kind:Cfc_runtime.Event.access_kind -> unit
(** Advance [pid] by one executed access.  An access matching no
    candidate node degrades the process to unknown, permanently. *)

val cycle_member :
  tracker -> pid:int -> reg:int -> kind:Cfc_runtime.Event.access_kind -> bool
(** Does the access's (register, op class) appear on a detected
    busy-wait cycle of [pid]'s graph?  Occurrence-independent (the
    dynamic search prunes spin unrolling long before the occurrence
    indices the symbolic engine flagged) — the gate for the spin-history
    canonicalization. *)

val next_fp : tracker -> int -> fp option
(** Union footprint of the process's possible next accesses; [None] if
    unknown. *)

val known : tracker -> int -> bool
(** Is the process still tracked (not degraded to unknown)?  The
    reduction refuses to build a singleton ample set around an
    unanalyzable process — it falls back to full expansion instead. *)

val snapshot : tracker -> snap
(** O(nprocs): the positions only (interned ids stay valid forever). *)

val restore : tracker -> snap -> unit
(** Put every process back where the snapshot saw it — including a
    process that degraded to unknown since. *)
